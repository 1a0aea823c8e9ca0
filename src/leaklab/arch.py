"""Architectural (contract-level) simulator.

Executes programs sequentially over a 4096-byte sandbox and produces contract
traces: the observation sequence an idealized in-order machine exposes. Under
the CT_COND contract the not-taken direction of each conditional branch is
additionally explored for a bounded number of instructions.

Semantics (64-bit, documented subset):
  SBB dst, src   dst <- dst - src - CF (wrapping); CF = borrow out;
                 SF = sign bit of result; ZF = (result == 0)
  IMUL dst, src  dst <- low 64 bits of the signed product; CF = 1 iff the
                 full product does not fit in 64 bits; SF/ZF from result
  JNS d          taken iff SF == 0
  JMP d          always taken
Memory operands address ``(index register mod 4096) & ~7`` and move 8 bytes
little-endian. A memory destination is a read-modify-write and observes both
the load and the store. Taken branches set pc to clamp(pc + d, 0, n); the
emitted PC observation records the raw (unclamped) target so that a program's
trace is insensitive to instructions appended after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .isa import KIND_JMP, KIND_JNS, KIND_SBB, MEM_DST, MEM_NONE, MEM_SRC, Program

__all__ = [
    "SANDBOX_SIZE",
    "MASK64",
    "DEFAULT_STEP_BUDGET",
    "NON_TERMINATING",
    "NonTerminating",
    "ContractMode",
    "ContractSpec",
    "Input",
    "ArchState",
    "TracePoint",
    "Xorshift64Star",
    "mix64",
    "stream_seed",
    "contract_trace",
    "generate_inputs",
    "input_from_seed",
    "dump_input",
    "load_input",
]

SANDBOX_SIZE = 4096
MASK64 = (1 << 64) - 1
_ADDR_MASK = (SANDBOX_SIZE - 1) & ~7
DEFAULT_STEP_BUDGET = 10_000

# Contract observation tags. A trace is a tuple of
# ("L", addr) | ("S", addr) | ("P", raw_target, taken_bit) tuples.
OBS_LOAD = "L"
OBS_STORE = "S"
OBS_PC = "P"


class NonTerminating:
    """Distinguished result: the step budget ran out before the program halted."""

    def __repr__(self) -> str:
        return "NonTerminating"


NON_TERMINATING = NonTerminating()


class ContractMode(Enum):
    CT_SEQ = "ct-seq"
    CT_COND = "ct-cond"


@dataclass(frozen=True)
class ContractSpec:
    """Which observations the contract exposes. CT_SEQ sees the sequential
    path only; CT_COND also sees up to `spec_depth` instructions down the
    not-taken direction of each conditional branch; branches on that
    explored path are not explored in turn."""

    mode: ContractMode = ContractMode.CT_SEQ
    spec_depth: int = 8

    def __post_init__(self):
        if self.mode is ContractMode.CT_COND and self.spec_depth < 1:
            raise ConfigError("CT_COND requires spec_depth >= 1")

    @property
    def name(self) -> str:
        if self.mode is ContractMode.CT_SEQ:
            return self.mode.value
        return f"{self.mode.value}:{self.spec_depth}"

    @classmethod
    def from_name(cls, name: str) -> "ContractSpec":
        """Inverse of `name`: "ct-seq", "ct-cond" (default depth) or
        "ct-cond:N" with N >= 1."""
        mode, sep, depth = name.partition(":")
        if mode == ContractMode.CT_SEQ.value and not sep:
            return cls(ContractMode.CT_SEQ)
        if mode == ContractMode.CT_COND.value:
            if not sep:
                return cls(ContractMode.CT_COND)
            if depth.isascii() and depth.isdigit():
                return cls(ContractMode.CT_COND, int(depth))
        raise ConfigError(f"unknown contract {name!r}")


@dataclass(frozen=True)
class Input:
    """Initial register and sandbox-memory contents, plus the generator seed
    the input was expanded from (0 for hand-built inputs)."""

    r0: int
    r1: int
    r2: int
    mem: bytes
    seed: int = 0

    def __post_init__(self):
        if len(self.mem) != SANDBOX_SIZE:
            raise ValueError(f"input memory must be {SANDBOX_SIZE} bytes")


# Reset flag state: SF set, CF/ZF clear. With SF set, a conditional branch
# whose flags were never written falls through, which agrees with the
# predictor's weakly-not-taken reset; misspeculation therefore requires the
# program to actually clear SF.
RESET_SF = 1
RESET_CF = 0
RESET_ZF = 0


class ArchState:
    """Mutable architectural state. BASE is pinned to 0; addresses are
    sandbox offsets."""

    __slots__ = ("regs", "sf", "cf", "zf", "pc", "mem")

    def __init__(self, regs, sf, cf, zf, pc, mem):
        self.regs = regs  # [r0, r1, r2, base]
        self.sf = sf
        self.cf = cf
        self.zf = zf
        self.pc = pc
        self.mem = mem  # bytearray(SANDBOX_SIZE)

    @classmethod
    def from_input(cls, inp: Input) -> "ArchState":
        return cls(
            regs=[inp.r0 & MASK64, inp.r1 & MASK64, inp.r2 & MASK64, 0],
            sf=RESET_SF,
            cf=RESET_CF,
            zf=RESET_ZF,
            pc=0,
            mem=bytearray(inp.mem),
        )

    def copy(self) -> "ArchState":
        return ArchState(self.regs[:], self.sf, self.cf, self.zf, self.pc, bytearray(self.mem))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArchState):
            return NotImplemented
        return (
            self.regs == other.regs
            and self.sf == other.sf
            and self.cf == other.cf
            and self.zf == other.zf
            and self.pc == other.pc
            and self.mem == other.mem
        )

    def __repr__(self) -> str:
        return (
            f"ArchState(pc={self.pc}, regs={[hex(r) for r in self.regs]}, "
            f"sf={self.sf}, cf={self.cf}, zf={self.zf})"
        )


def step_instruction(state, instr, n, undo_log=None):
    """Execute one instruction in place and return its observations.

    `n` is the program length used for branch-target clamping. When
    `undo_log` is given, memory writes append (addr, old bytes) so a caller
    can roll the store back.
    """
    kind, dst, src, mem_operand, disp = instr.decoded
    if kind <= KIND_JNS:
        taken = 1 if (kind == KIND_JMP or state.sf == 0) else 0
        raw_target = state.pc + disp
        if taken:
            state.pc = min(max(raw_target, 0), n)
        else:
            state.pc += 1
        return ((OBS_PC, raw_target, taken),)

    # ALU: resolve operands. Registers are non-negative 64-bit values, so
    # `& _ADDR_MASK` is `(reg mod SANDBOX_SIZE) & ~7`.
    regs = state.regs
    mem = state.mem
    if mem_operand == MEM_SRC:
        addr = regs[src] & _ADDR_MASK
        s = int.from_bytes(mem[addr : addr + 8], "little")
        d = regs[dst]
    elif mem_operand == MEM_DST:
        addr = regs[dst] & _ADDR_MASK
        d = int.from_bytes(mem[addr : addr + 8], "little")
        s = regs[src]
    else:
        s = regs[src]
        d = regs[dst]

    if kind == KIND_SBB:
        borrow = s + state.cf
        res = (d - borrow) & MASK64
        cf = 1 if borrow > d else 0
    else:  # IMUL on the signed values
        if d >> 63:
            d -= 1 << 64
        if s >> 63:
            s -= 1 << 64
        prod = d * s
        res = prod & MASK64
        cf = 0 if -(1 << 63) <= prod < (1 << 63) else 1

    state.cf = cf
    state.sf = res >> 63
    state.zf = 1 if res == 0 else 0
    state.pc += 1

    if mem_operand == MEM_NONE:
        regs[dst] = res
        return ()
    if mem_operand == MEM_SRC:
        regs[dst] = res
        return ((OBS_LOAD, addr),)
    if undo_log is not None:
        undo_log.append((addr, bytes(mem[addr : addr + 8])))
    mem[addr : addr + 8] = res.to_bytes(8, "little")
    return ((OBS_LOAD, addr), (OBS_STORE, addr))


class TracePoint(NamedTuple):
    """Where a terminating `contract_trace` run of a program P can be resumed
    for any program that extends P: the run's full state at the start of the
    first committed step in which some path moved to a pc >= len(P) (see
    `contract_trace`)."""

    state: ArchState
    trace: tuple
    steps: int
    snapshot: tuple | None  # the cycle check's state
    moves: int
    period: int


def contract_trace(
    p: Program,
    inp: Input,
    contract: ContractSpec = ContractSpec(),
    step_budget: int = DEFAULT_STEP_BUDGET,
    resume: TracePoint | None = None,
    capture: list | None = None,
):
    """Contract trace of `p` on `inp`, or NON_TERMINATING if the budget runs
    out before the program falls off the end.

    A run that provably repeats returns NON_TERMINATING before the budget is
    spent. The run is a deterministic function of the full architectural
    state (pc, registers, flags, memory); CT_COND exploration restores that
    state. So once the state at some step equals the state at an earlier
    step, the run cycles between them forever and never halts, and running
    on would exhaust any budget. Only a non-forward move (a taken branch
    whose clamped target is at or before it) can revisit a pc, so states are
    compared there alone, against one snapshot retaken after 1, 2, 4, ...
    such moves (Brent's cycle detection): memory stays O(1), a forward step
    costs one integer comparison, and a cycle is found within a small
    multiple of its length plus the steps before it.

    `capture`, when given, is a list to which the run's TracePoint is
    appended if the run terminates; `resume`, when given, is a TracePoint
    that such a run of a prefix of `p` captured, and the run starts there
    instead of at the reset state of `inp`. Resuming is exact. The runs of
    P and of P + Q agree step for step until some path (the committed path
    or a CT_COND explored path) first moves to a pc >= len(P): before that
    every instruction fetched lies in P, and every clamped branch target
    below len(P) is the same for both lengths. The point is the full state
    at the start of that committed step, Brent's snapshot, move count and
    period included, so the cycle check also goes on as it would have. It
    is taken afterwards: a branch changes only the pc (and its exploration
    rolls back), so rewinding the pc and the trace recovers the state before
    it; an ALU instruction at len(P) - 1 gives the state after it, which P +
    Q reaches too. A branch whose raw target exceeds len(P) is resumed from
    before it, because P + Q clamps that target differently.
    """
    if step_budget < 1:
        raise ConfigError("step_budget must be >= 1")
    instrs = p.instrs
    n = len(instrs)
    explore = contract.mode is ContractMode.CT_COND
    if resume is None:
        state = ArchState.from_input(inp)
        trace: list = []
        steps = 0
        snapshot = None
        moves = 0  # non-forward moves since the snapshot
        period = 1  # the snapshot is retaken after this many; doubles each time
    else:
        state, trace, steps, snapshot, moves, period = resume
        state = state.copy()
        trace = list(trace)
    point = instr = None
    while state.pc < n:
        if steps >= step_budget:
            return NON_TERMINATING
        instr = instrs[state.pc]
        branch_pc = state.pc
        obs = step_instruction(state, instr, n)
        trace.extend(obs)
        if explore and instr.decoded[0] == KIND_JNS:
            taken = obs[0][2]
            other = branch_pc + 1 if taken else min(max(branch_pc + instr.disp, 0), n)
            before = len(trace) - 1
            reached = _explore_other_path(instrs, state, other, contract.spec_depth, n, trace)
            if capture is not None and point is None and (reached or state.pc >= n):
                start = state.copy()
                start.pc = branch_pc
                point = TracePoint(start, tuple(trace[:before]), steps, snapshot, moves, period)
        steps += 1
        if state.pc <= branch_pc:
            if snapshot == (state.pc, state.regs, state.sf, state.cf, state.zf, state.mem):
                return NON_TERMINATING
            moves += 1
            if moves == period:
                snapshot = (state.pc, state.regs[:], state.sf, state.cf, state.zf, bytes(state.mem))
                moves = 0
                period *= 2
    trace = tuple(trace)
    if capture is not None:
        if point is None:
            # The committed path left the program in the last step, a
            # forward move that left the cycle check as it was.
            rewind = instr is not None and instr.decoded[0] <= KIND_JNS
            if rewind:
                state.pc = branch_pc
            point = TracePoint(state, trace[: len(trace) - rewind], steps - rewind, snapshot, moves, period)
        capture.append(point)
    return trace


def _explore_other_path(instrs, state, start_pc, depth, n, trace):
    """Run up to `depth` instructions down the unexecuted branch direction,
    appending their observations, then restore the architectural state.
    Returns whether the path moved to a pc >= n."""
    saved = (state.regs[:], state.sf, state.cf, state.zf, state.pc)
    undo: list = []
    state.pc = start_pc
    for _ in range(depth):
        if state.pc >= n:
            break
        trace.extend(step_instruction(state, instrs[state.pc], n, undo))
    reached = state.pc >= n
    for addr, old in reversed(undo):
        state.mem[addr : addr + 8] = old
    state.regs, state.sf, state.cf, state.zf, state.pc = saved
    return reached


# --- deterministic input generation ---------------------------------------

_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """splitmix64 finalizer: the documented bit mixer behind input expansion."""
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def stream_seed(master: int, index: int) -> int:
    """Per-stream seed derivation: mix64(master XOR mix64((index+1)*GOLDEN))."""
    return mix64((master & MASK64) ^ mix64(((index + 1) * _GOLDEN) & MASK64))


_XS_MULT = 0x2545F4914F6CDD1D
# Longest expansion served by the jump table: one sandbox of 64-bit words.
_JUMP_WORDS = SANDBOX_SIZE // 8
_NIBBLE_POS = np.arange(16)


def _xorshift_step(x):
    """The xorshift64 state transition, on an int or a uint64 array."""
    x = x ^ (x >> 12)
    x = x ^ ((x << 25) & MASK64)
    return x ^ (x >> 27)


@cache
def _jump_table() -> np.ndarray:
    """table[i, v, k] = state after k+1 steps from the state (v << 4i).

    The state transition is linear over GF(2), so the state k+1 steps after
    any x is the XOR over its 16 nibbles of table[i, nibble_i(x), k].
    """
    start = np.arange(16, dtype=np.uint64)[None, :] << (4 * np.arange(16, dtype=np.uint64))[:, None]
    table = np.empty((16, 16, _JUMP_WORDS), dtype=np.uint64)
    x = start
    for k in range(_JUMP_WORDS):
        x = _xorshift_step(x)
        table[:, :, k] = x
    table.flags.writeable = False
    return table


class Xorshift64Star:
    """xorshift64* generator: x ^= x>>12; x ^= x<<25; x ^= x>>27;
    output = x * 0x2545F4914F6CDD1D. State is seeded through mix64 so any
    64-bit seed (including 0) is usable."""

    __slots__ = ("seed", "state")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        state = mix64(self.seed)
        self.state = state if state != 0 else _GOLDEN

    def next_u64(self) -> int:
        x = _xorshift_step(self.state)
        self.state = x
        return (x * _XS_MULT) & MASK64

    def next_bytes(self, count: int) -> bytes:
        """The next count/8 outputs as little-endian bytes, leaving the state
        where as many next_u64 calls would. Up to one sandbox of words comes
        from the jump table at once."""
        if count % 8:
            raise ValueError("count must be a multiple of 8")
        words = count // 8
        if not 0 < words <= _JUMP_WORDS:
            out = bytearray()
            for _ in range(words):
                out += self.next_u64().to_bytes(8, "little")
            return bytes(out)
        x = self.state
        nibbles = [(x >> shift) & 15 for shift in range(0, 64, 4)]
        states = np.bitwise_xor.reduce(_jump_table()[_NIBBLE_POS, nibbles, :words], axis=0)
        self.state = int(states[-1])
        return (states * np.uint64(_XS_MULT)).astype("<u8").tobytes()


def input_from_seed(seed: int) -> Input:
    """Expand one Input from its own stream seed: three register words, then
    4096 memory bytes as 512 little-endian 64-bit words."""
    rng = Xorshift64Star(seed)
    r0, r1, r2 = rng.next_u64(), rng.next_u64(), rng.next_u64()
    return Input(r0=r0, r1=r1, r2=r2, mem=rng.next_bytes(SANDBOX_SIZE), seed=seed)


def generate_inputs(seed: int, count: int) -> list[Input]:
    """Expand `count` inputs deterministically from `seed`. The relational
    detector needs pairs, so count must be at least 2."""
    if count < 2:
        raise ConfigError("input count must be >= 2 (the detector compares pairs)")
    return [input_from_seed(stream_seed(seed, i)) for i in range(count)]


def dump_input(inp: Input) -> bytes:
    """Binary form: 3 x 8 bytes little-endian registers, then 4096 memory bytes."""
    head = b"".join(r.to_bytes(8, "little") for r in (inp.r0, inp.r1, inp.r2))
    return head + inp.mem


def load_input(blob: bytes) -> Input:
    if len(blob) != 24 + SANDBOX_SIZE:
        raise ValueError(f"input file must be {24 + SANDBOX_SIZE} bytes, got {len(blob)}")
    r0, r1, r2 = (int.from_bytes(blob[i : i + 8], "little") for i in (0, 8, 16))
    return Input(r0=r0, r1=r1, r2=r2, mem=blob[24:], seed=0)

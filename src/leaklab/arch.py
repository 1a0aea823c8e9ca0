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

import struct
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .isa import KIND_JMP, KIND_JNS, KIND_SBB, MEM_DST, MEM_NONE, MEM_SRC, Program

__all__ = [
    "SANDBOX_SIZE",
    "MASK64",
    "DEFAULT_STEP_BUDGET",
    "NON_TERMINATING",
    "REJECTED",
    "Rejected",
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
    "load_input",
]

SANDBOX_SIZE = 4096
MASK64 = (1 << 64) - 1
_ADDR_MASK = (SANDBOX_SIZE - 1) & ~7
# one little-endian 64-bit word at a byte offset
_WORD = struct.Struct("<Q")
_load_word = _WORD.unpack_from
DEFAULT_STEP_BUDGET = 10_000

# Contract observation tags. A trace is a tuple of
# ("L", addr) | ("S", addr) | ("P", raw_target, taken_bit) tuples.
OBS_LOAD = "L"
OBS_STORE = "S"
OBS_PC = "P"


class Rejected:
    """Distinguished result: some run exhausted its simulator's budget or
    provably never halts, so the program is treated as non-terminating."""

    def __repr__(self) -> str:
        return "Rejected"


REJECTED = Rejected()
# perfbench's tracer reads this name
NON_TERMINATING = REJECTED


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
        if not (0 <= self.r0 <= MASK64 and 0 <= self.r1 <= MASK64 and 0 <= self.r2 <= MASK64):
            raise ValueError("input registers must lie in [0, 2**64)")


# Reset flag state: SF set, CF/ZF clear. With SF set, a conditional branch
# whose flags were never written falls through, which agrees with the
# predictor's weakly-not-taken reset; misspeculation therefore requires the
# program to actually clear SF.
RESET_SF = 1
RESET_CF = 0
RESET_ZF = 0


class ArchState:
    """Mutable architectural state. BASE is pinned to 0; addresses are
    sandbox offsets. Memory has two parts: `mem`, the bytes of the input the
    run started from, which no run writes, and `written`, which maps every
    address a committed store wrote to the 64-bit word there now. A load
    reads `written` first and `mem` otherwise; a store writes `written`
    alone. An excursion (a mispredicted window, a CT_COND explored path)
    runs on a copy of `written` and puts the original back. A resume
    point's state holds no memory (`mem` is None): a run resumed from it
    takes its own input's bytes."""

    __slots__ = ("regs", "sf", "cf", "zf", "pc", "mem", "written")

    def __init__(self, regs, sf, cf, zf, pc, mem, written=None):
        self.regs = regs  # [r0, r1, r2, base]
        self.sf = sf
        self.cf = cf
        self.zf = zf
        self.pc = pc
        self.mem = mem  # SANDBOX_SIZE bytes, or None in a resume point
        self.written = {} if written is None else written

    @classmethod
    def from_input(cls, inp: Input) -> "ArchState":
        regs = [inp.r0, inp.r1, inp.r2, 0]
        return cls(regs, RESET_SF, RESET_CF, RESET_ZF, 0, bytes(inp.mem))

    def copy(self, mem: bytes | None) -> "ArchState":
        """A copy that shares nothing mutable, with `mem` as its memory: None
        for a resume point, its input's bytes for a run resumed from one."""
        return ArchState(self.regs[:], self.sf, self.cf, self.zf, self.pc, mem, dict(self.written))

    def load(self, addr: int) -> int:
        """The 64-bit word at the 8-aligned sandbox offset `addr`."""
        word = self.written.get(addr)
        return _load_word(self.mem, addr)[0] if word is None else word

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArchState):
            return NotImplemented
        return (
            self.regs == other.regs
            and self.sf == other.sf
            and self.cf == other.cf
            and self.zf == other.zf
            and self.pc == other.pc
            and (
                (self.mem == other.mem and self.written == other.written)
                or all(self.load(addr) == other.load(addr) for addr in range(0, SANDBOX_SIZE, 8))
            )
        )

    def __repr__(self) -> str:
        return (
            f"ArchState(pc={self.pc}, regs={[hex(r) for r in self.regs]}, "
            f"sf={self.sf}, cf={self.cf}, zf={self.zf})"
        )


# One observation tuple per 8-aligned address, shared by every trace.
_LOAD_OBS = tuple(((OBS_LOAD, addr),) for addr in range(0, SANDBOX_SIZE, 8))
_RMW_OBS = tuple(((OBS_LOAD, addr), (OBS_STORE, addr)) for addr in range(0, SANDBOX_SIZE, 8))


def step_instruction(state, instr, n):
    """Execute one instruction in place and return its observations.

    `n` is the program length used for branch-target clamping. A load reads
    the word in `state.written` if there is one, else the input's bytes in
    `state.mem`; a store writes `state.written` alone. Load and
    read-modify-write observations are shared tuples, one per address.
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
    written = state.written
    if mem_operand == MEM_SRC:
        addr = regs[src] & _ADDR_MASK
        s = written[addr] if addr in written else _load_word(state.mem, addr)[0]
        d = regs[dst]
    elif mem_operand == MEM_DST:
        addr = regs[dst] & _ADDR_MASK
        d = written[addr] if addr in written else _load_word(state.mem, addr)[0]
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
        return _LOAD_OBS[addr >> 3]
    written[addr] = res
    return _RMW_OBS[addr >> 3]


class TracePoint(NamedTuple):
    """Where a terminating `contract_trace` run of a program P can be resumed
    for any program that extends P: the run's state, trace and step count at
    the start of the first committed step in which some path moved to a pc
    >= len(P) (see `contract_trace`), and the run's step count when it
    terminated. Its state holds no memory (see `ArchState`). It holds
    nothing of the cycle check, which a resumed run starts afresh."""

    state: ArchState
    trace: tuple
    steps: int
    run_steps: int


# No instruction has this kind: a CT_COND explored path stops only at its
# depth or at the program's end.
_NO_STOP = -1


def contract_trace(
    p: Program,
    inp: Input,
    contract: ContractSpec = ContractSpec(),
    step_budget: int = DEFAULT_STEP_BUDGET,
    resume: TracePoint | None = None,
    capture: list | None = None,
):
    """Contract trace of `p` on `inp`, or REJECTED if the budget runs
    out before the program falls off the end.

    A run that provably repeats returns REJECTED before the budget is
    spent. The run is a deterministic function of the full architectural
    state (pc, registers, flags, memory); CT_COND exploration restores that
    state. So once the state at some step equals the state at an earlier
    step, the run cycles between them forever and never halts, and running
    on would exhaust any budget. Only a non-forward move (a taken branch
    whose clamped target is at or before it) can revisit a pc, so states are
    compared there alone, against one snapshot retaken after 1, 2, 4, ...
    such moves (Brent's cycle detection): memory stays O(1), a forward step
    costs one integer comparison, and a cycle is found within a small
    multiple of its length plus the steps before it. Memory is compared
    through the write log `written`: equal logs mean equal memory, and one
    period after a run starts repeating it writes no new address, so from
    there on equal memory means equal logs.

    `capture`, when given, is a list to which the run's TracePoint, with
    the run's final step count, is appended if the run terminates;
    `resume`, when given, is a TracePoint that such a run of a prefix of `p`
    captured, and the run starts there instead of at the reset state of
    `inp`. Resuming is exact. The runs of P and of P + Q agree step for
    step until some path (the committed path or a CT_COND explored path)
    first moves to a pc >= len(P): before that every instruction fetched
    lies in P, and every clamped branch target below len(P) is the same for
    both lengths. The point is the state, trace
    and step count at the start of that committed step. It is taken
    afterwards: a branch changes only the pc (and its exploration rolls
    back), so rewinding the pc and the trace recovers the state before it;
    an ALU instruction at len(P) - 1 gives the state after it, which P + Q
    reaches too. A branch whose raw target exceeds len(P) is resumed from
    before it, because P + Q clamps that target differently.

    A resumed run starts the cycle check afresh at the point, and still
    returns what the run from the reset returns. The check reports only a
    repeat of the whole state, which proves that the run never halts; so it
    decides how soon REJECTED comes, never whether. A snapshot taken
    after the point is a state of the same run, and comparing write logs is
    sound from any start. The step count, which the budget reads, still
    counts from the reset.
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
    else:
        state, trace, steps, _ = resume
        state = state.copy(bytes(inp.mem))
        trace = list(trace)
    snapshot = None
    moves = 0  # non-forward moves since the snapshot
    period = 1  # the snapshot is retaken after this many; doubles each time
    point = instr = None
    while state.pc < n:
        if steps >= step_budget:
            return REJECTED
        instr = instrs[state.pc]
        branch_pc = state.pc
        obs = step_instruction(state, instr, n)
        trace.extend(obs)
        if explore and instr.decoded[0] == KIND_JNS:
            taken = obs[0][2]
            other = branch_pc + 1 if taken else min(max(branch_pc + instr.disp, 0), n)
            before = len(trace) - 1
            _, reached = excursion(instrs, state, other, contract.spec_depth, n, _NO_STOP, trace)
            if capture is not None and point is None and (reached or state.pc >= n):
                start = state.copy(None)
                start.pc = branch_pc
                point = (start, tuple(trace[:before]), steps)
        steps += 1
        if state.pc <= branch_pc:
            if snapshot == (state.pc, state.regs, state.sf, state.cf, state.zf, state.written):
                return REJECTED
            moves += 1
            if moves == period:
                snapshot = (state.pc, state.regs[:], state.sf, state.cf, state.zf, dict(state.written))
                moves = 0
                period *= 2
    trace = tuple(trace)
    if capture is not None:
        if point is None:
            # The committed path left the program in the last step.
            rewind = instr is not None and instr.decoded[0] <= KIND_JNS
            if rewind:
                state.pc = branch_pc
            state.mem = None
            point = (state, trace[: len(trace) - rewind], steps - rewind)
        capture.append(TracePoint(*point, steps))
    return trace


def excursion(instrs, state, pc, depth, n, stop, out):
    """Run up to `depth` instructions from `pc` on a copy of the write log,
    appending their observations to `out`, and stop early at the program's
    end or before an instruction of kind `stop`; then restore the registers,
    flags, pc and write log. A mispredicted window stops at the next
    conditional branch (`stop` is KIND_JNS); a CT_COND explored path runs
    through branches without exploring them (`stop` is no kind). Returns
    (instructions run, whether the path moved to a pc >= n)."""
    saved = (state.regs[:], state.sf, state.cf, state.zf, state.pc, state.written)
    state.written = dict(state.written)
    state.pc = pc
    ran = 0
    while ran < depth and state.pc < n and instrs[state.pc].decoded[0] != stop:
        out.extend(step_instruction(state, instrs[state.pc], n))
        ran += 1
    reached = state.pc >= n
    state.regs, state.sf, state.cf, state.zf, state.pc, state.written = saved
    return ran, reached


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


# Boosting expands each sibling stream's sandbox again at every boosted
# step, and an env has inputs x boosts_per_input streams (40 by default), so
# next_bytes keeps the 64 most recently used expansions, at most 4 KB each.
@lru_cache(maxsize=64)
def _expand(x: int, count: int) -> tuple[bytes, int]:
    """The next count/8 outputs from state `x` as little-endian bytes, and
    the state after them, read off the jump table at once."""
    nibbles = [(x >> shift) & 15 for shift in range(0, 64, 4)]
    states = np.bitwise_xor.reduce(_jump_table()[_NIBBLE_POS, nibbles, : count // 8], axis=0)
    return (states * np.uint64(_XS_MULT)).astype("<u8").tobytes(), int(states[-1])


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
        where as many next_u64 calls would. `count` is a multiple of 8 up to
        one sandbox; the words come from the jump table at once, or from a
        memo of recent expansions keyed by (state, count)."""
        if count % 8 or not 0 < count <= SANDBOX_SIZE:
            raise ValueError(f"count must be a multiple of 8 in 8..{SANDBOX_SIZE}")
        data, self.state = _expand(self.state, count)
        return data


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


def load_input(blob: bytes) -> Input:
    """Parse the binary input form: 3 x 8 bytes little-endian registers,
    then 4096 memory bytes."""
    if len(blob) != 24 + SANDBOX_SIZE:
        raise ValueError(f"input file must be {24 + SANDBOX_SIZE} bytes, got {len(blob)}")
    r0, r1, r2 = (int.from_bytes(blob[i : i + 8], "little") for i in (0, 8, 16))
    return Input(r0=r0, r1=r1, r2=r2, mem=blob[24:], seed=0)

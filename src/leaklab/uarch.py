"""Speculative hardware model.

Models an in-order front end with conditional-branch prediction, bounded
transient execution with rollback, a Prime+Probe-observable data cache, and
performance counters.

Execution model: instructions issue in order. A conditional branch is
predicted by a 64-entry table of 2-bit saturating counters (indexed by the
branch's instruction index mod 64), the architectural state is checkpointed,
and issue continues along the predicted path. Every issued instruction
updates the cache immediately; register/memory effects land in the live
(shadow) state. The branch resolves after `window` further issues, at
program end, or as soon as another conditional branch is fetched (one
in-flight branch at a time). A correct prediction retires the window; a
misprediction rolls the shadow state back, redirects to the correct path,
and leaves the squashed instructions issued-but-not-retired. Cache effects
of squashed instructions persist: that persistence is the side channel.

The cache is direct-mapped, 64 sets x 64-byte lines, covering the 4096-byte
sandbox exactly. Reset primes every set with an attacker line; the probe
after a run reports which sets now hold a victim line. The probe vector is a
64-bit int with bit s set iff set s was evicted by the program's accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .arch import (
    DEFAULT_STEP_BUDGET,
    NON_TERMINATING,
    ArchState,
    ContractSpec,
    Input,
    contract_trace,
    step_instruction,
)
from .errors import ConfigError
from .isa import KIND_JNS, Program

__all__ = [
    "PHT_SIZE",
    "CACHE_SETS",
    "LINE_BYTES",
    "REJECTED",
    "Rejected",
    "SpecConfig",
    "PerfCounters",
    "MicroArchState",
    "HwResult",
    "InputObservation",
    "reset_state",
    "hw_run",
    "observe",
    "htrace_hex",
    "cache_set",
]

PHT_SIZE = 64
CACHE_SETS = 64
LINE_BYTES = 64


class Rejected:
    """Distinguished result: some input made a simulator exceed its budget,
    so the program is treated as (potentially) non-terminating."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Rejected"


REJECTED = Rejected()


@dataclass(frozen=True)
class SpecConfig:
    """Speculation parameters: `window` is the number of instructions issued
    past an unresolved branch (0 disables speculation); `nesting` is the
    number of in-flight branches (only 1 is modeled)."""

    window: int = 8
    nesting: int = 1

    def __post_init__(self):
        if self.window < 0:
            raise ConfigError("speculation window must be >= 0")
        if self.nesting != 1:
            raise ConfigError("only nesting=1 is modeled")


@dataclass
class PerfCounters:
    br_misses: int = 0
    uops_issued: int = 0
    uops_retired: int = 0

    @property
    def tran_uops(self) -> int:
        return self.uops_issued - self.uops_retired


@dataclass
class MicroArchState:
    """Cache + predictor state. `victim_bits` bit s = 1 iff cache set s holds
    a victim line (reset primes all sets with attacker lines, so 0)."""

    pht: list[int] = field(default_factory=lambda: [1] * PHT_SIZE)
    victim_bits: int = 0


def reset_state() -> MicroArchState:
    """Canonical reset: cache fully primed, every predictor counter weakly
    not-taken. Stands in for the physical flush-and-clobber procedure."""
    return MicroArchState()


def cache_set(addr: int) -> int:
    return addr // LINE_BYTES


def htrace_hex(htrace: int) -> str:
    return f"{htrace:016x}"


@dataclass
class HwResult:
    htrace: int
    counters: PerfCounters
    final_state: ArchState
    # Probe vector induced by committed accesses alone; equals the HTrace a
    # window=0 run would produce (transient accesses excluded).
    committed_htrace: int


class _Frame:
    """One unresolved conditional branch: restore point plus bookkeeping."""

    __slots__ = (
        "saved_regs",
        "saved_flags",
        "resume_pc",
        "branch_idx",
        "actual_taken",
        "mispredicted",
        "pending",
        "undo",
        "accesses",
    )

    def __init__(self, saved_regs, saved_flags, resume_pc, branch_idx, actual_taken, mispredicted):
        self.saved_regs = saved_regs
        self.saved_flags = saved_flags
        self.resume_pc = resume_pc
        self.branch_idx = branch_idx
        self.actual_taken = actual_taken
        self.mispredicted = mispredicted
        self.pending = 0
        self.undo: list = []
        self.accesses = 0


def _access_bits(obs) -> int:
    bits = 0
    for o in obs:
        if o[0] != "P":
            bits |= 1 << (o[1] // LINE_BYTES)
    return bits


def hw_run(
    p: Program,
    inp: Input,
    cfg: SpecConfig = SpecConfig(),
    budget: int = DEFAULT_STEP_BUDGET,
    micro: MicroArchState | None = None,
):
    """Run `p` on the speculative hardware model.

    Returns an HwResult, or NON_TERMINATING once more than `budget`
    instructions commit. The budget counts committed instructions only, so a
    program terminates here iff it terminates on the architectural simulator
    with the same budget.

    `micro` defaults to a fresh reset and is updated in place (predictor
    training and cache contents persist), so passing the same state across
    runs models consecutive measurements without a reset.
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    micro = reset_state() if micro is None else micro
    pht = micro.pht
    window = cfg.window
    instrs = p.instrs
    n = len(instrs)
    state = ArchState.from_input(inp)
    counters = PerfCounters()
    victim = micro.victim_bits
    committed_victim = micro.victim_bits
    committed = 0
    frame: _Frame | None = None

    while True:
        if frame is not None:
            if frame.pending >= window or state.pc >= n or instrs[state.pc].decoded[0] == KIND_JNS:
                # resolve the open branch
                idx = frame.branch_idx % PHT_SIZE
                if frame.actual_taken:
                    pht[idx] = min(pht[idx] + 1, 3)
                else:
                    pht[idx] = max(pht[idx] - 1, 0)
                if frame.mispredicted:
                    counters.br_misses += 1
                    for addr, old in reversed(frame.undo):
                        state.mem[addr : addr + 8] = old
                    state.regs = frame.saved_regs
                    state.sf, state.cf, state.zf = frame.saved_flags
                    state.pc = frame.resume_pc
                else:
                    counters.uops_retired += frame.pending
                    committed += frame.pending
                    committed_victim |= frame.accesses
                    if committed > budget:
                        return NON_TERMINATING
                frame = None
                continue
            # issue transiently into the shadow state
            instr = instrs[state.pc]
            counters.uops_issued += 1
            frame.pending += 1
            obs = step_instruction(state, instr, n, frame.undo)
            bits = _access_bits(obs)
            victim |= bits
            frame.accesses |= bits
            continue

        if state.pc >= n:
            break
        if committed >= budget:
            return NON_TERMINATING
        instr = instrs[state.pc]
        if instr.decoded[0] == KIND_JNS:
            counters.uops_issued += 1
            counters.uops_retired += 1
            committed += 1
            branch_idx = state.pc
            actual_taken = 1 if state.sf == 0 else 0
            target = min(max(branch_idx + instr.disp, 0), n)
            actual_next = target if actual_taken else branch_idx + 1
            predicted_taken = 1 if pht[branch_idx % PHT_SIZE] >= 2 else 0
            if window == 0:
                idx = branch_idx % PHT_SIZE
                if actual_taken:
                    pht[idx] = min(pht[idx] + 1, 3)
                else:
                    pht[idx] = max(pht[idx] - 1, 0)
                if predicted_taken != actual_taken:
                    counters.br_misses += 1
                state.pc = actual_next
                continue
            frame = _Frame(
                saved_regs=state.regs[:],
                saved_flags=(state.sf, state.cf, state.zf),
                resume_pc=actual_next,
                branch_idx=branch_idx,
                actual_taken=actual_taken,
                mispredicted=predicted_taken != actual_taken,
            )
            state.pc = target if predicted_taken else branch_idx + 1
            continue
        # plain issue (ALU or unconditional jump): commits immediately
        counters.uops_issued += 1
        counters.uops_retired += 1
        committed += 1
        obs = step_instruction(state, instr, n)
        bits = _access_bits(obs)
        victim |= bits
        committed_victim |= bits

    micro.victim_bits = victim
    return HwResult(
        htrace=victim,
        counters=counters,
        final_state=state,
        committed_htrace=committed_victim,
    )


@dataclass(frozen=True)
class InputObservation:
    """Per-input observation bundle: probe vector, contract trace, branch
    misses, transient micro-op count, plus the committed-only probe vector
    used for the observability check."""

    htrace: int
    ctrace: tuple
    br_misses: int
    tran_uops: int
    committed_htrace: int


def observe(
    p: Program,
    inputs: list[Input],
    contract: ContractSpec = ContractSpec(),
    cfg: SpecConfig = SpecConfig(),
    budget: int = DEFAULT_STEP_BUDGET,
):
    """Measure `p` on every input from a fresh microarchitectural reset.

    Returns one InputObservation per input, or REJECTED as soon as either
    simulator exhausts its budget on some input (the environment's
    infinite-loop guard).
    """
    if not inputs:
        raise ConfigError("observe needs at least one input")
    out: list[InputObservation] = []
    for inp in inputs:
        ct = contract_trace(p, inp, contract, budget)
        if ct is NON_TERMINATING:
            return REJECTED
        hw = hw_run(p, inp, cfg, budget, reset_state())
        if hw is NON_TERMINATING:
            return REJECTED
        out.append(
            InputObservation(
                htrace=hw.htrace,
                ctrace=ct,
                br_misses=hw.counters.br_misses,
                tran_uops=hw.counters.tran_uops,
                committed_htrace=hw.committed_htrace,
            )
        )
    return out

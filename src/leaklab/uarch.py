"""Speculative hardware model.

Models an in-order front end with conditional-branch prediction, bounded
transient execution with rollback, a Prime+Probe-observable data cache, and
performance counters.

Execution model: instructions issue and commit in order. A conditional
branch is predicted by a 64-entry table of 2-bit saturating counters
(indexed by the branch's instruction index mod 64), which the actual
direction updates at once. A correct prediction continues as committed code.
A misprediction runs the predicted path as one bounded excursion from a
checkpoint: up to `window` instructions issue, stopping early at program end
or at the next conditional branch (one branch in flight at a time); then
registers, flags and memory roll back and issue resumes on the correct path.
Squashed instructions count as issued but not retired, and their cache
effects persist: that persistence is the side channel.

The cache is direct-mapped, 64 sets x 64-byte lines, covering the 4096-byte
sandbox exactly. Reset primes every set with an attacker line; the probe
after a run reports which sets now hold a victim line. The probe vector is a
64-bit int with bit s set iff set s was evicted by the program's accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arch import (
    DEFAULT_STEP_BUDGET,
    NON_TERMINATING,
    OBS_PC,
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
    "HwResult",
    "InputObservation",
    "hw_run",
    "observe",
    "htrace_hex",
]

PHT_SIZE = 64
CACHE_SETS = 64
LINE_BYTES = 64


class Rejected:
    """Distinguished result: some input made a simulator exceed its budget,
    so the program is treated as (potentially) non-terminating."""

    def __repr__(self) -> str:
        return "Rejected"


REJECTED = Rejected()


@dataclass(frozen=True)
class SpecConfig:
    """Speculation parameters: `window` is the number of instructions issued
    past an unresolved branch (0 disables speculation). One branch is in
    flight at a time."""

    window: int = 8

    def __post_init__(self):
        if self.window < 0:
            raise ConfigError("speculation window must be >= 0")


@dataclass
class PerfCounters:
    br_misses: int = 0
    uops_issued: int = 0
    uops_retired: int = 0

    @property
    def tran_uops(self) -> int:
        return self.uops_issued - self.uops_retired


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


def _access_bits(obs) -> int:
    bits = 0
    for o in obs:
        if o[0] != OBS_PC:
            bits |= 1 << (o[1] // LINE_BYTES)
    return bits


def hw_run(
    p: Program,
    inp: Input,
    cfg: SpecConfig = SpecConfig(),
    budget: int = DEFAULT_STEP_BUDGET,
):
    """Run `p` on the speculative hardware model.

    Returns an HwResult, or NON_TERMINATING once more than `budget`
    instructions commit. The budget counts committed instructions only, so a
    program terminates here iff it terminates on the architectural simulator
    with the same budget.

    Every run starts from the canonical reset, which stands in for the
    physical flush-and-clobber procedure: every cache set primed with an
    attacker line, every predictor counter weakly not-taken.

    One loop commits in order; a misprediction runs the predicted path as
    one bounded excursion (`_transient`) and rolls it back. This equals
    holding each branch open for `window` issues, with the predictor update,
    retirement and budget check at resolution, for two reasons. Fetching a
    conditional branch resolves the open one, so no predictor read falls
    inside a window. A correct window of k instructions after c0 commits
    passes the budget at resolution (c0 + k > budget) iff one of them meets
    it on issue (c0 + i >= budget for some i < k).
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    pht = [1] * PHT_SIZE
    instrs = p.instrs
    n = len(instrs)
    state = ArchState.from_input(inp)
    # bit s set iff cache set s holds a victim line, split by who evicted it
    committed_victim = transient_victim = 0
    committed = transient = br_misses = 0  # instructions retired / squashed, mispredictions

    while state.pc < n:
        if committed >= budget:
            return NON_TERMINATING
        committed += 1
        pc = state.pc
        instr = instrs[pc]
        if instr.decoded[0] == KIND_JNS:
            taken = state.sf == 0
            target = min(max(pc + instr.disp, 0), n)
            state.pc = target if taken else pc + 1
            idx = pc % PHT_SIZE
            if (pht[idx] >= 2) != taken:
                br_misses += 1
                issued, bits = _transient(instrs, state, pc + 1 if taken else target, cfg.window, n)
                transient += issued
                transient_victim |= bits
            pht[idx] = min(pht[idx] + 1, 3) if taken else max(pht[idx] - 1, 0)
            continue
        committed_victim |= _access_bits(step_instruction(state, instr, n))

    return HwResult(
        htrace=committed_victim | transient_victim,
        counters=PerfCounters(br_misses, committed + transient, committed),
        final_state=state,
        committed_htrace=committed_victim,
    )


def _transient(instrs, state, pc, window, n):
    """Issue up to `window` instructions down a mispredicted path from `pc`,
    stopping early at program end or at the next conditional branch, then
    roll memory, registers and flags back. Returns (issued, cache bits)."""
    saved = (state.regs[:], state.sf, state.cf, state.zf, state.pc)
    undo: list = []
    state.pc = pc
    issued = bits = 0
    while issued < window and state.pc < n and instrs[state.pc].decoded[0] != KIND_JNS:
        bits |= _access_bits(step_instruction(state, instrs[state.pc], n, undo))
        issued += 1
    for addr, old in reversed(undo):
        state.mem[addr : addr + 8] = old
    state.regs, state.sf, state.cf, state.zf, state.pc = saved
    return issued, bits


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
        hw = hw_run(p, inp, cfg, budget)
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

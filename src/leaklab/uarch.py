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
from itertools import repeat
from typing import NamedTuple

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
from .isa import KIND_JMP, KIND_JNS, Program

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
    "HwPoint",
    "ResumePoints",
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


class HwPoint(NamedTuple):
    """Where a terminating `hw_run` of a program P can be resumed for any
    program that extends P: the run's full state at the start of the first
    committed step in which some path moved to a pc >= len(P) (see
    `hw_run`)."""

    state: ArchState
    pht: list
    committed_victim: int
    transient_victim: int
    committed: int
    transient: int
    br_misses: int


def hw_run(
    p: Program,
    inp: Input,
    cfg: SpecConfig = SpecConfig(),
    budget: int = DEFAULT_STEP_BUDGET,
    resume: HwPoint | None = None,
    capture: list | None = None,
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

    `capture`, when given, is a list to which the run's HwPoint is appended
    if the run terminates; `resume`, when given, is an HwPoint that such a
    run of a prefix of `p` captured, and the run continues from there
    instead of from the reset with `inp`. Resuming is exact. The runs of P
    and of P + Q agree step for step until some path (the committed path or
    a mispredicted window) first moves to a pc >= len(P): before that every
    instruction fetched lies in P, and every clamped branch target below
    len(P) is the same for both lengths. The point is the full state at the
    start of that committed step, and no window is open there. A
    conditional branch's point is taken before it runs, as its window is
    known only afterwards; a JMP's is recovered afterwards, since it changes
    only the pc; an ALU instruction at len(P) - 1 gives the state after it,
    which P + Q reaches too. A branch whose raw target exceeds len(P) is
    resumed from before it, because P + Q clamps that target differently.
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    instrs = p.instrs
    n = len(instrs)
    if resume is None:
        state = ArchState.from_input(inp)
        pht = [1] * PHT_SIZE
        # bit s set iff cache set s holds a victim line, split by who evicted it
        committed_victim = transient_victim = 0
        committed = transient = br_misses = 0  # instructions retired / squashed, mispredictions
    else:
        state, pht, committed_victim, transient_victim, committed, transient, br_misses = resume
        state = state.copy()
        pht = pht[:]
    point = instr = None

    while state.pc < n:
        if committed >= budget:
            return NON_TERMINATING
        committed += 1
        pc = state.pc
        instr = instrs[pc]
        if instr.decoded[0] == KIND_JNS:
            taken = state.sf == 0
            target = min(max(pc + instr.disp, 0), n)
            nxt = target if taken else pc + 1
            idx = pc % PHT_SIZE
            mispredicted = (pht[idx] >= 2) != taken
            if mispredicted:
                issued, bits, reached = _transient(instrs, state, pc + 1 if taken else target, cfg.window, n)
            if capture is not None and point is None and (nxt >= n or mispredicted and reached):
                point = HwPoint(state.copy(), pht[:], committed_victim, transient_victim,
                                committed - 1, transient, br_misses)
            if mispredicted:
                br_misses += 1
                transient += issued
                transient_victim |= bits
            state.pc = nxt
            pht[idx] = min(pht[idx] + 1, 3) if taken else max(pht[idx] - 1, 0)
            continue
        committed_victim |= _access_bits(step_instruction(state, instr, n))

    if capture is not None:
        if point is None:
            # The committed path left the program in the last step.
            start = state.copy()
            rewind = instr is not None and instr.decoded[0] == KIND_JMP
            if rewind:
                start.pc = pc
            point = HwPoint(start, pht, committed_victim, transient_victim, committed - rewind, transient,
                            br_misses)
        capture.append(point)
    return HwResult(
        htrace=committed_victim | transient_victim,
        counters=PerfCounters(br_misses, committed + transient, committed),
        final_state=state,
        committed_htrace=committed_victim,
    )


def _transient(instrs, state, pc, window, n):
    """Issue up to `window` instructions down a mispredicted path from `pc`,
    stopping early at program end or at the next conditional branch, then
    roll memory, registers and flags back. Returns (issued, cache bits,
    whether the path moved to a pc >= n)."""
    saved = (state.regs[:], state.sf, state.cf, state.zf, state.pc)
    undo: list = []
    state.pc = pc
    issued = bits = 0
    while issued < window and state.pc < n and instrs[state.pc].decoded[0] != KIND_JNS:
        bits |= _access_bits(step_instruction(state, instrs[state.pc], n, undo))
        issued += 1
    reached = state.pc >= n
    for addr, old in reversed(undo):
        state.mem[addr : addr + 8] = old
    state.regs, state.sf, state.cf, state.zf, state.pc = saved
    return issued, bits, reached


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


class ResumePoints:
    """Where the runs of the last program that `observe` measured with this
    object, and did not reject, can be resumed: the program, the inputs and
    settings it was measured with, and one TracePoint and one HwPoint per
    input."""

    __slots__ = ("program", "setting", "arch", "hw")

    def __init__(self):
        self.program = self.setting = self.arch = self.hw = None


def observe(
    p: Program,
    inputs: list[Input],
    contract: ContractSpec = ContractSpec(),
    cfg: SpecConfig = SpecConfig(),
    budget: int = DEFAULT_STEP_BUDGET,
    resume: ResumePoints | None = None,
):
    """Measure `p` on every input from a fresh microarchitectural reset.

    Returns one InputObservation per input, or REJECTED as soon as either
    simulator exhausts its budget on some input (the environment's
    infinite-loop guard).

    `resume`, when given, saves re-simulating what an earlier call already
    did. If it holds the points of a prefix of `p` measured with the same
    inputs and settings, every run resumes from its input's points instead
    of starting from the reset; when no input is rejected, it then holds
    `p`'s own points. The results are the same either way: the runs of a
    program P and of P + Q agree until some path first moves to a pc >=
    len(P), and each point is the full state of both simulators at the start
    of that committed step (see `contract_trace` and `hw_run`). An
    environment that grows a program one instruction at a time therefore
    simulates each step only from where its parent's runs reached the end.
    """
    if not inputs:
        raise ConfigError("observe needs at least one input")
    starts = repeat((None, None))
    arch_points = hw_points = None
    if resume is not None:
        setting = (list(inputs), contract, cfg, budget)
        prefix = resume.program
        if resume.setting == setting and p.instrs[: len(prefix)] == prefix.instrs:
            starts = zip(resume.arch, resume.hw)
        arch_points, hw_points = [], []
    out: list[InputObservation] = []
    for inp, (arch_start, hw_start) in zip(inputs, starts):
        ct = contract_trace(p, inp, contract, budget, arch_start, arch_points)
        if ct is NON_TERMINATING:
            return REJECTED
        hw = hw_run(p, inp, cfg, budget, hw_start, hw_points)
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
    if resume is not None:
        resume.program, resume.setting, resume.arch, resume.hw = p, setting, arch_points, hw_points
    return out

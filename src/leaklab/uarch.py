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
from typing import NamedTuple

from .arch import (
    DEFAULT_STEP_BUDGET,
    DEFAULT_WINDOW,
    OBS_PC,
    REJECTED,
    ArchState,
    ContractSpec,
    Input,
    Rejected,
    contract_trace,
    excursion,
    step_instruction,
)
from .errors import ConfigError
from .isa import KIND_JMP, KIND_JNS, KIND_SBB, MEM_DST, MEM_NONE, MEM_SRC, Program

__all__ = [
    "PHT_SIZE",
    "CACHE_SETS",
    "LINE_BYTES",
    "REJECTED",
    "Rejected",
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
    # Where the run's first chain window opens (see `hw_run`), or None.
    chain: HwPoint | None = None


def _access_bits(obs) -> int:
    bits = 0
    for o in obs:
        if o[0] != OBS_PC:
            bits |= 1 << (o[1] // LINE_BYTES)
    return bits


class HwPoint(NamedTuple):
    """The full state of an `hw_run` at the start of a committed step: where
    a terminating run of a program P can be resumed for any program that
    extends P (the end of its committed path, or before the committed branch
    that left P), or where its first chain window opens (see `hw_run`).
    `chain` is the chain point of the run before this point, or None.
    `windows` holds each mispredicted window still open at a resume point,
    in run order, as (OpenPath, the pc it opened at, instructions issued,
    its branch's HwPoint while no chain point precedes it, else None); a
    chain point holds none. Its states hold no memory (see `ArchState`)."""

    state: ArchState
    pht: list
    committed_victim: int
    transient_victim: int
    committed: int
    transient: int
    br_misses: int
    chain: HwPoint | None = None
    windows: tuple = ()


def _is_chain(instrs, pc: int, ran: int, covered: int, n: int) -> bool:
    """Whether the window of `ran` instructions from `pc` is a chain: some
    access's address register is tainted. A load at window offset >=
    `covered` taints its result, and an ALU result is tainted iff a source
    is (CF too, for SBB); BASE is never written, so never tainted. A stored
    value needs no taint: one stored before offset `covered` is untainted,
    and a load that reads back one stored later taints its result anyway."""
    tainted = 0  # bit r: register r; bit 4: CF
    for k in range(ran):
        kind, dst, src, mem, disp = instrs[pc].decoded
        if kind == KIND_JMP:
            pc = min(max(pc + disp, 0), n)
            continue
        pc += 1
        if mem == MEM_SRC:
            if tainted >> src & 1:
                return True
            t = k >= covered or tainted >> dst & 1
        elif mem == MEM_DST:
            if tainted >> dst & 1:
                return True
            t = k >= covered or tainted >> src & 1
        else:
            t = (tainted >> dst | tainted >> src) & 1
        if kind == KIND_SBB and tainted & 16:
            t = True
        if t:
            tainted |= 16 if mem == MEM_DST else 16 | 1 << dst
        else:
            tainted &= ~16 if mem == MEM_DST else ~(16 | 1 << dst)
    return False


def _is_quiet(instrs, window: int) -> bool:
    """Whether no mispredicted window of the program `instrs` can issue a
    memory access, on any input. A window opens at either successor of a
    JNS, runs at most `window` instructions, follows JMP targets, and stops
    at the next JNS or at the end (`excursion` with `stop=KIND_JNS`); so its
    instructions are fixed by its start, and this walks every window any
    run can open."""
    n = len(instrs)
    for pc, instr in enumerate(instrs):
        kind, _, _, _, disp = instr.decoded
        if kind != KIND_JNS:
            continue
        for at in (pc + 1, min(max(pc + disp, 0), n)):
            for _ in range(window):
                if at >= n:
                    break
                step_kind, _, _, mem, step_disp = instrs[at].decoded
                if step_kind == KIND_JNS:
                    break
                if mem != MEM_NONE:
                    return False
                at = min(max(at + step_disp, 0), n) if step_kind == KIND_JMP else at + 1
    return True


def hw_run(
    p: Program,
    inp: Input,
    window: int = DEFAULT_WINDOW,
    budget: int = DEFAULT_STEP_BUDGET,
    resume: HwPoint | None = None,
    capture: list | None = None,
    contract: ContractSpec | None = None,
):
    """Run `p` on the speculative hardware model.

    Returns an HwResult, or REJECTED once more than `budget`
    instructions commit. The budget counts committed instructions only, so a
    program terminates here iff it terminates on the architectural simulator
    with the same budget.

    Every run starts from the canonical reset, which stands in for the
    physical flush-and-clobber procedure: every cache set primed with an
    attacker line, every predictor counter weakly not-taken.

    One loop commits in order; a misprediction runs the predicted path as
    one bounded excursion (`arch.excursion`, which stops at the next
    conditional branch) and rolls it back. This equals holding each branch
    open for `window` issues, with the predictor update, retirement and
    budget check at resolution, for two reasons. Fetching a conditional
    branch resolves the open one, so no predictor read falls inside a
    window. A correct window of k instructions after c0 commits passes the
    budget at resolution (c0 + k > budget) iff one of them meets it on issue
    (c0 + i >= budget for some i < k).

    `contract`, when given, makes the result's `chain` the HwPoint at the
    start of the committed step of the first branch whose mispredicted
    window is a chain under that contract, or None if no window is. Let
    `covered` be the contract's `spec_depth` (0 under CT_SEQ). A window is
    a chain when some access's address register is tainted, where a load at
    window offset >= `covered` taints its result and the flags, and an ALU
    result is tainted iff a source is (or CF is, for SBB). A window's
    instructions are fixed by its start, since a JNS ends it and JMP targets
    are static, so this is a property of the instructions alone. It matters
    for a boosted sibling: an input with the run's registers and its bytes
    at every address the contract trace of the run's input loads. Both runs
    commit the same path, update the predictor alike and open the same
    windows from equal registers and an equal write log. Inside a window a
    value can differ only if a load at offset >= `covered` produced it: the
    first `covered` instructions are those of the CT_COND explored path from
    the same state, whose loads boosting copied. So up to the chain point
    the sibling's run equals this one except in memory, and from there it
    is the sibling's `hw_run` resumed from that point; with no chain, the
    two runs have the same probe vector.

    `capture`, when given, is a list to which the run's HwPoint is appended
    if the run terminates; `resume`, when given, is an HwPoint that such a
    run of a prefix of `p` captured, or a chain point, and the run continues
    from there instead of from the reset with `inp`. The capturing run may
    have been resumed itself: the point that a run of P from a chain point C
    captured continues the run of P + Q from C, so a sibling's run goes on
    where its run on a shorter program stopped. Resuming is exact. The
    committed paths of the runs of P and of P + Q, from the reset or from
    one point, agree step for step until P's leaves P: every instruction
    fetched before lies in P, and every clamped branch target below len(P)
    is the same for both lengths. An ALU instruction that leaves P gives the
    state after it, which P + Q reaches too; a JMP that leaves P is rewound,
    since it changes only the pc and P + Q clamps its target elsewhere; a
    conditional branch's point is taken before it runs, as its window is
    known only afterwards. The mispredicted window of each committed branch
    before the point agrees likewise until it moves to a pc >= len(P). One
    that does so with window left is open: on P + Q it goes on from its own
    state at its raw pc, issuing more transient instructions whose accesses
    add victim bits. No window changes the committed state, the predictor
    or the budget, so a resumed run first continues each open window in run
    order, then the committed path from the point. A continued window's
    additions count toward every HwPoint recorded after it: a later open
    window's branch point and a chain point after it take them. A window
    open before the chain point (or with no chain) is checked again over its
    whole length, and if it is now a chain, its branch point takes the
    chain's place. A window from the point on is checked by the resumed
    run. A chain point stays the same object unless an open window before it
    issues more on P + Q.
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    if window < 0:
        raise ConfigError("speculation window must be >= 0")
    instrs = p.instrs
    n = len(instrs)
    windows = []  # the open windows a captured point holds
    if resume is None:
        state = ArchState.from_input(inp)
        pht = [1] * PHT_SIZE
        # bit s set iff cache set s holds a victim line, split by who evicted it
        committed_victim = transient_victim = 0
        committed = transient = br_misses = 0  # instructions retired / squashed, mispredictions
        chain = None
        held = ()
    else:
        state, pht, committed_victim, transient_victim, committed, transient, br_misses, chain, held = resume
        state = state.copy(inp.mem)
        pht = pht[:]
    # the contract's explored path runs a window's first spec_depth
    # instructions (none under CT_SEQ); a chain needs a tainting load and a
    # later access
    covered = contract.spec_depth if contract is not None else 0
    if held:
        carried = chain
        added = added_victim = 0  # what windows before the chain point add
        for path, opened, issued, branch in held:
            squashed = []
            ran, path = excursion(instrs, path.state.copy(inp.mem), path.state.pc, path.left, n, KIND_JNS, squashed)
            issued += ran
            victim = _access_bits(squashed)
            transient += ran
            transient_victim |= victim
            if chain is not carried:
                branch = None  # an earlier window is the chain now
            elif branch is not None:
                if added:
                    branch = branch._replace(transient=branch.transient + added,
                                             transient_victim=branch.transient_victim | added_victim)
                added += ran
                added_victim |= victim
                if ran and issued > covered + 1 and _is_chain(instrs, opened, issued, covered, n):
                    chain, branch = branch, None
            if path is not None and capture is not None:
                windows.append((path, opened, issued, branch))
        if added and chain is carried is not None:
            chain = chain._replace(transient=chain.transient + added,
                                   transient_victim=chain.transient_victim | added_victim)
    search = contract is not None and chain is None and window > covered + 1
    point = instr = None

    while state.pc < n:
        if committed >= budget:
            return REJECTED
        committed += 1
        pc = state.pc
        instr = instrs[pc]
        if instr.decoded[0] == KIND_JNS:
            taken = state.sf == 0
            raw = pc + instr.disp
            nxt = min(max(raw, 0), n) if taken else pc + 1
            idx = pc % PHT_SIZE
            if capture is not None and nxt >= n:
                point = HwPoint(state.copy(None), pht[:], committed_victim, transient_victim, committed - 1,
                                transient, br_misses, chain, tuple(windows))
            if (pht[idx] >= 2) != taken:
                squashed = []
                opened = pc + 1 if taken else max(raw, 0)
                issued, path = excursion(instrs, state, opened, window, n, KIND_JNS, squashed)
                if search and issued > covered + 1 and _is_chain(instrs, opened, issued, covered, n):
                    chain = HwPoint(state.copy(None), pht[:], committed_victim, transient_victim,
                                    committed - 1, transient, br_misses)
                    search = False
                if path is not None and capture is not None:
                    branch = None
                    if search:
                        branch = HwPoint(state.copy(None), pht[:], committed_victim, transient_victim,
                                         committed - 1, transient, br_misses)
                    windows.append((path, opened, issued, branch))
                br_misses += 1
                transient += issued
                transient_victim |= _access_bits(squashed)
            state.pc = nxt
            pht[idx] = min(pht[idx] + 1, 3) if taken else max(pht[idx] - 1, 0)
            continue
        committed_victim |= _access_bits(step_instruction(state, instr, n))

    if capture is not None:
        if point is None:
            # The committed path left the program by an ALU instruction or a
            # JMP, or not at all on this run.
            start = state.copy(None)
            rewind = instr is not None and instr.decoded[0] == KIND_JMP
            if rewind:
                start.pc = pc
            point = HwPoint(start, pht, committed_victim, transient_victim, committed - rewind, transient,
                            br_misses, chain, tuple(windows))
        capture.append(point)
    return HwResult(
        htrace=committed_victim | transient_victim,
        counters=PerfCounters(br_misses, committed + transient, committed),
        final_state=state,
        committed_htrace=committed_victim,
        chain=chain,
    )


class InputObservation(NamedTuple):
    """Per-input observation bundle: probe vector, contract trace, branch
    misses, transient micro-op count, plus the committed-only probe vector
    used for the observability check and the run's chain point under the
    observed contract (see `hw_run`), from which boosting runs a sibling. A
    NamedTuple, as `observe` builds one per input per env step."""

    htrace: int
    ctrace: tuple
    br_misses: int
    tran_uops: int
    committed_htrace: int
    chain: HwPoint | None = None


class ResumePoints:
    """Where the runs of the last program `observe` measured with this
    store can be resumed: the program, the settings it was measured with,
    and one entry per input position, the input's (TracePoint, HwPoint),
    captured by runs of that program or of a prefix of it. Under equal
    settings equal positions mean identical inputs."""

    __slots__ = ("program", "setting", "entries")

    def __init__(self):
        self.program = self.setting = None
        self.entries = {}

    def usable(self, p: Program, setting: tuple) -> dict:
        """The entries, if they were captured on a prefix of `p` with
        `setting`; otherwise an empty dict."""
        prefix = self.program
        if self.setting == setting and p.instrs[: len(prefix)] == prefix.instrs:
            return self.entries
        return {}

    def keep(self, p: Program, setting: tuple, entries: dict) -> None:
        """Hold `entries` as those of runs of `p`, or of prefixes of it,
        with `setting`, and nothing else."""
        self.program, self.setting, self.entries = p, setting, entries


def observe(
    p: Program,
    inputs: list[Input],
    contract: ContractSpec = ContractSpec(),
    window: int = DEFAULT_WINDOW,
    budget: int = DEFAULT_STEP_BUDGET,
    resume: ResumePoints | None = None,
):
    """Measure `p` on every input from a fresh microarchitectural reset.

    Returns one InputObservation per input, or REJECTED as soon as either
    simulator exhausts its budget on some input (the environment's
    infinite-loop guard).

    `resume`, when given, saves re-simulating what an earlier call already
    did. Its entries map each input's position to the input's (TracePoint,
    HwPoint). If they were captured on a prefix of `p` with the same inputs
    and settings, both of an input's runs resume from its entry instead of
    starting from the reset; when no input is rejected, the store then
    holds `p`'s own entries. The results are the same either way: each
    point is the state of both simulators where the committed path of P
    ended (before the branch that left P, if one did), less the contract
    cycle check's, which a resumed run starts afresh, with every CT-COND
    explored path and mispredicted window that moved to a pc >= len(P)
    with depth left. A run of P + Q continues those paths, then the
    committed path, as its run from the reset would (see `contract_trace`
    and `hw_run`). An environment that grows a program one instruction at a
    time therefore simulates on each step only what the appended
    instruction adds.
    """
    if not inputs:
        raise ConfigError("observe needs at least one input")
    if window < 0:
        raise ConfigError("speculation window must be >= 0")
    points = {}
    arch_points = hw_points = None
    if resume is not None:
        setting = (list(inputs), contract, window, budget)
        points = resume.usable(p, setting)
        arch_points, hw_points = [], []
    out: list[InputObservation] = []
    for i, inp in enumerate(inputs):
        arch_from, hw_from = points.get(i, (None, None))
        ct = contract_trace(p, inp, contract, budget, arch_from, arch_points)
        if ct is REJECTED:
            return REJECTED
        hw = hw_run(p, inp, window, budget, hw_from, hw_points, contract)
        if hw is REJECTED:
            return REJECTED
        counters = hw.counters
        out.append(InputObservation(hw.htrace, ct, counters.br_misses, counters.tran_uops, hw.committed_htrace,
                                    hw.chain))
    if resume is not None:
        resume.keep(p, setting, dict(enumerate(zip(arch_points, hw_points))))
    return out

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leaklab.arch import (
    DEFAULT_STEP_BUDGET,
    DEFAULT_WINDOW,
    ContractMode,
    ContractSpec,
    ArchState,
    Input,
    contract_trace,
    generate_inputs,
    input_from_seed,
    step_instruction,
)
from leaklab.detect import ViolationReport, detect_violation
from leaklab.env import EnvConfig
from leaklab.errors import ConfigError
from leaklab.harness import fixture_action_config, scaling_action_config
from leaklab.isa import KIND_JNS, Program, build_action_space, parse_program
from leaklab.uarch import (
    LINE_BYTES,
    PHT_SIZE,
    REJECTED,
    HwResult,
    InputObservation,
    PerfCounters,
    ResumePoints,
    hw_run,
    htrace_hex,
    observe,
)

from conftest import make_input, memory
from reference import reference_violation

CT_SEQ = ContractSpec(ContractMode.CT_SEQ)

PLANTED = parse_program("SBB R0, R0\nJNS +2\nSBB R1, [BASE+R2]")


def test_empty_program():
    r = hw_run(Program(), make_input())
    assert r.htrace == 0
    assert r.counters.br_misses == 0
    assert r.counters.tran_uops == 0


def test_single_architectural_load():
    r = hw_run(parse_program("SBB R0, [BASE+R1]"), make_input(r1=130))
    # one committed load at 128 -> set 2 only
    assert r.htrace == 1 << 2
    assert r.committed_htrace == 1 << 2
    assert r.counters.tran_uops == 0
    assert r.counters.br_misses == 0


def test_planted_program_leaks_transiently():
    inp = make_input(r2=130)
    r = hw_run(PLANTED, inp)
    # predictor says not-taken, SBB cleared SF so JNS is taken: mispredict;
    # the fall-through load issues transiently, then squashes
    assert r.counters.br_misses == 1
    assert r.counters.tran_uops >= 1
    assert r.htrace == 1 << 2  # transient footprint at set(128) = 2
    assert r.committed_htrace == 0
    assert r.final_state.regs[1] == inp.r1  # squashed write never lands


def test_planted_counter_values():
    r = hw_run(PLANTED, make_input(r2=130))
    # SBB + JNS commit; the transient SBB is issued but squashed
    assert r.counters.uops_issued == 3
    assert r.counters.uops_retired == 2
    assert r.counters.tran_uops == 1


def test_window_zero_means_no_transients():
    r = hw_run(PLANTED, make_input(r2=130), 0)
    assert r.counters.br_misses == 1
    assert r.counters.tran_uops == 0
    assert r.htrace == 0
    assert r.htrace == r.committed_htrace


def test_correct_prediction_retires_window():
    # SF stays set from reset, so JNS falls through as predicted; the load
    # issues speculatively and then commits
    p = parse_program("JNS +2\nSBB R0, [BASE+R1]")
    r = hw_run(p, make_input(r1=64))
    assert r.counters.br_misses == 0
    assert r.counters.tran_uops == 0
    assert r.htrace == 1 << 1
    assert r.committed_htrace == r.htrace


def test_second_branch_resolves_outer_first():
    # After SBB clears SF, JNS at 1 mispredicts; the next conditional is
    # fetched inside the window and forces resolution, so it never issues
    # transiently.
    p = parse_program("SBB R0, R0\nJNS +2\nJNS +2\nSBB R0, [BASE+R1]")
    r = hw_run(p, make_input(r1=300))
    # first JNS taken (mispredict), lands at 3, the load commits
    assert r.counters.br_misses == 1
    assert r.counters.tran_uops == 0
    assert r.htrace == 1 << (296 // 64)  # 300 aligned down to 8 = 296
    assert r.committed_htrace == r.htrace


def test_window_stops_at_next_branch():
    # SBB R0,R0 clears SF, so JNS +4 is taken to the end (raw target 5)
    # against the weakly-not-taken prediction. Its fall-through issues the
    # load of [BASE+R2] at pc 2, and the window stops at the JNS at pc 3:
    # neither that branch nor the load of [BASE+R1] at pc 4 issues.
    p = parse_program("SBB R0, R0\nJNS +4\nSBB R1, [BASE+R2]\nJNS +1\nSBB R1, [BASE+R1]")
    r = hw_run(p, make_input(r1=1024, r2=130))
    assert r.counters == PerfCounters(br_misses=1, uops_issued=3, uops_retired=2)
    assert r.htrace == 1 << 2  # 130 aligned down to 8 = 128, set 2
    assert r.committed_htrace == 0


def test_squashed_store_rolls_back():
    p = parse_program("SBB R0, R0\nJNS +2\nSBB [BASE+R1], R2")
    inp = make_input(r1=512, r2=1, mem_byte=9)
    r = hw_run(p, inp)
    assert r.counters.br_misses == 1
    # transient RMW touched set 8 but memory is restored
    assert r.htrace == 1 << 8
    assert r.final_state.written == {}
    assert memory(r.final_state) == inp.mem


def test_mistraining_flips_prediction():
    # SBB clears SF, so every JNS below is taken. The JNS at index 1
    # mispredicts and trains predictor entry 1 toward taken; it jumps to
    # the JNS at index 65, which shares entry 1 and is now predicted taken.
    # At index 66 (entry 2, untrained) the second branch mispredicts too.
    filler = "SBB R1, R1\n" * 63
    shared = parse_program("SBB R0, R0\nJNS +64\n" + filler + "JNS +2")
    assert hw_run(shared, make_input()).counters.br_misses == 1
    untrained = parse_program("SBB R0, R0\nJNS +65\n" + filler + "SBB R1, R1\nJNS +2")
    assert hw_run(untrained, make_input()).counters.br_misses == 2


def test_budget_parity_with_arch():
    # Most long programs over the scaling menu cannot halt: contract_trace
    # rejects them early, hw_run only when its budget runs out.
    rng = random.Random(3)
    for space, max_len in ((build_action_space(), 9), (build_action_space(scaling_action_config()), 32)):
        for _ in range(300):
            p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, max_len + 1))))
            inp = input_from_seed(rng.randrange(1 << 32))
            for budget in (7, 50, 300):
                a = contract_trace(p, inp, CT_SEQ, budget)
                h = hw_run(p, inp, DEFAULT_WINDOW, budget)
                assert (a is REJECTED) == (h is REJECTED)


def test_transient_invisibility_random():
    rng = random.Random(5)
    space = build_action_space()
    checked = 0
    for _ in range(500):
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 12))))
        inp = input_from_seed(rng.randrange(1 << 32))
        h = hw_run(p, inp, DEFAULT_WINDOW, 300)
        if h is REJECTED:
            continue
        # replay architecturally
        state = ArchState.from_input(inp)
        n = len(p)
        from leaklab.arch import step_instruction

        steps = 0
        while state.pc < n and steps < 300:
            step_instruction(state, p[state.pc], n)
            steps += 1
        assert state == h.final_state
        assert h.counters.tran_uops >= 0
        checked += 1
    assert checked > 300


def test_htrace_hex_format():
    assert htrace_hex(0) == "0" * 16
    assert htrace_hex(1 << 63) == "8000000000000000"


def test_observe_planted(inputs20):
    obs = observe(PLANTED, inputs20[:3])
    assert isinstance(obs, list) and len(obs) == 3
    for o in obs:
        assert o.br_misses == 1
        assert o.tran_uops == 1
        assert o.ctrace == (("P", 3, 1),)


def test_observe_empty_program(inputs20):
    obs = observe(Program(), inputs20[:3])
    assert [o.htrace for o in obs] == [0, 0, 0]
    assert [o.br_misses for o in obs] == [0, 0, 0]
    assert [o.tran_uops for o in obs] == [0, 0, 0]
    assert [o.ctrace for o in obs] == [(), (), ()]


def test_observe_rejects_self_loop(inputs20):
    assert observe(parse_program("JMP -2"), inputs20[:2]) is REJECTED


def test_one_rejected_sentinel(inputs20):
    from leaklab import arch, uarch

    assert arch.NON_TERMINATING is uarch.REJECTED is arch.REJECTED
    assert uarch.Rejected is arch.Rejected
    # perfbench's pinned output digests record type(result).__name__ of
    # detect_violation's results, so the class keeps this name
    assert type(REJECTED).__name__ == "Rejected"
    assert contract_trace(parse_program("JMP -2"), inputs20[0]) is REJECTED
    assert hw_run(parse_program("SBB R0, R0\nSBB R1, R1"), inputs20[0], budget=1) is REJECTED
    assert hw_run(parse_program("SBB R0, R0\nSBB R1, R1"), inputs20[0], budget=2) is not REJECTED


def test_observe_needs_inputs():
    with pytest.raises(ConfigError):
        observe(Program(), [])


def test_ctrace_independent_of_spec_config(inputs20):
    p = parse_program("SBB R0, R0\nJNS +2\nSBB R1, [BASE+R2]\nIMUL R0, R1")
    for w in (0, 1, 8):
        obs = observe(p, inputs20[:4], CT_SEQ, w)
        base = observe(p, inputs20[:4], CT_SEQ, 8)
        assert [o.ctrace for o in obs] == [o.ctrace for o in base]


def test_window_zero_htrace_equals_committed_everywhere():
    # Branches resolve the same way at both windows: equal termination, final
    # state and misses. A branch that loops retrains its predictor entry
    # within the run, so equal misses also need equal predictor updates.
    rng = random.Random(9)
    space = build_action_space()
    for _ in range(200):
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 10))))
        inp = input_from_seed(rng.randrange(1 << 32))
        full = hw_run(p, inp, 8, 300)
        off = hw_run(p, inp, 0, 300)
        assert (full is REJECTED) == (off is REJECTED)
        if full is REJECTED:
            continue
        assert off.htrace == off.committed_htrace == full.committed_htrace
        assert off.counters.tran_uops == 0
        assert off.counters.br_misses == full.counters.br_misses
        assert off.final_state == full.final_state


def test_determinism():
    inp = make_input(r2=130)
    a = hw_run(PLANTED, inp)
    b = hw_run(PLANTED, inp)
    assert (a.htrace, a.counters, a.committed_htrace) == (b.htrace, b.counters, b.committed_htrace)


def test_negative_window_rejected():
    # every entry point that takes a window checks it, detect_violation in
    # both modes; ViolationReport on its own and as loaded from JSON
    inputs = [make_input(r2=130)]
    records = observe(PLANTED, inputs)
    report = detect_violation(PLANTED, generate_inputs(1337, 20))
    text = report.to_json().replace('"window": 8', '"window": -1')
    for call in (
        lambda: hw_run(PLANTED, inputs[0], -1),
        lambda: observe(PLANTED, inputs, CT_SEQ, -1),
        lambda: detect_violation(PLANTED, inputs, CT_SEQ, -1),
        lambda: detect_violation(PLANTED, inputs, CT_SEQ, -1, observations=records),
        lambda: EnvConfig(window=-1),
        lambda: replace(report, window=-1),
        lambda: ViolationReport.from_json(text),
    ):
        with pytest.raises(ConfigError, match="window"):
            call()


# The frame-based hw_run that the excursion loop replaced, kept verbatim
# (renamed) as the oracle but for its memory rollback, which now saves the
# write log when a frame opens and puts it back on a misprediction: it opens
# a frame at every conditional branch and updates the predictor, retires and
# counts commits when the frame resolves.
class _Frame:
    """One unresolved conditional branch: restore point plus bookkeeping."""

    __slots__ = (
        "saved_regs",
        "saved_flags",
        "saved_written",
        "resume_pc",
        "branch_idx",
        "actual_taken",
        "mispredicted",
        "pending",
        "accesses",
    )

    def __init__(
        self, saved_regs, saved_flags, saved_written, resume_pc, branch_idx, actual_taken, mispredicted
    ):
        self.saved_regs = saved_regs
        self.saved_flags = saved_flags
        self.saved_written = saved_written
        self.resume_pc = resume_pc
        self.branch_idx = branch_idx
        self.actual_taken = actual_taken
        self.mispredicted = mispredicted
        self.pending = 0
        self.accesses = 0


def _access_bits(obs) -> int:
    bits = 0
    for o in obs:
        if o[0] != "P":
            bits |= 1 << (o[1] // LINE_BYTES)
    return bits


def frame_hw_run(
    p: Program,
    inp: Input,
    window: int = DEFAULT_WINDOW,
    budget: int = DEFAULT_STEP_BUDGET,
):
    """Run `p` on the speculative hardware model.

    Returns an HwResult, or REJECTED once more than `budget`
    instructions commit. The budget counts committed instructions only, so a
    program terminates here iff it terminates on the architectural simulator
    with the same budget.

    Every run starts from the canonical reset, which stands in for the
    physical flush-and-clobber procedure: every cache set primed with an
    attacker line, every predictor counter weakly not-taken.
    """
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    pht = [1] * PHT_SIZE
    instrs = p.instrs
    n = len(instrs)
    state = ArchState.from_input(inp)
    counters = PerfCounters()
    victim = 0  # bit s set iff cache set s holds a victim line
    committed_victim = 0
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
                    state.written = frame.saved_written
                    state.regs = frame.saved_regs
                    state.sf, state.cf, state.zf = frame.saved_flags
                    state.pc = frame.resume_pc
                else:
                    counters.uops_retired += frame.pending
                    committed += frame.pending
                    committed_victim |= frame.accesses
                    if committed > budget:
                        return REJECTED
                frame = None
                continue
            # issue transiently into the shadow state
            instr = instrs[state.pc]
            counters.uops_issued += 1
            frame.pending += 1
            obs = step_instruction(state, instr, n)
            bits = _access_bits(obs)
            victim |= bits
            frame.accesses |= bits
            continue

        if state.pc >= n:
            break
        if committed >= budget:
            return REJECTED
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
            frame = _Frame(
                saved_regs=state.regs[:],
                saved_flags=(state.sf, state.cf, state.zf),
                saved_written=dict(state.written),
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

    return HwResult(
        htrace=victim,
        counters=counters,
        final_state=state,
        committed_htrace=committed_victim,
    )


MENUS = [
    build_action_space(),
    build_action_space(scaling_action_config()),
    build_action_space(fixture_action_config()),
]


# Default-menu ids: 0 is SBB R0, R0 (clears SF, so the next JNS is taken
# and mispredicted), 37 is JNS +2, 23 is SBB [BASE+R1], R2. The two examples
# pin a window that reaches the next JNS and a window that stores to memory.
@settings(max_examples=400, deadline=None)
@example(menu=MENUS[0], picks=[0, 37, 37, 0], window=8, budget=300, seed=1)
@example(menu=MENUS[0], picks=[0, 37, 23], window=8, budget=300, seed=1)
@given(
    menu=st.sampled_from(MENUS),
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=60),
    window=st.sampled_from([0, 1, 2, 3, 8, 10, 64]),
    budget=st.sampled_from([1, 2, 5, 17, 300, 10_000]),
    seed=st.integers(0, (1 << 64) - 1),
)
def test_hw_run_matches_frame_oracle(menu, picks, window, budget, seed):
    p = Program(tuple(menu[i % menu.size] for i in picks))
    inp = input_from_seed(seed)
    new = hw_run(p, inp, window, budget)
    old = frame_hw_run(p, inp, window, budget)
    assert (new is REJECTED) == (old is REJECTED)
    if old is REJECTED:
        return
    assert new.htrace == old.htrace
    assert new.committed_htrace == old.committed_htrace
    assert new.counters == old.counters  # br_misses, uops_issued, uops_retired
    assert new.final_state == old.final_state


def _check_resumed_episode(instrs, inputs, contract, window, budget):
    """Grow a program one instruction at a time as LeakEnv does, measuring
    each candidate with the current program's ResumePoints, and check every
    result against a from-scratch observe. Returns the ResumePoints and each
    candidate's result."""
    resume = ResumePoints()
    p = Program()
    assert observe(p, inputs, contract, window, budget, resume=resume) == observe(p, inputs, contract, window, budget)
    results = []
    for instr in instrs:
        candidate = p.append(instr)
        resumed = observe(candidate, inputs, contract, window, budget, resume=resume)
        fresh = observe(candidate, inputs, contract, window, budget)
        assert (resumed is REJECTED) == (fresh is REJECTED)
        assert resumed == fresh
        results.append(fresh)
        if fresh is not REJECTED:
            p = candidate
    return resume, results


@settings(max_examples=300, deadline=None)
@given(
    menu=st.sampled_from(MENUS[:2]),
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=40),
    contract=st.sampled_from([CT_SEQ] + [ContractSpec(ContractMode.CT_COND, d) for d in range(1, 9)]),
    window=st.sampled_from([0, 1, 2, 3, 8]),
    budget=st.sampled_from([1, 2, 5, 17, 300, 10_000]),
    seed=st.integers(0, (1 << 64) - 1),
)
def test_resumed_observe_matches_from_scratch(menu, picks, contract, window, budget, seed):
    instrs = [menu[i % menu.size] for i in picks]
    _check_resumed_episode(instrs, generate_inputs(seed, 3), contract, window, budget)


@settings(max_examples=200, deadline=None)
# SBB R2, R2 / JNS +2 / SBB R1, [BASE+R0] / SBB R2, [BASE+R1]: on zeroed
# registers the window's second access uses the first one's result, which
# CT-COND:1's explored path loaded
@example(menu=MENUS[0], picks=[8, 37, 12, 16], depth=1, window=2, regs=[0, 0, 0], seed=0)
@given(
    menu=st.sampled_from(MENUS[:2]),
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=24),
    depth=st.integers(1, 8),
    window=st.integers(0, 9),
    regs=st.lists(st.integers(0, 4095), min_size=3, max_size=3),
    seed=st.integers(0, (1 << 64) - 1),
)
def test_no_chain_when_the_window_fits_the_explored_path(menu, picks, depth, window, regs, seed):
    # under CT-COND:d no window of at most d + 1 instructions is a chain:
    # a tainting load sits at offset d or later, and nothing follows it, so
    # no run, from the reset or resumed, records a chain point. Boosting
    # then takes every sibling's probe vector from its base (the
    # random-ctcond workload is CT-COND:8 with window 8).
    window = min(window, depth + 1)
    instrs = [menu[i % menu.size] for i in picks]
    inputs = [make_input(*regs), input_from_seed(seed)]
    _, results = _check_resumed_episode(instrs, inputs, ContractSpec(ContractMode.CT_COND, depth), window, 300)
    for records in results:
        assert records is REJECTED or all(o.chain is None for o in records)


# One episode per kind of resume point. On the first input (R0=5, R1=1) the
# loop `SBB R0, R1 / JNS -1` runs six times; `expect` is where the points of
# the program without its last instruction lie on that input, and the paths
# they hold open: (arch pc, steps, [(raw pc, depth left)] of the open
# explored paths, hw pc, committed instructions, [(raw pc, window left)] of
# the open windows).
RESUME_INPUTS = [make_input(r0=5, r1=1), make_input(r0=3, r1=2, r2=64, mem_byte=7)]
LOOP = "SBB R0, R1\nJNS -1\n"
CT_COND_4 = ContractSpec(ContractMode.CT_COND, 4)
# SBB R0, R0 clears SF, so JNS +2 is taken; its explored fall-through and its
# mispredicted window run JMP +5, whose target lies past the end
PAST_THE_END = "SBB R0, R0\nJNS +2\nJMP +5\nSBB R1, R1\nSBB R2, R2\nSBB R2, [BASE+R1]\nSBB R1, [BASE+R0]"


@pytest.mark.parametrize(
    "text, contract, window, budget, expect, last_rejected",
    [
        # an ALU instruction at the end: the state after it
        ("SBB R0, R1\nSBB R1, [BASE+R0]", CT_SEQ, 8, 300, (1, 1, [], 1, 1, []), False),
        # a branch past the end: before it, since a longer program clamps
        # its target elsewhere and skips the load
        ("SBB R0, R1\nJMP +2\nSBB R1, [BASE+R0]", CT_SEQ, 8, 300, (1, 1, [], 1, 1, []), False),
        # each taken JNS's explored fall-through is open at the end; both
        # points lie before the last JNS, which left the program
        (LOOP + "SBB R1, [BASE+R0]", CT_COND_4, 0, 300, (1, 11, [(2, 4)] * 5, 1, 11, []), False),
        # the first JNS's mispredicted window is open at the end
        (LOOP + "SBB R1, [BASE+R0]", CT_SEQ, 8, 300, (1, 11, [], 1, 11, [(2, 8)]), False),
        # an explored path and a window that leave by a JMP keep its raw
        # target, past the end, where a longer program goes on
        (PAST_THE_END, CT_COND_4, 8, 300, (6, 5, [(7, 3)], 6, 5, [(7, 7)]), False),
        # under CT-COND:1 with window 1, each taken JNS's explored path and
        # the first one's window run SBB R2, R2 and reach the end with no
        # depth left: they are closed
        (LOOP + "SBB R2, R2\nSBB R1, [BASE+R0]", ContractSpec(ContractMode.CT_COND, 1), 1, 300,
         (3, 13, [], 3, 13, []), False),
        # Brent's check, started afresh at the point, finds
        # `SBB R2, R2 / JMP -1` after it
        (LOOP + "SBB R2, R2\nJMP -1", CT_SEQ, 0, 300, (3, 13, [], 3, 13, []), True),
        # the budget runs out exactly at the point
        (LOOP + "SBB R2, R2\nSBB R0, R0", CT_SEQ, 0, 13, (3, 13, [], 3, 13, []), True),
    ],
    ids=["alu-at-end", "jmp-past-end", "explored-path", "window", "path-jmp-past-end", "closed-at-depth", "brent",
         "budget"],
)
def test_resume_point_kinds(text, contract, window, budget, expect, last_rejected):
    instrs = parse_program(text).instrs
    resume, results = _check_resumed_episode(instrs[:-1], RESUME_INPUTS, contract, window, budget)
    assert REJECTED not in results
    arch, hw = resume.entries[0]
    paths = [(path.state.pc, path.left) for path, _ in arch.paths]
    windows = [(path.state.pc, path.left) for path, *_ in hw.windows]
    assert (arch.state.pc, arch.steps, paths, hw.state.pc, hw.committed, windows) == expect
    _, results = _check_resumed_episode(instrs, RESUME_INPUTS, contract, window, budget)
    assert (results[-1] is REJECTED) == last_rejected


@pytest.mark.parametrize("budget", [17, 10_000])
@pytest.mark.parametrize(
    "text",
    [
        # a loop wholly after the parent's point
        LOOP + "SBB R2, R2\nJMP -1",
        # a jump back across the point into the parent's own loop, whose
        # JNS now falls through every time: SBB R2, R2 leaves R2, CF and SF
        # as they were
        LOOP + "SBB R2, R2\nJMP -2",
    ],
    ids=["after-point", "across-point"],
)
def test_resumed_periodic_run_exits_early(text, budget, monkeypatch):
    # The last instruction closes a loop that repeats the whole state. The
    # resumed contract_trace run must find it with the cycle check, as a run
    # from the reset does, instead of spending the budget.
    from leaklab import arch

    instrs = parse_program(text).instrs
    setting = (RESUME_INPUTS, CT_SEQ, 0, budget)
    assert observe(Program(instrs), *setting) is REJECTED
    resume = ResumePoints()
    for i in range(len(instrs)):
        assert observe(Program(instrs[:i]), *setting, resume=resume) is not REJECTED
    assert resume.entries[0][0].steps == 13

    calls = 0
    step = arch.step_instruction

    def counting(*args):
        nonlocal calls
        calls += 1
        return step(*args)

    monkeypatch.setattr(arch, "step_instruction", counting)
    assert observe(Program(instrs), *setting, resume=resume) is REJECTED
    assert 0 < calls <= 30


def test_resume_points_of_other_programs_or_settings_are_not_used():
    # points of `LOOP` on RESUME_INPUTS under CT-SEQ, window 8, budget 300
    # serve none of these calls
    longer = parse_program(LOOP + "SBB R1, [BASE+R0]")
    cases = [
        (longer, RESUME_INPUTS[::-1], CT_SEQ, DEFAULT_WINDOW, 300),
        (longer, RESUME_INPUTS, ContractSpec(ContractMode.CT_COND, 2), DEFAULT_WINDOW, 300),
        (longer, RESUME_INPUTS, CT_SEQ, 1, 300),
        (longer, RESUME_INPUTS, CT_SEQ, DEFAULT_WINDOW, 17),
        (parse_program("SBB R1, R2\nJNS -1\nSBB R1, [BASE+R0]"), RESUME_INPUTS, CT_SEQ, DEFAULT_WINDOW, 300),
    ]
    for args in cases:
        resume = ResumePoints()
        assert observe(parse_program(LOOP), RESUME_INPUTS, CT_SEQ, DEFAULT_WINDOW, 300, resume=resume) is not REJECTED
        assert observe(*args, resume=resume) == observe(*args)


def _check_inputs_untouched(instrs, contract, window, as_bytearray, seed):
    """Run both simulators, resumed and from scratch, and boosting on every
    prefix of `instrs`, and check that no run changed its inputs' memory.
    Stores go to the run's write log, so a run must never write into an
    input's own bytes; an input built from a bytearray holds a bytes copy
    of it."""
    inputs = [Input(inp.r0, inp.r1, inp.r2, bytearray(inp.mem) if as_bytearray else inp.mem, inp.seed)
              for inp in generate_inputs(seed, 3)]
    before = [bytes(inp.mem) for inp in inputs]
    resume = ResumePoints()
    p = Program()
    for instr in instrs:
        candidate = p.append(instr)
        for inp in inputs:
            contract_trace(candidate, inp, contract, 300)
            hw_run(candidate, inp, window, 300)
        records = observe(candidate, inputs, contract, window, 300, resume=resume)
        if records is REJECTED:
            continue
        p = candidate
        detect_violation(p, inputs, contract, window, budget=300, seed=seed, observations=records)
        reference_violation(p, inputs, contract, window, budget=300, seed=seed)
    assert [bytes(inp.mem) for inp in inputs] == before


@pytest.mark.parametrize("as_bytearray", [False, True], ids=["bytes", "bytearray"])
@pytest.mark.parametrize(
    "text, contract, window",
    [
        # a committed store
        ("SBB R1, R2\nSBB [BASE+R1], R2\nSBB [BASE+R0], R1", CT_SEQ, 0),
        # the taken JNS is predicted not taken: the window's store rolls back
        ("SBB R0, R0\nJNS +2\nSBB [BASE+R1], R2\nSBB R2, [BASE+R1]", CT_SEQ, 8),
        # CT-COND explores the same store on the untaken path and rolls it back
        ("SBB R0, R0\nJNS +2\nSBB [BASE+R1], R2\nSBB R2, [BASE+R1]", ContractSpec(ContractMode.CT_COND, 4), 0),
    ],
    ids=["committed", "window", "ct-cond"],
)
def test_no_run_mutates_input_memory(text, contract, window, as_bytearray):
    _check_inputs_untouched(parse_program(text).instrs, contract, window, as_bytearray, 3)


@settings(max_examples=60, deadline=None)
@given(
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=16),
    contract=st.sampled_from([CT_SEQ, ContractSpec(ContractMode.CT_COND, 4)]),
    window=st.sampled_from([0, 3, 8]),
    as_bytearray=st.booleans(),
    seed=st.integers(0, (1 << 64) - 1),
)
def test_no_random_run_mutates_input_memory(picks, contract, window, as_bytearray, seed):
    menu = MENUS[0]
    _check_inputs_untouched([menu[i % menu.size] for i in picks], contract, window, as_bytearray, seed)

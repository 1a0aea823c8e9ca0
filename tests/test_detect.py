import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab.arch import (
    SANDBOX_SIZE,
    ContractMode,
    ContractSpec,
    Input,
    NON_TERMINATING,
    Xorshift64Star,
    contract_trace,
    generate_inputs,
    input_from_seed,
    stream_seed,
)
from leaklab.detect import (
    BOOST_ROUNDS,
    MAX_BOOSTS_PER_INPUT,
    SiblingStream,
    ViolationReport,
    _filter_tier,
    _load_cells,
    boost_input,
    detect_violation,
)
from leaklab.errors import ConfigError
from leaklab.harness import scaling_action_config
from leaklab.isa import (
    ActionSpaceConfig,
    Program,
    build_action_space,
    parse_program,
    render_program,
)
from leaklab.uarch import REJECTED, ResumePoints, SpecConfig, hw_run, observe

from conftest import make_input

CT_SEQ = ContractSpec(ContractMode.CT_SEQ)
PLANTED = parse_program("SBB R0, R0\nJNS +2\nSBB R1, [BASE+R2]")
# loads only: random programs chain load values into load addresses
CHAINED_LOADS = build_action_space(ActionSpaceConfig(parse_program("""
SBB R0, [BASE+R0]
SBB R0, [BASE+R1]
SBB R0, [BASE+R2]
SBB R1, [BASE+R0]
SBB R1, [BASE+R1]
SBB R1, [BASE+R2]
SBB R2, [BASE+R0]
SBB R2, [BASE+R1]
SBB R2, [BASE+R2]
""").instrs))


def test_boost_empty_program():
    base = make_input(r0=1, r1=2, r2=3)
    sib = boost_input(Program(), base, CT_SEQ, Xorshift64Star(1))
    assert sib is not None
    assert (sib.r0, sib.r1, sib.r2) == (1, 2, 3)
    assert sib.mem != base.mem  # nothing constrained the fresh memory


def test_boost_single_load():
    p = parse_program("SBB R0, [BASE+R1]")
    base = make_input(r1=256, mem_byte=5)
    sib = boost_input(p, base, CT_SEQ, Xorshift64Star(2))
    assert sib is not None
    assert sib.mem[256:264] == base.mem[256:264]  # the loaded cell is copied
    assert sib.mem != base.mem
    assert contract_trace(p, sib, CT_SEQ) == contract_trace(p, base, CT_SEQ)


def test_boost_chained_loads_converges():
    # load value flows into the next load's address: needs > 1 round
    p = parse_program("SBB R1, [BASE+R2]\nSBB R0, [BASE+R1]\nSBB R2, [BASE+R0]")
    rng = random.Random(0)
    for trial in range(20):
        base = input_from_seed(rng.randrange(1 << 32))
        sib = boost_input(p, base, CT_SEQ, Xorshift64Star(trial))
        if sib is None:
            continue
        assert contract_trace(p, sib, CT_SEQ) == contract_trace(p, base, CT_SEQ)


def test_boost_verifies_under_ct_cond():
    contract = ContractSpec(ContractMode.CT_COND, spec_depth=8)
    base = make_input(r2=130)
    sib = boost_input(PLANTED, base, contract, Xorshift64Star(3))
    assert sib is not None
    assert contract_trace(PLANTED, sib, contract) == contract_trace(PLANTED, base, contract)


def test_boost_requires_terminating_base():
    with pytest.raises(ValueError):
        boost_input(parse_program("JMP -2"), make_input(), CT_SEQ, Xorshift64Star(0))


def _terminating_programs(rng, space, contract, count, max_len=10, budget=300):
    """(program, base input, base trace) triples with a terminating base."""
    out = []
    while len(out) < count:
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, max_len + 1))))
        base = input_from_seed(rng.randrange(1 << 32))
        trace = contract_trace(p, base, contract, budget)
        if trace is not NON_TERMINATING:
            out.append((p, base, trace))
    return out


def _boost_by_simulation(p, base, contract, rng, budget, base_trace):
    """boost_input's fixpoint loop checked by re-simulation alone: a round
    returns the sibling once its own trace equals the base's and copying
    changes nothing."""
    mem = bytearray(rng.next_bytes(SANDBOX_SIZE))
    sibling = Input(r0=base.r0, r1=base.r1, r2=base.r2, mem=bytes(mem), seed=rng.seed)
    for _ in range(BOOST_ROUNDS):
        tr = contract_trace(p, sibling, contract, budget)
        guide = base_trace if tr is NON_TERMINATING else tr
        changed = False
        for obs in guide:
            if obs[0] == "L":
                addr = obs[1]
                cell = base.mem[addr : addr + 8]
                if mem[addr : addr + 8] != cell:
                    mem[addr : addr + 8] = cell
                    changed = True
        if not changed and tr == base_trace:
            return sibling
        sibling = Input(r0=base.r0, r1=base.r1, r2=base.r2, mem=bytes(mem), seed=rng.seed)
    return None


@pytest.mark.parametrize(
    "contract", [CT_SEQ, ContractSpec(ContractMode.CT_COND, spec_depth=8)], ids=lambda c: c.name
)
@pytest.mark.parametrize("space", [build_action_space(), CHAINED_LOADS], ids=["default", "chained"])
def test_boost_matches_simulated_fixpoint(contract, space):
    rng = random.Random(23)
    won = 0
    for k, (p, base, trace) in enumerate(_terminating_programs(rng, space, contract, 150, max_len=24)):
        seed = stream_seed(k, 1)
        fast = boost_input(p, base, contract, Xorshift64Star(seed), 300)
        slow = _boost_by_simulation(p, base, contract, Xorshift64Star(seed), 300, trace)
        assert (fast is None) == (slow is None)
        if fast is not None:
            won += 1
            assert (fast.mem, fast.seed) == (slow.mem, slow.seed)
            assert contract_trace(p, fast, contract, 300) == trace
    assert won > 0
    if space is CHAINED_LOADS:
        assert won < 150  # some chains outlast BOOST_ROUNDS


@pytest.mark.parametrize("length, wins", [(9, True), (10, False)])
def test_boost_round_limit(length, wins):
    # each copy moves the next load, so k chained loads first agree after
    # copy k: round 10 starts agreeing at k = 9, and k = 10 is out of rounds
    p = parse_program("\n".join(["SBB R0, [BASE+R0]"] * length))
    base = generate_inputs(3, 2)[0]
    sibling = boost_input(p, base, CT_SEQ, Xorshift64Star(stream_seed(5, 1)))
    assert (sibling is not None) == wins


def test_boost_without_loads_simulates_nothing(monkeypatch):
    from leaklab import detect

    p = parse_program("SBB R0, R1\nJNS -1\nIMUL R1, R0\nJMP +2")
    base = make_input(r0=1, r1=2, r2=3)
    base_trace = contract_trace(p, base, CT_SEQ)
    assert all(obs[0] != "L" for obs in base_trace)
    calls = []
    monkeypatch.setattr(detect, "contract_trace", lambda *args: calls.append(args))
    # the base's trace loads nothing, so it has no cells to copy
    assert boost_input(p, base, CT_SEQ, Xorshift64Star(4), cells={}) is not None
    assert calls == []


def test_detect_empty_program(inputs20):
    assert detect_violation(Program(), inputs20) is None


def test_detect_planted_fixture(inputs20):
    report = detect_violation(PLANTED, inputs20)
    assert isinstance(report, ViolationReport)
    assert report.diverging_sets
    assert report.htraces[0] != report.htraces[1]
    assert report.revalidate()


def test_detect_planted_no_speculation(inputs20):
    assert detect_violation(PLANTED, inputs20, cfg=SpecConfig(window=0)) is None


def test_detect_planted_covered_by_ct_cond(inputs20):
    contract = ContractSpec(ContractMode.CT_COND, spec_depth=8)
    assert detect_violation(PLANTED, inputs20, contract=contract) is None


def test_detect_rejects_nonterminating(inputs20):
    assert detect_violation(parse_program("JMP -2"), inputs20) is REJECTED


def test_detect_deterministic_witness(inputs20):
    a = detect_violation(PLANTED, inputs20, seed=7)
    b = detect_violation(PLANTED, inputs20, seed=7)
    assert a.witness == b.witness
    assert a.htraces == b.htraces


def test_exhaustive_agrees_with_short_circuit(inputs20):
    fast = detect_violation(PLANTED, inputs20, seed=1)
    full = detect_violation(PLANTED, inputs20, seed=1, exhaustive=True)
    assert fast is not None and full is not None
    assert fast.witness == full.witness


def test_gated_detection_equals_exhaustive(inputs20):
    # On random programs and inputs the observability gate changes no
    # result: the gated call must equal the exhaustive oracle's.
    rng = random.Random(4821)
    space = build_action_space()
    outcomes = {"gated": 0, "boosted": 0, "reported": 0}
    checked = 0
    while checked < 300:
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 13))))
        fast = detect_violation(p, inputs20, budget=300, seed=checked)
        if fast is REJECTED:
            continue
        full = detect_violation(p, inputs20, budget=300, seed=checked, exhaustive=True)
        assert fast == full, render_program(p)
        tier = _filter_tier(observe(p, inputs20, budget=300))
        outcomes["boosted" if tier == "observable" else "gated"] += 1
        outcomes["reported"] += fast is not None
        checked += 1
    assert min(outcomes.values()) > 0, outcomes


def test_filter_examples(inputs20):
    assert _filter_tier(observe(Program(), inputs20[:4])) == "none"
    # taken branch mispredicted from reset, but nothing issues transiently
    assert _filter_tier(observe(parse_program("SBB R0, R0\nJNS +2"), inputs20[:4])) == "misspec"
    assert _filter_tier(observe(PLANTED, inputs20[:4])) == "observable"


def test_filter_monotone_with_detection(inputs20):
    rng = random.Random(21)
    space = build_action_space()
    inputs = inputs20[:6]
    for _ in range(150):
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 8))))
        r = detect_violation(p, inputs, budget=300, seed=5)
        if isinstance(r, ViolationReport):
            assert _filter_tier(observe(p, inputs, budget=300)) == "observable"
            assert r.revalidate(budget=300)


def test_no_false_positives_with_speculation_off(inputs20):
    rng = random.Random(33)
    space = build_action_space()
    cfg = SpecConfig(window=0)
    inputs = inputs20[:5]
    for _ in range(150):
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 8))))
        r = detect_violation(p, inputs, cfg=cfg, budget=300, seed=5, exhaustive=True)
        assert r is None or r is REJECTED


def _contract_classes(p, inputs):
    """Inputs grouped by the contract trace observe() reports, the way
    detect_violation builds its classes."""
    classes: dict[tuple, list] = {}
    for inp, o in zip(inputs, observe(p, inputs)):
        classes.setdefault(o.ctrace, []).append(inp)
    return classes


def test_contract_classes(inputs20):
    # the planted program gives every input the same trace: one class
    classes = _contract_classes(PLANTED, inputs20)
    assert len(classes) == 1
    assert len(next(iter(classes.values()))) == 20
    # a committed load splits inputs by address; verify the class invariant
    p = parse_program("SBB R0, [BASE+R1]")
    classes = _contract_classes(p, inputs20)
    assert len(classes) > 1
    for ctrace, members in classes.items():
        for member in members:
            assert contract_trace(p, member, CT_SEQ) == ctrace
    assert observe(parse_program("JMP -2"), inputs20) is REJECTED


# The observability gate reads the base inputs only. Here the transient load
# of cell 8 (zero in the base) is never copied into siblings, so a sibling's
# dependent transient load lands in another cache set (which one depends on
# the sibling memory, drawn from the detection seed).
GATE_GAP = parse_program("SBB R2, R2\nJNS +2\nSBB R1, [BASE+R0]\nSBB R2, [BASE+R1]")
GATE_GAP_INPUTS = [make_input(r0=8, r1=16, r2=0)]


def test_gate_gap_exhaustive_finds_violation():
    report = detect_violation(GATE_GAP, GATE_GAP_INPUTS, seed=3, exhaustive=True)
    assert isinstance(report, ViolationReport)
    assert report.diverging_sets == (44,)
    assert report.revalidate()


@pytest.mark.xfail(
    strict=True,
    reason="the observability gate reads base inputs only and misses this violation",
)
def test_gate_gap_gated_equals_exhaustive():
    gated = detect_violation(GATE_GAP, GATE_GAP_INPUTS, seed=3)
    assert gated == detect_violation(GATE_GAP, GATE_GAP_INPUTS, seed=3, exhaustive=True)


def test_report_json_round_trip(inputs20):
    report = detect_violation(PLANTED, inputs20)
    text = report.to_json()
    back = ViolationReport.from_json(text)
    assert back.program == report.program
    assert back.witness == report.witness
    assert back.htraces == report.htraces
    assert back.diverging_sets == report.diverging_sets
    assert back.revalidate()


def test_report_with_out_of_range_register_is_rejected(inputs20):
    # a register of 2**64 + x used to load, and revalidate as x
    doc = json.loads(detect_violation(PLANTED, inputs20).to_json())
    doc["inputs"][0]["r0"] += 1 << 64
    with pytest.raises(ValueError, match="registers"):
        ViolationReport.from_json(json.dumps(doc))


def test_observations_must_match_the_inputs(inputs20):
    # a short list used to truncate the class construction and miss the leak
    inputs = inputs20[:4]
    observations = observe(PLANTED, inputs)
    assert isinstance(detect_violation(PLANTED, inputs, observations=observations), ViolationReport)
    for bad in (observations[:1], observations + observations[:1], REJECTED):
        with pytest.raises(ConfigError, match="one observation per input"):
            detect_violation(PLANTED, inputs, observations=bad)


def test_boosts_per_input_fits_the_stream_index(inputs20):
    # sibling j of input i draws from stream (i << 8) | j: past 255 two
    # inputs' siblings would share a stream
    assert MAX_BOOSTS_PER_INPUT == 255
    assert detect_violation(PLANTED, inputs20, boosts_per_input=255) is not None
    for bad in (0, 256, 300):
        with pytest.raises(ConfigError, match="boosts_per_input"):
            detect_violation(PLANTED, inputs20, boosts_per_input=bad)


def test_boost_success_rate_sane():
    # quick version of the acceptance criterion: most random terminating
    # programs can be boosted, and every sibling is verified
    rng = random.Random(99)
    space = build_action_space()
    attempts = 0
    succeeded = 0
    while attempts < 100:
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 10))))
        base = input_from_seed(rng.randrange(1 << 32))
        if contract_trace(p, base, CT_SEQ, 300) is NON_TERMINATING:
            continue
        attempts += 1
        sib = boost_input(p, base, CT_SEQ, Xorshift64Star(attempts), budget=300)
        if sib is not None:
            succeeded += 1
            assert contract_trace(p, sib, CT_SEQ, 300) == contract_trace(p, base, CT_SEQ, 300)
    assert succeeded >= 90


# --- boosted siblings resumed from the last boosted step --------------------

MENUS = [build_action_space(), build_action_space(scaling_action_config())]
RESET = -1  # an episode step that starts the program over
# gate-gap shaped programs: transient loads whose addresses come from loads
CHAIN_MENU = build_action_space(ActionSpaceConfig(parse_program("""
SBB R2, R2
SBB R0, R0
JNS +2
JNS +3
SBB R1, [BASE+R0]
SBB R2, [BASE+R1]
SBB R0, [BASE+R2]
SBB R1, [BASE+R2]
""").instrs))


def _detect_with_runs(*args, **kwargs):
    """detect_violation's result, the result of every boost_input call it
    made, and (function, input, result) for every contract_trace and hw_run
    call it made, in order."""
    from leaklab import detect

    boosts, runs = [], []

    def recorded(fn, name):
        def wrapper(*a, **kw):
            result = fn(*a, **kw)
            if name is None:
                boosts.append(result)
            else:
                runs.append((name, a[1], result))
            return result

        return wrapper

    saved = detect.boost_input, detect.contract_trace, detect.hw_run
    detect.boost_input, detect.contract_trace, detect.hw_run = map(recorded, saved, (None, "trace", "hw"))
    try:
        return detect_violation(*args, **kwargs), boosts, runs
    finally:
        detect.boost_input, detect.contract_trace, detect.hw_run = saved


def _check_detection_call(p, inputs, contract, cfg, store, **kwargs):
    """detect_violation of `p` with the sibling store `store` against the
    same call without it: equal results and equal boost_input results for
    every stream; every simulator call the stored call still made equals
    that call without the store (a wrong sibling can still give the same
    report); and every final sibling's held probe vector, carried or not,
    equals a fresh hw_run of it. Returns the stored call's simulator runs."""
    resumed, resumed_boosts, resumed_runs = _detect_with_runs(p, inputs, contract, cfg, resume=store, **kwargs)
    fresh, fresh_boosts, fresh_runs = _detect_with_runs(p, inputs, contract, cfg, **kwargs)
    text = render_program(p)
    assert resumed == fresh, text
    if fresh is None or fresh is REJECTED:
        assert resumed is fresh
    assert resumed_boosts == fresh_boosts, text
    fresh_by_call = {(name, inp): result for name, inp, result in fresh_runs}
    for name, inp, result in resumed_runs:
        assert fresh_by_call[name, inp] == result, text
    boosts = kwargs["boosts_per_input"]
    for k, sibling in enumerate(resumed_boosts):
        if sibling is not None:
            length, mem, _, htrace = store.hw[k // boosts, k % boosts + 1]
            assert length <= len(p) and mem == sibling.mem, text
            assert htrace == hw_run(p, sibling, cfg, kwargs["budget"]).htrace, text
    return resumed_runs


def _check_resumed_detection(steps, inputs, contract, cfg, budget, seed, boosts, exhaustive, check_from=0):
    """Drive detection as LeakEnv does: grow a program one instruction at a
    time (RESET starts it over), measure each candidate with the current
    program's resume points, and run detect_violation on every accepted
    one with one sibling store for the whole episode. Every call on a
    program of at least `check_from` instructions must pass
    _check_detection_call. Returns how many calls boosted."""
    resume, siblings = ResumePoints(), ResumePoints()
    args = (contract, cfg, budget)
    p = Program()
    boosted = 0
    for step in [RESET] + steps:
        if step is RESET:
            p = Program()
            assert observe(p, inputs, *args, resume=resume) is not REJECTED
            continue
        candidate = p.append(step)
        records = observe(candidate, inputs, *args, resume=resume)
        if records is REJECTED:
            continue
        p = candidate
        kwargs = dict(boosts_per_input=boosts, seed=seed, budget=budget, exhaustive=exhaustive,
                      observations=records)
        if len(p) >= check_from:
            _check_detection_call(p, inputs, contract, cfg, siblings, **kwargs)
        else:
            detect_violation(p, inputs, contract, cfg, resume=siblings, **kwargs)
        boosted += siblings.program is p
    return boosted


# Neutral instructions (ALU without a memory operand, forward branches)
# mixed with loads, a read-modify-write and a backward branch, so that a
# result is often carried across neutral suffixes and often is not.
NEUTRAL_MENU = build_action_space(ActionSpaceConfig(parse_program("""
SBB R0, R0
SBB R1, R2
IMUL R2, R0
JNS +2
JMP +1
JNS +3
SBB R1, [BASE+R0]
SBB [BASE+R2], R1
JNS -2
""").instrs))


@settings(max_examples=150, deadline=None)
@given(
    menu=st.sampled_from(MENUS + [CHAIN_MENU, NEUTRAL_MENU]),
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=30),
    contract=st.sampled_from([CT_SEQ] + [ContractSpec(ContractMode.CT_COND, d) for d in range(1, 9)]),
    window=st.sampled_from([0, 1, 2, 3, 8]),
    budget=st.sampled_from([1, 2, 5, 9, 17, 40, 300, 10_000]),
    seed=st.integers(0, (1 << 64) - 1),
    boosts=st.integers(1, 3),
    exhaustive=st.booleans(),
)
def test_resumed_siblings_match_from_scratch(menu, picks, contract, window, budget, seed, boosts, exhaustive):
    # one pick in eight resets the episode; budgets 1 and 2 reject most
    # steps, and budgets 5, 9 and 40 put carried results near the budget
    steps = [RESET if k % 8 == 7 else menu[k % menu.size] for k in picks]
    _check_resumed_detection(steps, generate_inputs(seed, 3), contract, SpecConfig(window=window), budget,
                             seed, boosts, exhaustive)


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.integers(0, NEUTRAL_MENU.size - 1), min_size=70, max_size=110),
    contract=st.sampled_from([CT_SEQ, ContractSpec(ContractMode.CT_COND, 3)]),
    window=st.sampled_from([2, 8]),
    budget=st.sampled_from([300, 10_000]),
    seed=st.integers(0, (1 << 64) - 1),
)
def test_resumed_siblings_match_from_scratch_past_the_predictor(picks, contract, window, budget, seed):
    # from 65 instructions on, a neutral branch appended to the program
    # shares a predictor entry (pc mod 64) with a branch of the program it
    # extends
    steps = [NEUTRAL_MENU[k] for k in picks]
    _check_resumed_detection(steps, generate_inputs(seed, 3), contract, SpecConfig(window=window), budget,
                             seed, 1, True, check_from=65)


def test_resumed_siblings_cover_gated_rejected_and_boosted_steps():
    # a fixed default-menu episode through the env's gated mode: gated,
    # rejected and reset steps between boosted ones
    rng = random.Random(8)
    space = MENUS[0]
    steps = [RESET if rng.random() < 0.05 else space[rng.randrange(space.size)] for _ in range(120)]
    boosted = _check_resumed_detection(steps, generate_inputs(11, 6), CT_SEQ, SpecConfig(), 300, 5, 2, False)
    assert boosted >= 10


def test_sibling_points_do_not_outlive_their_episode():
    # the episode after the reset boosts first a program without loads, whose
    # siblings agree before any simulation and capture nothing, then one with
    # a load, whose siblings' first rounds must start from the reset
    text = "SBB R0, [BASE+R1]\nSBB R2, [BASE+R0]\nSBB R1, [BASE+R2]\n"
    steps = [*parse_program(text).instrs, RESET, *parse_program("SBB R1, R2\n" + text).instrs]
    boosted = _check_resumed_detection(steps, generate_inputs(23, 4), CT_SEQ, SpecConfig(), 300, 9, 2, True)
    assert boosted == len(steps) - 1


# Two zero-memory bases: R0 = 1 makes the first SBB clear SF on the base, so
# JNS +3 jumps to the end, while a sibling whose fresh word at R1 is large
# sets SF and falls through to the next load.
EDGE_INPUTS = [Input(r0=1, r1=8 * k, r2=16 + 8 * k, mem=bytes(SANDBOX_SIZE)) for k in range(2)]
EDGE_Q = "SBB R0, [BASE+R1]\nJNS +3\nSBB R2, [BASE+R2]\nSBB R0, R0"


@pytest.mark.parametrize(
    "prefix, budget, suffix",
    [(EDGE_Q, 4, "SBB R1, R1"), ("\n".join(EDGE_Q.splitlines()[:3]), 17, "JMP -3")],
    ids=["budget-edge", "backward-branch"],
)
def test_results_not_carried_past_the_budget_or_a_backward_branch(prefix, budget, suffix):
    # budget edge: a sibling that falls through runs 4 steps, the whole
    # budget, and 5 after the neutral suffix, so its round is rejected and
    # copies the base's loads instead of its own. Backward branch: a sibling
    # that falls through jumps back to the first load with other registers.
    # Either way a carried result would be another sibling.
    q = parse_program(prefix)
    p = Program(q.instrs + parse_program(suffix).instrs)
    kwargs = dict(boosts_per_input=1, budget=budget, exhaustive=True)
    for seed in range(200):
        store = ResumePoints()
        _detect_with_runs(q, EDGE_INPUTS, CT_SEQ, SpecConfig(), resume=store, seed=seed, **kwargs)
        resumed = _detect_with_runs(p, EDGE_INPUTS, CT_SEQ, SpecConfig(), resume=store, seed=seed, **kwargs)
        fresh = _detect_with_runs(p, EDGE_INPUTS, CT_SEQ, SpecConfig(), seed=seed, **kwargs)
        assert resumed[:2] == fresh[:2], seed


def test_neutral_suffix_carries_results_and_probe_vectors():
    # CHAIN's extension by neutral instructions, a forward branch among
    # them, boosts and measures nothing, and still equals the unstored call
    chain = parse_program("SBB R0, [BASE+R1]\nSBB R2, [BASE+R0]")
    inputs = generate_inputs(19, 3)
    kwargs = dict(boosts_per_input=2, budget=300, seed=7, exhaustive=True)
    store = ResumePoints()
    assert detect_violation(chain, inputs, CT_SEQ, SpecConfig(), resume=store, **kwargs) is None
    p = chain
    for line in ("SBB R1, R2", "JNS +2", "IMUL R0, R2", "JMP +1"):
        p = p.append(parse_program(line).instrs[0])
        runs = _check_detection_call(p, inputs, CT_SEQ, SpecConfig(), store, **kwargs)
        assert runs == [], line
    assert all(stream.length == len(chain) for stream in store.arch.values())


class _Poisoned:
    """A stand-in resume point, boost result or probe vector: any use of it
    fails."""

    def _fail(self, *args):
        raise AssertionError("a resume point of another program or setting was used")

    __iter__ = __eq__ = __ne__ = __getattr__ = _fail
    __hash__ = object.__hash__


def _poison(store: ResumePoints) -> int:
    """Replace every point, held boost result and held probe vector in
    `store` by a _Poisoned one, keeping each round point's copied and loaded
    addresses, each held result's length and step count, and each final
    sibling's length and bytes; returns how many points."""
    for stream in store.arch.values():
        for k, (copied, _, loads) in stream.rounds.items():
            stream.rounds[k] = (copied, _Poisoned(), loads)
        stream.result = _Poisoned()
    for key, (length, mem, _, _) in store.hw.items():
        store.hw[key] = (length, mem, _Poisoned(), _Poisoned())
    return sum(len(stream.rounds) for stream in store.arch.values()) + len(store.hw)


def test_sibling_points_of_other_programs_or_settings_are_not_used():
    # points of CHAIN on INPUTS (CT-SEQ, window 8, budget 300, seed 7)
    # serve none of these calls
    chain = parse_program("SBB R0, [BASE+R1]\nSBB R2, [BASE+R0]")
    longer = chain.append(parse_program("SBB R1, R2").instrs[0])
    inputs = generate_inputs(19, 3)
    base = dict(contract=CT_SEQ, cfg=SpecConfig(), budget=300, seed=7, exhaustive=True)
    cases = [
        (parse_program("SBB R0, [BASE+R2]\nSBB R2, [BASE+R0]\nSBB R1, R2"), inputs, {}),
        (longer, inputs[::-1], {}),
        (longer, inputs, dict(seed=8)),
        (longer, inputs, dict(contract=ContractSpec(ContractMode.CT_COND, 2))),
        (longer, inputs, dict(cfg=SpecConfig(window=1))),
        (longer, inputs, dict(budget=17)),
    ]
    for p, case_inputs, change in cases:
        store = ResumePoints()
        detect_violation(chain, inputs, resume=store, **base)
        assert _poison(store) > 0
        kwargs = {**base, **change}
        assert detect_violation(p, case_inputs, resume=store, **kwargs) == detect_violation(p, case_inputs, **kwargs)
    # the same store does serve extensions of CHAIN with equal settings: a
    # neutral one takes the held results, one with a load the round points
    for extension in ("SBB R1, R2", "SBB R1, [BASE+R2]"):
        store = ResumePoints()
        detect_violation(chain, inputs, resume=store, **base)
        _poison(store)
        with pytest.raises(AssertionError, match="another program or setting"):
            detect_violation(chain.append(parse_program(extension).instrs[0]), inputs, resume=store, **base)


def test_round_points_outlive_a_boosted_call_that_did_not_replace_them(monkeypatch):
    # a fixed default-menu episode in which some sibling round resumes from a
    # point captured two or more boosted calls back: the store kept it through
    # a call whose round did not replace it, and the call still equals the
    # unstored one, sibling runs included
    from leaklab import detect

    rng = random.Random(8)
    steps = [MENUS[0][rng.randrange(MENUS[0].size)] for _ in range(30)]
    inputs = generate_inputs(11, 6)
    kwargs = dict(boosts_per_input=2, seed=5, budget=300, exhaustive=True)
    captured_at, used = {}, []
    trace = detect.contract_trace

    def recorded(p, inp, contract, budget, resume=None, capture=None):
        if resume is not None:
            used.append(resume)
        return trace(p, inp, contract, budget, resume, capture)

    monkeypatch.setattr(detect, "contract_trace", recorded)
    store, p, calls, outlived = ResumePoints(), Program(), 0, 0
    for step in steps:
        candidate = p.append(step)
        if observe(candidate, inputs, CT_SEQ, SpecConfig(), 300) is REJECTED:
            continue
        p = candidate
        used.clear()
        _check_detection_call(p, inputs, CT_SEQ, SpecConfig(), store, **kwargs)
        calls += 1
        outlived += sum(captured_at[id(point)][0] < calls - 1 for point in used)
        for stream in store.arch.values():
            for _, point, _ in stream.rounds.values():
                # the point itself is held too, so that its id is not reused
                captured_at.setdefault(id(point), (calls, point))
    assert outlived > 0


def test_held_hw_points_serve_only_equal_bytes():
    # CHAIN's final siblings are those of both extensions: an ALU op, and a
    # load of the address CHAIN's last load read. A held entry is used
    # exactly when the held bytes are the sibling's: its probe vector after
    # the neutral extension, its HwPoint after the other
    chain = parse_program("SBB R0, [BASE+R1]\nSBB R2, [BASE+R0]")
    inputs = generate_inputs(19, 3)
    kwargs = dict(contract=CT_SEQ, cfg=SpecConfig(), budget=300, seed=7, exhaustive=True)
    for extension, carried in (("SBB R1, R2", True), ("SBB R2, [BASE+R0]", False)):
        longer = chain.append(parse_program(extension).instrs[0])
        for same_bytes in (False, True):
            store = ResumePoints()
            assert detect_violation(chain, inputs, resume=store, **kwargs) is None
            assert store.hw
            for key, (length, mem, point, htrace) in store.hw.items():
                mem = mem if same_bytes else bytes([mem[0] ^ 1]) + mem[1:]
                store.hw[key] = (length, mem, point, _Poisoned()) if carried else (length, mem, _Poisoned(), htrace)
            if same_bytes:
                with pytest.raises(AssertionError, match="another program or setting"):
                    detect_violation(longer, inputs, resume=store, **kwargs)
            else:
                assert detect_violation(longer, inputs, resume=store, **kwargs) == detect_violation(longer, inputs,
                                                                                                    **kwargs)


# --- round points: boost_input resumed by round index ------------------------

# CHAIN_BASE loads 64, whose word makes R2 = 512, then 512. A sibling with
# fresh bytes at 64 loads some other cell d' instead, so the prefix's round 0
# copies {64, d'} and its round 1 copies {64, 512}; round 2 agrees.
CHAIN_PREFIX = parse_program("SBB R2, [BASE+R0]\nSBB R0, [BASE+R2]")
CHAIN_BASE = Input(r0=64, r1=512, r2=0, mem=bytes(64) + ((1 << 64) - 512).to_bytes(8, "little") + bytes(4024))
CHAIN_SEED = stream_seed(3, 1)


def _copy(stream: SiblingStream, rounds: dict = {}) -> SiblingStream:
    """A copy of `stream`, with the round entries in `rounds` replaced."""
    out = SiblingStream()
    out.rounds = {**stream.rounds, **rounds}
    out.length, out.result, out.steps = stream.length, stream.result, stream.steps
    return out


def _boost_from(monkeypatch, p, base, stored):
    """boost_input of `p` on stream CHAIN_SEED with a copy of the stream
    entry `stored` (None: no entry at all). Returns the sibling, the entry
    after the call, the round of every run that resumed, and the
    instructions it simulated."""
    from leaklab import arch, detect

    rounds, steps = [], [0]
    trace, step = detect.contract_trace, arch.step_instruction

    def counted(*args):
        steps[0] += 1
        return step(*args)

    def recorded(p, inp, contract, budget, resume=None, capture=None):
        rounds.append(resume is not None)
        return trace(p, inp, contract, budget, resume, capture)

    into = None if stored is None else _copy(stored)
    cells = _load_cells(base, contract_trace(p, base, CT_SEQ, 300))
    with monkeypatch.context() as m:
        m.setattr(arch, "step_instruction", counted)
        m.setattr(detect, "contract_trace", recorded)
        sibling = boost_input(p, base, CT_SEQ, Xorshift64Star(CHAIN_SEED), 300, cells=cells, stream=into)
    return sibling, into, [k for k, resumed in enumerate(rounds) if resumed], steps[0]


def _check_round_points(monkeypatch, p, base, stored):
    """boost_input of `p` resumed from the stream entry `stored` against the
    unstored call, the call from an empty entry, and _boost_by_simulation:
    equal siblings, equal round entries for the rounds that ran, and
    `stored`'s own entries for the rounds that did not. Returns the resumed
    call's (round points, resumed rounds, steps) and the unstored call's
    steps."""
    sibling, into, resumed, steps = _boost_from(monkeypatch, p, base, stored)
    plain, _, _, plain_steps = _boost_from(monkeypatch, p, base, None)
    fresh, fresh_into, _, _ = _boost_from(monkeypatch, p, base, SiblingStream())
    slow = _boost_by_simulation(p, base, CT_SEQ, Xorshift64Star(CHAIN_SEED), 300, contract_trace(p, base, CT_SEQ, 300))
    assert sibling == plain == fresh
    assert sibling is not None and (sibling.mem, sibling.seed) == (slow.mem, slow.seed)
    assert into.rounds == {**stored.rounds, **fresh_into.rounds}
    assert (into.length, into.result, into.steps) == (fresh_into.length, fresh_into.result, fresh_into.steps)
    return into.rounds, resumed, steps, plain_steps


def test_round_points_survive_a_changed_copied_set(monkeypatch):
    # the extension loads a fresh-valued address f' in round 0, so round 1
    # has copied {64, d', f'} where the prefix's round 1 had {64, d'}; that
    # run loaded only 64 and 512 before its point, so it still serves
    _, stored, _, _ = _boost_from(monkeypatch, CHAIN_PREFIX, CHAIN_BASE, SiblingStream())
    assert sorted(stored.rounds) == [0, 1] and stored.rounds[1][2] == {64, 512}
    p = CHAIN_PREFIX.append(parse_program("SBB R1, [BASE+R0]").instrs[0])
    into, resumed, steps, plain_steps = _check_round_points(monkeypatch, p, CHAIN_BASE, stored)
    assert into[1][0] != stored.rounds[1][0]
    assert not (into[1][0] ^ stored.rounds[1][0]) & stored.rounds[1][2]
    assert resumed[:2] == [0, 1]
    assert steps < plain_steps


def test_round_points_whose_loads_were_copied_since_are_not_used(monkeypatch):
    # the extension loads 512 itself in round 0, so round 1 has the base's
    # bytes at 512, which the prefix's round-1 run read fresh: that point
    # must not serve, and a poisoned stand-in shows it is never touched
    _, stored, _, _ = _boost_from(monkeypatch, CHAIN_PREFIX, CHAIN_BASE, SiblingStream())
    p = Program(CHAIN_PREFIX.instrs + parse_program("SBB R2, [BASE+R1]\nSBB R1, [BASE+R0]").instrs)
    into, resumed, _, _ = _check_round_points(monkeypatch, p, CHAIN_BASE, stored)
    assert 512 in (into[1][0] ^ stored.rounds[1][0]) & stored.rounds[1][2]
    assert resumed[:1] == [0] and 1 not in resumed
    (copied0, _, loads0), (copied1, _, loads1) = stored.rounds[0], stored.rounds[1]
    poisoned = _copy(stored, {1: (copied1, _Poisoned(), loads1)})
    assert _check_round_points(monkeypatch, p, CHAIN_BASE, poisoned)[0] == into
    # the round-0 point is used: poisoning it too fails
    poisoned = _copy(poisoned, {0: (copied0, _Poisoned(), loads0)})
    with pytest.raises(AssertionError, match="another program or setting"):
        _boost_from(monkeypatch, p, CHAIN_BASE, poisoned)


def test_round_points_with_a_coincidence_cell(monkeypatch):
    # the base's word at 64 equals the generator's there, so 64 is loaded
    # but never needed: fresh and copied bytes agree at it
    fresh = Xorshift64Star(CHAIN_SEED).next_bytes(SANDBOX_SIZE)
    mem = bytearray(CHAIN_BASE.mem)
    mem[64:72] = fresh[64:72]
    base = Input(r0=64, r1=512, r2=0, mem=bytes(mem))
    # a program that loads only 64 agrees before any round is simulated
    one_load = Program(CHAIN_PREFIX.instrs[:1])
    sibling, into, _, steps = _boost_from(monkeypatch, one_load, base, SiblingStream())
    assert sibling.mem == fresh and into.rounds == {} and steps == 0
    assert (into.length, into.result, into.steps) == (1, sibling, 0)
    _, stored, _, _ = _boost_from(monkeypatch, CHAIN_PREFIX, base, SiblingStream())
    p = CHAIN_PREFIX.append(parse_program("SBB R1, [BASE+R0]").instrs[0])
    into, resumed, steps, plain_steps = _check_round_points(monkeypatch, p, base, stored)
    assert resumed and steps < plain_steps


def test_neutral_suffix_carries_the_boost_result(monkeypatch):
    # the prefix's rounds terminate within 2 steps: its result serves every
    # extension by neutral instructions that fits the budget, without a run
    _, stored, _, _ = _boost_from(monkeypatch, CHAIN_PREFIX, CHAIN_BASE, SiblingStream())
    assert (stored.length, stored.steps) == (2, 2)
    neutral = Program(CHAIN_PREFIX.instrs + parse_program("SBB R1, R2\nJNS +2\nJMP +1").instrs)
    sibling, into, resumed, steps = _boost_from(monkeypatch, neutral, CHAIN_BASE, stored)
    assert sibling == stored.result and steps == 0 and resumed == []
    assert (into.length, into.steps) == (2, 2)
    # after a backward branch or a memory operand the rounds run again
    for suffix in ("SBB R0, R2\nJNS -1", "SBB R1, [BASE+R1]", "SBB [BASE+R1], R1"):
        p = Program(CHAIN_PREFIX.instrs + parse_program(suffix).instrs)
        assert _boost_from(monkeypatch, p, CHAIN_BASE, stored)[3] > 0, suffix

import json
import random
from collections import OrderedDict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leaklab.arch import (
    DEFAULT_STEP_BUDGET,
    DEFAULT_WINDOW,
    SANDBOX_SIZE,
    ContractMode,
    ContractSpec,
    Input,
    Xorshift64Star,
    contract_trace,
    generate_inputs,
    input_from_seed,
    stream_seed,
)
from leaklab import arch, detect, uarch
from leaklab.detect import (
    MAX_BOOSTS_PER_INPUT,
    SIBLING_MEMO_SIZE,
    ViolationReport,
    _filter_tier,
    boost_input,
    detect_violation,
)
from leaklab.env import EnvConfig
from leaklab.errors import ConfigError
from leaklab.harness import scaling_action_config
from leaklab.isa import (
    KIND_JNS,
    ActionSpaceConfig,
    Program,
    build_action_space,
    parse_program,
    render_program,
)
from leaklab.uarch import REJECTED, ResumePoints, _is_quiet, hw_run, observe

from conftest import make_input
from reference import reference_sibling, reference_violation

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
# loads and read-modify-writes among branches that open windows, so that
# most programs read memory, many of them transiently
LOAD_MENU = build_action_space(ActionSpaceConfig(parse_program("""
SBB R0, R0
SBB R2, R2
JNS +2
JNS +3
SBB R0, [BASE+R1]
SBB R1, [BASE+R2]
SBB R2, [BASE+R0]
SBB R1, [BASE+R1]
SBB [BASE+R0], R2
SBB [BASE+R2], R1
""").instrs))


def _boost(p, base, contract, seed, index, budget=DEFAULT_STEP_BUDGET):
    """boost_input of `base` given the load set of its contract trace of
    `p`."""
    return boost_input(base, _loads(contract_trace(p, base, contract, budget)), seed, index)


def test_boost_empty_program():
    base = make_input(r0=1, r1=2, r2=3)
    sib = _boost(Program(), base, CT_SEQ, 1, 1)
    assert sib is not None
    assert (sib.r0, sib.r1, sib.r2) == (1, 2, 3)
    assert sib.mem != base.mem  # nothing constrained the fresh memory


def test_boost_single_load():
    p = parse_program("SBB R0, [BASE+R1]")
    base = make_input(r1=256, mem_byte=5)
    sib = _boost(p, base, CT_SEQ, 2, 1)
    assert sib is not None
    assert sib.mem[256:264] == base.mem[256:264]  # the loaded cell is copied
    assert sib.mem != base.mem
    assert contract_trace(p, sib, CT_SEQ) == contract_trace(p, base, CT_SEQ)


def test_boost_chained_loads_converges():
    # each load's value flows into the next load's address, and one copy of
    # the base's loaded cells still fixes the whole chain
    p = parse_program("SBB R1, [BASE+R2]\nSBB R0, [BASE+R1]\nSBB R2, [BASE+R0]")
    rng = random.Random(0)
    for trial in range(20):
        base = input_from_seed(rng.randrange(1 << 32))
        sib = _boost(p, base, CT_SEQ, trial, 1)
        assert contract_trace(p, sib, CT_SEQ) == contract_trace(p, base, CT_SEQ)


def test_boost_verifies_under_ct_cond():
    contract = ContractSpec(ContractMode.CT_COND, spec_depth=8)
    base = make_input(r2=130)
    sib = _boost(PLANTED, base, contract, 3, 1)
    assert sib is not None
    assert contract_trace(PLANTED, sib, contract) == contract_trace(PLANTED, base, contract)


def _terminating_programs(rng, space, contract, count, max_len=10, budget=300):
    """(program, base input, base trace) triples with a terminating base."""
    out = []
    while len(out) < count:
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, max_len + 1))))
        base = input_from_seed(rng.randrange(1 << 32))
        trace = contract_trace(p, base, contract, budget)
        if trace is not REJECTED:
            out.append((p, base, trace))
    return out


def _loads(trace) -> frozenset:
    """Every address that a contract trace loads."""
    return frozenset(obs[1] for obs in trace if obs[0] == "L")


def _is_simulated_fixpoint(p, base, sibling, contract, budget, base_trace):
    """Whether simulating `sibling` and copying the base's bytes at every
    address its own trace loads would change nothing, and its trace is the
    base's: the fixpoint that a copy-and-resimulate search stops at."""
    tr = contract_trace(p, sibling, contract, budget)
    return tr == base_trace and all(sibling.mem[a : a + 8] == base.mem[a : a + 8] for a in _loads(tr))


@pytest.mark.parametrize(
    "contract", [CT_SEQ, ContractSpec(ContractMode.CT_COND, spec_depth=8)], ids=lambda c: c.name
)
@pytest.mark.parametrize("space", [build_action_space(), CHAINED_LOADS], ids=["default", "chained"])
def test_boost_matches_simulated_fixpoint(contract, space):
    # one copy of the base's loads lands on the fixpoint at once, on chains
    # of dependent loads too
    rng = random.Random(23)
    for k, (p, base, trace) in enumerate(_terminating_programs(rng, space, contract, 150, max_len=24)):
        sibling = boost_input(base, _loads(trace), k, 1)
        assert _is_simulated_fixpoint(p, base, sibling, contract, 300, trace), render_program(p)


@pytest.mark.parametrize("length", [9, 10, 40])
def test_dependent_load_chains_boost(length):
    # each load's value is the next load's address (the Spectre pattern);
    # a search that copies only what the sibling loaded moves the next load
    # with every copy, while one copy of the base's loads fixes them all
    p = parse_program("\n".join(["SBB R0, [BASE+R0]"] * length))
    base = generate_inputs(3, 2)[0]
    trace = contract_trace(p, base, CT_SEQ)
    sibling = boost_input(base, _loads(trace), 5, 1)
    assert len(_loads(trace)) >= length - 2  # the chain reads new addresses
    assert _is_simulated_fixpoint(p, base, sibling, CT_SEQ, DEFAULT_STEP_BUDGET, trace)


def test_boost_without_loads_simulates_nothing(monkeypatch):
    p = parse_program("SBB R0, R1\nJNS -1\nIMUL R1, R0\nJMP +2")
    base = make_input(r0=1, r1=2, r2=3)
    base_trace = contract_trace(p, base, CT_SEQ)
    assert all(obs[0] != "L" for obs in base_trace)
    calls = []
    monkeypatch.setattr(detect, "contract_trace", lambda *args: calls.append(args))
    # the base's trace loads nothing, so it has no cells to copy
    sibling = boost_input(base, _loads(base_trace), 4, 1)
    assert sibling.mem == Xorshift64Star(stream_seed(4, 1)).next_bytes()
    assert calls == []


def test_detect_empty_program(inputs20):
    assert detect_violation(Program(), inputs20) is None


def test_detect_planted_fixture(inputs20):
    report = detect_violation(PLANTED, inputs20)
    assert isinstance(report, ViolationReport)
    assert report.diverging_sets
    assert report.htraces[0] != report.htraces[1]
    assert report.revalidate()


def test_detect_planted_no_speculation(inputs20, monkeypatch):
    # at window 0 every program is quiet: only the contract traces run
    calls, _ = _detect_calls(monkeypatch)
    assert detect_violation(PLANTED, inputs20, window=0) is None
    assert calls == [("contract_trace", inp) for inp in inputs20]


def test_detect_planted_covered_by_ct_cond(inputs20):
    contract = ContractSpec(ContractMode.CT_COND, spec_depth=8)
    assert detect_violation(PLANTED, inputs20, contract=contract) is None


def test_detect_rejects_nonterminating(inputs20, monkeypatch):
    # no path reaches the end, so nothing runs
    calls, steps = _detect_calls(monkeypatch)
    assert detect_violation(parse_program("JMP -2"), inputs20) is REJECTED
    assert calls == [] and steps == [0]


# --- what the program's text decides before anything runs -------------------

# Mostly instructions that touch no memory, so that many programs are quiet
# and a window's one access lies at any distance from its branch.
NEUTRAL_MENU = build_action_space(ActionSpaceConfig(parse_program("""
SBB R0, R0
SBB R1, R2
IMUL R2, R0
SBB R2, R1
JNS +2
JNS +3
JNS -2
JMP +2
JMP -3
SBB R1, [BASE+R0]
SBB [BASE+R2], R1
""").instrs))


def _window_access(p, inp, window, contract=CT_SEQ, budget=300):
    """`hw_run` of `p` on `inp`, and whether one of its mispredicted
    windows (`excursion` with stop=KIND_JNS) issued a memory access."""
    accessed = []
    excursion = uarch.excursion

    def recording(instrs, state, pc, depth, n, stop, out):
        start = len(out)
        result = excursion(instrs, state, pc, depth, n, stop, out)
        accessed.append(stop == KIND_JNS and any(o[0] != "P" for o in out[start:]))
        return result

    uarch.excursion = recording
    try:
        run = hw_run(p, inp, window, budget, contract=contract)
    finally:
        uarch.excursion = excursion
    return run, any(accessed)


@settings(max_examples=400, deadline=None)
@given(
    menu=st.sampled_from([build_action_space(), build_action_space(scaling_action_config()), NEUTRAL_MENU,
                          CHAIN_MENU]),
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=24),
    window=st.sampled_from([0, 1, 2, 3, 8]),
    contract=st.sampled_from([CT_SEQ, ContractSpec(ContractMode.CT_COND)]),
    regs=st.lists(st.integers(0, SANDBOX_SIZE - 1), min_size=3, max_size=3),
    seed=st.integers(0, (1 << 64) - 1),
)
def test_quiet_programs_open_no_window_that_touches_memory(menu, picks, window, contract, regs, seed):
    # whenever a mispredicted window issues a load or a store, the walk
    # says the program is not quiet; a quiet program's probe vectors are
    # their committed parts, it has no chain, and detecting it from its
    # contract traces alone gives what measuring it does
    p = Program(tuple(menu[k % menu.size] for k in picks))
    quiet = _is_quiet(p.instrs, window)
    inputs = [make_input(*regs), input_from_seed(seed)]
    for inp in inputs:
        run, accessed = _window_access(p, inp, window, contract)
        if accessed:
            assert not quiet, render_program(p)
        if quiet and run is not REJECTED:
            assert run.htrace == run.committed_htrace and run.chain is None, render_program(p)
    if quiet:
        measured = observe(p, inputs, contract, window, 300)
        expected = REJECTED if measured is REJECTED else None
        assert detect_violation(p, inputs, contract, window, budget=300) is expected, render_program(p)


# JNS +2 is taken to the end; its window runs JMP -3, then the load
THROUGH_A_JMP = "JMP +2\nSBB R1, [BASE+R2]\nSBB R0, R0\nJNS +2\nJMP -3"
# JNS +5 is taken to the end; its window reaches the load at offset 3
AT_OFFSET_3 = "SBB R0, R0\nJNS +5\nSBB R1, R1\nSBB R1, R1\nSBB R1, R1\nSBB R1, [BASE+R2]"
# (program, window, input, quiet): an input on which a mispredicted window
# issues the program's one access, unless the program is quiet
WALKS = {
    # the loop's exit is mispredicted taken, and the window reruns its body
    # with R0 = -1
    "taken-direction-only": ("SBB R2, [BASE+R0]\nSBB R0, R1\nJNS -2", 1, make_input(r0=5, r1=1), False),
    "fall-through-only": ("SBB R0, R0\nJNS +2\nSBB R1, [BASE+R2]", 1, make_input(), False),
    "through-a-jmp": (THROUGH_A_JMP, 2, make_input(), False),
    "jmp-at-the-window-end": (THROUGH_A_JMP, 1, make_input(), True),
    "at-distance-w": (AT_OFFSET_3, 4, make_input(), False),
    "at-distance-w+1": (AT_OFFSET_3, 3, make_input(), True),
    # the first window stops at once at the second JNS; the third's reaches
    "behind-a-jns": ("SBB R0, R0\nJNS +2\nJNS +2\nJNS +2\nSBB R1, [BASE+R2]", 8, make_input(), False),
    "window-0": ("SBB R0, R0\nJNS +2\nSBB R1, [BASE+R2]", 0, make_input(), True),
}


@pytest.mark.parametrize("name", WALKS)
def test_window_walk_examples(name):
    text, window, inp, quiet = WALKS[name]
    p = parse_program(text)
    assert _is_quiet(p.instrs, window) is quiet
    run, accessed = _window_access(p, inp, window)
    assert accessed is not quiet
    assert (run.htrace == run.committed_htrace) is quiet


def _detect_calls(monkeypatch):
    """(name, input or inputs) of every observe, contract_trace and hw_run
    call that detect makes, and a count of the instructions any simulator
    steps."""
    calls = []
    steps = [0]
    step_instruction = arch.step_instruction

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args[1]))
            return fn(*args, **kwargs)

        return wrapper

    def counted(state, instr, n):
        steps[0] += 1
        return step_instruction(state, instr, n)

    for name in ("observe", "contract_trace", "hw_run"):
        monkeypatch.setattr(detect, name, recorded(name, getattr(detect, name)))
    monkeypatch.setattr(arch, "step_instruction", counted)
    monkeypatch.setattr(uarch, "step_instruction", counted)
    return calls, steps


@pytest.mark.parametrize("text", ["JMP -2", "SBB R0, R1\nJNS -1", "SBB R0, R0\nJNS +2\nSBB R1, [BASE+R2]"])
def test_budget_is_checked_before_the_text_decides(text, inputs20):
    with pytest.raises(ConfigError, match="budget"):
        detect_violation(parse_program(text), inputs20, budget=0)


def test_quiet_loop_is_rejected_by_its_contract_traces(monkeypatch):
    # the loop ends on the first input and never on the second; its one
    # window reruns SBB R0, R1, which touches no memory
    p = parse_program("SBB R0, R1\nJNS -1")
    inputs = [make_input(r0=1, r1=2), make_input(r0=5), make_input(r0=1, r1=2)]
    assert _is_quiet(p.instrs, 8) and p.can_halt
    assert observe(p, inputs) is REJECTED
    calls, _ = _detect_calls(monkeypatch)
    assert detect_violation(p, inputs) is REJECTED
    assert calls == [("contract_trace", inputs[0]), ("contract_trace", inputs[1])]


def test_fixture_is_measured_once(monkeypatch):
    # the perfbench tracer's check: the fixture can halt and is not quiet
    inputs = generate_inputs(seed=1, count=2)
    calls, _ = _detect_calls(monkeypatch)
    detect_violation(PLANTED, inputs)
    assert [c for c in calls if c[0] != "hw_run"] == [("observe", inputs)]


def test_detect_deterministic_witness(inputs20):
    a = detect_violation(PLANTED, inputs20, seed=7)
    b = detect_violation(PLANTED, inputs20, seed=7)
    assert a.witness == b.witness
    assert a.htraces == b.htraces


def test_detect_planted_matches_reference(inputs20):
    fast = detect_violation(PLANTED, inputs20, seed=1)
    assert isinstance(fast, ViolationReport)
    assert fast == reference_violation(PLANTED, inputs20, seed=1)


def test_gated_detection_equals_reference(inputs20):
    # On random programs and inputs the observability gate changes no
    # result: the gated call must equal the from-scratch reference's.
    rng = random.Random(4821)
    space = build_action_space()
    outcomes = {"gated": 0, "boosted": 0, "reported": 0}
    checked = 0
    while checked < 300:
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 13))))
        fast = detect_violation(p, inputs20, budget=300, seed=checked)
        if fast is REJECTED:
            continue
        assert fast == reference_violation(p, inputs20, budget=300, seed=checked), render_program(p)
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
    inputs = inputs20[:5]
    for _ in range(150):
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 8))))
        r = detect_violation(p, inputs, window=0, budget=300, seed=5)
        assert r is None or r is REJECTED
        assert reference_violation(p, inputs, window=0, budget=300, seed=5) is r


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
# The same registers over random memory: the base's own transient loads land
# in other cache sets, so the gate lets GATE_GAP through, and a sibling
# witnesses the leak.
GATE_GAP_SEEN = [Input(r0=8, r1=16, r2=0, mem=input_from_seed(0).mem)]


def test_gate_gap_reference_finds_violation():
    report = reference_violation(GATE_GAP, GATE_GAP_INPUTS, seed=3)
    assert isinstance(report, ViolationReport)
    assert report.diverging_sets == (44,)
    assert report.revalidate()


@pytest.mark.xfail(
    strict=True,
    reason="the observability gate reads base inputs only and misses this violation",
)
def test_gate_gap_gated_equals_reference():
    gated = detect_violation(GATE_GAP, GATE_GAP_INPUTS, seed=3)
    assert gated == reference_violation(GATE_GAP, GATE_GAP_INPUTS, seed=3)


# --- the detector against the from-scratch reference -------------------------


def _check_against_reference(p, inputs, contract, window, seed):
    """detect_violation of `p` from scratch, against the reference: equal
    results on an observable call, and None on any other accepted call."""
    result = detect_violation(p, inputs, contract, window, seed=seed, budget=300)
    observations = observe(p, inputs, contract, window, 300)
    if observations is REJECTED:
        assert result is REJECTED
    elif _filter_tier(observations) == "observable":
        assert result == reference_violation(p, inputs, contract, window, seed=seed, budget=300), render_program(p)
    else:
        assert result is None, render_program(p)


def _ct_seq(rng):
    return CT_SEQ, DEFAULT_WINDOW


def _ct_cond_below_window(rng):
    depth = rng.randrange(1, 8)
    return ContractSpec(ContractMode.CT_COND, depth), rng.randrange(depth + 1, 9)


# name: (menu, contract and speculation settings, base inputs of a seed).
# Zeroed bases keep SF clear, so their branches are taken and mispredicted,
# and their siblings read random words wherever the base's trace loads
# nothing (GATE_GAP's shape).
DIFFERENTIALS = {
    "default": (build_action_space(), _ct_seq, lambda seed: generate_inputs(seed, 4)),
    "loads": (LOAD_MENU, _ct_seq, lambda seed: generate_inputs(seed, 4)),
    "chain-zeroed": (CHAIN_MENU, _ct_seq,
                     lambda seed: generate_inputs(seed, 3) + [make_input(r0=8, r1=16), make_input()]),
    "ct-cond-shallow": (build_action_space(), _ct_cond_below_window, lambda seed: generate_inputs(seed, 4)),
}


@pytest.mark.parametrize("name", DIFFERENTIALS)
@settings(max_examples=300, deadline=None)
@given(program_seed=st.integers(0, (1 << 64) - 1), seed=st.integers(0, (1 << 64) - 1))
def test_detection_matches_reference(name, program_seed, seed):
    # the program is drawn uniformly, 1 to 24 instructions from the menu,
    # from its own seed: Hypothesis' bias to small draws would make most
    # programs repeat one instruction and few reach the gate
    menu, settings_of, make_inputs = DIFFERENTIALS[name]
    rng = random.Random(program_seed)
    p = Program(tuple(menu[rng.randrange(menu.size)] for _ in range(rng.randrange(1, 25))))
    _check_against_reference(p, make_inputs(seed), *settings_of(rng), seed)


def _chain_menu_differential():
    """How many of 400 random CHAIN_MENU programs of 1 to 8 instructions are
    observable on six random bases and GATE_GAP's, and on how many of those
    detect_violation and the reference disagree."""
    rng = random.Random(0)
    inputs = generate_inputs(5, 6) + GATE_GAP_INPUTS
    observable = disagree = 0
    for k in range(400):
        p = Program(tuple(CHAIN_MENU[rng.randrange(CHAIN_MENU.size)] for _ in range(rng.randrange(1, 9))))
        observations = observe(p, inputs, budget=300)
        if observations is REJECTED or _filter_tier(observations) != "observable":
            continue
        observable += 1
        result = detect_violation(p, inputs, budget=300, seed=k, observations=observations)
        disagree += result != reference_violation(p, inputs, budget=300, seed=k)
    return observable, disagree


def test_reference_sees_a_broken_chain_check(monkeypatch):
    # the differential finds no disagreement; with a chain check that never
    # fires, every sibling takes its base's probe vector, and it finds some
    observable, disagree = _chain_menu_differential()
    assert observable >= 50 and disagree == 0
    monkeypatch.setattr(uarch, "_is_chain", lambda *args: False)
    assert _chain_menu_differential()[1] > 0


def test_report_json_round_trip(inputs20):
    # under each contract the gadget's leaking load lies past the contract's
    # depth, inside the window, so it is reported
    for name in ("ct-seq", "ct-cond", "ct-cond:3"):
        contract = ContractSpec.from_name(name)
        depth = contract.spec_depth
        program = parse_program(f"SBB R0, R0\nJNS +{depth + 2}\n" + "IMUL R0, R0\n" * depth + "SBB R1, [BASE+R2]")
        report = detect_violation(program, inputs20, contract, depth + 1)
        assert report.contract == contract
        back = ViolationReport.from_json(report.to_json())
        assert back == report
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
    # quick version of the acceptance criterion: every random terminating
    # program can be boosted, and every sibling is verified
    rng = random.Random(99)
    space = build_action_space()
    attempts = 0
    succeeded = 0
    while attempts < 100:
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 10))))
        base = input_from_seed(rng.randrange(1 << 32))
        if contract_trace(p, base, CT_SEQ, 300) is REJECTED:
            continue
        attempts += 1
        sib = _boost(p, base, CT_SEQ, attempts, 1, 300)
        if contract_trace(p, sib, CT_SEQ, 300) == contract_trace(p, base, CT_SEQ, 300):
            succeeded += 1
    assert succeeded == attempts


@settings(max_examples=300, deadline=None)
@given(
    space=st.sampled_from([build_action_space(), CHAINED_LOADS, build_action_space(scaling_action_config())]),
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=24),
    contract=st.sampled_from([CT_SEQ] + [ContractSpec(ContractMode.CT_COND, d) for d in (1, 4, 8)]),
    budget=st.sampled_from([5, 9, 17, 40, 300, 10_000]),
    base_seed=st.integers(0, (1 << 64) - 1),
    seed=st.integers(0, (1 << 64) - 1),
    index=st.integers(0, (1 << 16) - 1),
)
def test_sibling_is_the_stream_bytes_with_the_base_loads(space, picks, contract, budget, base_seed, seed, index):
    p = Program(tuple(space[k % space.size] for k in picks))
    base = input_from_seed(base_seed)
    trace = contract_trace(p, base, contract, budget)
    if trace is REJECTED:
        return  # nothing to boost: detection rejects the program
    loads = _loads(trace)
    sibling = boost_input(base, loads, seed, index)
    fresh = Xorshift64Star(stream_seed(seed, index)).next_bytes()
    for addr in range(0, SANDBOX_SIZE, 8):
        source = base.mem if addr in loads else fresh
        assert sibling.mem[addr : addr + 8] == source[addr : addr + 8], addr
    assert (sibling.r0, sibling.r1, sibling.r2) == (base.r0, base.r1, base.r2)
    assert sibling.seed == stream_seed(seed, index)
    assert sibling == reference_sibling(base, trace, seed, index)
    assert boost_input(base, loads, seed, index) is sibling
    assert contract_trace(p, sibling, contract, budget) == trace


# --- detection on resumed observations, with the sibling memo ---------------

MENUS = [build_action_space(), build_action_space(scaling_action_config())]
RESET = -1  # an episode step that starts the program over


def _detect_with_runs(*args, memo=True, starts=None, **kwargs):
    """detect_violation's result, the result of every boost_input call it
    made, and (function, input, result) for every contract_trace and hw_run
    call it made, in order. With `memo` False every sibling is derived
    afresh and every sibling run starts from its base's chain point: neither
    boost_input's memo nor the held sibling runs are read or written. With
    `starts` a list, the point each hw_run call resumes from is appended to
    it."""
    boosts, runs = [], []

    def recorded(fn, name):
        def wrapper(*a, **kw):
            result = fn(*a, **kw)
            if name is None:
                boosts.append(result)
            else:
                runs.append((name, a[1], result))
                if name == "hw" and starts is not None:
                    starts.append(a[4])
            return result

        return wrapper

    saved = detect.boost_input, detect.contract_trace, detect.hw_run
    held = detect._sibling_runs
    boost = saved[0] if memo else saved[0].__wrapped__
    detect.boost_input, detect.contract_trace, detect.hw_run = map(
        recorded, (boost, *saved[1:]), (None, "trace", "hw")
    )
    if not memo:
        detect._sibling_runs = OrderedDict()
    try:
        return detect_violation(*args, **kwargs), boosts, runs
    finally:
        detect.boost_input, detect.contract_trace, detect.hw_run = saved
        detect._sibling_runs = held


def _check_detection_call(p, inputs, contract, window, **kwargs):
    """detect_violation of `p` as the env calls it, given `kwargs`, with the
    memo as earlier calls left it, against the same call from scratch: no
    observations (it measures `p` from the reset) and no memo. Equal
    results, equal boost_input results for every stream, and equal sibling
    simulator calls in order (a wrong sibling can still give the same
    report). The call from scratch also traces the base inputs itself when
    `p` is quiet, and only then: one from-scratch contract trace per input,
    in order, up to the first REJECTED. Returns the first call's result,
    simulator runs and boosts, and how many of its sibling runs resumed from
    a point held since an earlier call."""
    held, starts = [entry[-1] for entry in detect._sibling_runs.values()], []
    resumed, resumed_boosts, resumed_runs = _detect_with_runs(p, inputs, contract, window, starts=starts,
                                                              **kwargs)
    kwargs.pop("observations", None)
    fresh, fresh_boosts, fresh_runs = _detect_with_runs(p, inputs, contract, window, memo=False, **kwargs)
    text = render_program(p)
    assert resumed == fresh, text
    if fresh is None or fresh is REJECTED:
        assert resumed is fresh
    assert resumed_boosts == fresh_boosts, text
    base_runs = []
    if _is_quiet(p.instrs, window):
        budget = kwargs.get("budget", DEFAULT_STEP_BUDGET)
        for inp in inputs:
            base_runs.append(("trace", inp, contract_trace(p, inp, contract, budget)))
            if base_runs[-1][2] is REJECTED:
                break
    assert fresh_runs[: len(base_runs)] == base_runs, text
    assert resumed_runs == fresh_runs[len(base_runs) :], text
    return resumed, resumed_runs, resumed_boosts, sum(any(s is h for h in held) for s in starts)


def _check_resumed_detection(steps, inputs, contract, window, budget, seed, boosts, check_from=0):
    """Drive detection as LeakEnv does: grow a program one instruction at a
    time (RESET starts it over), measure each candidate with the current
    program's resume points, and run detect_violation on every accepted one
    with those records. Every call on a program of at least `check_from`
    instructions must pass _check_detection_call, and on an observable one
    equal the reference's result. Returns how many checked calls boosted,
    and how many of their sibling runs resumed from a point held since an
    earlier call."""
    resume = ResumePoints()
    args = (contract, window, budget)
    p = Program()
    boosted = from_held = 0
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
        kwargs = dict(boosts_per_input=boosts, seed=seed, budget=budget, observations=records)
        if len(p) >= check_from:
            result, _, held, resumed = _check_detection_call(p, inputs, contract, window, **kwargs)
            boosted += bool(held)
            from_held += resumed
            if _filter_tier(records) == "observable":
                assert result == reference_violation(p, inputs, contract, window, boosts, seed, budget)
        else:
            detect_violation(p, inputs, contract, window, **kwargs)
    return boosted, from_held


# A chain window whose first tainting load sits at offset 1: counted from
# offset `spec_depth` on under CT-COND:1, it must not be missed.
DEPTH_ONE_CHAIN = parse_program("SBB R2, R2\nJNS +3\nSBB R1, R1\nSBB R1, [BASE+R0]\nSBB R2, [BASE+R1]")


@settings(max_examples=200, deadline=None)
@example(instrs=GATE_GAP.instrs, contract=CT_SEQ, window=8, regs=[8, 16, 0] * 2, seed=3)
@example(instrs=DEPTH_ONE_CHAIN.instrs, contract=ContractSpec(ContractMode.CT_COND, 1), window=8,
         regs=[8, 16, 0] * 2, seed=3)
@given(
    instrs=st.lists(st.sampled_from(CHAIN_MENU.actions), min_size=1, max_size=16),
    contract=st.sampled_from([CT_SEQ] + [ContractSpec(ContractMode.CT_COND, d) for d in range(1, 9)]),
    window=st.integers(1, 8),
    regs=st.lists(st.integers(0, SANDBOX_SIZE - 1), min_size=6, max_size=6),
    seed=st.integers(0, (1 << 64) - 1),
)
def test_sibling_runs_follow_the_chain_rule(instrs, contract, window, regs, seed):
    # grow a CHAIN_MENU program as LeakEnv does; on every step, for every
    # base, on its fresh and its resumed observation, each boosted sibling's
    # hw_run from the reset has the base's probe vector when the base's run
    # has no chain, and otherwise equals the sibling's run resumed from the
    # chain point. Zeroed bases (GATE_GAP_INPUTS' shape) keep SF clear, so
    # their branches are taken and mispredicted, and their siblings read
    # random words wherever the base's trace loads nothing.
    inputs = [make_input(*regs[k : k + 3]) for k in (0, 3)] + [input_from_seed(seed)]
    resume, p = ResumePoints(), Program()
    assert observe(p, inputs, contract, window, 300, resume=resume) is not REJECTED
    for instr in instrs:
        p = p.append(instr)
        resumed = observe(p, inputs, contract, window, 300, resume=resume)
        fresh = observe(p, inputs, contract, window, 300)
        assert resumed == fresh
        for records in (fresh, resumed):
            for i, (base, o) in enumerate(zip(inputs, records)):
                for j in (1, 2):
                    sibling = boost_input(base, _loads(o.ctrace), seed, (i << 8) | j)
                    run = hw_run(p, sibling, window, 300)
                    if o.chain is None:
                        assert run.htrace == o.htrace, render_program(p)
                    else:
                        assert hw_run(p, sibling, window, 300, o.chain) == run, render_program(p)


# Instructions that load nothing (ALU without a memory operand, branches)
# mixed with loads and a read-modify-write, so that a base's load set often
# keeps its size across appended instructions and often grows.
MIXED_MENU = build_action_space(ActionSpaceConfig(parse_program("""
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
# a CHAIN_MENU episode in which siblings resume from the points their runs
# on earlier steps held
@example(menu=CHAIN_MENU, picks=[5, 15, 25, 50, 44, 37, 18, 33, 13, 33, 52, 41, 34, 13, 41, 39, 2, 25, 9, 25, 14,
                                 58], contract=CT_SEQ, window=8, budget=300, seed=397, boosts=2)
@given(
    menu=st.sampled_from(MENUS + [CHAIN_MENU, MIXED_MENU]),
    picks=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=30),
    contract=st.sampled_from([CT_SEQ] + [ContractSpec(ContractMode.CT_COND, d) for d in range(1, 9)]),
    window=st.sampled_from([0, 1, 2, 3, 8]),
    budget=st.sampled_from([1, 2, 5, 9, 17, 40, 300, 10_000]),
    seed=st.integers(0, (1 << 64) - 1),
    boosts=st.integers(1, 3),
)
def test_resumed_siblings_match_from_scratch(menu, picks, contract, window, budget, seed, boosts):
    # one pick in eight resets the episode; budgets 1 and 2 reject most
    # steps, and budgets 5, 9 and 40 put carried results near the budget
    steps = [RESET if k % 8 == 7 else menu[k % menu.size] for k in picks]
    _check_resumed_detection(steps, generate_inputs(seed, 3), contract, window, budget,
                             seed, boosts)


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.integers(0, MIXED_MENU.size - 1), min_size=70, max_size=110),
    contract=st.sampled_from([CT_SEQ, ContractSpec(ContractMode.CT_COND, 3)]),
    window=st.sampled_from([2, 8]),
    budget=st.sampled_from([300, 10_000]),
    seed=st.integers(0, (1 << 64) - 1),
)
def test_resumed_siblings_match_from_scratch_past_the_predictor(picks, contract, window, budget, seed):
    # from 65 instructions on, a branch appended to the program shares a
    # predictor entry (pc mod 64) with a branch of the program it extends
    steps = [MIXED_MENU[k] for k in picks]
    _check_resumed_detection(steps, generate_inputs(seed, 3), contract, window, budget,
                             seed, 1, check_from=65)


def test_resumed_siblings_cover_gated_rejected_and_boosted_steps():
    # a fixed default-menu episode: gated, rejected and reset steps between
    # boosted ones, memo hits among the boosted steps' siblings, and sibling
    # runs resumed from the points that their runs on earlier steps held
    rng = random.Random(8)
    space = MENUS[0]
    steps = [RESET if rng.random() < 0.05 else space[rng.randrange(space.size)] for _ in range(120)]
    boosted, from_held = _check_resumed_detection(steps, generate_inputs(11, 6), CT_SEQ, DEFAULT_WINDOW, 300,
                                                  5, 2)
    assert boosted >= 10 and from_held > 0
    assert detect.boost_input.cache_info().hits > 0


def test_sibling_points_do_not_outlive_their_episode():
    # each episode opens with PLANTED, whose transient load makes every
    # program from its third instruction on observable, and there is one
    # base, so no call reports before it boosts. The episode after the reset
    # boosts first programs whose contract traces load nothing, whose
    # siblings are their streams' fresh bytes, then programs with loads,
    # whose windows are chains; the chain points and the memo entries of the
    # first episode give the second no result other than from scratch
    text = "SBB R0, [BASE+R1]\nSBB R2, [BASE+R0]\nSBB R1, [BASE+R2]\n"
    episodes = [Program(PLANTED.instrs + parse_program(body).instrs) for body in (text, "SBB R1, R2\n" + text)]
    steps = [*episodes[0].instrs, RESET, *episodes[1].instrs]
    boosted, _ = _check_resumed_detection(steps, generate_inputs(23, 2)[:1], CT_SEQ, DEFAULT_WINDOW, 300, 9, 2,
                                          check_from=len(PLANTED))
    assert boosted == sum(len(p) - len(PLANTED) + 1 for p in episodes)


# Two zero-memory bases with R0 = 1, R1 = 0 and R1 = 8.
EDGE_INPUTS = [Input(r0=1, r1=8 * k, r2=16 + 8 * k, mem=bytes(SANDBOX_SIZE)) for k in range(2)]
EDGE_Q = "SBB R0, [BASE+R1]\nJNS +3\nSBB R2, [BASE+R2]\nSBB R0, R0"


@pytest.mark.parametrize(
    "prefix, budget, suffix",
    [(EDGE_Q, 2, "SBB R1, R1"), ("SBB R2, [BASE+R1]\nSBB R1, R0", 300, "JNS -2")],
    ids=["budget-edge", "backward-branch"],
)
def test_results_not_carried_past_the_budget_or_a_new_load(prefix, budget, suffix):
    # budget edge: the first SBB clears SF, so JNS +3 jumps to the end; the
    # bases run 2 steps on the prefix, the whole budget, and 3 after the
    # suffix, so the extension is rejected before any boost.
    # Backward branch: on the second base JNS -2 returns to the first load
    # with R1 = 7, 6, ..., 0, which loads address 0 as well as 8, so the
    # prefix's sibling would lack the base's bytes at 0.
    # With the prefix's siblings in the memo, the extension's call equals
    # the reference's, and each sibling it boosts is derived from scratch.
    q = parse_program(prefix)
    p = Program(q.instrs + parse_program(suffix).instrs)
    traces = [contract_trace(p, base, CT_SEQ, budget) for base in EDGE_INPUTS]
    for seed in range(200):
        for i, base in enumerate(EDGE_INPUTS):
            boost_input(base, _loads(contract_trace(q, base, CT_SEQ, budget)), seed, (i << 8) | 1)
        result, boosts, _ = _detect_with_runs(p, EDGE_INPUTS, CT_SEQ, DEFAULT_WINDOW, boosts_per_input=1,
                                              seed=seed, budget=budget)
        assert result == reference_violation(p, EDGE_INPUTS, CT_SEQ, DEFAULT_WINDOW, 1, seed, budget), seed
        if result is REJECTED:
            assert boosts == [], seed
        else:
            assert boosts == [reference_sibling(base, trace, seed, (i << 8) | 1)
                              for i, (base, trace) in enumerate(zip(EDGE_INPUTS, traces))], seed


# A mispredicted JNS whose two-instruction window writes the cell R2
# addresses: on INPUTS every program that starts with it passes the
# observability gate, under WINDOW_2 none has a chain, and CT-COND:1's
# explored path loads nothing, so its load sets are CT-SEQ's.
OPEN = parse_program("SBB R0, R0\nJNS +3\nSBB R1, R1\nSBB [BASE+R2], R1")
OPEN_CHAIN = Program(OPEN.instrs + parse_program("SBB R0, [BASE+R1]\nSBB R2, [BASE+R0]").instrs)
WINDOW_2 = 2


def test_unchanged_load_sets_carry_results():
    # OPEN_CHAIN's extension by a re-load of the address its last load
    # reads and by instructions that load nothing, a forward branch among
    # them, keeps every base's load set: each stream's sibling is the memo's
    # object from OPEN_CHAIN's call, nothing is measured (no base has a
    # chain), and every call equals the call from scratch
    inputs = generate_inputs(19, 3)
    kwargs = dict(boosts_per_input=2, budget=300, seed=7)
    result, held, _ = _detect_with_runs(OPEN_CHAIN, inputs, CT_SEQ, WINDOW_2, **kwargs)
    assert result is None and len(held) == 6
    p = OPEN_CHAIN
    for line in ("SBB R1, [BASE+R0]", "SBB R1, R2", "JNS +2", "IMUL R0, R2", "JMP +1"):
        p = p.append(parse_program(line).instrs[0])
        _, runs, boosts, _ = _check_detection_call(p, inputs, CT_SEQ, WINDOW_2, **kwargs)
        assert runs == [], line
        assert all(b is h for b, h in zip(boosts, held, strict=True)), line


def test_siblings_are_keyed_on_base_seed_index_and_load_set():
    # after OPEN_CHAIN's call on INPUTS (seed 7), a call with another load
    # set, other bases on each stream (the inputs rotated) or another seed
    # derives every sibling afresh; one whose contract, window or budget
    # differs but whose load sets do not takes every sibling from the memo.
    # Each call equals the call from scratch.
    longer = OPEN_CHAIN.append(parse_program("SBB R1, R2").instrs[0])
    inputs = generate_inputs(19, 3)
    assert len({inp.mem[:8] for inp in inputs}) == 3
    base = dict(contract=CT_SEQ, window=WINDOW_2, budget=300, seed=7)
    cases = [
        (Program(OPEN.instrs + parse_program("SBB R0, [BASE+R1]\nSBB R2, [BASE+R1]\nSBB R1, R2").instrs),
         inputs, {}, False),
        (longer, inputs[1:] + inputs[:1], {}, False),
        (longer, inputs, dict(seed=8), False),
        (longer, inputs, dict(contract=ContractSpec(ContractMode.CT_COND, 1)), True),
        (longer, inputs, dict(window=3), True),
        (longer, inputs, dict(budget=17), True),
    ]
    for p, case_inputs, change, shared in cases:
        boost_input.cache_clear()
        _, held, _ = _detect_with_runs(OPEN_CHAIN, inputs, **base)
        kwargs = {**base, **change}
        result, boosts, runs = _detect_with_runs(p, case_inputs, **kwargs)
        assert (result, boosts, runs) == _detect_with_runs(p, case_inputs, memo=False, **kwargs), change
        assert [b is h for b, h in zip(boosts, held, strict=True)] == [shared] * len(held), change
        assert boost_input.cache_info().hits == shared * len(held)


def test_a_repeated_key_returns_the_same_sibling_and_draws_nothing(monkeypatch):
    p = parse_program("SBB R0, [BASE+R1]\nSBB R2, [BASE+R0]")
    base = generate_inputs(19, 2)[0]
    sibling = _boost(p, base, CT_SEQ, 7, 1)
    # an equal base and an equal load set, as another env or campaign
    # derives them, hit too
    again = generate_inputs(19, 2)[0]
    assert again == base and again is not base
    draws = []
    for owner, name in ((detect, "stream_seed"), (detect, "Xorshift64Star"), (Xorshift64Star, "next_bytes")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: draws.append(name))
    assert _boost(p, again, CT_SEQ, 7, 1) is sibling
    assert draws == []


def test_repeated_detection_calls_share_siblings(monkeypatch):
    # the fuzzer and the CLI's detect call detect_violation from scratch; a
    # repeated call boosts every stream from the memo, draws no bytes and
    # returns the same report
    first, held, _ = _detect_with_runs(GATE_GAP, GATE_GAP_SEEN, seed=3)
    draws = []
    monkeypatch.setattr(Xorshift64Star, "next_bytes", lambda *args: draws.append(args))
    again, boosts, _ = _detect_with_runs(GATE_GAP, GATE_GAP_SEEN, seed=3)
    assert isinstance(first, ViolationReport) and again == first and first.witness[1] is held[-1]
    assert boosts and all(b is h for b, h in zip(boosts, held, strict=True))
    assert draws == []


def test_memo_holds_a_default_env_s_streams():
    cfg = EnvConfig()
    assert boost_input.cache_info().maxsize == SIBLING_MEMO_SIZE >= cfg.num_inputs * cfg.boosts_per_input


def test_held_hw_points_serve_later_boosted_calls(monkeypatch):
    # a fixed CHAIN_MENU episode: every sibling hw_run detection makes
    # resumes, none from the reset, either from its base observation's chain
    # point or from the point its own run on an earlier step captured, when
    # that run started from this same chain point; some chain points were
    # found on an earlier step and held since in observe's HwPoints, and
    # some runs resume from their stream's held point; and every call still
    # equals the call from scratch, sibling runs included
    rng = random.Random(8)
    steps = [CHAIN_MENU[rng.randrange(CHAIN_MENU.size)] for _ in range(30)]
    inputs = generate_inputs(11, 6)
    kwargs = dict(boosts_per_input=2, seed=5, budget=300)
    used = []
    run = detect.hw_run

    def recorded(*args):
        used.append((args[1], args[4] if len(args) > 4 else None))
        return run(*args)

    monkeypatch.setattr(detect, "hw_run", recorded)
    resume, p = ResumePoints(), Program()
    held = []
    from_chain = from_held = from_stream = 0
    for step in steps:
        candidate = p.append(step)
        records = observe(candidate, inputs, CT_SEQ, DEFAULT_WINDOW, 300, resume=resume)
        if records is REJECTED:
            continue
        p = candidate
        streams = dict(detect._sibling_runs)
        used.clear()
        detect_violation(p, inputs, CT_SEQ, DEFAULT_WINDOW, observations=records, **kwargs)
        chains = [o.chain for o in records if o.chain is not None]
        for sibling, point in used:
            if any(point is chain for chain in chains):
                from_chain += 1
                from_held += any(point is h for h in held)
            else:
                chain, *_, captured = streams[sibling]
                assert point is captured and any(chain is c for c in chains)
                from_stream += 1
        held = chains
        _check_detection_call(p, inputs, CT_SEQ, DEFAULT_WINDOW, observations=records, **kwargs)
    assert from_held > 0 and from_chain > from_held and from_stream > 0


# GATE_GAP's shape with the loaded value multiplied by R2 = 0 before it
# addresses: the window is a chain by the taint rule, yet always loads 0, so
# no sibling diverges.
ZEROED_CHAIN = parse_program("SBB R2, R2\nJNS +3\nSBB R1, [BASE+R0]\nIMUL R1, R2\nSBB R0, [BASE+R1]")
# a load whose address is the value an earlier load read, looped by a JNS
# whose taken target clamps to 0
LOOP_BACK = parse_program("SBB R2, [BASE+R1]\nSBB R0, [BASE+R2]\nJNS -3")


def test_carried_siblings_run_from_the_chain_point():
    # ZEROED_CHAIN's JNS opens a chain window on every input. An appended
    # ALU op, or a re-load of the address its last load reads, keeps every
    # load set, so every sibling is the memo's object from ZEROED_CHAIN's
    # call, and detection still runs each from its base's chain point on the
    # longer program.
    inputs = generate_inputs(19, 3)
    kwargs = dict(contract=CT_SEQ, window=DEFAULT_WINDOW, budget=300, seed=7)
    assert all(o.chain is not None for o in observe(ZEROED_CHAIN, inputs))
    for line in ("SBB R1, R2", "SBB R2, [BASE+R1]"):
        result, held, _ = _detect_with_runs(ZEROED_CHAIN, inputs, **kwargs)
        assert result is None and len(held) == 6
        p = ZEROED_CHAIN.append(parse_program(line).instrs[0])
        result, boosts, runs = _detect_with_runs(p, inputs, **kwargs)
        assert result is None is detect_violation(p, inputs, **kwargs), line
        assert all(b is h for b, h in zip(boosts, held, strict=True)), line
        assert [(name, inp) for name, inp, _ in runs] == [("hw", b) for b in boosts], line


def test_held_sibling_runs_serve_only_their_chain_point_settings_and_extensions():
    # a JNS ends ZEROED_CHAIN's chain window before the program's end, so
    # the resume points carry the chain points into the records of its
    # extension by an ALU op: both programs' records hold the same chain
    # point objects. After the extension's call holds its sibling runs, the
    # shorter program's call (whose end those points lie past) runs every
    # sibling from its chain point and equals the call from scratch; the
    # extension's call then resumes every sibling from the points that call
    # held, and a call with another window or budget resumes none
    inputs = generate_inputs(19, 3)
    q = ZEROED_CHAIN.append(parse_program("JNS +1").instrs[0])
    p = q.append(parse_program("SBB R1, R2").instrs[0])
    resume = ResumePoints()
    short = observe(q, inputs, resume=resume)
    records = observe(p, inputs, resume=resume)
    assert all(a.chain is b.chain is not None for a, b in zip(short, records))
    kwargs = dict(contract=CT_SEQ, boosts_per_input=2, seed=7)
    *_, from_held = _check_detection_call(p, inputs, window=DEFAULT_WINDOW, observations=records, **kwargs)
    assert from_held == 0
    *_, from_held = _check_detection_call(q, inputs, window=DEFAULT_WINDOW, observations=short, **kwargs)
    assert from_held == 0
    *_, from_held = _check_detection_call(p, inputs, window=DEFAULT_WINDOW, observations=records, **kwargs)
    assert from_held == 6
    for window, budget in ((DEFAULT_WINDOW - 1, DEFAULT_STEP_BUDGET), (DEFAULT_WINDOW, 300)):
        starts = []
        _detect_with_runs(p, inputs, window=window, budget=budget, observations=records, starts=starts, **kwargs)
        assert len(starts) == 6 and all(any(s is o.chain for o in records) for s in starts), (window, budget)


def test_held_sibling_runs_serve_only_their_own_chain_point():
    # on LOOP_BACK the mispredicted window of its last instruction, JNS -3,
    # opens at the program's end and issues nothing; an appended SBB R0, R0
    # gives it one instruction. So two bases find their chain point at the
    # same step of both programs, but the extension's counts one more
    # squashed instruction, and a sibling run resumed from a point held
    # since the shorter program's call would count one too few. Detection
    # on the extension equals the call from scratch.
    inputs = generate_inputs(446442056, 3)
    p = LOOP_BACK.append(parse_program("SBB R0, R0").instrs[0])
    resume = ResumePoints()
    short = observe(LOOP_BACK, inputs, CT_SEQ, 4, 300, resume=resume)
    records = observe(p, inputs, CT_SEQ, 4, 300, resume=resume)
    moved = [(a.chain.transient, b.chain.transient) for a, b in zip(short, records) if a.chain != b.chain]
    assert moved == [(0, 1)] * 2
    _check_resumed_detection(list(p.instrs), inputs, CT_SEQ, 4, 300, 446442056, 2)


# Zero-memory bases on which `SBB R2, R2` clears SF, so each JNS is taken and
# mispredicted. JNS +2's window runs JMP to the program's end and stays open
# there. In OPEN_BEFORE_CHAIN, JNS +4's window is a chain that always loads
# address 0 (ZEROED_CHAIN's shape); the appended instructions make the first
# window load at R1 (cache set 16 on CHAIN_RULE_INPUTS), then through a loaded
# value, which makes it a chain. In OPEN_BEFORE_OPEN there is no chain: JNS
# +2's second window loads and stays open, and the last instruction makes it
# a chain.
OPEN_BEFORE_CHAIN = parse_program("SBB R2, R2\nJNS +2\nJMP +6\nJNS +4\nSBB R1, [BASE+R0]\nIMUL R1, R2\n"
                                  "SBB R0, [BASE+R1]\nIMUL R2, R2\n"
                                  "SBB R2, [BASE+R1]\nSBB R1, [BASE+R0]\nSBB R0, [BASE+R1]")
OPEN_BEFORE_OPEN = parse_program("SBB R2, R2\nJNS +2\nJMP +4\nJNS +2\nSBB R1, [BASE+R0]\nIMUL R2, R2\n"
                                 "SBB R0, [BASE+R2]\nSBB R2, [BASE+R1]")
CHAIN_RULE_INPUTS = [make_input(r0=512, r1=1024)]


@pytest.mark.parametrize(
    "program, chains",
    [
        # (chain pc, squashed instructions before it) on each prefix
        (OPEN_BEFORE_CHAIN, [None] * 6 + [(3, 1), (3, 1), (3, 2), (3, 3), (1, 0)]),
        (OPEN_BEFORE_OPEN, [None] * 7 + [(3, 3)]),
    ],
    ids=["open-before-chain", "open-before-open"],
)
def test_windows_open_before_the_chain_point_count_toward_it(program, chains, monkeypatch):
    # grown as LeakEnv grows it, the first window issues one more
    # instruction on each step. What it adds counts toward every point
    # after it: the chain point, and a later open window's branch point, which
    # becomes the chain point once that window is a chain. A window that
    # becomes a chain takes the chain point's place. A chain point that kept
    # the shorter program's counts would miss set 16, and its siblings would
    # report a leak that does not revalidate. Each step's detection equals
    # the call from scratch and the reference's, and every sibling's probe
    # vector is that of its hw_run from the reset.
    runs = []
    run = detect.hw_run

    def recorded(*args):
        result = run(*args)
        runs.append((args[0], args[1], result.htrace))
        return result

    monkeypatch.setattr(detect, "hw_run", recorded)
    boosted, _ = _check_resumed_detection(list(program.instrs), CHAIN_RULE_INPUTS, CT_SEQ, DEFAULT_WINDOW, 300,
                                          7, 2)
    assert boosted > 0 and runs
    for p, sibling, htrace in runs:
        assert htrace == run(p, sibling, DEFAULT_WINDOW, 300).htrace, render_program(p)
    seen = []
    for k in range(1, len(program) + 1):
        chain = observe(Program(program.instrs[:k]), CHAIN_RULE_INPUTS, CT_SEQ, DEFAULT_WINDOW, 300)[0].chain
        seen.append(None if chain is None else (chain.state.pc, chain.transient))
    assert seen == chains


def test_a_chain_point_before_the_end_is_carried_and_its_siblings_resume():
    # ZEROED_CHAIN's chain window reaches the program's end and stays open
    # there, but no window is open before its chain point, so an appended
    # ALU op extends that window alone: the extension's records carry the
    # same chain point objects, and every sibling run resumes from the point
    # that its run on ZEROED_CHAIN held. Both calls equal the calls from
    # scratch.
    inputs = generate_inputs(19, 3)
    p = ZEROED_CHAIN.append(parse_program("SBB R1, R2").instrs[0])
    resume = ResumePoints()
    short = observe(ZEROED_CHAIN, inputs, resume=resume)
    records = observe(p, inputs, resume=resume)
    assert all(hw.windows for _, hw in resume.entries.values())
    assert all(a.chain is b.chain is not None for a, b in zip(short, records))
    kwargs = dict(contract=CT_SEQ, window=DEFAULT_WINDOW, boosts_per_input=2, seed=7)
    *_, from_held = _check_detection_call(ZEROED_CHAIN, inputs, observations=short, **kwargs)
    assert from_held == 0
    *_, from_held = _check_detection_call(p, inputs, observations=records, **kwargs)
    assert from_held == 6


def test_calls_that_observe_the_program_hold_no_sibling_runs():
    # the fuzzer's and the CLI's calls observe the program themselves, so
    # their chain points are new objects on every call, and no later call
    # could resume a sibling run they held: they hold none. The same call
    # given observe's records holds each sibling it ran.
    result, _, runs = _detect_with_runs(GATE_GAP, GATE_GAP_SEEN, seed=3)
    siblings = {inp for name, inp, _ in runs if name == "hw"}
    assert isinstance(result, ViolationReport) and siblings
    assert len(detect._sibling_runs) == 0
    records = observe(GATE_GAP, GATE_GAP_SEEN)
    assert detect_violation(GATE_GAP, GATE_GAP_SEEN, seed=3, observations=records) == result
    assert set(detect._sibling_runs) == siblings


def test_sibling_runs_from_the_chain_point_meet_the_budget(monkeypatch):
    # GATE_GAP commits 3 instructions, the whole budget here: a sibling run
    # resumed from the chain point commits the base's path and counts its
    # instructions from the reset, so it terminates, and detection finds
    # what it finds with budget to spare
    runs = []
    run = detect.hw_run

    def recorded(*args):
        result = run(*args)
        runs.append(result)
        return result

    monkeypatch.setattr(detect, "hw_run", recorded)
    assert observe(GATE_GAP, GATE_GAP_SEEN, budget=2) is REJECTED
    assert observe(GATE_GAP, GATE_GAP_SEEN, budget=3)[0].chain is not None
    report = detect_violation(GATE_GAP, GATE_GAP_SEEN, seed=3, budget=3)
    assert runs and all(result is not REJECTED for result in runs)
    assert report == detect_violation(GATE_GAP, GATE_GAP_SEEN, seed=3)
    assert report == reference_violation(GATE_GAP, GATE_GAP_SEEN, seed=3, budget=3)
    assert report.revalidate(budget=3)


class _ReadCountingTrace(tuple):
    """A base contract trace that counts how often it is read through."""

    reads = 0

    def __iter__(self):
        type(self).reads += 1
        return super().__iter__()


def test_carried_streams_draw_no_bytes(monkeypatch):
    # a boosted step on which every stream's key repeats still calls
    # boost_input once per stream and builds each base's load set once, and
    # none of those calls derives the stream's seed, builds its generator or
    # draws its fresh bytes
    inputs = generate_inputs(19, 3)
    kwargs = dict(boosts_per_input=2, budget=300, seed=7)
    assert detect_violation(OPEN_CHAIN, inputs, CT_SEQ, WINDOW_2, **kwargs) is None
    longer = OPEN_CHAIN.append(parse_program("SBB R1, R2").instrs[0])
    records = [o._replace(ctrace=_ReadCountingTrace(o.ctrace)) for o in observe(longer, inputs, CT_SEQ, WINDOW_2)]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)

        return wrapper

    monkeypatch.setattr(detect, "boost_input", counted("boost_input", detect.boost_input))
    monkeypatch.setattr(Xorshift64Star, "next_bytes", counted("next_bytes", Xorshift64Star.next_bytes))
    monkeypatch.setattr(detect, "stream_seed", counted("stream_seed", detect.stream_seed))
    monkeypatch.setattr(detect, "Xorshift64Star", counted("Xorshift64Star", detect.Xorshift64Star))
    reads = _ReadCountingTrace.reads
    assert detect_violation(longer, inputs, CT_SEQ, WINDOW_2, observations=records, **kwargs) is None
    assert calls == ["boost_input"] * (len(inputs) * 2)
    assert _ReadCountingTrace.reads - reads == len(inputs)


# --- the one-shot rule on one stream -----------------------------------------

# CHAIN_BASE loads 64, whose word makes R2 = 512, then 512; after CHAIN_PREFIX
# R0 = 63 and R1 = 512.
CHAIN_PREFIX = parse_program("SBB R2, [BASE+R0]\nSBB R0, [BASE+R2]")
CHAIN_BASE = Input(r0=64, r1=512, r2=0, mem=bytes(64) + ((1 << 64) - 512).to_bytes(8, "little") + bytes(4024))
# stream 1 under detection seed 3
CHAIN_FRESH = Xorshift64Star(stream_seed(3, 1)).next_bytes()


def _boost_on(p, base, memo=True):
    """boost_input of `p` on stream 1 under seed 3; with `memo` False,
    derived afresh."""
    boost = boost_input if memo else boost_input.__wrapped__
    return boost(base, _loads(contract_trace(p, base, CT_SEQ, 300)), 3, 1)


def test_boost_given_the_base_trace_simulates_nothing(monkeypatch):
    # given the load set of the base's trace
    p = parse_program("\n".join(["SBB R0, [BASE+R0]"] * 10))
    base = generate_inputs(3, 2)[0]
    trace = contract_trace(p, base, CT_SEQ)

    def fail(*args):
        raise AssertionError("boost_input simulated a run")

    with monkeypatch.context() as m:
        m.setattr(detect, "contract_trace", fail)
        m.setattr(detect, "hw_run", fail)
        sibling = boost_input(base, _loads(trace), 4, 1)
    assert contract_trace(p, sibling, CT_SEQ) == trace


def test_loads_of_loaded_addresses_derive_the_held_bytes():
    # an extension whose new load reads an address the base already loads
    # (R1 = 512) keeps the load set, so it returns the prefix's sibling
    # itself, which equals the one derived afresh
    held = _boost_on(CHAIN_PREFIX, CHAIN_BASE)
    p = CHAIN_PREFIX.append(parse_program("SBB R1, [BASE+R1]").instrs[0])
    assert _boost_on(p, CHAIN_BASE) is held == _boost_on(p, CHAIN_BASE, memo=False)
    assert boost_input.cache_info()[:2] == (1, 1)


def test_a_new_load_derives_other_bytes():
    # an extension that loads an address the base did not (R0 = 63 reads the
    # word at 56) copies the base's bytes there over the fresh ones
    held = _boost_on(CHAIN_PREFIX, CHAIN_BASE)
    p = CHAIN_PREFIX.append(parse_program("SBB R1, [BASE+R0]").instrs[0])
    assert _loads(contract_trace(p, CHAIN_BASE, CT_SEQ)) == {64, 512, 56}
    sibling = _boost_on(p, CHAIN_BASE)
    assert held.mem[56:64] == CHAIN_FRESH[56:64] != bytes(8) == sibling.mem[56:64]
    assert sibling.mem[:56] + sibling.mem[64:] == held.mem[:56] + held.mem[64:]
    assert sibling == _boost_on(p, CHAIN_BASE, memo=False)
    assert _boost_on(CHAIN_PREFIX, CHAIN_BASE) is held


def test_boost_with_a_coincidence_cell():
    # the base's word at 64 equals the generator's there, so 64 is loaded
    # and copied without changing a byte: a program that loads only 64
    # boosts to the stream's fresh bytes
    mem = bytearray(CHAIN_BASE.mem)
    mem[64:72] = CHAIN_FRESH[64:72]
    base = Input(r0=64, r1=512, r2=0, mem=bytes(mem))
    one_load = Program(CHAIN_PREFIX.instrs[:1])
    assert _boost_on(one_load, base).mem == CHAIN_FRESH
    # the chain then reads the fresh word's address, whose base bytes differ
    sibling = _boost_on(CHAIN_PREFIX, base)
    loads = _loads(contract_trace(CHAIN_PREFIX, base, CT_SEQ))
    assert 64 in loads and sibling.mem != CHAIN_FRESH
    assert _is_simulated_fixpoint(CHAIN_PREFIX, base, sibling, CT_SEQ, 300, contract_trace(CHAIN_PREFIX, base, CT_SEQ))


def test_neutral_suffix_carries_the_boost_result():
    # the prefix's sibling serves every extension by instructions that load
    # nothing as the same object
    held = _boost_on(CHAIN_PREFIX, CHAIN_BASE)
    neutral = Program(CHAIN_PREFIX.instrs + parse_program("SBB R1, R2\nJNS +2\nJMP +1").instrs)
    assert _boost_on(neutral, CHAIN_BASE) is held == _boost_on(neutral, CHAIN_BASE, memo=False)
    # so does a suffix that loads only addresses the base already loads: a
    # backward branch into the prefix, whose second load reads 512 again,
    # and a read-modify-write of 512
    for suffix in ("SBB R1, R2\nJNS -2", "SBB [BASE+R1], R1"):
        p = Program(CHAIN_PREFIX.instrs + parse_program(suffix).instrs)
        assert _loads(contract_trace(p, CHAIN_BASE, CT_SEQ, 300)) == {64, 512}, suffix
        assert _boost_on(p, CHAIN_BASE) is held == _boost_on(p, CHAIN_BASE, memo=False), suffix

import random

import pytest

from leaklab.arch import (
    NON_TERMINATING,
    ContractMode,
    ContractSpec,
    ArchState,
    contract_trace,
    input_from_seed,
)
from leaklab.errors import ConfigError
from leaklab.isa import Program, build_action_space, parse_program
from leaklab.uarch import (
    REJECTED,
    InputObservation,
    PerfCounters,
    SpecConfig,
    hw_run,
    htrace_hex,
    observe,
)

from conftest import make_input

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
    r = hw_run(PLANTED, make_input(r2=130), SpecConfig(window=0))
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


def test_squashed_store_rolls_back():
    p = parse_program("SBB R0, R0\nJNS +2\nSBB [BASE+R1], R2")
    inp = make_input(r1=512, r2=1, mem_byte=9)
    r = hw_run(p, inp)
    assert r.counters.br_misses == 1
    # transient RMW touched set 8 but memory is restored
    assert r.htrace == 1 << 8
    assert bytes(r.final_state.mem) == inp.mem


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
    rng = random.Random(3)
    space = build_action_space()
    for _ in range(300):
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 10))))
        inp = input_from_seed(rng.randrange(1 << 32))
        for budget in (7, 50):
            a = contract_trace(p, inp, CT_SEQ, budget)
            h = hw_run(p, inp, SpecConfig(), budget)
            assert (a is NON_TERMINATING) == (h is NON_TERMINATING)


def test_transient_invisibility_random():
    rng = random.Random(5)
    space = build_action_space()
    checked = 0
    for _ in range(500):
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(rng.randrange(1, 12))))
        inp = input_from_seed(rng.randrange(1 << 32))
        h = hw_run(p, inp, SpecConfig(), 300)
        if h is NON_TERMINATING:
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


def test_observe_needs_inputs():
    with pytest.raises(ConfigError):
        observe(Program(), [])


def test_ctrace_independent_of_spec_config(inputs20):
    p = parse_program("SBB R0, R0\nJNS +2\nSBB R1, [BASE+R2]\nIMUL R0, R1")
    for w in (0, 1, 8):
        obs = observe(p, inputs20[:4], CT_SEQ, SpecConfig(window=w))
        base = observe(p, inputs20[:4], CT_SEQ, SpecConfig(window=8))
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
        full = hw_run(p, inp, SpecConfig(window=8), 300)
        off = hw_run(p, inp, SpecConfig(window=0), 300)
        assert (full is NON_TERMINATING) == (off is NON_TERMINATING)
        if full is NON_TERMINATING:
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
    with pytest.raises(ConfigError):
        SpecConfig(window=-1)

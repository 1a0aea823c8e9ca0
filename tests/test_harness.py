import dataclasses
import math

import numpy as np
import pytest

from leaklab.arch import generate_inputs
from leaklab.detect import ViolationReport, detect_violation
from leaklab.env import EnvConfig, LeakEnv
from leaklab.errors import ConfigError
from leaklab.harness import (
    ExperimentConfig,
    FuzzStats,
    ScalingRow,
    expected_fuzz_count,
    fixture_action_config,
    fuzz_campaign,
    loglog_slope,
    planted_fixture,
    random_program,
    rows_to_csv,
    scaling_action_config,
)
from leaklab.isa import build_action_space
from leaklab.arch import ContractMode, ContractSpec


def test_fixture_program_and_config():
    program, cfg = planted_fixture()
    assert len(program) == 3
    assert cfg.max_len == 12
    space = build_action_space(cfg.action_config)
    assert space.size == 6
    # the program is expressible in the fixture's action menu
    for instr in program:
        assert instr in space.actions


def test_fixture_three_outcomes():
    program, cfg = planted_fixture()
    inputs = generate_inputs(cfg.input_seed, cfg.num_inputs)
    report = detect_violation(program, inputs)
    assert isinstance(report, ViolationReport)
    assert report.revalidate()
    assert detect_violation(program, inputs, window=0) is None
    covering = ContractSpec(ContractMode.CT_COND, spec_depth=8)
    assert detect_violation(program, inputs, contract=covering) is None


def test_random_program_basics():
    space = build_action_space(fixture_action_config())
    p1 = random_program(1, space, np.random.default_rng(0))
    assert len(p1) == 1
    a = random_program(9, space, np.random.default_rng(5))
    b = random_program(9, space, np.random.default_rng(5))
    assert a == b
    with pytest.raises(ConfigError):
        random_program(0, space, np.random.default_rng(0))


def test_random_program_uniform_frequencies():
    space = build_action_space(fixture_action_config())
    rng = np.random.default_rng(123)
    total = 100_000
    counts = np.zeros(space.size)
    for instr in random_program(total, space, rng):
        counts[space.actions.index(instr)] += 1
    p = 1 / space.size
    sigma = np.sqrt(total * p * (1 - p))
    assert np.all(np.abs(counts - total * p) <= 3 * sigma)


def test_expected_fuzz_count_formula():
    assert expected_fuzz_count(2, 3, 2) == pytest.approx(2.0)
    assert expected_fuzz_count(6, 3, 3) == pytest.approx(36.0)
    # shorter than the reference leak: no candidate can hold it
    assert expected_fuzz_count(7, 2, 3) == math.inf
    assert expected_fuzz_count(7, 1, 3) == math.inf
    # past the float range, and just below it
    assert expected_fuzz_count(7, 400, 3) == math.inf
    assert expected_fuzz_count(40, 193, 3) == 40**192 / 191


def test_fuzz_stats_summary():
    trials = [
        ScalingRow("fuzz", 4, 0, 3, 12, False),
        ScalingRow("fuzz", 4, 1, 7, 28, False),
        ScalingRow("fuzz", 4, 2, 100, 400, True),
    ]
    s = FuzzStats(program_size=4, trials=trials, action_space_size=6, reference_leak_len=3)
    assert s.median == 7
    assert s.mean == pytest.approx((3 + 7 + 100) / 3)
    assert s.counts == [3, 7, 100]


def test_fuzz_campaign_small():
    _, env_cfg = planted_fixture()
    cfg = ExperimentConfig(
        env=env_cfg,
        seed=1,
        program_sizes=(3, 4),
        trials_per_size=2,
        fuzz_budget=3000,
    )
    stats, rows = fuzz_campaign(cfg)
    assert [s.program_size for s in stats] == [3, 4]
    assert len(rows) == 4
    for row in rows:
        assert row.method == "fuzz"
        assert 1 <= row.programs_tested <= 3000
        assert row.wall_steps == row.programs_tested * row.n


def test_fuzz_campaign_below_leak_length_censors():
    # no program of size < 3 can leak in the fixture menu: a leak needs a
    # flag-clearing instruction, the branch, and the load
    _, env_cfg = planted_fixture()
    cfg = ExperimentConfig(
        env=env_cfg, seed=2, program_sizes=(2,), trials_per_size=2, fuzz_budget=300
    )
    stats, rows = fuzz_campaign(cfg)
    assert all(t.censored for t in stats[0].trials)
    assert all(r.programs_tested == 300 for r in rows)


def test_fuzz_campaign_deterministic():
    _, env_cfg = planted_fixture()
    cfg = ExperimentConfig(
        env=env_cfg, seed=3, program_sizes=(3,), trials_per_size=2, fuzz_budget=2000
    )
    a = rows_to_csv(fuzz_campaign(cfg)[1])
    b = rows_to_csv(fuzz_campaign(cfg)[1])
    assert a == b


def test_rows_to_csv_format():
    rows = [ScalingRow("fuzz", 4, 0, 17, 68, False), ScalingRow("rl", 4, 0, 1, 90, True)]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "method,n,trial,programs_tested,wall_steps,censored"
    assert lines[1] == "fuzz,4,0,17,68,0"
    assert lines[2] == "rl,4,0,1,90,1"


def test_loglog_slope():
    # medians doubling with size -> slope 1
    assert loglog_slope([4, 8, 16, 32], [40, 80, 160, 320]) == pytest.approx(1.0)
    assert loglog_slope([4, 8, 16, 32], [50, 50, 50, 50]) == pytest.approx(0.0)


def test_scaling_action_config_extends_fixture():
    fix = build_action_space(fixture_action_config())
    sca = build_action_space(scaling_action_config())
    assert sca.size == fix.size + 1
    assert fix.actions == sca.actions[: fix.size]

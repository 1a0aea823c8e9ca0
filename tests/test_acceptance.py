"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s -v` to see the per-criterion
lines as they complete. Everything here is deterministic: fixed seeds, fixed
grids, simulator-level effort units.
"""

import json
import random
import statistics

import numpy as np
import pytest

from leaklab.agent import TrainerConfig, loss_and_grads, random_search, train
from leaklab.arch import (
    ArchState,
    ContractMode,
    ContractSpec,
    OBS_LOAD,
    contract_trace,
    generate_inputs,
    input_from_seed,
    step_instruction,
)
from leaklab.cli import run_cli
from leaklab.detect import ViolationReport, boost_input, detect_violation
from leaklab.env import LeakEnv
from leaklab.harness import (
    ExperimentConfig,
    fixture_trainer_config,
    fuzz_campaign,
    loglog_slope,
    planted_fixture,
    rl_first_leak_study,
    scaling_action_config,
)
from leaklab.isa import Program, build_action_space
from leaklab.uarch import REJECTED, hw_run

from dataclasses import replace

from reference import reference_violation

# Every ViolationReport produced while this module runs lands here; the final
# criterion-4 test re-validates all of them by independent re-simulation.
ALL_REPORTS: list[ViolationReport] = []


def _random_programs(seed, count, max_len, space):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_len + 1)
        yield Program(tuple(space[rng.randrange(space.size)] for _ in range(n))), rng


def test_criterion_1_planted_leak_oracle():
    program, env_cfg = planted_fixture()
    inputs = generate_inputs(env_cfg.input_seed, env_cfg.num_inputs)

    report = detect_violation(program, inputs)
    assert isinstance(report, ViolationReport)
    assert report.diverging_sets
    ALL_REPORTS.append(report)

    assert detect_violation(program, inputs, window=0) is None
    covering = ContractSpec(ContractMode.CT_COND, spec_depth=8)
    assert detect_violation(program, inputs, contract=covering) is None
    print("\nACCEPTANCE 1 PASS: planted fixture leaks under CT-SEQ, not at "
          "window=0, not under covering CT-COND")


@pytest.fixture(scope="module")
def invisibility_runs():
    """10,000 terminating random (program, input) pairs, each run on the
    speculative model and replayed on a plain sequential loop."""
    space = build_action_space()
    rng = random.Random(20240801)
    checked = []
    while len(checked) < 10_000:
        n = rng.randrange(1, 13)
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(n)))
        inp = input_from_seed(rng.randrange(1 << 48))
        hw = hw_run(p, inp, budget=300)
        if hw is REJECTED:
            continue
        checked.append((p, inp, hw))
    return checked


def test_criterion_2_transient_invisibility(invisibility_runs):
    for p, inp, hw in invisibility_runs:
        state = ArchState.from_input(inp)
        n = len(p)
        steps = 0
        while state.pc < n and steps < 300:
            step_instruction(state, p[state.pc], n)
            steps += 1
        assert state == hw.final_state
    print(f"\nACCEPTANCE 2 PASS: speculative and architectural final states "
          f"identical on {len(invisibility_runs)} terminating pairs")


def test_criterion_3_counter_identity(invisibility_runs):
    for p, inp, hw in invisibility_runs:
        c = hw.counters
        assert c.tran_uops == c.uops_issued - c.uops_retired
        assert c.tran_uops >= 0
    zero_window = 0
    for p, inp, _ in invisibility_runs:
        off = hw_run(p, inp, 0, 300)
        assert off is not REJECTED
        assert off.counters.tran_uops == 0
        zero_window += 1
    print(f"\nACCEPTANCE 3 PASS: counter identity held on "
          f"{len(invisibility_runs)} runs; tran_uops = 0 on {zero_window} "
          f"window=0 runs")


def test_criterion_4_no_false_positives_with_speculation_off():
    space = build_action_space()
    inputs = generate_inputs(7, 5)
    rng = random.Random(99)
    reports = 0
    for i in range(10_000):
        n = rng.randrange(1, 9)
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(n)))
        for find in (detect_violation, reference_violation):
            r = find(p, inputs, window=0, budget=300, seed=i)
            if isinstance(r, ViolationReport):
                reports += 1
    assert reports == 0
    print("\nACCEPTANCE 4 PASS (part 1): zero reports from 10,000 random "
          "programs with speculation disabled, from the detector and from "
          "the from-scratch reference")


def test_criterion_5_boost_validity():
    space = build_action_space()
    rng = random.Random(4242)
    contract = ContractSpec()
    attempts = 0
    while attempts < 1000:
        n = rng.randrange(1, 11)
        p = Program(tuple(space[rng.randrange(space.size)] for _ in range(n)))
        base = input_from_seed(rng.randrange(1 << 48))
        base_trace = contract_trace(p, base, contract, 300)
        if base_trace is REJECTED:
            continue
        attempts += 1
        loads = frozenset(obs[1] for obs in base_trace if obs[0] == OBS_LOAD)
        sibling = boost_input(base, loads, attempts, 1)
        assert contract_trace(p, sibling, contract, 300) == base_trace, attempts
    print(f"\nACCEPTANCE 5 PASS: {attempts}/1000 siblings re-verified trace-equal")


def test_criterion_6_gradient_check():
    from test_agent import _flat_grads, _random_batch, _small_params

    cfg = TrainerConfig(entropy_coef=0.013, value_coef=0.4, clip_eps=0.2)
    h = 1e-5
    worst = 0.0
    for point in range(100):
        params = _small_params(np.random.default_rng(1000 + point))
        batch = _random_batch(np.random.default_rng(2000 + point))
        _, pg, vg = loss_and_grads(params, batch, cfg)
        analytic = _flat_grads(params, pg, vg)
        vec = params.to_vector()
        numeric = np.zeros_like(vec)
        for i in range(len(vec)):
            up, dn = vec.copy(), vec.copy()
            up[i] += h
            dn[i] -= h
            lu = loss_and_grads(params.from_vector(up), batch, cfg)[0]["loss"]
            ld = loss_and_grads(params.from_vector(dn), batch, cfg)[0]["loss"]
            numeric[i] = (lu - ld) / (2 * h)
        scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
        worst = max(worst, float((np.abs(analytic - numeric) / scale).max()))
    assert worst < 1e-4
    print(f"\nACCEPTANCE 6 PASS: max relative gradient error {worst:.2e} over "
          f"100 random parameter points")


def test_criterion_7_rl_discovery():
    _, env_cfg = planted_fixture()
    budget = 200_000
    seeds = range(5)

    random_firsts = []
    for seed in seeds:
        log = random_search(
            LeakEnv(env_cfg), budget=budget, seed=seed, horizon=64, stop_on_first_leak=True
        )
        ALL_REPORTS.extend(ev.report for ev in log.leaks)
        random_firsts.append(log.first_leak_step or budget)

    ppo_firsts = []
    found = 0
    for seed in seeds:
        cfg = fixture_trainer_config(seed=seed, total_steps=budget, stop_on_first_leak=True)
        log = train(LeakEnv(env_cfg), cfg)
        ALL_REPORTS.extend(ev.report for ev in log.leaks)
        if log.first_leak_step is not None:
            found += 1
        ppo_firsts.append(log.first_leak_step or budget)

    ppo_median = statistics.median(ppo_firsts)
    rand_median = statistics.median(random_firsts)
    assert found >= 4
    assert ppo_median <= rand_median
    print(f"\nACCEPTANCE 7 PASS: agent found leaks in {found}/5 seeds; "
          f"median steps-to-first-leak {ppo_median:g} (agent) vs "
          f"{rand_median:g} (random baseline)")


def test_criterion_8_scaling_study():
    _, env_cfg = planted_fixture()
    env_cfg = replace(env_cfg, action_config=scaling_action_config(), step_budget=300)
    cfg = ExperimentConfig(
        env=env_cfg,
        trainer=fixture_trainer_config(),
        seed=0,
        program_sizes=(4, 8, 16, 32),
        trials_per_size=5,
        fuzz_budget=20_000,
        rl_step_budget=20_000,
    )

    stats, fuzz_rows = fuzz_campaign(cfg)
    fuzz_medians = [s.median for s in stats]
    assert fuzz_medians == sorted(fuzz_medians)  # non-decreasing in n
    assert fuzz_medians[-1] >= 4 * fuzz_medians[0]  # >= 4x growth end-to-end

    rl_rows, logs = rl_first_leak_study(cfg)
    for log in logs:
        ALL_REPORTS.extend(ev.report for ev in log.leaks)
    rl_medians = [
        statistics.median([r.wall_steps for r in rl_rows if r.n == m])
        for m in cfg.program_sizes
    ]
    slope = loglog_slope(cfg.program_sizes, rl_medians)
    assert slope <= 1.0  # at most linear growth over the grid
    print(f"\nACCEPTANCE 8 PASS: fuzzer medians {fuzz_medians} "
          f"({fuzz_medians[-1] / fuzz_medians[0]:.1f}x growth); agent medians "
          f"{rl_medians} with log-log slope {slope:.2f} <= 1")


def test_criterion_9_determinism(tmp_path):
    config = {
        "env": {
            "max_len": 6,
            "num_inputs": 4,
            "input_seed": 42,
            "actions": "fixture",
            "step_budget": 500,
        },
        "trainer": {"total_steps": 64, "horizon": 16, "minibatch_size": 8, "seed": 3},
        "seed": 3,
        "program_sizes": [3, 4],
        "trials_per_size": 1,
        "fuzz_budget": 1500,
        "rl_step_budget": 400,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    outputs = {}
    for mode, filename in (("train", "training.jsonl"), ("fuzz", "fuzz.csv"), ("scaling", "scaling.csv")):
        pair = []
        for run in ("a", "b"):
            out = tmp_path / f"{mode}_{run}"
            code = run_cli([mode, "--config", str(cfg_path), "--out", str(out)])
            assert code == 0
            pair.append((out / filename).read_bytes())
        assert pair[0] == pair[1]
        outputs[mode] = len(pair[0])
    print(f"\nACCEPTANCE 9 PASS: byte-identical outputs across repeated runs "
          f"(train/fuzz/scaling, {outputs} bytes)")


def test_criterion_4_all_reports_revalidate():
    # Defined last so it sees every report the earlier criteria produced.
    assert ALL_REPORTS, "earlier criteria should have produced reports"
    for report in ALL_REPORTS:
        assert report.revalidate(budget=10_000)
    print(f"\nACCEPTANCE 4 PASS (part 2): all {len(ALL_REPORTS)} violation "
          f"reports produced by this suite re-validated by re-simulation")

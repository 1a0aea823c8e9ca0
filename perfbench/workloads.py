"""The benchmark's workloads, run through leaklab's public Python API.

Each workload has a set-up step (everything before the first timed
operation) and a deterministic run whose size is fixed by the run length
asked for. A run returns the bytes whose digest is pinned, the leak reports
it produced, and the number of operations it attempted. An operation is one
`LeakEnv.step` call, or one fuzz candidate (one `detect_violation` call from
`fuzz_campaign`).

Why each workload exists, and why its seed drives what it drives, is in
README.md next to this file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from leaklab import ContractMode, ContractSpec, EnvConfig, LeakEnv, build_action_space, generate_inputs
from leaklab import agent, env, harness


@dataclass
class RunOutput:
    output: bytes  # deterministic bytes; their digest is compared across runs
    reports: list  # every ViolationReport the run produced
    ops: int  # operations attempted, counted from the harness's own output


def run_output(text: str, reports: list, ops: int) -> RunOutput:
    """The harness's own output followed by every leak report's JSON, so
    that the digest also covers witnesses, probe vectors and diverging sets."""
    data = text + "".join(r.to_json() + "\n" for r in reports)
    return RunOutput(data.encode(), list(reports), ops)


def criterion8_env() -> EnvConfig:
    """Planted fixture env with the 7-action scaling menu and step budget
    300, as in the acceptance suite's scaling study (inputs from seed 1337)."""
    _, cfg = harness.planted_fixture()
    return replace(cfg, action_config=harness.scaling_action_config(), step_budget=300)


class FuzzScaling:
    """`fuzz_campaign` over the whole size grid with a short per-trial
    budget; the workload seed is the campaign seed (programs and boosts)."""

    name = "fuzz-scaling"
    timed = (harness, "detect_violation")  # one call per fuzz candidate
    sizes = (4, 8, 16, 32)
    fuzz_budget = 250
    trials_per_second = 1.35  # trials per size, per second of run length

    def setup(self, seed: int):
        cfg = harness.ExperimentConfig(env=criterion8_env(), seed=seed, program_sizes=self.sizes,
                                       fuzz_budget=self.fuzz_budget)
        # fuzz_campaign builds these itself before its first candidate
        build_action_space(cfg.env.action_config)
        generate_inputs(cfg.env.input_seed, cfg.env.num_inputs)
        return cfg

    def run(self, cfg, seconds: float, reports: list) -> RunOutput:
        cfg = replace(cfg, trials_per_size=max(1, round(seconds * self.trials_per_second)))
        _, rows = harness.fuzz_campaign(cfg)
        found = sum(not r.censored for r in rows)
        if found != len(reports):
            raise CheckFailed(f"{found} uncensored trials but {len(reports)} leak reports")
        return run_output(harness.rows_to_csv(rows), reports, sum(r.programs_tested for r in rows))


class RLStudy:
    """`rl_first_leak_study` with the acceptance suite's trainer over the
    sizes 4-16 of its grid, each trial capped at `step_cap` env steps; the
    workload seed is the study seed (PPO initialisation and sampling).
    Size 32 is left to `fuzz-scaling`: a boosted step there costs several
    times one at size 8, so the two or three size-32 trials a run could hold
    swung its steps/s by tens of percent from seed to seed."""

    name = "rl-study"
    timed = (env.LeakEnv, "step")
    sizes = (4, 8, 16)
    step_cap = 150
    trials_per_second = 0.85  # trials per size, per second of run length

    def setup(self, seed: int):
        cfg = harness.ExperimentConfig(env=criterion8_env(), trainer=harness.fixture_trainer_config(),
                                       seed=seed, program_sizes=self.sizes, rl_step_budget=self.step_cap)
        m = self.sizes[0]
        LeakEnv(replace(cfg.env, max_len=m, max_episode_steps=4 * m))
        return cfg

    def run(self, cfg, seconds: float, reports: list) -> RunOutput:
        cfg = replace(cfg, trials_per_size=max(1, round(seconds * self.trials_per_second)))
        rows, logs = harness.rl_first_leak_study(cfg)
        for row, log in zip(rows, logs):
            expected = cfg.rl_step_budget if row.censored else log.first_leak_step
            if row.wall_steps != expected or (log.first_leak_step is None) != row.censored:
                raise CheckFailed(f"row {row} disagrees with its training log")
        return run_output(harness.rows_to_csv(rows), [ev.report for log in logs for ev in log.leaks],
                          sum(log.total_steps for log in logs))


class RandomSearch:
    """`random_search` on one env for a fixed number of steps. The search
    stream is fixed; the workload seed permutes the env's input list, which
    changes each input's boost siblings and the reported witnesses."""

    timed = (env.LeakEnv, "step")
    search_seed = 0

    def __init__(self, name: str, contract: ContractSpec, steps_per_second: float):
        self.name = name
        self.contract = contract
        self.steps_per_second = steps_per_second

    def setup(self, seed: int):
        leak_env = LeakEnv(EnvConfig(contract=self.contract))
        order = np.random.default_rng(seed).permutation(len(leak_env.inputs))
        leak_env.inputs = [leak_env.inputs[i] for i in order]
        return leak_env

    def run(self, leak_env, seconds: float, reports: list) -> RunOutput:
        steps = max(1, round(seconds * self.steps_per_second))
        log = agent.random_search(leak_env, steps, seed=self.search_seed)
        if log.total_steps != steps:
            raise CheckFailed(f"asked for {steps} steps, log records {log.total_steps}")
        leak_steps = [ev.step for ev in log.leaks]
        return run_output(log.to_jsonl() + json.dumps(leak_steps) + "\n",
                          [ev.report for ev in log.leaks], steps)


class CheckFailed(Exception):
    """A run's output disagrees with itself or with the pinned digest."""


WORKLOADS = {
    w.name: w
    for w in (
        FuzzScaling(),
        RandomSearch("random-default", ContractSpec(), steps_per_second=34.0),
        RandomSearch("random-ctcond", ContractSpec(ContractMode.CT_COND, 8), steps_per_second=22.0),
        RLStudy(),
    )
}

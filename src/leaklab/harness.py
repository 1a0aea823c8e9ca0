"""Experiment orchestration: planted fixtures, the random-fuzzer baseline,
and the program-size scaling study comparing fuzzing against the learner.

Effort is measured in deterministic units (programs tested, simulator-level
instruction counts, environment steps), never wall-clock time, so every
experiment is byte-reproducible from its config and seed.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .agent import TrainerConfig, TrainingLog, train
from .arch import generate_inputs, mix64
from .detect import ViolationReport, detect_violation
from .env import EnvConfig, LeakEnv
from .errors import ConfigError
from .isa import (
    ActionSpace,
    ActionSpaceConfig,
    Instruction,
    Mem,
    Opcode,
    Program,
    Register,
    build_action_space,
    parse_program,
)

__all__ = [
    "FIXTURE_PROGRAM_TEXT",
    "fixture_action_config",
    "scaling_action_config",
    "planted_fixture",
    "fixture_trainer_config",
    "random_program",
    "expected_fuzz_count",
    "FuzzStats",
    "ScalingRow",
    "ExperimentConfig",
    "fuzz_campaign",
    "rl_first_leak_study",
    "scaling_study",
    "rows_to_csv",
    "loglog_slope",
]

# Hand-built leak witness program, derived against the hardware model:
#   SBB R0, R0          clears SF (reset CF is 0), so the branch is taken
#   JNS +2              predictor resets weakly not-taken -> mispredicted
#   SBB R1, [BASE+R2]   fall-through: issues transiently, loads [R2 mod 4096]
# The transient load's cache set depends on R2, the committed path never
# touches memory, and every input shares the contract trace (PC(3, taken)
# only). Two inputs whose R2 lands in different sets therefore witness a
# violation under CT-SEQ. With window=0 the load never issues (no witness),
# and under CT-COND the load address is exposed in the contract trace, so
# equal-trace inputs share it (no witness).
FIXTURE_PROGRAM_TEXT = "SBB R0, R0\nJNS +2\nSBB R1, [BASE+R2]"

FIXTURE_INPUT_SEED = 1337

R0, R1, R2 = Register.R0, Register.R1, Register.R2


def fixture_action_config() -> ActionSpaceConfig:
    """Reduced 6-action menu around the fixture: its three instructions plus
    three distractors. SBB R2,R2 is a decoy (it kills the leak's input
    dependence, leaving an observable but non-diverging transient footprint),
    JMP +2 scrambles patterns, and JNS -2 builds loops whose non-terminating
    variants exercise the rejection guard."""
    return ActionSpaceConfig(
        (
            Instruction(Opcode.SBB, dst=R0, src=R0),
            Instruction(Opcode.JNS, disp=2),
            Instruction(Opcode.SBB, dst=R1, src=Mem(R2)),
            Instruction(Opcode.SBB, dst=R2, src=R2),
            Instruction(Opcode.JMP, disp=2),
            Instruction(Opcode.JNS, disp=-2),
        )
    )


def scaling_action_config() -> ActionSpaceConfig:
    """Fixture menu plus backward jumps; at larger sizes random programs
    increasingly loop and burn fuzzing budget on rejected candidates."""
    return ActionSpaceConfig(fixture_action_config().actions + (Instruction(Opcode.JMP, disp=-2),))


def planted_fixture() -> tuple[Program, EnvConfig]:
    """The planted leak program and an environment config whose action space
    is the fixture's reduced menu."""
    program = parse_program(FIXTURE_PROGRAM_TEXT)
    config = EnvConfig(
        max_len=12,
        num_inputs=20,
        input_seed=FIXTURE_INPUT_SEED,
        action_config=fixture_action_config(),
        max_episode_steps=48,
    )
    return program, config


def fixture_trainer_config(**overrides) -> TrainerConfig:
    """Trainer settings tuned for the desk-scale fixture environment: short
    rollouts and a hot step size so the policy moves within a few hundred
    steps. The spec-level TrainerConfig defaults stay untouched."""
    base = dict(
        horizon=64,
        minibatch_size=32,
        epochs=6,
        learning_rate=0.05,
        entropy_coef=0.03,
        value_coef=0.1,
    )
    base.update(overrides)
    return TrainerConfig(**base)


def random_program(n: int, space: ActionSpace, rng: np.random.Generator) -> Program:
    """One-shot fuzzer generation: n uniform draws with replacement, no
    filtering (non-terminating programs are the detector's problem)."""
    if n < 1:
        raise ConfigError("program size must be >= 1")
    ids = rng.integers(space.size, size=n)
    return Program(tuple(space.actions[i] for i in ids))


def expected_fuzz_count(a: int, n: int, l: int) -> float:
    """Reported closed form for the expected number of fuzzer candidates
    before a leak: a^(n-1) / (n - l + 1), or infinity when n < l, since no
    shorter program holds the reference leak. Recorded next to empirical
    counts for reference, never asserted against them."""
    return math.inf if n < l else a ** (n - 1) / (n - l + 1)


@dataclass(frozen=True)
class ScalingRow:
    method: str
    n: int
    trial: int
    programs_tested: int
    wall_steps: int
    censored: bool


@dataclass
class FuzzStats:
    program_size: int
    trials: list[ScalingRow]
    action_space_size: int
    reference_leak_len: int

    @property
    def counts(self) -> list[int]:
        return [t.programs_tested for t in self.trials]

    @property
    def median(self) -> float:
        return statistics.median(self.counts)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.counts)

    @property
    def expected_formula(self) -> float:
        return expected_fuzz_count(
            self.action_space_size, self.program_size, self.reference_leak_len
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a campaign needs, spelled out so output records carry no
    hidden defaults."""

    env: EnvConfig = EnvConfig()
    trainer: TrainerConfig = TrainerConfig()
    seed: int = 0
    program_sizes: tuple[int, ...] = (4, 8, 16, 32)
    trials_per_size: int = 5
    fuzz_budget: int = 20_000  # candidate programs per trial before censoring
    rl_step_budget: int = 200_000  # env steps per trial before censoring
    out_dir: str = "out"

    def __post_init__(self):
        sizes = self.program_sizes
        if not (isinstance(sizes, tuple) and sizes and all(type(n) is int and n >= 1 for n in sizes)):
            raise ConfigError("program_sizes must be a non-empty tuple of ints >= 1")
        for name in ("trials_per_size", "fuzz_budget", "rl_step_budget"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


def _trial_rng(seed: int, n: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(mix64(seed ^ mix64((n << 20) | (trial + 1))))


def fuzz_campaign(cfg: ExperimentConfig) -> tuple[list[FuzzStats], list[ScalingRow]]:
    """For each program size: generate random programs until the detector
    reports a violation (or the budget censors the trial). Rejected
    (non-terminating) candidates count as tested."""
    env_cfg = cfg.env
    space = build_action_space(env_cfg.action_config)
    inputs = generate_inputs(env_cfg.input_seed, env_cfg.num_inputs)
    stats_all: list[FuzzStats] = []
    rows: list[ScalingRow] = []
    for n in cfg.program_sizes:
        trials: list[ScalingRow] = []
        for trial in range(cfg.trials_per_size):
            rng = _trial_rng(cfg.seed, n, trial)
            detect_seed = mix64(cfg.seed ^ mix64((n << 32) | trial))
            tested = 0
            censored = True
            while tested < cfg.fuzz_budget:
                p = random_program(n, space, rng)
                tested += 1
                result = detect_violation(
                    p,
                    inputs,
                    env_cfg.contract,
                    env_cfg.spec_config,
                    boosts_per_input=env_cfg.boosts_per_input,
                    seed=detect_seed,
                    budget=env_cfg.step_budget,
                )
                if isinstance(result, ViolationReport):
                    censored = False
                    break
            # wall_steps counts instructions generated: the step proxy
            trials.append(ScalingRow("fuzz", n, trial, tested, tested * n, censored))
        rows += trials
        stats_all.append(
            FuzzStats(
                program_size=n,
                trials=trials,
                action_space_size=space.size,
                reference_leak_len=3,  # fixture leak: flag clear, branch, load
            )
        )
    return stats_all, rows


def rl_first_leak_study(cfg: ExperimentConfig) -> tuple[list[ScalingRow], list[TrainingLog]]:
    """Train the agent at each max program length and record env steps to
    the first discovered leak (censored at the step budget)."""
    rows: list[ScalingRow] = []
    logs: list[TrainingLog] = []
    for m in cfg.program_sizes:
        for trial in range(cfg.trials_per_size):
            env = LeakEnv(replace(cfg.env, max_len=m, max_episode_steps=4 * m))
            tcfg = replace(
                cfg.trainer,
                seed=mix64(cfg.seed ^ mix64((m << 16) | trial)) % (1 << 32),
                total_steps=cfg.rl_step_budget,
                stop_on_first_leak=True,
            )
            log = train(env, tcfg)
            logs.append(log)
            first = log.first_leak_step
            rows.append(
                ScalingRow(
                    method="rl",
                    n=m,
                    trial=trial,
                    programs_tested=len(log.leaks),
                    wall_steps=first if first is not None else cfg.rl_step_budget,
                    censored=first is None,
                )
            )
    return rows, logs


def scaling_study(cfg: ExperimentConfig) -> list[ScalingRow]:
    """Both methods over the size grid; the CSV rows feed any plotter."""
    _, fuzz_rows = fuzz_campaign(cfg)
    rl_rows, _ = rl_first_leak_study(cfg)
    return fuzz_rows + rl_rows


def rows_to_csv(rows: list[ScalingRow]) -> str:
    lines = ["method,n,trial,programs_tested,wall_steps,censored"]
    for r in rows:
        lines.append(
            f"{r.method},{r.n},{r.trial},{r.programs_tested},{r.wall_steps},{int(r.censored)}"
        )
    return "\n".join(lines) + "\n"


def loglog_slope(sizes, medians) -> float:
    """Least-squares slope of log(median) against log(size); <= 1 means the
    growth is at most linear over the grid."""
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.maximum(np.asarray(medians, dtype=float), 1.0))
    return float(np.polyfit(xs, ys, 1)[0])

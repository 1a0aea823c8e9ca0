"""Episodic environment for building leak-triggering programs.

One episode grows an attack program instruction by instruction. Each step
appends the chosen action, measures the candidate on a fixed input set (both
simulators, from a microarchitectural reset per input, resumed from where
the current program's runs reached its end), throws the instruction away if
any input fails the termination guard, and otherwise runs leak detection,
whose boosted siblings resume from where the same siblings' runs reached the
end of the last program that was boosted, or carry over with their probe
vectors unchanged when every instruction appended since is neutral (an ALU
instruction without a memory operand, or a forward branch).
Rewards are tiered: a detected leak, then observable misspeculation, then
unobservable misspeculation, then no misspeculation at all, plus a small
per-step cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arch import ContractSpec, DEFAULT_STEP_BUDGET, Input, generate_inputs, mix64
from .detect import MAX_BOOSTS_PER_INPUT, ViolationReport, _filter_tier, detect_violation
from .errors import ConfigError
from .isa import (
    ActionSpace,
    ActionSpaceConfig,
    DEFAULT_ACTION_CONFIG,
    Program,
    append_action,
    build_action_space,
)
from .uarch import REJECTED, InputObservation, ResumePoints, SpecConfig, observe

__all__ = [
    "RewardSpec",
    "EnvConfig",
    "Observation",
    "StepResult",
    "LeakEnv",
    "encode_observation",
    "encoded_length",
]


@dataclass(frozen=True)
class RewardSpec:
    """Reward tiers. Ordering is validated: a leak pays more than observable
    misspeculation, which pays a positive reward; unobservable
    misspeculation is mildly negative and no misspeculation most negative."""

    r_leak: float = 100.0
    r_observable: float = 10.0
    r_unobservable: float = -5.0
    r_none: float = -10.0
    r_step: float = -0.1
    r_reject: float = -1.0

    def __post_init__(self):
        if not self.r_leak > self.r_observable > 0 > self.r_unobservable >= self.r_none:
            raise ConfigError("reward tiers must satisfy leak > observable > 0 > unobservable >= none")


@dataclass(frozen=True)
class EnvConfig:
    max_len: int = 60
    num_inputs: int = 20
    input_seed: int = 0
    contract: ContractSpec = ContractSpec()
    spec_config: SpecConfig = SpecConfig()
    reward: RewardSpec = RewardSpec()
    action_config: ActionSpaceConfig = DEFAULT_ACTION_CONFIG
    step_budget: int = DEFAULT_STEP_BUDGET
    boosts_per_input: int = 2
    # Optional cap on steps (including rejected ones) per episode; None means
    # episodes end only by leak or by reaching max_len.
    max_episode_steps: int | None = None

    def __post_init__(self):
        if self.max_len < 1:
            raise ConfigError("max_len must be >= 1")
        if self.num_inputs < 2:
            raise ConfigError("num_inputs must be >= 2")
        if self.step_budget < 1:
            raise ConfigError("step_budget must be >= 1")
        if not 1 <= self.boosts_per_input <= MAX_BOOSTS_PER_INPUT:
            raise ConfigError(f"boosts_per_input must be in 1..{MAX_BOOSTS_PER_INPUT}")
        if self.max_episode_steps is not None and self.max_episode_steps < 1:
            raise ConfigError("max_episode_steps must be None or >= 1")


# Sentinel for "no action taken yet" in Observation.last_action.
NO_ACTION = -1


@dataclass(frozen=True)
class Observation:
    """Per-input measurement records plus the index of the last appended
    action (NO_ACTION right after reset)."""

    records: tuple[InputObservation, ...]
    last_action: int = NO_ACTION


@dataclass(frozen=True)
class StepResult:
    obs: Observation
    reward: float
    terminated: bool
    truncated: bool
    info: dict


class LeakEnv:
    """Single-threaded environment instance; many instances may run in
    parallel, sharing nothing. Inputs are generated once from
    `config.input_seed` and stay fixed across episodes."""

    def __init__(self, config: EnvConfig = EnvConfig()):
        self.config = config
        self.action_space: ActionSpace = build_action_space(config.action_config)
        self.inputs: list[Input] = generate_inputs(config.input_seed, config.num_inputs)
        self._detect_seed = mix64(config.input_seed ^ 0xDE7EC7)
        self.program = Program()
        # where the current program's runs can be resumed for a candidate,
        # and where the last boosted program's sibling runs can
        self._resume = ResumePoints()
        self._sibling_resume = ResumePoints()
        self._done = True
        self._steps = 0

    # -- episodic interface -------------------------------------------------

    def reset(self, seed: int | None = None) -> Observation:
        """Start a fresh episode. The seed only matters to agent-side
        sampling; inputs are fixed by EnvConfig, so observations from reset
        are identical for every seed."""
        del seed  # inputs are fixed per config; nothing here is stochastic
        self.program = Program()
        self._done = False
        self._steps = 0
        records = observe(
            self.program, self.inputs, self.config.contract, self.config.spec_config,
            self.config.step_budget, resume=self._resume,
        )
        assert records is not REJECTED  # the empty program always terminates
        self._last_obs = Observation(records=tuple(records), last_action=NO_ACTION)
        return self._last_obs

    def step(self, action_id: int) -> StepResult:
        if self._done:
            raise RuntimeError("episode is finished; call reset()")
        if not 0 <= action_id < self.action_space.size:
            raise IndexError(f"action id {action_id} out of range")
        cfg = self.config
        self._steps += 1
        candidate = append_action(self.program, action_id, self.action_space)
        records = observe(candidate, self.inputs, cfg.contract, cfg.spec_config, cfg.step_budget,
                          resume=self._resume)
        if records is REJECTED:
            # the instruction is thrown away; the program does not grow
            reward = cfg.reward.r_reject + cfg.reward.r_step
            truncated = self._out_of_steps()
            self._done = truncated
            return StepResult(
                obs=self._last_obs,
                reward=reward,
                terminated=False,
                truncated=truncated,
                info={"rejected": True, "violation": None, "filter": None},
            )

        self.program = candidate
        obs = Observation(records=tuple(records), last_action=action_id)
        self._last_obs = obs

        tier = _filter_tier(records)
        violation = detect_violation(
            candidate,
            self.inputs,
            cfg.contract,
            cfg.spec_config,
            boosts_per_input=cfg.boosts_per_input,
            seed=self._detect_seed,
            budget=cfg.step_budget,
            observations=records,
            resume=self._sibling_resume,
        )
        if violation is REJECTED:  # cannot happen: observe() above succeeded
            violation = None
        report: ViolationReport | None = violation

        if report is not None:
            reward = cfg.reward.r_leak
        elif tier == "observable":
            reward = cfg.reward.r_observable
        elif tier == "misspec":
            reward = cfg.reward.r_unobservable
        else:
            reward = cfg.reward.r_none
        reward += cfg.reward.r_step

        terminated = report is not None
        truncated = len(self.program) >= cfg.max_len or self._out_of_steps()
        self._done = terminated or truncated
        return StepResult(
            obs=obs,
            reward=reward,
            terminated=terminated,
            truncated=truncated,
            info={"rejected": False, "violation": report, "filter": tier},
        )

    def _out_of_steps(self) -> bool:
        cap = self.config.max_episode_steps
        return cap is not None and self._steps >= cap

    # -- encoding ------------------------------------------------------------

    def encode(self, obs: Observation) -> np.ndarray:
        return encode_observation(
            obs,
            self.action_space.size,
            self.config.max_len,
            self.config.spec_config.window,
        )

    @property
    def encoded_length(self) -> int:
        return encoded_length(self.action_space.size, self.config.num_inputs)


def encoded_length(space_size: int, num_inputs: int) -> int:
    return num_inputs * 66 + (space_size + 1) + num_inputs * num_inputs


def encode_observation(
    obs: Observation, space_size: int, max_len: int, window: int
) -> np.ndarray:
    """Fixed-length numeric view of an Observation.

    Layout: per input, 64 probe bits then branch misses scaled by 1/max_len
    then transient uops scaled by 1/(max_len*window); a one-hot of the last
    action over space_size+1 slots (the extra slot is the reset sentinel);
    then, per input, a one-hot of its contract-trace equivalence class
    (classes numbered by first occurrence).
    """
    n = len(obs.records)
    t_scale = 1.0 / (max_len * max(window, 1))
    b_scale = 1.0 / max_len
    out = np.zeros(encoded_length(space_size, n), dtype=np.float64)
    per_input = out[: n * 66].reshape(n, 66)
    htraces = np.array([rec.htrace for rec in obs.records], dtype="<u8")
    per_input[:, :64] = np.unpackbits(htraces.view(np.uint8), bitorder="little").reshape(n, 64)
    per_input[:, 64] = [rec.br_misses * b_scale for rec in obs.records]
    per_input[:, 65] = [rec.tran_uops * t_scale for rec in obs.records]
    pos = n * 66
    slot = space_size if obs.last_action == NO_ACTION else obs.last_action
    out[pos + slot] = 1.0
    pos += space_size + 1
    class_ids: dict[tuple, int] = {}
    for i, rec in enumerate(obs.records):
        cid = class_ids.setdefault(rec.ctrace, len(class_ids))
        out[pos + i * n + cid] = 1.0
    return out

import numpy as np
import pytest

from leaklab.env import (
    NO_ACTION,
    EnvConfig,
    LeakEnv,
    Observation,
    RewardSpec,
    encode_observation,
    encoded_length,
)
from leaklab.errors import ConfigError
from leaklab.isa import Instruction, Opcode, Register, parse_program
from leaklab.uarch import observe

# action ids in the default 40-action space
SBB_R0_R0 = 0
SBB_R1_MEM_R2 = 14
JNS_P2 = 37
JMP_M2 = 38

FIXTURE_ACTIONS = [SBB_R0_R0, JNS_P2, SBB_R1_MEM_R2]


@pytest.fixture(scope="module")
def env():
    return LeakEnv(EnvConfig(max_len=12, input_seed=42))


def test_reset_observation_is_all_zero(env):
    obs = env.reset(0)
    assert len(obs.records) == 20
    assert all(r.htrace == 0 and r.br_misses == 0 and r.tran_uops == 0 for r in obs.records)
    assert all(r.ctrace == () for r in obs.records)
    assert obs.last_action == NO_ACTION


def test_reset_is_deterministic_and_seed_independent(env):
    a = env.reset(0)
    b = env.reset(0)
    c = env.reset(7)
    assert a == b == c


def test_step_reward_none_tier(env):
    env.reset(0)
    sr = env.step(SBB_R0_R0)
    assert sr.reward == pytest.approx(-10.1)
    assert not sr.terminated and not sr.truncated
    assert sr.info["rejected"] is False
    assert sr.info["violation"] is None
    assert sr.obs.last_action == SBB_R0_R0


def test_step_fixture_sequence_terminates_with_leak(env):
    env.reset(0)
    rewards = []
    for a in FIXTURE_ACTIONS:
        sr = env.step(a)
        rewards.append(sr.reward)
    assert rewards[-1] == pytest.approx(99.9)
    assert sr.terminated
    assert sr.info["violation"] is not None
    assert sr.info["violation"].revalidate()
    with pytest.raises(RuntimeError):
        env.step(0)


def test_step_reject_keeps_program(env):
    env.reset(0)
    sr = env.step(JMP_M2)  # JMP -2 at index 0 self-loops
    assert sr.reward == pytest.approx(-1.1)
    assert sr.info["rejected"] is True
    assert len(env.program) == 0
    assert sr.obs.last_action == NO_ACTION  # observation unchanged


def test_misspec_tier_reward(env):
    env.reset(0)
    env.step(SBB_R0_R0)
    sr = env.step(JNS_P2)  # mispredicted taken branch, no transient load
    assert sr.info["filter"] == "misspec"
    assert sr.reward == pytest.approx(-5.1)


def test_observable_tier_reward():
    # SBB R2,R2 zeroes R2, so the transient load hits set 0 for every input:
    # observable footprint but no divergence
    env = LeakEnv(EnvConfig(max_len=12, input_seed=42))
    env.reset(0)
    env.step(8)  # SBB R2, R2
    env.step(JNS_P2)
    sr = env.step(SBB_R1_MEM_R2)
    assert sr.info["filter"] == "observable"
    assert sr.info["violation"] is None
    assert sr.reward == pytest.approx(9.9)


def test_truncation_at_max_len():
    env = LeakEnv(EnvConfig(max_len=3, input_seed=1))
    env.reset(0)
    env.step(1)
    env.step(2)
    sr = env.step(3)
    assert sr.truncated and not sr.terminated
    assert len(env.program) == 3


def test_step_cap_truncates():
    env = LeakEnv(EnvConfig(max_len=30, input_seed=1, max_episode_steps=2))
    env.reset(0)
    env.step(1)
    sr = env.step(2)
    assert sr.truncated


def test_episode_determinism():
    actions = [0, 5, 37, 14, 2, 9]
    results = []
    for _ in range(2):
        env = LeakEnv(EnvConfig(max_len=12, input_seed=9))
        env.reset(0)
        run = []
        for a in actions:
            sr = env.step(a)
            run.append((sr.reward, sr.terminated, sr.truncated, sr.info["rejected"]))
            if sr.terminated or sr.truncated:
                break
        results.append(run)
    assert results[0] == results[1]


def test_guarded_growth():
    env = LeakEnv(EnvConfig(max_len=12, input_seed=3))
    env.reset(0)
    import random

    rng = random.Random(0)
    grew = 0
    for _ in range(12):
        before = len(env.program)
        sr = env.step(rng.randrange(env.action_space.size))
        after = len(env.program)
        assert after - before == (0 if sr.info["rejected"] else 1)
        grew += after - before
        if sr.terminated or sr.truncated:
            break
    assert len(env.program) <= 12


def test_prefix_observation_fidelity(env):
    env.reset(0)
    taken = []
    for a in [0, 1, 37, 5]:
        sr = env.step(a)
        if not sr.info["rejected"]:
            taken.append(a)
        if sr.terminated or sr.truncated:
            break
    # recompute each prefix from scratch and compare with stored history
    from leaklab.isa import Program, append_action

    p = Program()
    for k, a in enumerate(taken):
        p = append_action(p, a, env.action_space)
        fresh = observe(p, env.inputs, env.config.contract, env.config.spec_config)
        assert tuple(fresh) == env.history[k].records
        assert env.history[k].last_action == a


def test_encoding_length_and_zeros(env):
    obs = env.reset(0)
    vec = env.encode(obs)
    assert len(vec) == encoded_length(40, 20) == 1761
    # probe bits and counters all zero; sentinel one-hot set; all inputs in class 0
    assert vec[: 20 * 66].sum() == 0
    sentinel = 20 * 66 + 40
    assert vec[sentinel] == 1.0
    classes = vec[20 * 66 + 41 :].reshape(20, 20)
    assert (classes[:, 0] == 1).all()
    assert classes.sum() == 20


def test_encoding_deterministic(env):
    obs = env.reset(0)
    env_dup = LeakEnv(EnvConfig(max_len=12, input_seed=42))
    obs2 = env_dup.reset(0)
    assert np.array_equal(env.encode(obs), env_dup.encode(obs2))


def test_encoding_reflects_observation(env):
    env.reset(0)
    env.step(SBB_R0_R0)
    sr = env.step(JNS_P2)
    vec = env.encode(sr.obs)
    rec = sr.obs.records[0]
    assert rec.br_misses == 1
    assert vec[64] == pytest.approx(1 / 12)  # b scaled by 1/max_len
    assert vec[65] == pytest.approx(0.0)  # no transient uops for this program
    slot = 20 * 66 + JNS_P2
    assert vec[slot] == 1.0


def test_reward_spec_ordering_enforced():
    with pytest.raises(ConfigError):
        RewardSpec(r_leak=1.0, r_observable=5.0)
    with pytest.raises(ConfigError):
        RewardSpec(r_unobservable=-20.0, r_none=-10.0)
    with pytest.raises(ConfigError):
        RewardSpec(r_observable=0.0)
    with pytest.raises(ConfigError):
        RewardSpec(r_unobservable=0.0)


def test_env_config_validation():
    with pytest.raises(ConfigError):
        EnvConfig(max_len=0)
    with pytest.raises(ConfigError):
        EnvConfig(num_inputs=1)
    with pytest.raises(ConfigError):
        EnvConfig(step_budget=0)
    with pytest.raises(ConfigError):
        EnvConfig(boosts_per_input=0)
    with pytest.raises(ConfigError):
        EnvConfig(max_episode_steps=0)


def test_out_of_range_action(env):
    env.reset(0)
    with pytest.raises(IndexError):
        env.step(40)

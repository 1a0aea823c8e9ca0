import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab import detect
from leaklab.arch import ContractMode, ContractSpec, Xorshift64Star, generate_inputs
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
from leaklab.isa import (
    DEFAULT_ACTION_CONFIG,
    ActionSpaceConfig,
    Instruction,
    Opcode,
    Program,
    Register,
    append_action,
    parse_program,
)
from leaklab.uarch import InputObservation, hw_run, observe

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


@pytest.mark.parametrize("contract", [ContractSpec(ContractMode.CT_SEQ), ContractSpec(ContractMode.CT_COND),
                                      ContractSpec(ContractMode.CT_COND, 2)], ids=lambda c: c.name)
@pytest.mark.parametrize("window", [0, 8])
def test_reset_records_equal_measuring_the_empty_program(contract, window, monkeypatch):
    # reset builds its records without simulating; after it, a step still
    # measures its candidate as a run from the reset would
    cfg = EnvConfig(max_len=4, num_inputs=3, input_seed=9, contract=contract, window=window)
    fresh = tuple(observe(Program(), generate_inputs(9, 3), contract, window, cfg.step_budget))
    env = LeakEnv(cfg)
    env.reset()
    env.step(SBB_R1_MEM_R2)
    with monkeypatch.context() as m:
        m.setattr("leaklab.env.observe", None)
        assert env.reset().records == fresh
    p = append_action(Program(), JNS_P2, env.action_space)
    assert env.step(JNS_P2).obs.records == tuple(observe(p, env.inputs, contract, window, cfg.step_budget))


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


def _points(env):
    """Every resume point `env` holds, with the name of its store: observe's
    entries are an input's (TracePoint, HwPoint), each of which may hold
    open paths, and each HwPoint, each open window and each record of the
    last observation may hold a chain point or a branch's point."""
    for arch, hw in env._resume.entries.values():
        yield "observe", arch
        yield "observe", hw
        if hw.chain is not None:
            yield "chain", hw.chain
        for path, _ in arch.paths:
            yield "open", path
        for path, _, _, branch in hw.windows:
            yield "open", path
            if branch is not None:
                yield "chain", branch
    for record in env._last_obs.records:
        if record.chain is not None:
            yield "chain", record.chain


def test_resume_points_hold_no_memory():
    # a point holds the write log alone; a resumed run attaches its input
    env = LeakEnv(EnvConfig(max_len=16, input_seed=5))
    rng = np.random.default_rng(4)
    seen = {"observe": 0, "chain": 0, "open": 0}
    for _ in range(6):
        env.reset(0)
        done = False
        while not done:
            sr = env.step(int(rng.integers(env.action_space.size)))
            done = sr.terminated or sr.truncated
            for name, point in _points(env):
                assert point.state.mem is None
                seen[name] += 1
    assert seen["observe"] > 0 and seen["chain"] > 0 and seen["open"] > 0


def test_envs_with_equal_configs_share_siblings(monkeypatch):
    # a second env with the first's config boosts equal bases on equal
    # streams with equal load sets, so replaying the first env's episode it
    # takes every sibling from the memo: the same objects, no bytes drawn,
    # and the same step results
    cfg = EnvConfig(max_len=8, input_seed=5, num_inputs=4, boosts_per_input=3)
    # SBB R0, R0 and JNS +2 open a window; five of the eight steps boost
    actions = [SBB_R0_R0, JNS_P2, 34, 25, 20, 10, 12, 1]
    boosts = []
    boost = detect.boost_input

    def recorded(*args):
        boosts.append(boost(*args))
        return boosts[-1]

    def episode(env):
        env.reset(0)
        boosts.clear()
        results = [env.step(a) for a in actions]
        return [(sr.reward, sr.terminated, sr.truncated, sr.info) for sr in results], list(boosts)

    monkeypatch.setattr(detect, "boost_input", recorded)
    first, first_boosts = episode(LeakEnv(cfg))
    second_env = LeakEnv(cfg)
    draws = []
    monkeypatch.setattr(Xorshift64Star, "next_bytes", lambda *args: draws.append(args))
    second, second_boosts = episode(second_env)
    assert second == first
    assert len(first_boosts) == 5 * cfg.num_inputs * cfg.boosts_per_input
    assert all(b is a for a, b in zip(first_boosts, second_boosts, strict=True))
    assert draws == []


def test_prefix_observation_fidelity():
    # every accepted step's observation equals a from-scratch measurement of
    # the grown program; a rejected step repeats the last observation
    cfg = EnvConfig(max_len=16, input_seed=42, contract=ContractSpec(ContractMode.CT_COND, 4),
                    window=3)
    env = LeakEnv(cfg)
    last = env.reset(0)
    p = Program()
    actions = [0, 38, 37, 14, 38, 5, 37, 22, 1, 38, 37, 14, 9, 30, 37, 2, 38, 14, 21, 37]
    rejected = 0
    for k, a in enumerate(actions):
        sr = env.step(a)
        if sr.info["rejected"]:
            rejected += 1
            assert sr.obs is last
        else:
            p = append_action(p, a, env.action_space)
            fresh = observe(p, env.inputs, cfg.contract, cfg.window, cfg.step_budget)
            assert sr.obs.records == tuple(fresh)
            assert sr.obs.last_action == a
        assert env.program == p
        last = sr.obs
        assert sr.truncated == (k == len(actions) - 1)
    assert rejected == 4 and len(p) == 16


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


def _reference_encoding(obs, space_size, max_len, window):
    """The per-bit loop encode_observation used before it unpacked bytes."""
    n = len(obs.records)
    t_scale = 1.0 / (max_len * max(window, 1))
    b_scale = 1.0 / max_len
    out = np.zeros(encoded_length(space_size, n), dtype=np.float64)
    pos = 0
    for rec in obs.records:
        for s in range(64):
            out[pos + s] = (rec.htrace >> s) & 1
        out[pos + 64] = rec.br_misses * b_scale
        out[pos + 65] = rec.tran_uops * t_scale
        pos += 66
    out[pos + (space_size if obs.last_action == NO_ACTION else obs.last_action)] = 1.0
    pos += space_size + 1
    class_ids: dict = {}
    for i, rec in enumerate(obs.records):
        out[pos + i * n + class_ids.setdefault(rec.ctrace, len(class_ids))] = 1.0
    return out


M64 = (1 << 64) - 1
HTRACES = st.one_of(st.integers(0, M64), st.sampled_from([0, 1, 1 << 63, M64, M64 >> 1, 0xFF << 56]))
RECORDS = st.builds(
    InputObservation,
    htrace=HTRACES,
    ctrace=st.sampled_from([(), (("L", 0),), (("P", 3, 1),)]),
    br_misses=st.integers(0, 50),
    tran_uops=st.integers(0, 500),
    committed_htrace=st.just(0),
    chain=st.none(),
)


@settings(max_examples=200, deadline=None)
@given(
    records=st.lists(RECORDS, min_size=1, max_size=20),
    space_size=st.integers(1, 40),
    max_len=st.integers(1, 64),
    window=st.integers(0, 64),
    data=st.data(),
)
def test_encoding_matches_per_bit_loop(records, space_size, max_len, window, data):
    last = data.draw(st.sampled_from([NO_ACTION, *range(space_size)]))
    obs = Observation(tuple(records), last)
    got = encode_observation(obs, space_size, max_len, window)
    want = _reference_encoding(obs, space_size, max_len, window)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
    for boosts in (0, 256, 300):
        with pytest.raises(ConfigError, match="boosts_per_input"):
            EnvConfig(boosts_per_input=boosts)
    assert EnvConfig(boosts_per_input=255).boosts_per_input == 255
    with pytest.raises(ConfigError):
        EnvConfig(max_episode_steps=0)
    for menu in ((), DEFAULT_ACTION_CONFIG.actions * 2):
        with pytest.raises(ConfigError):
            LeakEnv(EnvConfig(action_config=ActionSpaceConfig(menu)))


def test_out_of_range_action():
    env = LeakEnv(EnvConfig(num_inputs=4, max_episode_steps=2))
    env.reset(0)
    with pytest.raises(IndexError):
        env.step(40)
    assert env.program == Program()
    # the failed id counted no step, so the first valid step is not the last
    sr = env.step(0)
    assert not sr.truncated and not sr.terminated
    assert len(env.program) == 1
    assert env.step(1).truncated

import numpy as np
import pytest

from leaklab.agent import (
    PolicyParams,
    TrainerConfig,
    compute_gae,
    init_params,
    loss_and_grads,
    policy_logits,
    ppo_update,
    random_search,
    select_action,
    train,
    value_forward,
    Trajectory,
)
from leaklab.env import EnvConfig, LeakEnv


def _small_params(rng, input_dim=4, hidden=(8, 7), n_actions=3) -> PolicyParams:
    """Hand-built tiny net (loss_and_grads is shape-agnostic)."""

    def glorot(a, b):
        lim = np.sqrt(6.0 / (a + b))
        return rng.uniform(-lim, lim, size=(a, b))

    sizes = (input_dim,) + hidden
    policy = [(glorot(a, b), rng.normal(size=b) * 0.1) for a, b in zip(sizes, sizes[1:])]
    policy.append((glorot(sizes[-1], n_actions), rng.normal(size=n_actions) * 0.1))
    value = [(glorot(a, b), rng.normal(size=b) * 0.1) for a, b in zip(sizes, sizes[1:])]
    value.append((glorot(sizes[-1], 1), rng.normal(size=1) * 0.1))
    return PolicyParams(policy=policy, value=value)


def _random_batch(rng, n=8, input_dim=4, n_actions=3):
    return {
        "obs": rng.normal(size=(n, input_dim)),
        "actions": rng.integers(0, n_actions, size=n),
        "old_log_probs": -np.abs(rng.normal(size=n)) - 0.2,
        "advantages": rng.normal(size=n),
        "returns": rng.normal(size=n),
    }


def _flat_grads(params, pg, vg):
    parts = []
    for grads in (pg, vg):
        for gw, gb in grads:
            parts.append(gw.ravel())
            parts.append(gb.ravel())
    return np.concatenate(parts)


def test_zero_final_layer_gives_uniform_policy():
    rng = np.random.default_rng(0)
    params = init_params(10, 40, rng)
    logits = policy_logits(params, rng.normal(size=10))
    probs = np.exp(logits - logits.max())
    probs /= probs.sum()
    assert np.allclose(probs, 1 / 40)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    params = _small_params(rng)
    for _ in range(20):
        logits = policy_logits(params, rng.normal(size=4))[0]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert abs(probs.sum() - 1.0) < 1e-9
        ent = -(probs * np.log(probs)).sum()
        assert 0.0 <= ent <= np.log(3) + 1e-12


def test_select_action_deterministic():
    rng = np.random.default_rng(2)
    params = _small_params(rng)
    obs = np.arange(4.0)
    a1 = select_action(params, obs, np.random.default_rng(33))
    a2 = select_action(params, obs, np.random.default_rng(33))
    assert a1 == a2


def test_gradients_match_finite_differences():
    # central-difference oracle over every parameter of a small net
    rng = np.random.default_rng(3)
    cfg = TrainerConfig(entropy_coef=0.013, value_coef=0.4, clip_eps=0.2)
    h = 1e-5
    worst = 0.0
    for point in range(10):
        params = _small_params(np.random.default_rng(100 + point))
        batch = _random_batch(np.random.default_rng(200 + point))
        stats, pg, vg = loss_and_grads(params, batch, cfg)
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
        rel = np.abs(analytic - numeric) / scale
        worst = max(worst, rel.max())
    assert worst < 1e-4


def test_gae_telescopes_at_gamma_lambda_one():
    rewards = np.array([1.0, 1.0, 1.0])
    values = np.array([0.5, 0.5, 0.5])
    terminated = np.array([False, False, True])
    truncated = np.array([False, False, False])
    adv, rets = compute_gae(rewards, values, terminated, truncated, np.zeros(3), 1.0, 1.0)
    assert np.allclose(adv, [2.5, 1.5, 0.5])
    assert np.allclose(rets, [3.0, 2.0, 1.0])


def test_gae_bootstraps_on_truncation():
    rewards = np.array([1.0])
    values = np.array([0.0])
    adv, rets = compute_gae(
        rewards, values, np.array([False]), np.array([True]), np.array([10.0]), 0.5, 1.0
    )
    assert np.allclose(adv, [1.0 + 0.5 * 10.0])


def test_zero_advantages_leave_policy_untouched():
    rng = np.random.default_rng(4)
    params = _small_params(rng)
    batch = _random_batch(rng)
    batch["advantages"] = np.zeros(len(batch["actions"]))
    cfg = TrainerConfig(entropy_coef=0.0)
    _, pg, vg = loss_and_grads(params, batch, cfg)
    for gw, gb in pg:
        assert np.allclose(gw, 0) and np.allclose(gb, 0)
    assert any(not np.allclose(gw, 0) for gw, _ in vg)


def test_ppo_update_runs_and_reports():
    rng = np.random.default_rng(5)
    params = _small_params(rng)
    n = 32
    traj = Trajectory(
        obs=rng.normal(size=(n, 4)),
        actions=rng.integers(0, 3, size=n),
        log_probs=-np.abs(rng.normal(size=n)) - 0.2,
        advantages=rng.normal(size=n),
        returns=rng.normal(size=n),
    )
    cfg = TrainerConfig(minibatch_size=8, epochs=2, learning_rate=1e-3)
    new, stats = ppo_update(params, traj, cfg, rng)
    assert set(stats) == {"loss", "policy_loss", "value_loss", "entropy"}
    assert not np.allclose(new.to_vector(), params.to_vector())
    # the input params are untouched
    assert params.to_vector() is not new.to_vector()


def _tiny_env():
    return LeakEnv(EnvConfig(max_len=4, num_inputs=2, input_seed=11, step_budget=500))


def test_train_budget_zero_is_empty():
    log = train(_tiny_env(), TrainerConfig(total_steps=0, seed=0))
    assert log.iterations == [] and log.leaks == []


def test_train_reproducible():
    cfg = TrainerConfig(total_steps=48, horizon=16, seed=7, minibatch_size=8)
    a = train(_tiny_env(), cfg)
    b = train(_tiny_env(), cfg)
    assert a.to_jsonl() == b.to_jsonl()
    assert [(e.step, e.report.htraces) for e in a.leaks] == [
        (e.step, e.report.htraces) for e in b.leaks
    ]


def test_train_runs_blas_on_one_thread(monkeypatch):
    from leaklab import agent

    lib = agent._openblas()
    if lib is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    before = lib.scipy_openblas_get_num_threads64_()
    seen = []
    update = agent.ppo_update

    def recording(*args):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return update(*args)

    monkeypatch.setattr(agent, "ppo_update", recording)
    train(_tiny_env(), TrainerConfig(total_steps=32, horizon=16, seed=7, minibatch_size=8))
    assert seen and set(seen) == {1}
    assert lib.scipy_openblas_get_num_threads64_() == before


def test_train_without_openblas_is_unchanged(monkeypatch):
    from leaklab import agent

    cfg = TrainerConfig(total_steps=48, horizon=16, seed=7, minibatch_size=8)
    pinned = train(_tiny_env(), cfg)
    monkeypatch.setattr(agent, "_openblas", lambda: None)
    assert train(_tiny_env(), cfg).to_jsonl() == pinned.to_jsonl()


def test_train_leak_counts_monotone():
    cfg = TrainerConfig(total_steps=64, horizon=16, seed=3, minibatch_size=8)
    log = train(_tiny_env(), cfg)
    counts = [r.leaks_found for r in log.iterations]
    assert counts == sorted(counts)


def test_random_search_budget_zero():
    log = random_search(_tiny_env(), budget=0, seed=0)
    assert log.iterations == [] and log.leaks == []


def test_random_search_matches_uniform_frequencies():
    # all actions equally likely within 3 sigma of the binomial expectation
    env = _tiny_env()
    size = env.action_space.size
    rng = np.random.default_rng(12)
    draws = rng.integers(size, size=20_000)
    counts = np.bincount(draws, minlength=size)
    exp = 20_000 / size
    sigma = np.sqrt(20_000 * (1 / size) * (1 - 1 / size))
    assert np.all(np.abs(counts - exp) <= 3 * sigma + 1e-9)


def test_random_search_reproducible():
    a = random_search(_tiny_env(), budget=40, seed=5, horizon=16)
    b = random_search(_tiny_env(), budget=40, seed=5, horizon=16)
    assert a.to_jsonl() == b.to_jsonl()


def test_training_log_save(tmp_path):
    cfg = TrainerConfig(total_steps=32, horizon=16, seed=1, minibatch_size=8)
    log = train(_tiny_env(), cfg)
    log.save(tmp_path)
    assert (tmp_path / "training.jsonl").exists()
    if log.leaks:
        assert (tmp_path / "leaks" / "leak_000.json").exists()
        assert (tmp_path / "leaks" / "leak_000.asm").exists()

import hashlib

import numpy as np
import pytest

from leaklab import agent, detect
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
from leaklab.errors import ConfigError, TrainingFault
from leaklab.harness import fixture_trainer_config, planted_fixture
from reference import reference_ppo_update, reference_select_action, reference_violation


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
    before = params.to_vector()
    new, stats = ppo_update(params, traj, cfg, rng)
    assert set(stats) == {"loss", "policy_loss", "value_loss", "entropy"}
    assert not np.allclose(new.to_vector(), params.to_vector())
    # the input params are untouched
    assert np.array_equal(params.to_vector(), before)


def _fixture_rows(steps=40):
    """The encoded observations of a uniformly random walk in the planted
    fixture's env (about 2% of each row is nonzero), and policy parameters
    of that width whose last policy layer is not zero."""
    _, env_cfg = planted_fixture()
    env = LeakEnv(env_cfg)
    rng = np.random.default_rng(21)
    rows = [env.encode(env.reset(0))]
    while len(rows) < steps:
        sr = env.step(int(rng.integers(env.action_space.size)))
        rows.append(env.encode(env.reset() if sr.terminated or sr.truncated else sr.obs))
    params = init_params(env.encoded_length, env.action_space.size, rng)
    w, b = params.policy[-1]
    params.policy[-1] = (rng.normal(size=w.shape) * 0.1, b)
    return params, np.array(rows)


def _update_case(kind):
    rng = np.random.default_rng(9)
    if kind == "dense":
        return _small_params(rng, input_dim=6), rng.normal(size=(32, 6))
    params, rows = _fixture_rows()
    if kind == "zero-row":
        rows[5] = 0.0
    elif kind == "all-zero":
        rows[:] = 0.0
    return params, rows


@pytest.mark.parametrize("kind", ["dense", "fixture", "zero-row", "all-zero"])
def test_update_matches_dense_reference(kind):
    # select_action and ppo_update run the first layers on the nonzero
    # inputs only; the reference runs every column. Both start from the
    # same parameters and the same generator state.
    params, rows = _update_case(kind)
    before = params.to_vector()
    actions, log_probs = [], []
    for i, row in enumerate(rows):
        got = select_action(params, row if i % 2 else row[None, :], np.random.default_rng(i))
        want = reference_select_action(params, row, np.random.default_rng(i))
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-12 and abs(got[2] - want[2]) <= 1e-12
        actions.append(got[0])
        log_probs.append(got[1])
    rng = np.random.default_rng(17)
    traj = Trajectory(
        obs=rows,
        actions=np.array(actions),
        log_probs=np.array(log_probs),
        advantages=rng.normal(size=len(rows)),
        returns=rng.normal(size=len(rows)),
    )
    cfg = fixture_trainer_config(minibatch_size=8, epochs=3)
    new, stats = ppo_update(params, traj, cfg, np.random.default_rng(5))
    want = reference_ppo_update(params, traj, cfg, np.random.default_rng(5))
    assert np.all(np.isfinite(list(stats.values())))
    assert np.max(np.abs(new.to_vector() - want.to_vector())) <= 1e-12
    assert not np.array_equal(new.to_vector(), before)
    unread = ~rows.any(axis=0)
    for dense, updated in ((params.policy, new.policy), (params.value, new.value)):
        assert np.array_equal(updated[0][0][unread], dense[0][0][unread])
    assert np.array_equal(params.to_vector(), before)


def test_select_action_faults_on_a_nan_weight_it_reads():
    params, rows = _fixture_rows(steps=2)
    row = rows[1]
    read, unread = np.flatnonzero(row)[0], np.flatnonzero(row == 0)[0]
    poisoned = params.copy()
    poisoned.policy[0][0][unread, 0] = np.nan
    # a row that the observation does not read never reaches the logits
    assert select_action(poisoned, row, np.random.default_rng(0)) == select_action(
        params, row, np.random.default_rng(0)
    )
    poisoned.policy[0][0][read, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(TrainingFault, match="non-finite logits"):
        select_action(poisoned, row, np.random.default_rng(0))


def test_update_restricts_only_the_first_layers(monkeypatch):
    # loss_and_grads runs once per minibatch, as the module global that
    # perfbench traces, on the rollout's nonzero columns
    params, rows = _update_case("zero-row")
    widths = []

    def recording(p, batch, cfg):
        widths.append((p.policy[0][0].shape[0], p.value[0][0].shape[0], batch["obs"].shape[1]))
        return loss_and_grads(p, batch, cfg)

    monkeypatch.setattr(agent, "loss_and_grads", recording)
    n = len(rows)
    traj = Trajectory(rows, np.zeros(n, dtype=int), np.full(n, -1.0), np.linspace(-1, 1, n), np.zeros(n))
    cfg = fixture_trainer_config(minibatch_size=8, epochs=3)
    new, _ = ppo_update(params, traj, cfg, np.random.default_rng(5))
    support = int(rows.any(axis=0).sum())
    assert widths == [(support, support, support)] * (3 * -(-n // 8))
    assert [w.shape for w, _ in new.policy + new.value] == [w.shape for w, _ in params.policy + params.value]


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", np.inf), ("learning_rate", np.nan),
    ("entropy_coef", -0.01), ("entropy_coef", np.inf), ("entropy_coef", np.nan),
    ("value_coef", -0.5), ("value_coef", np.inf), ("value_coef", np.nan),
    ("clip_eps", np.inf), ("clip_eps", np.nan),
])
def test_trainer_config_rejects_bad_step_sizes(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainerConfig(**{field: value})


def test_trainer_config_accepts_finite_step_sizes():
    # 1e300 is a valid (if divergent) step size; zero coefficients switch a
    # loss term off
    TrainerConfig(learning_rate=1e300, entropy_coef=0.0, value_coef=0.0)


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
    # Pinned bytes. Rewards are sums of float constants in a fixed order, so
    # these digests hold on any platform.
    assert hashlib.sha256(a.to_jsonl().encode()).hexdigest() == (
        "fb00a924aa50fa737f70205a7915c06320c0dbbfbe0acfda11c2449db003ad3e"
    )
    log = _fixture_search()
    assert hashlib.sha256(log.to_jsonl().encode()).hexdigest() == (
        "be0d41695a1b4f81f55cd4ecaf1d5ba85958e08b37c2e23d549edfd76f025034"
    )
    assert [ev.step for ev in log.leaks] == [257, 425]


BOOSTED_WITNESS_SHA256 = {
    146: "1925a2b70d74df7e9f9c0e5a4f8ef3050cfc0d97422cf4ed876743248a2932fa",
    232: "8e4579b0b2f90e9eeab143d1c3f41a86b5afdc9a04a3aaa1e05390553f16440a",
    235: "e275f48641348136446e826686d26a1991ffc876c9ffebe356becff272455b79",
}


def test_random_search_reports_pinned_boosted_witnesses():
    # the default env's first leaks: at steps 146 and 232 the witness's
    # second input is a boosted sibling (its seed is no base input's), at
    # 235 both are base inputs. The report bytes pin the siblings' memory
    # and the chain rule that gives their probe vectors; a chain check that
    # never fires reports no leak in this run at all.
    env = LeakEnv(EnvConfig())
    log = random_search(env, budget=300, seed=0)
    base_seeds = {inp.seed for inp in env.inputs}
    steps = [ev.step for ev in log.leaks]
    assert steps == sorted(BOOSTED_WITNESS_SHA256)
    assert [ev.report.witness[1].seed in base_seeds for ev in log.leaks] == [False, False, True]
    assert all(ev.report.witness[0].seed in base_seeds and ev.report.revalidate() for ev in log.leaks)
    digests = {ev.step: hashlib.sha256(ev.report.to_json().encode()).hexdigest() for ev in log.leaks}
    assert digests == BOOSTED_WITNESS_SHA256


HELD_WITNESS_SHA256 = "355c0d6453e1ce92f34037041973a4513e5e532f9e56b5fdcefc939c4f097317"


def test_random_search_reports_a_witness_run_from_a_held_point(monkeypatch):
    # the default env's leak at step 206 of seed 25: the reported sibling's
    # hw_run on that step resumed from the point its run on an earlier step
    # captured, not from its base's chain point. The report revalidates,
    # equals the reference detector's, and its bytes are pinned.
    env = LeakEnv(EnvConfig())
    from_held = []  # the siblings run from a held point on the current step
    run, step = detect.hw_run, env.step

    def recorded(*args):
        if not any(args[4] is o.chain for o in env._last_obs.records):
            from_held.append(args[1])
        return run(*args)

    def stepped(action):
        from_held.clear()
        return step(action)

    monkeypatch.setattr(detect, "hw_run", recorded)
    monkeypatch.setattr(env, "step", stepped)
    log = random_search(env, budget=206, seed=25)
    monkeypatch.undo()
    assert [ev.step for ev in log.leaks] == [32, 85, 165, 206]
    report = log.leaks[-1].report
    assert any(sibling is report.witness[1] for sibling in from_held)
    assert report.revalidate()
    cfg = env.config
    assert report == reference_violation(report.program, env.inputs, cfg.contract, cfg.window,
                                         cfg.boosts_per_input, env._detect_seed, cfg.step_budget)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == HELD_WITNESS_SHA256


def _fixture_search():
    _, env_cfg = planted_fixture()
    return random_search(LeakEnv(env_cfg), budget=600, seed=1, horizon=64)


def test_random_search_runs_no_learner_code(monkeypatch):
    """The baseline steps the env and keeps the log; it encodes nothing and
    runs none of PPO's rollout math."""
    from leaklab import agent, env

    pinned = _fixture_search()

    def forbidden(*args, **kwargs):
        raise AssertionError("random_search ran learner code")

    monkeypatch.setattr(env, "encode_observation", forbidden)
    for name in ("compute_gae", "select_action", "value_forward"):
        monkeypatch.setattr(agent, name, forbidden)
    log = _fixture_search()
    assert log.to_jsonl() == pinned.to_jsonl()
    assert log.leaks == pinned.leaks and len(log.leaks) == 2


def test_training_log_save(tmp_path):
    cfg = TrainerConfig(total_steps=32, horizon=16, seed=1, minibatch_size=8)
    log = train(_tiny_env(), cfg)
    log.save(tmp_path)
    assert (tmp_path / "training.jsonl").exists()
    if log.leaks:
        assert (tmp_path / "leaks" / "leak_000.json").exists()
        assert (tmp_path / "leaks" / "leak_000.asm").exists()

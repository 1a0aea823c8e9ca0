"""Policy-gradient learner and random-search baseline.

PPO-clip implemented from scratch on numpy: a small tanh MLP policy with a
softmax head, a twin value net, generalized advantage estimation, and plain
gradient descent. Everything stochastic flows through one seeded generator,
so identical seeds give identical training logs. No learning framework is
involved; gradients are computed by hand and checked against finite
differences in the test suite.
"""

from __future__ import annotations

import ctypes
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .detect import ViolationReport
from .env import LeakEnv
from .errors import ConfigError, TrainingFault
from .isa import render_program

__all__ = [
    "HIDDEN",
    "TrainerConfig",
    "PolicyParams",
    "Trajectory",
    "IterationRecord",
    "LeakEvent",
    "TrainingLog",
    "init_params",
    "policy_logits",
    "value_forward",
    "select_action",
    "compute_gae",
    "loss_and_grads",
    "ppo_update",
    "train",
    "random_search",
]

HIDDEN = (64, 64)


@dataclass(frozen=True)
class TrainerConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2
    learning_rate: float = 3e-4
    epochs: int = 4
    minibatch_size: int = 64
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    horizon: int = 512
    total_steps: int = 100_000
    seed: int = 0
    # Stop collecting as soon as a leak is recorded; used by experiments that
    # only measure steps-to-first-leak.
    stop_on_first_leak: bool = False

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0 and 0.0 <= self.gae_lambda <= 1.0):
            raise ConfigError("gamma and gae_lambda must lie in [0, 1]")
        if self.clip_eps <= 0:
            raise ConfigError("clip_eps must be positive")
        for name in ("epochs", "minibatch_size", "horizon"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.total_steps < 0:
            raise ConfigError("total_steps must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class PolicyParams:
    """Two MLPs as (weight, bias) lists: policy [in, 64, 64, actions] with
    tanh hidden layers and a softmax head, value [in, 64, 64, 1]."""

    policy: list[tuple[np.ndarray, np.ndarray]]
    value: list[tuple[np.ndarray, np.ndarray]]

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            policy=[(w.copy(), b.copy()) for w, b in self.policy],
            value=[(w.copy(), b.copy()) for w, b in self.value],
        )

    # Flat layout (documented for the finite-difference oracle): policy
    # layers first then value layers, each as W row-major then b.
    def to_vector(self) -> np.ndarray:
        parts = []
        for net in (self.policy, self.value):
            for w, b in net:
                parts.append(w.ravel())
                parts.append(b.ravel())
        return np.concatenate(parts)

    def from_vector(self, vec: np.ndarray) -> "PolicyParams":
        out = self.copy()
        pos = 0
        for net in (out.policy, out.value):
            for i, (w, b) in enumerate(net):
                nw = w.size
                net[i] = (
                    vec[pos : pos + nw].reshape(w.shape).copy(),
                    vec[pos + nw : pos + nw + b.size].copy(),
                )
                pos += nw + b.size
        assert pos == vec.size
        return out


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(input_dim: int, n_actions: int, rng: np.random.Generator) -> PolicyParams:
    """Scaled-uniform hidden layers; the final policy layer starts at zero so
    the initial policy is exactly uniform."""
    sizes = (input_dim,) + HIDDEN
    policy = []
    value = []
    for a, b in zip(sizes, sizes[1:]):
        policy.append((_glorot(rng, a, b), np.zeros(b)))
    policy.append((np.zeros((sizes[-1], n_actions)), np.zeros(n_actions)))
    for a, b in zip(sizes, sizes[1:]):
        value.append((_glorot(rng, a, b), np.zeros(b)))
    value.append((_glorot(rng, sizes[-1], 1), np.zeros(1)))
    return PolicyParams(policy=policy, value=value)


def _forward(net, x):
    """MLP forward; returns output and per-layer activations for backprop."""
    acts = [x]
    a = x
    for w, b in net[:-1]:
        a = np.tanh(a @ w + b)
        acts.append(a)
    w, b = net[-1]
    return a @ w + b, acts


def _backward(net, acts, d_out):
    """Gradients of each (W, b) given dLoss/d_output."""
    grads = [None] * len(net)
    w_last, _ = net[-1]
    grads[-1] = (acts[-1].T @ d_out, d_out.sum(axis=0))
    da = d_out @ w_last.T
    for i in range(len(net) - 2, -1, -1):
        dz = da * (1.0 - acts[i + 1] ** 2)
        grads[i] = (acts[i].T @ dz, dz.sum(axis=0))
        if i:
            da = dz @ net[i][0].T
    return grads


def policy_logits(params: PolicyParams, x: np.ndarray) -> np.ndarray:
    out, _ = _forward(params.policy, np.atleast_2d(x))
    return out


def value_forward(params: PolicyParams, x: np.ndarray) -> np.ndarray:
    out, _ = _forward(params.value, np.atleast_2d(x))
    return out[:, 0]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def select_action(params: PolicyParams, obs: np.ndarray, rng: np.random.Generator):
    """Sample an action from the softmax policy; returns (action, log-prob,
    value estimate)."""
    logits = policy_logits(params, obs)
    if not np.isfinite(logits).all():
        raise TrainingFault("policy produced non-finite logits")
    logp = _log_softmax(logits)[0]
    probs = np.exp(logp)
    action = int(rng.choice(len(probs), p=probs / probs.sum()))
    value = float(value_forward(params, obs)[0])
    return action, float(logp[action]), value


def compute_gae(rewards, values, terminated, truncated, final_values, gamma, lam):
    """Generalized advantage estimation over a rollout that may span several
    episodes. `final_values` holds, for each step that truncated an episode
    (or the rollout tail), the value of the observation after that step."""
    n = len(rewards)
    adv = np.zeros(n)
    gae = 0.0
    for t in range(n - 1, -1, -1):
        if terminated[t]:
            next_v, cont = 0.0, 0.0
        elif truncated[t] or t == n - 1:
            next_v, cont = final_values[t], 0.0
        else:
            next_v, cont = values[t + 1], 1.0
        delta = rewards[t] + gamma * next_v - values[t]
        gae = delta + gamma * lam * cont * gae
        adv[t] = gae
    return adv, adv + values


@dataclass
class Trajectory:
    """One rollout worth of transitions with advantages attached."""

    obs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


def loss_and_grads(params: PolicyParams, batch: dict, cfg: TrainerConfig):
    """Clipped-surrogate + value + entropy loss and its exact gradients.

    batch: obs [B,D], actions [B], old_log_probs [B], advantages [B],
    returns [B]. Returns (stats dict, policy grads, value grads).
    """
    x = batch["obs"]
    acts = batch["actions"]
    adv = batch["advantages"]
    rets = batch["returns"]
    bsz = len(acts)
    eps = cfg.clip_eps

    logits, p_acts = _forward(params.policy, x)
    logp_all = _log_softmax(logits)
    probs = np.exp(logp_all)
    logp_a = logp_all[np.arange(bsz), acts]
    ratio = np.exp(logp_a - batch["old_log_probs"])
    s1 = ratio * adv
    clipped = np.clip(ratio, 1.0 - eps, 1.0 + eps)
    s2 = clipped * adv
    # spec invariant: for positive advantages past the clip, the clipped
    # surrogate never exceeds the raw one
    over = (adv > 0) & (ratio > 1.0 + eps)
    assert np.all(s2[over] <= s1[over] + 1e-12)
    policy_loss = -np.minimum(s1, s2).mean()
    entropy = -(probs * logp_all).sum(axis=1)
    mean_entropy = entropy.mean()
    # d(-min)/dlogp_a: the unclipped branch carries gradient when active
    unclipped = (s1 <= s2).astype(float)
    d_logp_a = -(adv * ratio * unclipped) / bsz
    d_logits = d_logp_a[:, None] * (np.eye(logits.shape[1])[acts] - probs)
    # entropy bonus: d(-c_e * mean H)/dlogits
    d_logits += cfg.entropy_coef * probs * (logp_all + entropy[:, None]) / bsz
    policy_grads = _backward(params.policy, p_acts, d_logits)

    v_out, v_acts = _forward(params.value, x)
    v = v_out[:, 0]
    value_loss = ((v - rets) ** 2).mean()
    d_v = (2.0 * cfg.value_coef * (v - rets) / bsz)[:, None]
    value_grads = _backward(params.value, v_acts, d_v)

    total = policy_loss + cfg.value_coef * value_loss - cfg.entropy_coef * mean_entropy
    if not np.isfinite(total):
        raise TrainingFault("non-finite loss")
    stats = {
        "loss": float(total),
        "policy_loss": float(policy_loss),
        "value_loss": float(value_loss),
        "entropy": float(mean_entropy),
    }
    return stats, policy_grads, value_grads


def ppo_update(params: PolicyParams, traj: Trajectory, cfg: TrainerConfig, rng: np.random.Generator):
    """Run the configured epochs of minibatch gradient descent over one
    rollout and return the updated parameters plus averaged loss
    statistics."""
    obs, actions, old_logp, rets = traj.obs, traj.actions, traj.log_probs, traj.returns
    adv = (traj.advantages - traj.advantages.mean()) / max(traj.advantages.std(), 1e-8)

    new = params.copy()
    n = len(actions)
    stats_acc: dict[str, float] = {}
    count = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            idx = order[start : start + cfg.minibatch_size]
            mb = {
                "obs": obs[idx],
                "actions": actions[idx],
                "old_log_probs": old_logp[idx],
                "advantages": adv[idx],
                "returns": rets[idx],
            }
            stats, pg, vg = loss_and_grads(new, mb, cfg)
            lr = cfg.learning_rate
            for i, (gw, gb) in enumerate(pg):
                w, b = new.policy[i]
                new.policy[i] = (w - lr * gw, b - lr * gb)
            for i, (gw, gb) in enumerate(vg):
                w, b = new.value[i]
                new.value[i] = (w - lr * gw, b - lr * gb)
            for k, val in stats.items():
                stats_acc[k] = stats_acc.get(k, 0.0) + val
            count += 1
    return new, {k: v / count for k, v in stats_acc.items()}


# --- training loop ----------------------------------------------------------


@dataclass
class LeakEvent:
    step: int
    report: ViolationReport


@dataclass
class IterationRecord:
    iteration: int
    steps: int
    episodes: int
    mean_episode_reward: float | None
    leaks_found: int
    first_leak_step: int | None
    policy_loss: float | None = None
    value_loss: float | None = None
    entropy: float | None = None

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "steps": self.steps,
            "episodes": self.episodes,
            "mean_episode_reward": self.mean_episode_reward,
            "leaks_found": self.leaks_found,
            "first_leak_step": self.first_leak_step,
            "policy_loss": self.policy_loss,
            "value_loss": self.value_loss,
            "entropy": self.entropy,
        }


@dataclass
class TrainingLog:
    method: str
    iterations: list[IterationRecord] = field(default_factory=list)
    leaks: list[LeakEvent] = field(default_factory=list)
    total_steps: int = 0

    @property
    def first_leak_step(self) -> int | None:
        return self.leaks[0].step if self.leaks else None

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r.to_dict()) + "\n" for r in self.iterations)

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "training.jsonl").write_text(self.to_jsonl())
        if self.leaks:
            leak_dir = out / "leaks"
            leak_dir.mkdir(exist_ok=True)
            for i, ev in enumerate(self.leaks):
                (leak_dir / f"leak_{i:03d}.json").write_text(ev.report.to_json() + "\n")
                (leak_dir / f"leak_{i:03d}.asm").write_text(
                    render_program(ev.report.program) + "\n"
                )


class _Runner:
    """Shared rollout loop for the learner and the uniform baseline."""

    def __init__(self, env: LeakEnv, cfg: TrainerConfig, method: str):
        self.env = env
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.log = TrainingLog(method=method)
        self.steps = 0
        self.episodes = 0
        self.obs_vec = env.encode(env.reset(cfg.seed))
        self.ep_reward = 0.0

    def should_stop(self) -> bool:
        if self.steps >= self.cfg.total_steps:
            return True
        return self.cfg.stop_on_first_leak and bool(self.log.leaks)

    def collect(self, act, value_fn):
        """Collect up to cfg.horizon transitions; `act(obs_vec)` returns
        (action, log_prob, value) and `value_fn(obs_vec)` a value estimate
        for bootstrap queries. Returns (Trajectory, completed episode
        rewards)."""
        cfg = self.cfg
        env = self.env
        obs_l, act_l, logp_l, rew_l, val_l, term_l, trunc_l = [], [], [], [], [], [], []
        final_values: dict[int, float] = {}
        ep_rewards = []
        t = 0
        while t < cfg.horizon and not self.should_stop():
            a, logp, v = act(self.obs_vec)
            sr = env.step(a)
            obs_l.append(self.obs_vec)
            act_l.append(a)
            logp_l.append(logp)
            rew_l.append(sr.reward)
            val_l.append(v)
            term_l.append(sr.terminated)
            trunc_l.append(sr.truncated)
            self.ep_reward += sr.reward
            self.steps += 1
            if sr.info.get("violation") is not None:
                self.log.leaks.append(LeakEvent(step=self.steps, report=sr.info["violation"]))
            if sr.terminated or sr.truncated:
                if sr.truncated and not sr.terminated:
                    final_values[t] = float(value_fn(env.encode(sr.obs)))
                ep_rewards.append(self.ep_reward)
                self.ep_reward = 0.0
                self.episodes += 1
                self.obs_vec = env.encode(env.reset())
            else:
                self.obs_vec = env.encode(sr.obs)
            t += 1
        if not obs_l:
            return None, ep_rewards
        n = len(obs_l)
        fv = np.zeros(n)
        for k, v in final_values.items():
            fv[k] = v
        if not (term_l[-1] or trunc_l[-1]):
            fv[n - 1] = float(value_fn(self.obs_vec))  # bootstrap the open tail
        adv, rets = compute_gae(
            np.array(rew_l), np.array(val_l), np.array(term_l), np.array(trunc_l),
            fv, cfg.gamma, cfg.gae_lambda,
        )
        traj = Trajectory(
            obs=np.array(obs_l),
            actions=np.array(act_l),
            log_probs=np.array(logp_l),
            advantages=adv,
            returns=rets,
        )
        return traj, ep_rewards

    def record(self, iteration: int, ep_rewards, stats=None):
        self.log.iterations.append(
            IterationRecord(
                iteration=iteration,
                steps=self.steps,
                episodes=self.episodes,
                mean_episode_reward=(
                    float(np.mean(ep_rewards)) if ep_rewards else None
                ),
                leaks_found=len(self.log.leaks),
                first_leak_step=self.log.first_leak_step,
                policy_loss=None if stats is None else stats["policy_loss"],
                value_loss=None if stats is None else stats["value_loss"],
                entropy=None if stats is None else stats["entropy"],
            )
        )
        self.log.total_steps = self.steps


@cache
def _openblas():
    """numpy's bundled OpenBLAS with its thread-count calls declared, or None
    when numpy ships without it (another BLAS, or a different build)."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return lib
    return None


@contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore the previous
    count. PPO's matrices are small: threading them costs more in handoff
    than it gains, and far more when another process holds a core."""
    lib = _openblas()
    if lib is None:
        yield
        return
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(previous)


def train(env: LeakEnv, cfg: TrainerConfig) -> TrainingLog:
    """Alternate rollout collection and PPO updates until the step budget is
    spent. Fully reproducible from cfg.seed. OpenBLAS runs on one thread
    for the duration."""
    with _one_blas_thread():
        return _train(env, cfg)


def _train(env: LeakEnv, cfg: TrainerConfig) -> TrainingLog:
    runner = _Runner(env, cfg, method="ppo")
    params = init_params(len(runner.obs_vec), env.action_space.size, runner.rng)

    def act(x):
        return select_action(params, x, runner.rng)

    def value_fn(x):
        return value_forward(params, x)[0]

    iteration = 0
    while not runner.should_stop():
        traj, ep_rewards = runner.collect(act, value_fn)
        if traj is None:
            break
        try:
            params, stats = ppo_update(params, traj, cfg, runner.rng)
        except TrainingFault as exc:
            raise TrainingFault(f"iteration {iteration}: {exc}") from exc
        iteration += 1
        runner.record(iteration, ep_rewards, stats)
    return runner.log


def random_search(env: LeakEnv, budget: int, seed: int, horizon: int = 512,
                  stop_on_first_leak: bool = False) -> TrainingLog:
    """Uniform-policy baseline: the same loop and logging as train(), with
    actions drawn uniformly and no updates."""
    cfg = TrainerConfig(
        total_steps=budget, seed=seed, horizon=horizon,
        stop_on_first_leak=stop_on_first_leak,
    )
    runner = _Runner(env, cfg, method="random")
    size = env.action_space.size
    uniform_logp = -float(np.log(size))

    def act(x):
        return int(runner.rng.integers(size)), uniform_logp, 0.0

    iteration = 0
    while not runner.should_stop():
        traj, ep_rewards = runner.collect(act, lambda x: 0.0)
        if traj is None:
            break
        iteration += 1
        runner.record(iteration, ep_rewards)
    return runner.log

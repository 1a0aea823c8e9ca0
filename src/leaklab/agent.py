"""Policy-gradient learner and random-search baseline.

PPO-clip implemented from scratch on numpy: a small tanh MLP policy with a
softmax head, a twin value net, generalized advantage estimation, and plain
gradient descent. Everything stochastic flows through one seeded generator,
so identical seeds give identical training logs. No learning framework is
involved; gradients are computed by hand and checked against finite
differences in the test suite.

An encoded observation is mostly zeros, so both nets' first layers read only
the nonzero inputs: `select_action` those of its observation, `ppo_update`
those that are nonzero somewhere in the rollout. The math is the dense
math without its zero terms.

The random-search baseline shares the learner's episode runner (steps,
episodes, leaks, log records) but not its rollout buffer: it draws actions
uniformly and never encodes an observation.
"""

from __future__ import annotations

import ctypes
import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .detect import ViolationReport
from .env import LeakEnv, StepResult
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
        # NaN fails every comparison, so each test is written to pass only
        # on a finite value in range
        for name in ("clip_eps", "learning_rate"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and positive")
        for name in ("entropy_coef", "value_coef"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0")
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


def _restrict(params: PolicyParams, cols: np.ndarray) -> PolicyParams:
    """`params` with both first-layer weights cut to the input rows `cols`.
    The biases and later layers are the same arrays, not copies."""
    return PolicyParams(
        policy=[(params.policy[0][0][cols], params.policy[0][1])] + params.policy[1:],
        value=[(params.value[0][0][cols], params.value[0][1])] + params.value[1:],
    )


def select_action(params: PolicyParams, obs: np.ndarray, rng: np.random.Generator):
    """Sample an action from the softmax policy; returns (action, log-prob,
    value estimate). Both nets read only the observation's nonzero entries."""
    obs = np.ravel(obs)
    cols = np.flatnonzero(obs)
    params, obs = _restrict(params, cols), obs[cols]
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
    rollout on a copy of `params`, and return the updated copy plus averaged
    loss statistics.

    The epochs run on the input columns that are nonzero somewhere in the
    rollout. A first-layer weight row of any other column gets a gradient of
    zero in every minibatch, so it keeps its value and is copied through."""
    cols = np.flatnonzero(traj.obs.any(axis=0))
    obs, actions, old_logp, rets = traj.obs[:, cols], traj.actions, traj.log_probs, traj.returns
    adv = (traj.advantages - traj.advantages.mean()) / max(traj.advantages.std(), 1e-8)

    new = _restrict(params, cols).copy()
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
            for (w, b), (gw, gb) in zip(new.policy + new.value, pg + vg):
                w -= lr * gw
                b -= lr * gb
            for k, val in stats.items():
                stats_acc[k] = stats_acc.get(k, 0.0) + val
            count += 1
    nets = []
    for dense, cut in ((params.policy, new.policy), (params.value, new.value)):
        w = dense[0][0].copy()
        w[cols] = cut[0][0]
        nets.append([(w, cut[0][1])] + cut[1:])
    return PolicyParams(*nets), {k: v / count for k, v in stats_acc.items()}


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
        return "".join(json.dumps(asdict(r)) + "\n" for r in self.iterations)

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
    """Episode bookkeeping shared by the learner and the uniform baseline. It
    holds the current Observation, not its encoding: only PPO's rollout
    encodes."""

    def __init__(self, env: LeakEnv, cfg: TrainerConfig, method: str):
        self.env = env
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.log = TrainingLog(method=method)
        self.steps = 0
        self.episodes = 0
        self.obs = env.reset(cfg.seed)
        self.ep_reward = 0.0
        self.ep_rewards: list[float] = []  # rewards of episodes completed since the last record

    def should_stop(self) -> bool:
        if self.steps >= self.cfg.total_steps:
            return True
        return self.cfg.stop_on_first_leak and bool(self.log.leaks)

    def step(self, action: int) -> StepResult:
        """Take `action`: count the step, add its reward, log a leak, and at
        an episode's end record the episode's reward and reset, so `obs` is
        always what the next action sees."""
        sr = self.env.step(action)
        self.ep_reward += sr.reward
        self.steps += 1
        if sr.info.get("violation") is not None:
            self.log.leaks.append(LeakEvent(step=self.steps, report=sr.info["violation"]))
        if sr.terminated or sr.truncated:
            self.ep_rewards.append(self.ep_reward)
            self.ep_reward = 0.0
            self.episodes += 1
            self.obs = self.env.reset()
        else:
            self.obs = sr.obs
        return sr

    def record(self, stats=None):
        ep_rewards, self.ep_rewards = self.ep_rewards, []
        self.log.iterations.append(
            IterationRecord(
                iteration=len(self.log.iterations) + 1,
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


def _rollout(runner: _Runner, params: PolicyParams, x: np.ndarray):
    """Collect up to cfg.horizon transitions under the policy, starting from
    `x`, the encoding of `runner.obs`. Returns the Trajectory and the
    encoding the next rollout starts from."""
    cfg = runner.cfg
    env = runner.env
    obs_l, act_l, logp_l, rew_l, val_l, term_l, trunc_l, final_l = [], [], [], [], [], [], [], []
    while len(act_l) < cfg.horizon and not runner.should_stop():
        a, logp, v = select_action(params, x, runner.rng)
        sr = runner.step(a)
        obs_l.append(x)
        act_l.append(a)
        logp_l.append(logp)
        rew_l.append(sr.reward)
        val_l.append(v)
        term_l.append(sr.terminated)
        trunc_l.append(sr.truncated)
        # a truncated episode bootstraps from the value of its last observation
        truncated_only = sr.truncated and not sr.terminated
        final_l.append(float(value_forward(params, env.encode(sr.obs))[0]) if truncated_only else 0.0)
        x = env.encode(runner.obs)
    if not (term_l[-1] or trunc_l[-1]):
        final_l[-1] = float(value_forward(params, x)[0])  # bootstrap the open tail
    adv, rets = compute_gae(
        np.array(rew_l), np.array(val_l), np.array(term_l), np.array(trunc_l),
        np.array(final_l), cfg.gamma, cfg.gae_lambda,
    )
    traj = Trajectory(
        obs=np.array(obs_l),
        actions=np.array(act_l),
        log_probs=np.array(logp_l),
        advantages=adv,
        returns=rets,
    )
    return traj, x


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
    for the duration. numpy's overflow and invalid-value warnings are off:
    the non-finite checks on logits and loss raise TrainingFault instead."""
    with _one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        return _train(env, cfg)


def _train(env: LeakEnv, cfg: TrainerConfig) -> TrainingLog:
    runner = _Runner(env, cfg, method="ppo")
    params = init_params(env.encoded_length, env.action_space.size, runner.rng)
    x = env.encode(runner.obs)
    while not runner.should_stop():
        traj, x = _rollout(runner, params, x)
        try:
            params, stats = ppo_update(params, traj, cfg, runner.rng)
        except TrainingFault as exc:
            raise TrainingFault(f"iteration {len(runner.log.iterations)}: {exc}") from exc
        runner.record(stats)
    return runner.log


def random_search(env: LeakEnv, budget: int, seed: int, horizon: int = 512,
                  stop_on_first_leak: bool = False) -> TrainingLog:
    """Uniform-policy baseline: the same episode runner and log as train(),
    with actions drawn uniformly, one record per `horizon` steps, and
    nothing encoded or learned."""
    cfg = TrainerConfig(
        total_steps=budget, seed=seed, horizon=horizon,
        stop_on_first_leak=stop_on_first_leak,
    )
    runner = _Runner(env, cfg, method="random")
    size = env.action_space.size
    while not runner.should_stop():
        runner.step(int(runner.rng.integers(size)))
        if runner.steps % horizon == 0 or runner.should_stop():
            runner.record()
    return runner.log

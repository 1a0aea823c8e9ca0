"""From-scratch oracles for the tests: a relational detector for
`detect_violation`, and a dense PPO update and action sampler for
`ppo_update` and `select_action`.

The detector shares nothing with the product's but the two simulators, the
stream generator and the report type: every member's contract trace and
probe vector come from runs from the reset, and each sibling is derived
here from its stream. It has no observability gate and no chain rule, so it
sees what they miss.

The learner's oracles share only `loss_and_grads` and the dense forwards,
and run them over the full input width, zero columns included.
"""

from leaklab.arch import (
    DEFAULT_STEP_BUDGET,
    DEFAULT_WINDOW,
    ContractSpec,
    Input,
    Xorshift64Star,
    contract_trace,
    stream_seed,
)
import numpy as np

from leaklab.agent import loss_and_grads, policy_logits, value_forward
from leaklab.detect import ViolationReport
from leaklab.uarch import CACHE_SETS, REJECTED, hw_run


def reference_sibling(base: Input, base_trace: tuple, seed: int, index: int) -> Input:
    """Stream `index`'s fresh bytes under `seed`, with the base's bytes at
    every address that `base_trace` loads, and the base's registers."""
    mem = bytearray(Xorshift64Star(stream_seed(seed, index)).next_bytes())
    for obs in base_trace:
        if obs[0] == "L":
            mem[obs[1] : obs[1] + 8] = base.mem[obs[1] : obs[1] + 8]
    return Input(base.r0, base.r1, base.r2, bytes(mem), stream_seed(seed, index))


def reference_violation(
    p,
    inputs,
    contract=ContractSpec(),
    window=DEFAULT_WINDOW,
    boosts_per_input=2,
    seed=0,
    budget=DEFAULT_STEP_BUDGET,
):
    """The first witness in `detect_violation`'s documented order, found
    without a gate: pass 1 compares each class of base inputs, in order of
    first occurrence, with its first member; pass 2 compares sibling j of
    input i, in (i, j) order, with the first member of its own contract
    trace's class. Returns a ViolationReport, None, or REJECTED if some base
    input exhausts a simulator's budget."""
    members = []  # (input, contract trace, probe vector) of each base input
    for inp in inputs:
        trace = contract_trace(p, inp, contract, budget)
        run = hw_run(p, inp, window, budget)
        if trace is REJECTED or run is REJECTED:
            return REJECTED
        members.append((inp, trace, run.htrace))

    classes = {}  # contract trace -> the class's members, in input order
    for member in members:
        classes.setdefault(member[1], []).append(member)
    for head, *rest in classes.values():
        for member in rest:
            if member[2] != head[2]:
                return _report(p, contract, window, head, member)

    for i, (base, base_trace, _) in enumerate(members):
        for j in range(1, boosts_per_input + 1):
            sibling = reference_sibling(base, base_trace, seed, (i << 8) | j)
            trace = contract_trace(p, sibling, contract, budget)
            run = hw_run(p, sibling, window, budget)
            assert trace is not REJECTED and run is not REJECTED, "a sibling's run did not terminate"
            head = classes.setdefault(trace, [(sibling, trace, run.htrace)])[0]
            if run.htrace != head[2]:
                return _report(p, contract, window, head, (sibling, trace, run.htrace))
    return None


def _report(p, contract, window, a, b) -> ViolationReport:
    diff = a[2] ^ b[2]
    return ViolationReport(
        program=p,
        contract=contract,
        window=window,
        witness=(a[0], b[0]),
        htraces=(a[2], b[2]),
        diverging_sets=tuple(s for s in range(CACHE_SETS) if diff >> s & 1),
    )


def reference_select_action(params, obs, rng):
    """`select_action` over every input column: (action, log-prob, value)."""
    logits = policy_logits(params, obs)[0]
    z = logits - logits.max()
    logp = z - np.log(np.exp(z).sum())
    probs = np.exp(logp)
    action = int(rng.choice(len(probs), p=probs / probs.sum()))
    return action, float(logp[action]), float(value_forward(params, obs)[0])


def reference_ppo_update(params, traj, cfg, rng):
    """`ppo_update` over every input column: the same minibatches, in the
    same order, on a copy of `params`; returns the updated copy."""
    adv = (traj.advantages - traj.advantages.mean()) / max(traj.advantages.std(), 1e-8)
    new = params.copy()
    n = len(traj.actions)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.minibatch_size):
            idx = order[start : start + cfg.minibatch_size]
            batch = {
                "obs": traj.obs[idx],
                "actions": traj.actions[idx],
                "old_log_probs": traj.log_probs[idx],
                "advantages": adv[idx],
                "returns": traj.returns[idx],
            }
            _, pg, vg = loss_and_grads(new, batch, cfg)
            for (w, b), (gw, gb) in zip(new.policy + new.value, pg + vg):
                w -= cfg.learning_rate * gw
                b -= cfg.learning_rate * gb
    return new

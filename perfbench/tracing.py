"""Per-layer tracing of leaklab from outside the package.

`Tracer` replaces public functions and methods of the leaklab modules with
wrappers that record one span per call (name, start, end, parent span) in
memory, plus a few counts taken from the calls' return values. Every module
attribute that refers to a wrapped function is patched, so calls through
``from .arch import contract_trace``-style imports are caught too.
`Tracer.close()` puts every original object back.

Span names are ``<layer>.<function>``; a layer is the leaklab module the
function lives in. Self time is a span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from leaklab import agent, arch, detect, env, harness, uarch

# (span name, owner object, attribute). Owners are modules or classes.
SPANNED = (
    ("arch.contract_trace", arch, "contract_trace"),
    ("arch.generate_inputs", arch, "generate_inputs"),
    ("arch.next_bytes", arch.Xorshift64Star, "next_bytes"),
    ("uarch.observe", uarch, "observe"),
    ("uarch.hw_run", uarch, "hw_run"),
    ("detect.detect_violation", detect, "detect_violation"),
    ("detect.boost_input", detect, "boost_input"),
    ("env.step", env.LeakEnv, "step"),
    ("env.encode_observation", env, "encode_observation"),
    ("agent.select_action", agent, "select_action"),
    ("agent.ppo_update", agent, "ppo_update"),
    ("agent.loss_and_grads", agent, "loss_and_grads"),
    ("harness.random_program", harness, "random_program"),
    ("harness.fuzz_campaign", harness, "fuzz_campaign"),
    ("harness.rl_first_leak_study", harness, "rl_first_leak_study"),
)

# Called about a million times per traced pass: counted, not spanned.
COUNTED = (("arch.step_instruction", arch, "step_instruction"),)

TIERS = ("none", "misspec", "observable", "leak", "rejected")

# Per-layer metric names, in the order BENCHMARK.json lists them.
METRICS = (
    ("arch.step_instruction.calls", "count"),
    ("arch.contract_trace.calls", "count"),
    ("arch.contract_trace.self_s", "s"),
    ("arch.contract_trace.nonterminating", "count"),
    ("arch.next_bytes.calls", "count"),
    ("arch.next_bytes.self_s", "s"),
    ("arch.generate_inputs.self_s", "s"),
    ("uarch.observe.calls", "count"),
    ("uarch.observe.self_s", "s"),
    ("uarch.observe.rejected", "count"),
    ("uarch.observe.repeat_frac", "ratio"),
    ("uarch.hw_run.calls", "count"),
    ("uarch.hw_run.self_s", "s"),
    ("uarch.uops_issued", "count"),
    ("uarch.tran_uops", "count"),
    ("uarch.br_misses", "count"),
    ("uarch.ns_per_sim_instr", "ns"),
    ("detect.detect_violation.calls", "count"),
    ("detect.detect_violation.boosted", "count"),
    ("detect.detect_violation.gated_s", "s"),
    ("detect.detect_violation.boosted_s", "s"),
    ("detect.boost_input.calls", "count"),
    ("detect.boost_input.won", "count"),
    ("detect.boost_input.yield", "ratio"),
    ("detect.boost_input.self_s", "s"),
    ("detect.violations", "count"),
    ("env.step.calls", "count"),
    ("env.step.self_s", "s"),
    *((f"env.tier.{t}", "count") for t in TIERS),
    ("env.encode_observation.calls", "count"),
    ("env.encode_observation.self_s", "s"),
    ("agent.select_action.calls", "count"),
    ("agent.select_action.self_s", "s"),
    ("agent.ppo_update.calls", "count"),
    ("agent.ppo_update.self_s", "s"),
    ("agent.loss_and_grads.calls", "count"),
    ("agent.loss_and_grads.self_s", "s"),
    ("harness.random_program.calls", "count"),
    ("harness.random_program.self_s", "s"),
    ("harness.programs_tested", "count"),
    ("harness.trials_censored", "count"),
    ("harness.first_leak_steps", "count"),
    ("harness.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

UNITS = dict(METRICS)

# Metrics that are work counts: two traced passes over the same units must
# give identical values. Everything ending in _s, and the overhead, is time.
COUNT_METRICS = tuple(
    name for name, unit in METRICS if unit in ("count", "ratio") and name != "trace.overhead_frac"
)


def _leaklab_namespaces():
    """Every namespace a leaklab function can be looked up in at call time."""
    return [m for name, m in sys.modules.items() if name == "leaklab" or name.startswith("leaklab.")]


class Tracer:
    """Wraps the functions in SPANNED and COUNTED while open. Use as a
    context manager; spans and counts stay readable after close()."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []  # (owner, attribute, original)
        self._seen_observe: set = set()
        self._reported: set[int] = set()  # detect_violation spans that returned a report

    def __enter__(self) -> "Tracer":
        try:
            for name, owner, attr in SPANNED:
                self._patch(owner, attr, self.span(name, getattr(owner, attr)))
            for name, owner, attr in COUNTED:
                self._patch(owner, attr, self._counting(name, getattr(owner, attr)))
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        targets = [owner] if isinstance(owner, type) else _leaklab_namespaces()
        for target in targets:
            for a, v in list(vars(target).items()):
                if v is original:
                    self._patches.append((target, a, v))
                    setattr(target, a, wrapper)

    def _counting(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name, fn):
        """`fn` wrapped to record one span named `name` per call."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        on_result = self._on_result

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1)
            on_result(name, idx, args, kwargs, result)
            return result

        return wrapper

    def _on_result(self, name, idx, args, kwargs, result) -> None:
        c = self.counts
        if name == "arch.contract_trace":
            c["arch.contract_trace.nonterminating"] += result is arch.NON_TERMINATING
        elif name == "uarch.observe":
            c["uarch.observe.rejected"] += result is uarch.REJECTED
            key = (args[0], tuple(args[1]), args[2:], tuple(sorted(kwargs.items())))
            c["uarch.observe.repeats"] += key in self._seen_observe
            self._seen_observe.add(key)
        elif name == "uarch.hw_run":
            if result is not arch.NON_TERMINATING:
                c["uarch.uops_issued"] += result.counters.uops_issued
                c["uarch.tran_uops"] += result.counters.tran_uops
                c["uarch.br_misses"] += result.counters.br_misses
        elif name == "detect.boost_input":
            c["detect.boost_input.won"] += result is not None
        elif name == "detect.detect_violation":
            if isinstance(result, detect.ViolationReport):
                c["detect.violations"] += 1
                self._reported.add(idx)
        elif name == "env.step":
            info = result.info
            if info["rejected"]:
                tier = "rejected"
            elif info["violation"] is not None:
                tier = "leak"
            else:
                tier = info["filter"]
            c[f"env.tier.{tier}"] += 1
        elif name in ("harness.fuzz_campaign", "harness.rl_first_leak_study"):
            rows = result[1] if name == "harness.fuzz_campaign" else result[0]
            for row in rows:
                c["harness.programs_tested"] += row.programs_tested
                c["harness.trials_censored"] += row.censored
                if row.method == "rl" and not row.censored:
                    c["harness.first_leak_steps"] += row.wall_steps

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far, without
        trace.overhead_frac (the caller knows the untraced time)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        boosted = [False] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
                if name == "detect.boost_input":
                    boosted[parent] = True
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        gated_s = boosted_s = 0.0
        n_boosted = 0
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[i]
            if name == "detect.detect_violation":
                # A call passed the observability gate iff it boosted or
                # reported (a base-input divergence reports before boosting).
                if boosted[i] or i in self._reported:
                    n_boosted += 1
                    boosted_s += end - start
                else:
                    gated_s += end - start
        c = self.counts
        out: dict[str, float] = {}
        for name, _, _ in SPANNED:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        out["arch.step_instruction.calls"] = c["arch.step_instruction.calls"]
        for key in ("arch.contract_trace.nonterminating", "uarch.observe.rejected",
                    "uarch.uops_issued", "uarch.tran_uops", "uarch.br_misses",
                    "detect.boost_input.won", "detect.violations",
                    "harness.programs_tested", "harness.trials_censored",
                    "harness.first_leak_steps"):
            out[key] = c[key]
        for tier in TIERS:
            out[f"env.tier.{tier}"] = c[f"env.tier.{tier}"]
        out["uarch.observe.repeat_frac"] = c["uarch.observe.repeats"] / max(calls["uarch.observe"], 1)
        out["detect.detect_violation.boosted"] = n_boosted
        out["detect.detect_violation.gated_s"] = gated_s
        out["detect.detect_violation.boosted_s"] = boosted_s
        out["detect.boost_input.yield"] = c["detect.boost_input.won"] / max(calls["detect.boost_input"], 1)
        sim_s = self_s["arch.contract_trace"] + self_s["uarch.hw_run"]
        out["uarch.ns_per_sim_instr"] = 1e9 * sim_s / max(c["arch.step_instruction.calls"], 1)
        out["harness.self_s"] = self_s["harness.fuzz_campaign"] + self_s["harness.rl_first_leak_study"]
        return {name: out[name] for name, _ in METRICS if name in out}

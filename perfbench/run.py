"""Run one leaklab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload random-default --seed 1 --seconds 20 --trace 0

Run from the root of a leaklab checkout; the package is imported from its
``src`` directory. The run's work is split over `REPEATS` child processes of
this script, fresh interpreters started one at a time, each with its own
seed derived from ``--seed`` and a share of ``--seconds``. With
``--trace 0`` the end-to-end metrics are reported; with ``--trace 1`` the
first share runs once untraced and twice traced, and the per-layer metrics
are reported. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give every metric with its unit, the sample counts and the
machine facts. README.md next to this file says what each metric means.

Outputs are checked by revalidating every leak report, by replaying a small
pinned case against the digest in digests.json, and, in a traced run, by
comparing the three passes' output bytes and the traced passes' work
counts. Any failed check fails every operation of the run.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "digests.json"

REPEATS = 3  # processes per run, one at a time, each doing a share of the work
SETUP_PROBES = 7  # set-up samples: one per repetition, the rest from short probes
RUN_TIMEOUT_S = 170  # every child process is killed by then

# The machine's speed drifts by tens of percent, in spells from a fraction
# of a second to tens of seconds (other tenants of a shared host), so every
# time is scaled to a reference speed: the calibration loop below is timed
# every CALIB_EVERY_S of a run, between operations, and a time t measured
# while it took c seconds is reported as t * CALIB_REF_S / c. CALIB_REF_S is
# its median on the reference machine. A run's wall time is scaled by the
# process's median c; one operation's latency, which is short, by the
# median of the NEAR_CALIBS loops timed nearest to its start.
CALIB_REF_S = 1.5e-3
CALIB_EVERY_S = 0.05
NEAR_CALIBS = 5
SETUP_CALIBS = 9  # calibration loops timed right after set-up

END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("gated_step_ms_p50", "ms"),
    ("boosted_step_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)


def clock() -> float:
    """CLOCK_MONOTONIC, which a child process reads on the same time line."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes right now."""
    start = clock()
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return clock() - start


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # A child process runs one repetition (or only the set-up, as a probe).
    ap.add_argument("--child", choices=("probe", "plain", "traced"), help=argparse.SUPPRESS)
    ap.add_argument("--launched", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--check", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


class OpTimer:
    """Replaces `owner.attr` with a wrapper that reads the clock just before
    and just after each call, and notes whether the call boosted (called
    `detect.boost_input`, i.e. passed the observability gate). Between
    calls it times `calibrate` every CALIB_EVERY_S. Each call's outcome
    (an env step's reward and end flags, or the kind of detector result) and
    every report a call returns are kept for checking."""

    def __init__(self, owner, attr, calibrate):
        self.owner, self.attr = owner, attr
        self.calibrate = calibrate
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.boosted: list[bool] = []
        self.calibs: list[float] = []
        self.calib_starts: list[float] = []
        self.outcomes: list[str] = []
        self.reports: list = []

    def __enter__(self) -> "OpTimer":
        from leaklab import StepResult, ViolationReport, detect

        fn = self.original = getattr(self.owner, self.attr)
        boost = self.original_boost = detect.boost_input
        starts, durations, boosted_ops = self.starts, self.durations, self.boosted
        calibs, calib_starts = self.calibs, self.calib_starts
        outcomes, reports = self.outcomes, self.reports
        boosted = [False]
        calib = self.calibrate
        next_calib = [clock()]

        def timed(*args, **kwargs):
            boosted[0] = False
            start = clock()
            result = fn(*args, **kwargs)
            end = clock()
            starts.append(start)
            durations.append(end - start)
            boosted_ops.append(boosted[0])
            if end >= next_calib[0]:
                calib_starts.append(clock())
                calibs.append(calib())
                next_calib[0] = end + CALIB_EVERY_S
            if isinstance(result, StepResult):
                outcomes.append(f"{result.reward!r} {result.terminated:d}{result.truncated:d}")
            else:
                outcomes.append(type(result).__name__)
            if isinstance(result, ViolationReport):
                reports.append(result)
            return result

        def flagged_boost(*args, **kwargs):
            boosted[0] = True
            return boost(*args, **kwargs)

        setattr(self.owner, self.attr, timed)
        detect.boost_input = flagged_boost
        return self

    def __exit__(self, *exc) -> None:
        from leaklab import detect

        detect.boost_input = self.original_boost
        setattr(self.owner, self.attr, self.original)

    def scaled_durations(self) -> list[float]:
        """Each call's duration scaled by the speed around its start."""
        half = NEAR_CALIBS // 2
        out = []
        for start, duration in zip(self.starts, self.durations):
            i = max(bisect.bisect(self.calib_starts, start) - 1, 0)
            near = self.calibs[max(i - half, 0):i + half + 1]
            out.append(duration * CALIB_REF_S / statistics.median(near))
        return out


def timed_run(workload, state, seconds, tracer=None):
    """One repetition in this process. Returns (RunOutput, OpTimer, wall
    seconds of the run without the calibration loops). In a traced run each
    calibration loop is a span of its own, so that no layer's self time
    holds it."""
    from workloads import CheckFailed

    calib = tracer.span("bench.calibrate", calibrate) if tracer else calibrate
    with tracer or contextlib.nullcontext(), OpTimer(*workload.timed, calib) as timer:
        start = clock()
        out = workload.run(state, seconds, timer.reports)
        wall = clock() - start - sum(timer.calibs)
    if len(timer.durations) != out.ops:
        raise CheckFailed(f"timed {len(timer.durations)} operations, the harness reports {out.ops}")
    out.output += "\n".join(timer.outcomes).encode()
    return out, timer, wall


def check_pinned(workload) -> None:
    """Replay the workload's pinned case (seed and length in digests.json)
    and compare the digest of its output bytes with the pinned one."""
    from workloads import CheckFailed

    case = json.loads(DIGESTS.read_text())[workload.name]
    out, _, _ = timed_run(workload, workload.setup(case["seed"]), case["seconds"])
    got = hashlib.sha256(out.output).hexdigest()
    if got != case["sha256"]:
        raise CheckFailed(f"pinned case digest {got} != {case['sha256']}")


def child(workload, args) -> int:
    """Set up, time the calibration loop, run one repetition and print what
    the parent needs as one JSON line. Every leak report is revalidated
    after the run; with --check the pinned case is replayed too."""
    from workloads import CheckFailed

    state = workload.setup(args.seed)
    setup_s = clock() - args.launched
    setup_speed = CALIB_REF_S / statistics.median(calibrate() for _ in range(SETUP_CALIBS))
    if args.child == "probe":
        print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
        return 0
    import tracing

    tracer = tracing.Tracer() if args.child == "traced" else None
    out, timer, wall = timed_run(workload, state, args.seconds, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad = sum(not r.revalidate() for r in out.reports)
    if bad:
        raise CheckFailed(f"{bad} of {len(out.reports)} leak reports failed revalidation")
    if args.check:
        check_pinned(workload)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "ops": out.ops,
        "digest": hashlib.sha256(out.output).hexdigest(),
        "wall_s": wall,
        "speed": CALIB_REF_S / statistics.median(timer.calibs),
        "durations": timer.scaled_durations(),
        "boosted": timer.boosted,
        "peak_rss_mb": rss_mb,
        "layers": tracer.layer_metrics() if tracer else None,
    }))
    return 0


class Runner:
    """Starts the child processes of one run, one at a time, and kills any
    that is still running at the run's deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = clock() + RUN_TIMEOUT_S

    def __call__(self, kind: str, seed: int, check: bool = False) -> dict:
        args = self.args
        launched = clock()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds / REPEATS),
               "--child", kind, "--launched", repr(launched)] + ["--check"] * check
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                stdout, _ = proc.communicate(timeout=max(1.0, self.deadline - launched))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0:
            raise RuntimeError(f"{kind} child exited with code {proc.returncode}")
        return json.loads(stdout.strip().splitlines()[-1])


def machine_facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def check_same_work(reps) -> None:
    """Repetitions of the same seed must do the same operations and give
    the same bytes."""
    from workloads import CheckFailed

    if len({(r["digest"], r["ops"]) for r in reps}) != 1:
        raise CheckFailed("repetitions of the same work gave different outputs")


def median_ms(durations) -> float | None:
    """Median of durations in seconds, in ms; None if there are none."""
    return 1e3 * statistics.median(durations) if durations else None


def rep_seed(seed: int, rep: int) -> int:
    return seed * REPEATS + rep


def end_to_end(runner, seed, record) -> dict:
    """Each repetition does a different share of the run's work, from its own
    seed, so a run covers REPEATS times the inputs of one process. The
    children report each operation's latency already scaled."""
    reps = []
    for rep in range(REPEATS):
        reps.append(runner("plain", rep_seed(seed, rep), check=rep == 0))
        record["ops"] += reps[-1]["ops"]
    probes = reps + [runner("probe", rep_seed(seed, 0)) for _ in range(SETUP_PROBES - REPEATS)]
    ops = [(d, b) for r in reps for d, b in zip(r["durations"], r["boosted"])]
    every = sorted(d for d, _ in ops)
    wall = sum(r["wall_s"] for r in reps)
    record.update(samples=len(ops), boosted=sum(b for _, b in ops), setup_probes=len(probes),
                  step_ms_p50=median_ms(every), step_ms_p90=1e3 * every[(9 * len(every)) // 10],
                  raw_steps_per_s=record["ops"] / wall,
                  speed=sum(r["wall_s"] * r["speed"] for r in reps) / wall)
    return {
        "setup_s": statistics.median(p["setup_s"] * p["setup_speed"] for p in probes),
        "steps_per_s": record["ops"] / sum(r["wall_s"] * r["speed"] for r in reps),
        "gated_step_ms_p50": median_ms([d for d, b in ops if not b]),
        "boosted_step_ms_p50": median_ms([d for d, b in ops if b]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
    }


def per_layer(runner, seed, record) -> dict:
    """One repetition untraced and the same repetition twice traced."""
    import tracing
    from workloads import CheckFailed

    base = runner("plain", rep_seed(seed, 0), check=True)
    passes = [runner("traced", rep_seed(seed, 0)) for _ in range(2)]
    for r in (base, *passes):
        record["ops"] += r["ops"]
    check_same_work([base, *passes])
    m1, m2 = (p["layers"] for p in passes)
    differ = [k for k in tracing.COUNT_METRICS if m1[k] != m2[k]]
    if differ:
        raise CheckFailed(f"work counts differ between two traced runs: {differ}")
    metrics = {k: m1[k] if k in tracing.COUNT_METRICS else (m1[k] + m2[k]) / 2 for k in m1}
    traced_s = statistics.mean(p["wall_s"] * p["speed"] for p in passes)
    metrics["trace.overhead_frac"] = traced_s / (base["wall_s"] * base["speed"]) - 1
    record.update(samples=base["ops"], boosted=sum(base["boosted"]))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "leaklab" / "__init__.py").is_file():
        print(f"run.py: leaklab sources not found at {SRC}; run from a leaklab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("run.py: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    if args.child:
        return child(workload, args)

    import tracing

    units = dict(tracing.METRICS) if args.trace else dict(END_TO_END)
    record = {"ops": 0, "samples": 0, "boosted": 0, "setup_probes": 0}
    metrics: dict = {}
    correct = True
    try:
        metrics = (per_layer if args.trace else end_to_end)(Runner(args), args.seed, record)
    except Exception:
        traceback.print_exc()
        correct = False
    attempted = max(record["ops"], 1)
    failed = 0 if correct else attempted

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"operations {record['ops']} in {REPEATS} processes, {record['samples']} timed, "
          f"{record['boosted']} of them boosted; set-up samples {record['setup_probes']}")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics.get(name)!s:>24} {unit}")
    if not args.trace and correct:
        alias = "programs_per_s" if workload.name == "fuzz-scaling" else "env_steps_per_s"
        print(f"  {alias:40s} {metrics['steps_per_s']!s:>24} 1/s")
        for p in ("step_ms_p50", "step_ms_p90"):
            print(f"  {p:40s} {record[p]!s:>24} ms  (over all {record['samples']} operations)")
        print(f"  times are scaled to the reference speed; this run's speed was {record['speed']:.3f} "
              f"of it, and it measured {record['raw_steps_per_s']:.6g} operations/s unscaled")
    print(f"  {'failed_frac':40s} {failed / attempted!s:>24}")
    print("machine " + json.dumps(machine_facts()))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

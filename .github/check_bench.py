"""Run every benchmark workload once, and fail on a bad result.

Usage: python3 .github/check_bench.py SEED SECONDS TRACE

Runs `perfbench/run.py --workload W --seed SEED --seconds SECONDS --trace
TRACE` for each workload W that `BENCHMARK.json` names, in its order, from
the repository root, and exits non-zero at the first run that exits
non-zero, whose result is not `"correct": true`, or that prints a null
metric.
"""

import json
import subprocess
import sys


def main(seed: str, seconds: str, trace: str) -> None:
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for workload in workloads:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed,
               "--seconds", seconds, "--trace", trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"{workload}: perfbench/run.py exited {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        nulls = [name for name, metric in result["metrics"].items() if metric is None or metric["value"] is None]
        if result["correct"] is not True or nulls:
            sys.exit(f"{workload}: correct is {result['correct']}, null metrics {nulls}")
        print(f"{workload}: ok")


if __name__ == "__main__":
    main(*sys.argv[1:])

"""Recompute the pinned case of every workload and write digests.json.

    python3 perfbench/pin_digests.py

run.py replays each pinned case after measuring and fails the run when the
digest of its output bytes differs. Re-pin only in a change that means to
alter leaklab's output bytes, and say so in that change.
"""

import hashlib
import json
import sys

import run

# Seed and run length (seconds, as run.py's --seconds / REPEATS) of each
# workload's pinned case: small, so the replay adds little to a run, yet
# long enough to complete episodes and find leaks.
CASES = {
    "fuzz-scaling": {"seed": 0, "seconds": 2},
    "random-default": {"seed": 0, "seconds": 2},
    "random-ctcond": {"seed": 0, "seconds": 2},
    "rl-study": {"seed": 0, "seconds": 2},
}


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    pinned = {}
    for name, case in CASES.items():
        workload = WORKLOADS[name]
        state = workload.setup(case["seed"])
        out, _, _ = run.timed_run(workload, state, case["seconds"])
        pinned[name] = dict(case, sha256=hashlib.sha256(out.output).hexdigest())
        print(name, pinned[name], flush=True)
    run.DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n")


if __name__ == "__main__":
    main()

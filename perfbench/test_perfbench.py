"""Smoke tests for the benchmark itself, at minimal run length.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_prints_every_end_to_end_metric(name):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "3", "--trace", "0")
    metrics = result_of(proc)["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(run.END_TO_END)
    assert all(v["value"] > 0 for v in metrics.values())
    alias = "programs_per_s" if name == "fuzz-scaling" else "env_steps_per_s"
    for line in (alias, "step_ms_p50", "step_ms_p90", "failed_frac", "machine {"):
        assert line in proc.stdout


@pytest.mark.parametrize("name", ["fuzz-scaling", "random-default"])
def test_traced_run_prints_every_per_layer_metric(name):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "3", "--trace", "1")
    metrics = result_of(proc)["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(tracing.METRICS)
    assert all(v["value"] is not None for v in metrics.values())
    assert metrics["arch.step_instruction.calls"]["value"] > 0


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def namespace_snapshot():
    owners = tracing._leaklab_namespaces() + [owner for _, owner, _ in tracing.SPANNED
                                              if isinstance(owner, type)]
    return {(id(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_tracer_restores_every_wrapped_attribute():
    import leaklab
    from leaklab import arch, detect, uarch

    before = namespace_snapshot()
    original = arch.contract_trace
    with tracing.Tracer() as tracer:
        # imported-by-name references are wrapped too
        assert arch.contract_trace is not original
        assert detect.contract_trace is arch.contract_trace
        assert uarch.contract_trace is arch.contract_trace
        assert leaklab.contract_trace is arch.contract_trace
        program = leaklab.parse_program(leaklab.harness.FIXTURE_PROGRAM_TEXT)
        inputs = leaklab.generate_inputs(seed=1, count=2)
        leaklab.detect_violation(program, inputs)
    assert namespace_snapshot() == before
    metrics = tracer.layer_metrics()
    assert metrics["uarch.observe.calls"] == 1
    assert metrics["arch.contract_trace.calls"] >= 2
    assert metrics["arch.step_instruction.calls"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "fuzz-scaling",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""

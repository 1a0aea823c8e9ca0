import json
from pathlib import Path

import pytest

from leaklab.arch import dump_input, generate_inputs
from leaklab.cli import run_cli
from leaklab.harness import FIXTURE_PROGRAM_TEXT


@pytest.fixture()
def fixture_asm(tmp_path):
    path = tmp_path / "fixture.asm"
    path.write_text(FIXTURE_PROGRAM_TEXT + "\n")
    return str(path)


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = {
        "env": {
            "max_len": 6,
            "num_inputs": 4,
            "input_seed": 42,
            "actions": "fixture",
            "step_budget": 500,
        },
        "trainer": {"total_steps": 48, "horizon": 16, "minibatch_size": 8, "seed": 1},
        "seed": 1,
        "program_sizes": [3],
        "trials_per_size": 2,
        "fuzz_budget": 1500,
        "rl_step_budget": 300,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_detect_fixture_exits_2(fixture_asm, capsys):
    code = run_cli(["detect", fixture_asm, "--seed", "1"])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["diverging_sets"]
    assert report["program"] == FIXTURE_PROGRAM_TEXT


def test_detect_empty_program_exits_0(tmp_path, capsys):
    path = tmp_path / "empty.asm"
    path.write_text("; nothing here\n")
    code = run_cli(["detect", str(path)])
    assert code == 0
    assert "no violation" in capsys.readouterr().out


def test_detect_rejected_program(tmp_path, capsys):
    path = tmp_path / "loop.asm"
    path.write_text("JMP -2\n")
    code = run_cli(["detect", str(path)])
    assert code == 0
    assert "rejected" in capsys.readouterr().out


def test_simulate_jsonl(fixture_asm, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"env": {"num_inputs": 3, "input_seed": 7}}))
    code = run_cli(["simulate", fixture_asm, "--config", str(cfg)])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        rec = json.loads(line)
        assert len(rec["htrace"]) == 16
        assert rec["br_misses"] == 1
        assert rec["tran_uops"] == 1
        assert set(rec["regs"]) == {"R0", "R1", "R2"}


def test_simulate_with_input_file(fixture_asm, tmp_path, capsys):
    inp = generate_inputs(9, 2)[0]
    f = tmp_path / "input.bin"
    f.write_bytes(dump_input(inp))
    code = run_cli(["simulate", fixture_asm, "--input-file", str(f)])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 1


def test_usage_error_exits_1(capsys):
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["detect", "/nonexistent/program.asm"]) == 1
    capsys.readouterr()


def test_bad_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"unknown_section": 1}')
    assert run_cli(["train", "--config", str(bad)]) == 1
    bad.write_text('{"env": {"bogus": 1}}')
    assert run_cli(["train", "--config", str(bad)]) == 1
    bad.write_text("not json")
    assert run_cli(["train", "--config", str(bad)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("key", ["boosts_per_input", "step_budget"])
def test_nonpositive_budget_rejected_before_run(key, tiny_config, tmp_path, capsys, monkeypatch):
    def campaign_started(cfg):
        raise AssertionError("the campaign started on an invalid config")

    monkeypatch.setattr("leaklab.cli.fuzz_campaign", campaign_started)
    cfg = json.loads(Path(tiny_config).read_text())
    cfg["env"][key] = 0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(["fuzz", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert key in capsys.readouterr().err


def test_train_writes_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "run1"
    code = run_cli(["train", "--config", tiny_config, "--out", str(out)])
    assert code == 0
    assert (out / "training.jsonl").exists()
    for line in (out / "training.jsonl").read_text().splitlines():
        rec = json.loads(line)
        assert {"iteration", "steps", "leaks_found"} <= set(rec)
    capsys.readouterr()


def test_fuzz_writes_csv(tiny_config, tmp_path, capsys):
    out = tmp_path / "fuzzout"
    code = run_cli(["fuzz", "--config", tiny_config, "--out", str(out)])
    assert code == 0
    text = (out / "fuzz.csv").read_text()
    assert text.startswith("method,n,trial,programs_tested,wall_steps,censored\n")
    capsys.readouterr()


def test_scaling_writes_csv_with_both_methods(tiny_config, tmp_path, capsys):
    out = tmp_path / "scalingout"
    code = run_cli(["scaling", "--config", tiny_config, "--out", str(out)])
    assert code == 0
    lines = (out / "scaling.csv").read_text().strip().split("\n")
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"fuzz", "rl"}
    capsys.readouterr()


def test_outputs_byte_identical_across_runs(tiny_config, tmp_path, capsys):
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["fuzz", "--config", tiny_config, "--out", str(out)]) == 0
        texts.append((out / "fuzz.csv").read_bytes())
    assert texts[0] == texts[1]
    capsys.readouterr()

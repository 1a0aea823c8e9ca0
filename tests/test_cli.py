import copy
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab.arch import dump_input, generate_inputs
from leaklab.cli import load_experiment_config, run_cli
from leaklab.env import EnvConfig
from leaklab.errors import ConfigError
from leaklab.harness import FIXTURE_PROGRAM_TEXT, ExperimentConfig

TINY_CONFIG = {
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


@pytest.fixture()
def fixture_asm(tmp_path):
    path = tmp_path / "fixture.asm"
    path.write_text(FIXTURE_PROGRAM_TEXT + "\n")
    return str(path)


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
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


def test_diverged_training_exits_1(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "trainer": {"learning_rate": 1e300, "total_steps": 8, "horizon": 4, "minibatch_size": 2},
        "env": {"max_len": 3, "num_inputs": 2},
    }))
    # A fresh interpreter, so that stderr is what a user sees: numpy's
    # warnings included, which pytest would otherwise capture.
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "leaklab", "train", "--config", str(config), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: training diverged: iteration 0: non-finite loss\n"


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


def _no_campaign(*args, **kwargs):
    raise AssertionError("a campaign started on an invalid config")


# (keys into TINY_CONFIG, value, text stderr must contain); no keys replaces
# the whole document
MALFORMED = [
    (("trainer", "minibatch_size"), 0, "minibatch_size"),
    (("trainer", "epochs"), -1, "epochs"),
    (("trainer", "gamma"), 2, "gamma"),
    (("trainer", "learning_rate"), "a", "learning_rate"),
    (("env", "max_len"), "x", "max_len"),
    (("env", "rewards"), {"r_bogus": 1.0}, "r_bogus"),
    (("env", "contract"), {"mode": "ct-cond", "spec_depth": "x"}, "spec_depth"),
    (("program_sizes",), 5, "program_sizes"),
    ((), [], "config"),
    (("trainer", "horizon"), 0, "horizon"),
    (("trainer", "total_steps"), -1, "total_steps"),
    (("trainer", "seed"), -1, "seed"),
    (("trainer", "clip_eps"), float("nan"), "clip_eps"),
    (("trainer", "stop_on_first_leak"), 1, "stop_on_first_leak"),
    (("env", "max_episode_steps"), 0, "max_episode_steps"),
    (("env", "window"), 1.5, "window"),
    (("env", "contract"), "ct-cond:0", "spec_depth"),
    (("program_sizes",), [], "program_sizes"),
    (("program_sizes",), [3, 0], "program_sizes"),
    (("trials_per_size",), 0, "trials_per_size"),
    (("fuzz_budget",), 0, "fuzz_budget"),
    (("rl_step_budget",), 0, "rl_step_budget"),
]


@pytest.mark.parametrize("keys,value,named", MALFORMED, ids=lambda x: str(x))
def test_malformed_config_exits_1(keys, value, named, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("leaklab.cli.train", _no_campaign)
    if keys:
        doc = copy.deepcopy(TINY_CONFIG)
        section = doc
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
    else:
        doc = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert named in capsys.readouterr().err


def test_config_without_env_gives_default_env(tmp_path):
    assert load_experiment_config(None, None, None).env == EnvConfig()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({k: v for k, v in TINY_CONFIG.items() if k != "env"}))
    assert load_experiment_config(str(path), None, None).env == EnvConfig()


def test_readme_config_block_gives_the_defaults(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(re.sub(r"//.*", "", block))
    assert load_experiment_config(str(path), None, None) == ExperimentConfig(env=EnvConfig())


# Keys the loader knows, per section, so random edits reach past the
# unknown-key check.
_SECTION_KEYS = {
    (): sorted(TINY_CONFIG) + ["out_dir"],
    ("env",): sorted(TINY_CONFIG["env"]) + ["contract", "window", "rewards", "boosts_per_input",
                                            "max_episode_steps"],
    ("trainer",): sorted(TINY_CONFIG["trainer"]) + ["gamma", "gae_lambda", "clip_eps", "learning_rate",
                                                    "epochs", "stop_on_first_leak"],
}
_KEYS = sorted({k for keys in _SECTION_KEYS.values() for k in keys}
               | {"mode", "spec_depth", "r_leak", "r_observable", "r_unobservable", "r_none"})
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from(["ct-seq", "ct-cond", "ct-cond:3", "fixture", "scaling", "SBB R0, R0"])
)
_JSON = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=6), kids, max_size=5),
    max_leaves=20,
)


@st.composite
def _mutated_tiny_config(draw):
    doc = copy.deepcopy(TINY_CONFIG)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(sorted(_SECTION_KEYS)))
        section = doc
        for key in path:
            section = section.get(key) if isinstance(section, dict) else None
        if not isinstance(section, dict):
            continue
        key = draw(st.sampled_from(_SECTION_KEYS[path]) | st.text(max_size=6))
        if draw(st.booleans()):
            section.pop(key, None)
        else:
            section[key] = draw(_JSON)
    return doc


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("configs") / "config.json"


@settings(max_examples=500, deadline=None)
@given(doc=_JSON | _mutated_tiny_config())
def test_loader_returns_config_or_config_error(doc, config_file):
    # Random JSON never ends in an internal fault, and loading runs nothing.
    config_file.write_text(json.dumps(doc))
    with mock.patch.multiple(
        "leaklab.cli", train=_no_campaign, fuzz_campaign=_no_campaign, scaling_study=_no_campaign
    ):
        try:
            cfg = load_experiment_config(str(config_file), None, None)
        except ConfigError:
            return
    assert isinstance(cfg, ExperimentConfig)


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


def test_fuzz_below_reference_leak_length_exits_0(tmp_path, capsys):
    # The reference leak has 3 instructions, so its closed form is infinite
    # at sizes 1 and 2 (a division by zero and a negative count before).
    doc = {k: v for k, v in TINY_CONFIG.items() if k != "trainer"}
    doc["program_sizes"] = [1, 2]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["fuzz", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["n=1", "n=2"]
    assert all("formula=inf" in line for line in lines[:2])


def test_scaling_writes_csv_with_both_methods(tiny_config, tmp_path, capsys):
    out = tmp_path / "scalingout"
    code = run_cli(["scaling", "--config", tiny_config, "--out", str(out)])
    assert code == 0
    lines = (out / "scaling.csv").read_text().strip().split("\n")
    methods = {line.split(",")[0] for line in lines[1:]}
    assert methods == {"fuzz", "rl"}
    capsys.readouterr()


# SHA-256 of the CLI outputs that hold only integers: no PPO float reaches
# them, so they do not depend on the BLAS build. Re-pin only for a change
# that alters them on purpose, and say why.
GOLDEN_SHA256 = {
    "fuzz.csv": "844b4d8126ccfeabfcf0ca2a5aa6f56e4a38c4c5b43be9da671956adae0c754f",
    "detect": "6c9ce92d3da427507b6f01b4145be59c6f09a0fd3345593537328abc7bcf8ed8",
    "simulate": "26795c554a402ab7f33b5ec2c770ebc3ed8bc70bd47d514607a3d34b81f8c99e",
}


def test_integer_outputs_match_golden_digests(tiny_config, fixture_asm, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(["fuzz", "--config", tiny_config, "--out", str(out)]) == 0
    capsys.readouterr()
    assert run_cli(["detect", fixture_asm, "--seed", "1"]) == 2
    detect_out = capsys.readouterr().out
    assert run_cli(["simulate", fixture_asm]) == 0
    simulate_out = capsys.readouterr().out
    digests = {
        "fuzz.csv": hashlib.sha256((out / "fuzz.csv").read_bytes()).hexdigest(),
        "detect": hashlib.sha256(detect_out.encode()).hexdigest(),
        "simulate": hashlib.sha256(simulate_out.encode()).hexdigest(),
    }
    assert digests == GOLDEN_SHA256


def test_outputs_byte_identical_across_runs(tiny_config, tmp_path, capsys):
    texts = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(["fuzz", "--config", tiny_config, "--out", str(out)]) == 0
        texts.append((out / "fuzz.csv").read_bytes())
    assert texts[0] == texts[1]
    capsys.readouterr()

"""Command-line front end.

Subcommands: train, fuzz, scaling, detect <program.asm>, simulate
<program.asm>. Exit codes: 0 success, 1 usage or config error (diverged
training included), 2 leak found (detect), 3 internal fault.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import traceback
import types
import typing
from enum import Enum
from pathlib import Path

from .agent import train
from .arch import ContractSpec, NON_TERMINATING, generate_inputs, load_input
from .detect import ViolationReport, detect_violation
from .env import EnvConfig, LeakEnv, RewardSpec
from .errors import ConfigError, ParseError, TrainingFault
from .harness import (
    ExperimentConfig,
    fixture_action_config,
    fuzz_campaign,
    rows_to_csv,
    scaling_action_config,
    scaling_study,
)
from .isa import ActionSpaceConfig, DEFAULT_ACTION_CONFIG, parse_program
from .uarch import SpecConfig, htrace_hex, hw_run, reset_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_LEAK = 2
EXIT_FAULT = 3


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _actions_from_json(value, where: str) -> ActionSpaceConfig:
    if value is None or value == "default":
        return DEFAULT_ACTION_CONFIG
    if value == "fixture":
        return fixture_action_config()
    if value == "scaling":
        return scaling_action_config()
    if isinstance(value, list):
        instrs = []
        for i, text in enumerate(value):
            if not isinstance(text, str):
                raise ConfigError(f"{where}[{i}] must be a string")
            try:
                p = parse_program(text)
            except ParseError as exc:
                raise ConfigError(f"{where}[{i}]: {exc}") from None
            if len(p) != 1:
                raise ConfigError(f"{where}[{i}] must be exactly one instruction")
            instrs.append(p[0])
        return ActionSpaceConfig(explicit_actions=tuple(instrs))
    raise ConfigError(f"{where} must be 'default', 'fixture', 'scaling', or a list")


def _typed(tp, value, where: str):
    """`value` from JSON, checked against the annotated field type `tp`."""
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, where)
    origin = typing.get_origin(tp)
    if origin is types.UnionType:  # only `X | None` occurs
        if value is None:
            return None
        (tp,) = [t for t in typing.get_args(tp) if t is not type(None)]
        return _typed(tp, value, where)
    if origin is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        item = typing.get_args(tp)[0]
        return tuple(_typed(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if isinstance(tp, type) and issubclass(tp, Enum):
        names = [m.value for m in tp]
        if value not in names:
            raise ConfigError(f"{where} must be one of {names}")
        return tp(value)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is int:
        ok = number and isinstance(value, int)
    elif tp is float:
        ok = number and abs(value) <= sys.float_info.max  # finite, ints too
    else:  # bool, str
        ok = isinstance(value, tp)
    if not ok:
        raise ConfigError(f"{where} must be {'a finite number' if tp is float else tp.__name__}, got {value!r}")
    return value


def _build(cls, section, where: str):
    """Construct the dataclass `cls` from the JSON object `section`.

    Keys, types and defaults come from the fields of `cls`, except for the
    keys `_JSON_KEYS` lists; an unknown key or a value of the wrong type
    raises ConfigError, and an absent key keeps the field's default.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    hints = typing.get_type_hints(cls)
    keys = {f.name: (f.name, functools.partial(_typed, hints[f.name])) for f in dataclasses.fields(cls)}
    for key, (name, parse) in _JSON_KEYS.get(cls, {}).items():
        del keys[name]
        keys[key] = (name, parse)
    unknown = set(section) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in section.items():
        name, parse = keys[key]
        kwargs[name] = parse(value, f"{where}.{key}")
    return cls(**kwargs)


# Fields whose JSON key or form differs from the dataclass field, per class:
# JSON key -> (field name, parser taking the value and its key path).
_JSON_KEYS = {
    EnvConfig: {
        "contract": (
            "contract",
            lambda v, where: (
                ContractSpec.from_name(v) if isinstance(v, str) else _build(ContractSpec, v, where)
            ),
        ),
        "window": ("spec_config", lambda v, where: SpecConfig(_typed(int, v, where))),
        "rewards": ("reward", functools.partial(_build, RewardSpec)),
        "actions": ("action_config", _actions_from_json),
    },
}


def load_experiment_config(path: str | None, seed: int | None, out: str | None) -> ExperimentConfig:
    data = {}
    if path is not None:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except (ValueError, RecursionError) as exc:  # also bad UTF-8, over-long ints, too-deep JSON
            raise ConfigError(f"config is not valid JSON: {exc}") from None
    if isinstance(data, dict):
        # without an env section the CLI runs EnvConfig(), not
        # ExperimentConfig's planted-fixture default
        data = {"env": {}, **data}
    cfg = _build(ExperimentConfig, data, "config")
    if seed is not None:
        cfg = dataclasses.replace(cfg, seed=seed, env=dataclasses.replace(cfg.env, input_seed=seed))
    if out is not None:
        cfg = dataclasses.replace(cfg, out_dir=out)
    return cfg


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="leaklab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override the experiment seed")
        p.add_argument("--out", help="output directory")

    common(sub.add_parser("train", help="train the agent"))
    common(sub.add_parser("fuzz", help="run the random-fuzzer campaign"))
    common(sub.add_parser("scaling", help="fuzzer vs agent over the size grid"))

    p_detect = sub.add_parser("detect", help="one-shot leak detection on a program")
    p_detect.add_argument("program", help="assembly file")
    common(p_detect)

    p_sim = sub.add_parser("simulate", help="dump per-input traces for a program")
    p_sim.add_argument("program", help="assembly file")
    p_sim.add_argument(
        "--input-file",
        action="append",
        default=[],
        help="binary input file (24 bytes registers + 4096 bytes memory); repeatable",
    )
    common(p_sim)
    return parser


def _read_program(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read program: {exc}") from None
    return parse_program(text)


def _cmd_train(cfg: ExperimentConfig) -> int:
    env = LeakEnv(cfg.env)
    log = train(env, cfg.trainer)
    out = Path(cfg.out_dir)
    log.save(out)
    print(f"steps={log.total_steps} iterations={len(log.iterations)} leaks={len(log.leaks)}")
    if log.first_leak_step is not None:
        print(f"first leak at step {log.first_leak_step}")
    print(f"wrote {out / 'training.jsonl'}")
    return EXIT_OK


def _cmd_fuzz(cfg: ExperimentConfig) -> int:
    stats, rows = fuzz_campaign(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "fuzz.csv"
    path.write_text(rows_to_csv(rows))
    for s in stats:
        print(
            f"n={s.program_size} median={s.median:g} mean={s.mean:g} "
            f"formula={s.expected_formula:g} censored={sum(t.censored for t in s.trials)}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _cmd_scaling(cfg: ExperimentConfig) -> int:
    rows = scaling_study(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "scaling.csv"
    path.write_text(rows_to_csv(rows))
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_detect(cfg: ExperimentConfig, program_path: str) -> int:
    program = _read_program(program_path)
    env_cfg = cfg.env
    inputs = generate_inputs(env_cfg.input_seed, env_cfg.num_inputs)
    result = detect_violation(
        program,
        inputs,
        env_cfg.contract,
        env_cfg.spec_config,
        boosts_per_input=env_cfg.boosts_per_input,
        seed=cfg.seed,
        budget=env_cfg.step_budget,
    )
    if isinstance(result, ViolationReport):
        print(result.to_json())
        return EXIT_LEAK
    if result is None:
        print("no violation")
    else:
        print("rejected: non-terminating on some input")
    return EXIT_OK


def _cmd_simulate(cfg: ExperimentConfig, program_path: str, input_files: list[str]) -> int:
    program = _read_program(program_path)
    env_cfg = cfg.env
    if input_files:
        inputs = []
        for f in input_files:
            try:
                inputs.append(load_input(Path(f).read_bytes()))
            except (OSError, ValueError) as exc:
                raise ConfigError(f"bad input file {f}: {exc}") from None
    else:
        inputs = generate_inputs(env_cfg.input_seed, env_cfg.num_inputs)
    for i, inp in enumerate(inputs):
        hw = hw_run(program, inp, env_cfg.spec_config, env_cfg.step_budget, reset_state())
        if hw is NON_TERMINATING:
            print(json.dumps({"input": i, "seed": inp.seed, "non_terminating": True}))
            continue
        print(
            json.dumps(
                {
                    "input": i,
                    "seed": inp.seed,
                    "htrace": htrace_hex(hw.htrace),
                    "br_misses": hw.counters.br_misses,
                    "tran_uops": hw.counters.tran_uops,
                    "regs": {
                        "R0": hw.final_state.regs[0],
                        "R1": hw.final_state.regs[1],
                        "R2": hw.final_state.regs[2],
                    },
                }
            )
        )
    return EXIT_OK


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_experiment_config(args.config, args.seed, args.out)
        if args.command == "train":
            return _cmd_train(cfg)
        if args.command == "fuzz":
            return _cmd_fuzz(cfg)
        if args.command == "scaling":
            return _cmd_scaling(cfg)
        if args.command == "detect":
            return _cmd_detect(cfg, args.program)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.program, args.input_file)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingFault as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # internal fault: anything unexpected
        traceback.print_exc()
        return EXIT_FAULT


def main() -> int:
    return run_cli()


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

Every subcommand reads an optional JSON config file and applies explicit
flags on top, so a sweep can live in version control while one-off runs
tweak a field or two.  All errors exit with status 2 and a message on
stderr; outputs land wherever --out points.  The sweeps return their rows,
and this module writes them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import NamedTuple

from .channel import Condition, FlashParams
from .harness import ExperimentConfig, SOURCES, run_ccr, run_fer, run_pipeline
from .ldpc import PRESETS
from .mlp import (GenConfig, TrainConfig, gen_training_data, load_dataset,
                  save_dataset, save_model, train)
from .optimizer import CisConfig, cis_optimize, mmi_optimize

_WHAT = {float: "a finite number", int: "an integer", str: "a path string",
         dict: "a JSON object"}
_ACCEPTS = {float: (int, float), int: int, str: str, dict: dict}


class Field(NamedTuple):
    """One config key: the kind of its values and the subcommands that take
    it.  Its flag is the key with dashes (a dict-valued section has none).
    A list field takes a comma-separated string or a JSON list of its kind;
    a single value is a list of one, and an empty list is an error."""

    key: str
    kind: type                 # float, int, str (a path or a choice) or dict
    commands: tuple
    many: bool = False
    choices: tuple = ()

    @property
    def flag(self) -> str | None:
        return None if self.kind is dict else "--" + self.key.replace("_", "-")

    @property
    def what(self) -> str:
        one = "one of " + ", ".join(self.choices) if self.choices else _WHAT[self.kind]
        if self.many:
            return f"a comma-separated string or JSON list, each item {one}"
        return one

    def parse(self, value):
        """A flag string or a config value as this field's kind."""
        try:
            if not self.many:
                return self._one(value)
            items = ([tok for tok in value.split(",") if tok] if isinstance(value, str)
                     else value if isinstance(value, list) else [value])
            parsed = tuple(self._one(v) for v in items)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{self.key} must be {self.what}, got {value!r}") from None
        if not parsed:
            raise ValueError(f"{self.key} must hold at least one item, got {value!r}")
        return parsed

    def _one(self, value):
        if isinstance(value, str) and self.kind in (float, int):
            return self.kind(value)
        if isinstance(value, bool) or not isinstance(value, _ACCEPTS[self.kind]):
            raise TypeError(value)
        if self.choices and value not in self.choices:
            raise ValueError(value)
        return self.kind(value)


_ALL = ("optimize", "fer", "ccr", "pipeline", "train")
_SWEEPS = ("fer", "ccr", "pipeline")
_READS = ("fer", "pipeline")  # the sweeps that read and decode frames

FIELDS = {f.key: f for f in (
    Field("j_levels", int, _ALL),
    Field("grid_step", float, _ALL),
    Field("seed", int, _READS + ("train",)),
    Field("params_file", str, _ALL),
    Field("params", dict, _ALL),
    Field("out", str, ("optimize",) + _SWEEPS),
    Field("block_n", int, ("optimize", "train")),
    Field("rate", float, ("optimize", "train")),
    Field("method", str, ("optimize",), choices=("cis", "mmi")),
    Field("n_pe", float, ("optimize",)),
    Field("t_ret", float, ("optimize",)),
    Field("history_out", str, ("optimize",)),
    Field("code", str, _SWEEPS, choices=tuple(sorted(PRESETS))),
    Field("source", str, _READS, choices=SOURCES),
    Field("pe_list", float, _SWEEPS, many=True),
    Field("t_list", float, _SWEEPS, many=True),
    Field("code_list", str, ("ccr",), many=True, choices=tuple(sorted(PRESETS))),
    Field("j_list", int, ("ccr",), many=True),
    Field("frames", int, _READS),
    Field("i_max", int, _READS),
    Field("code_seed", int, _READS),
    Field("max_frame_errors", int, ("fer",)),
    Field("rate_eps", float, ("ccr",)),
    Field("refresh_interval", int, ("pipeline",)),
    Field("thresholds_file", str, _READS),
    Field("model_file", str, _READS),
    Field("count", int, ("train",)),
    Field("cells", int, ("train",)),
    Field("pe_set", float, ("train",), many=True),
    Field("t_lo", float, ("train",)),
    Field("t_hi", float, ("train",)),
    Field("epochs", int, ("train",)),
    Field("lr", float, ("train",)),
    Field("lr_final", float, ("train",)),
    Field("batch", int, ("train",)),
    Field("hidden", int, ("train",), many=True),
    Field("dataset_in", str, ("train",)),
    Field("dataset_out", str, ("train",)),
    Field("model_out", str, ("train",)),
    Field("loss_out", str, ("train",)),
)}


def _check_keys(merged: dict, allowed, label: str) -> None:
    unknown = set(merged) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {label} option(s): {sorted(unknown)}")


def _pick(settings: dict, *keys) -> dict:
    return {key: settings[key] for key in keys if key in settings}


def _read_object(path, what: str) -> dict:
    """The JSON object in the file at ``path``; ``what`` names it in errors."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {what} must be a JSON object")
    return raw


def _pop_params(settings: dict) -> FlashParams:
    """The ``params`` section, or the params file read as that section."""
    if "params_file" in settings:
        raw = _read_object(settings.pop("params_file"), "params file")
    else:
        raw = settings.pop("params", {})
    _check_keys(raw, FlashParams.__dataclass_fields__, "params")
    return FlashParams(**raw)


def _pop_cis(settings: dict) -> CisConfig:
    return CisConfig(**{key: settings.pop(key) for key in CisConfig.__dataclass_fields__
                        if key in settings})


def _reject(settings: dict, keys, why: str) -> None:
    """Raise naming whichever of ``keys`` are set; ``why`` says why none is read."""
    given = [key for key in keys if key in settings]
    if given:
        raise ValueError(f"{why}, so drop {', '.join(given)}")


def _settings(args):
    """The config file overridden by explicitly passed flags, each value
    parsed by its field (keys that neither sets are absent), with the
    channel parameters and the search config built from it."""
    merged = {} if args.config is None else _read_object(args.config, "config")
    fields = {key: f for key, f in FIELDS.items() if args.command in f.commands}
    _check_keys(merged, fields, args.command)
    merged.update((key, val) for key, val in vars(args).items()
                  if key in fields and val is not None)
    settings = {key: fields[key].parse(val) for key, val in merged.items()}
    for one, other in (("params", "params_file"), ("code", "code_list"),
                       ("j_levels", "j_list")):
        if one in settings and other in settings:
            raise ValueError(f"give {one} or {other}, not both")
    if "dataset_in" in settings:
        _reject(settings, ("count", "cells", "pe_set", "t_lo", "t_hi", "block_n", "rate",
                           "grid_step", "params", "params_file"),
                "train reads its samples from dataset_in and generates none")
    return settings, _pop_params(settings), _pop_cis(settings)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def _print_rows(rows) -> None:
    """Row dicts to stdout; their keys are the header."""
    print(",".join(rows[0]))
    for row in rows:
        print(",".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                       for v in row.values()))


# -- subcommands -------------------------------------------------------------

def _cmd_optimize(args) -> int:
    s, params, cis = _settings(args)
    cond = Condition(**_pick(s, "n_pe", "t_ret"))
    code = GenConfig(**_pick(s, "block_n", "rate"))
    if s.get("method", "cis") == "cis":
        d, history = cis_optimize(cond, params, code.block_n, code.rate, cis)
    else:
        _reject(s, ("block_n", "rate"), "method mmi reads no code")
        d, history = mmi_optimize(cond, params, cis), []
    if s.get("out"):
        d.to_file(s["out"])
    else:
        for v in d.d:
            print(f"{v:.9g}")
    if s.get("history_out"):
        _write_csv(s["history_out"], ["sweep", "objective"], enumerate(history))
    return 0


def _cmd_sweep(args) -> int:
    """fer, ccr or pipeline: the sweep's rows to stdout and, if set, to --out."""
    s, params, cis = _settings(args)
    out = s.pop("out", None)
    cfg = ExperimentConfig(params=params, cis=cis, **s)
    if args.command == "fer":
        rows = run_fer(cfg)
    elif args.command == "ccr":
        rows = run_ccr(cfg)
    else:
        rows = [stats.row(cond) for cond, stats in run_pipeline(cfg)]
    if out:
        _write_csv(out, list(rows[0]), (row.values() for row in rows))
    _print_rows(rows)
    return 0


def _cmd_train(args) -> int:
    s, params, cis = _settings(args)
    seed = s.get("seed", 0)
    gen_cfg = GenConfig(cis=cis, **_pick(s, "count", "block_n", "rate"))
    train_cfg = TrainConfig(**_pick(s, "lr", "epochs", "batch", "lr_final"))
    if s.get("dataset_in"):
        samples = load_dataset(s["dataset_in"], cis.j_levels)
    else:
        samples = gen_training_data(
            params, s.get("pe_set", (2000.0, 6000.0, 10000.0, 14000.0)),
            (s.get("t_lo", 0.0), s.get("t_hi", 1e6)), cells=s.get("cells", 100_000),
            cfg=gen_cfg, seed=seed)
    if s.get("dataset_out"):
        save_dataset(samples, s["dataset_out"])
    dims = None
    if s.get("hidden"):
        dims = (cis.j_levels + 1, *s["hidden"], cis.j_levels)
    model, losses = train(samples, train_cfg, seed=seed, dims=dims)
    if s.get("model_out"):
        save_model(model, s["model_out"])
    if s.get("loss_out"):
        _write_csv(s["loss_out"], ["epoch", "loss"], enumerate(losses))
    print(f"trained {len(samples)} samples, {train_cfg.epochs} epochs, "
          f"final loss {losses[-1]:.6g}")
    return 0


# -- parser ------------------------------------------------------------------

_COMMANDS = {
    "optimize": (_cmd_optimize, "design thresholds for one condition"),
    "fer": (_cmd_sweep, "run the fer sweep"),
    "ccr": (_cmd_sweep, "run the ccr sweep"),
    "pipeline": (_cmd_sweep, "run the pipeline sweep"),
    "train": (_cmd_train, "generate data and fit the regressor"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flashopt",
                                     description="read-threshold design and "
                                                 "decoding experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file")
        for f in FIELDS.values():
            if name in f.commands and f.flag:
                p.add_argument(f.flag, help=f.what)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

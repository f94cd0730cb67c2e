"""Command line front end.

Every subcommand reads an optional JSON config file and applies explicit
flags on top, so a sweep can live in version control while one-off runs
tweak a field or two.  All errors exit with status 2 and a message on
stderr; outputs land wherever --out points.
"""

from __future__ import annotations

import argparse
import json
import sys

from .channel import Condition, FlashParams
from .harness import (ExperimentConfig, SOURCES, run_ccr, run_fer,
                      run_pipeline)
from .ldpc import PRESETS
from .mlp import (GenConfig, TrainConfig, gen_training_data, load_dataset,
                  save_dataset, save_model, train)
from .optimizer import CisConfig, cis_optimize, mmi_optimize


def _load_config(path):
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return data


def _merge(config: dict, args: argparse.Namespace, keys) -> dict:
    """Config file values overridden by explicitly passed flags."""
    merged = dict(config)
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return merged


def _pop_params(merged: dict) -> FlashParams:
    if "params_file" in merged:
        return FlashParams.from_file(merged.pop("params_file"))
    raw = merged.pop("params", None)
    if raw is None:
        return FlashParams()
    if not isinstance(raw, dict):
        raise ValueError("'params' must be a JSON object")
    _check_keys(raw, FlashParams.__dataclass_fields__, "params")
    return FlashParams(**raw)


def _pop_cis(merged: dict, j_levels: int) -> CisConfig:
    raw = merged.pop("cis", {})
    if not isinstance(raw, dict):
        raise ValueError("'cis' must be a JSON object")
    # j_levels is a top-level option, so it is not accepted here
    _check_keys(raw, set(CisConfig.__dataclass_fields__) - {"j_levels"}, "cis")
    return CisConfig(j_levels=j_levels, **raw)


def _floats(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    return tuple(float(tok) for tok in str(text).split(",") if tok)


def _ints(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    return tuple(int(tok) for tok in str(text).split(",") if tok)


def _names(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(str(v) for v in text)
    return tuple(tok for tok in str(text).split(",") if tok)


def _check_keys(merged: dict, allowed, label: str) -> None:
    unknown = set(merged) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {label} option(s): {sorted(unknown)}")


# -- optimize ----------------------------------------------------------------

_OPT_KEYS = ("method", "n_pe", "t_ret", "j_levels", "block_n", "rate", "seed",
             "out", "history_out", "params", "params_file", "cis")


def _cmd_optimize(args) -> int:
    merged = _merge(_load_config(args.config), args,
                    ("method", "n_pe", "t_ret", "j_levels", "block_n", "rate",
                     "seed", "out", "history_out", "params_file"))
    params = _pop_params(merged)
    j_levels = int(merged.pop("j_levels", 6))
    cis = _pop_cis(merged, j_levels)
    _check_keys(merged, _OPT_KEYS, "optimize")
    method = merged.get("method", "cis")
    cond = Condition(float(merged.get("n_pe", 0.0)), float(merged.get("t_ret", 0.0)))
    seed = int(merged.get("seed", 0))
    history = []
    if method == "cis":
        d, history = cis_optimize(cond, params, int(merged.get("block_n", 2624)),
                                  float(merged.get("rate", 0.9)), cis, seed=seed)
    elif method == "mmi":
        d = mmi_optimize(cond, params, cis, seed=seed)
    else:
        raise ValueError(f"unknown method {method!r} (expected cis or mmi)")
    out = merged.get("out")
    if out:
        d.to_file(out)
    else:
        for v in d.d:
            print(f"{v:.9g}")
    hist_out = merged.get("history_out")
    if hist_out:
        with open(hist_out, "w", encoding="utf-8") as fh:
            fh.write("sweep,objective\n")
            for i, val in enumerate(history):
                fh.write(f"{i},{val:.12g}\n")
    return 0


# -- shared sweep config -----------------------------------------------------

_SWEEP_FLAGS = ("code", "source", "j_levels", "frames", "i_max", "seed",
                "code_seed", "max_frame_errors", "rate_eps", "refresh_interval",
                "thresholds_file", "model_file", "out", "params_file")
_SWEEP_KEYS = _SWEEP_FLAGS + ("pe_list", "t_list", "code_list", "j_list",
                              "params", "cis")


def _experiment_config(args, defaults=None) -> ExperimentConfig:
    merged = dict(defaults or {})
    merged.update(_load_config(args.config))
    for key in _SWEEP_FLAGS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if getattr(args, "pe_list", None) is not None:
        merged["pe_list"] = args.pe_list
    if getattr(args, "t_list", None) is not None:
        merged["t_list"] = args.t_list
    if getattr(args, "code_list", None) is not None:
        merged["code_list"] = args.code_list
    if getattr(args, "j_list", None) is not None:
        merged["j_list"] = args.j_list
    params = _pop_params(merged)
    j_levels = int(merged.pop("j_levels", 6))
    cis = _pop_cis(merged, j_levels)
    _check_keys(merged, set(_SWEEP_KEYS) - {"params", "cis", "j_levels", "params_file"},
                "sweep")
    for key in ("pe_list", "t_list"):
        if key in merged:
            merged[key] = _floats(merged[key])
    if "code_list" in merged:
        merged["code_list"] = _names(merged["code_list"])
    if "j_list" in merged:
        merged["j_list"] = _ints(merged["j_list"])
    for key in ("frames", "i_max", "seed", "code_seed", "max_frame_errors",
                "refresh_interval"):
        if key in merged:
            merged[key] = int(merged[key])
    if "rate_eps" in merged:
        merged["rate_eps"] = float(merged["rate_eps"])
    return ExperimentConfig(params=params, cis=cis, j_levels=j_levels, **merged)


def _print_rows(rows, columns) -> None:
    print(",".join(columns))
    for row in rows:
        print(",".join(f"{row[c]:.6g}" if isinstance(row[c], float) else str(row[c])
                       for c in columns))


def _cmd_fer(args) -> int:
    cfg = _experiment_config(args)
    rows = run_fer(cfg)
    _print_rows(rows, ["source", "code", "n_pe", "t_ret", "frames", "errors", "fer"])
    return 0


def _cmd_ccr(args) -> int:
    cfg = _experiment_config(args)
    rows = run_ccr(cfg)
    _print_rows(rows, ["code", "j_levels", "n_pe", "t_ret", "n", "rate"])
    return 0


def _cmd_pipeline(args) -> int:
    cfg = _experiment_config(args, defaults={"source": "cis-t0"})
    results = run_pipeline(cfg)
    print("n_pe,t_ret,frames,first_pass_failures,dnn_invocations,bad_blocks")
    for cond, st in results:
        print(f"{cond.n_pe:g},{cond.t_ret:g},{st.frames},{st.first_pass_failures},"
              f"{st.dnn_invocations},{st.bad_blocks}")
    return 0


# -- train -------------------------------------------------------------------

_TRAIN_KEYS = ("count", "cells", "pe_set", "t_lo", "t_hi", "block_n", "rate",
               "j_levels", "epochs", "lr", "lr_final", "batch", "hidden",
               "seed", "dataset_in", "dataset_out", "model_out", "loss_out",
               "params", "params_file", "cis")


def _cmd_train(args) -> int:
    merged = _merge(_load_config(args.config), args,
                    ("count", "cells", "pe_set", "t_lo", "t_hi", "block_n",
                     "rate", "j_levels", "epochs", "lr", "lr_final", "batch",
                     "hidden", "seed", "dataset_in", "dataset_out",
                     "model_out", "loss_out", "params_file"))
    params = _pop_params(merged)
    j_levels = int(merged.pop("j_levels", 6))
    cis = _pop_cis(merged, j_levels)
    _check_keys(merged, _TRAIN_KEYS, "train")
    seed = int(merged.get("seed", 0))
    gen_cfg = GenConfig(count=int(merged.get("count", 2000)),
                        block_n=int(merged.get("block_n", 2624)),
                        rate=float(merged.get("rate", 0.9)),
                        cis=cis)
    if merged.get("dataset_in"):
        samples = load_dataset(merged["dataset_in"], n_features=j_levels + 1)
    else:
        pe_set = _floats(merged.get("pe_set", "2000,6000,10000,14000"))
        t_range = (float(merged.get("t_lo", 0.0)), float(merged.get("t_hi", 1e6)))
        samples = gen_training_data(params, pe_set, t_range,
                                    cells=int(merged.get("cells", 100_000)),
                                    cfg=gen_cfg, seed=seed)
    if merged.get("dataset_out"):
        save_dataset(samples, merged["dataset_out"])
    train_cfg = TrainConfig(lr=float(merged.get("lr", 1e-5)),
                            epochs=int(merged.get("epochs", 100_000)),
                            batch=int(merged.get("batch", 500)),
                            lr_final=float(merged.get("lr_final", 0.0)))
    dims = None
    if merged.get("hidden"):
        dims = (j_levels + 1, *_ints(merged["hidden"]), j_levels)
    model, losses = train(samples, train_cfg, seed=seed, dims=dims)
    model_out = merged.get("model_out")
    if model_out:
        save_model(model, model_out)
    loss_out = merged.get("loss_out")
    if loss_out:
        with open(loss_out, "w", encoding="utf-8") as fh:
            fh.write("epoch,loss\n")
            for i, val in enumerate(losses):
                fh.write(f"{i},{val:.12g}\n")
    print(f"trained {len(samples)} samples, {train_cfg.epochs} epochs, "
          f"final loss {losses[-1]:.6g}")
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flashopt",
                                     description="read-threshold design and "
                                                 "decoding experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="design thresholds for one condition")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--method", choices=("cis", "mmi"))
    p.add_argument("--n-pe", dest="n_pe", type=float)
    p.add_argument("--t-ret", dest="t_ret", type=float)
    p.add_argument("--j-levels", dest="j_levels", type=int)
    p.add_argument("--block-n", dest="block_n", type=int)
    p.add_argument("--rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--params-file", dest="params_file")
    p.add_argument("--out", help="write thresholds here instead of stdout")
    p.add_argument("--history-out", dest="history_out")
    p.set_defaults(func=_cmd_optimize)

    for name, func, extra in (("fer", _cmd_fer, True),
                              ("ccr", _cmd_ccr, True),
                              ("pipeline", _cmd_pipeline, True)):
        p = sub.add_parser(name, help=f"run the {name} sweep")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--code", choices=sorted(PRESETS))
        p.add_argument("--source", choices=SOURCES)
        p.add_argument("--j-levels", dest="j_levels", type=int)
        p.add_argument("--pe-list", dest="pe_list", type=_floats)
        p.add_argument("--t-list", dest="t_list", type=_floats)
        p.add_argument("--code-list", dest="code_list", type=_names)
        p.add_argument("--j-list", dest="j_list", type=_ints)
        p.add_argument("--frames", type=int)
        p.add_argument("--i-max", dest="i_max", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--code-seed", dest="code_seed", type=int)
        p.add_argument("--max-frame-errors", dest="max_frame_errors", type=int)
        p.add_argument("--rate-eps", dest="rate_eps", type=float)
        p.add_argument("--refresh-interval", dest="refresh_interval", type=int)
        p.add_argument("--thresholds-file", dest="thresholds_file")
        p.add_argument("--model-file", dest="model_file")
        p.add_argument("--params-file", dest="params_file")
        p.add_argument("--out", help="CSV output path")
        p.set_defaults(func=func)

    p = sub.add_parser("train", help="generate data and fit the regressor")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--count", type=int)
    p.add_argument("--cells", type=int)
    p.add_argument("--pe-set", dest="pe_set")
    p.add_argument("--t-lo", dest="t_lo", type=float)
    p.add_argument("--t-hi", dest="t_hi", type=float)
    p.add_argument("--block-n", dest="block_n", type=int)
    p.add_argument("--rate", type=float)
    p.add_argument("--j-levels", dest="j_levels", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--lr-final", dest="lr_final", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--hidden", help="comma-separated hidden layer widths")
    p.add_argument("--seed", type=int)
    p.add_argument("--dataset-in", dest="dataset_in")
    p.add_argument("--dataset-out", dest="dataset_out")
    p.add_argument("--model-out", dest="model_out")
    p.add_argument("--loss-out", dest="loss_out")
    p.add_argument("--params-file", dest="params_file")
    p.set_defaults(func=_cmd_train)

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

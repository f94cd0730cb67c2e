"""Command-line behavior: configs, overrides, outputs, exit codes."""

import json
import struct

import numpy as np
import pytest

from flashopt.channel import Condition, DEFAULT_PARAMS
from flashopt import cli
from flashopt.cli import FIELDS, build_parser, main
from flashopt.mlp import MlpModel, load_model, save_model
from flashopt.optimizer import CisConfig, cis_optimize
from flashopt.quantizer import ThresholdSet


def make_constant_model(d: ThresholdSet, n_inputs: int = 7) -> MlpModel:
    vals = np.asarray(d.as_array()) / 6.0
    bias = np.log(vals / (1.0 - vals))
    return MlpModel(dims=(n_inputs, 4, len(vals)),
                    weights=[np.zeros((n_inputs, 4)), np.zeros((4, len(vals)))],
                    biases=[np.zeros(4), bias], scale=6.0)


def test_optimize_stdout(capsys):
    rc = main(["optimize", "--n-pe", "8000", "--t-ret", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6
    vals = [float(v) for v in lines]
    assert vals == sorted(vals)


def test_optimize_matches_library_and_writes_files(tmp_path, capsys):
    out = tmp_path / "d.txt"
    hist = tmp_path / "hist.csv"
    rc = main(["optimize", "--n-pe", "10000", "--t-ret", "1000",
               "--out", str(out), "--history-out", str(hist)])
    assert rc == 0
    capsys.readouterr()
    d_lib, history = cis_optimize(Condition(10000.0, 1000.0), DEFAULT_PARAMS,
                                  2624, 0.9)
    assert ThresholdSet.from_file(out) == d_lib
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "sweep,objective"
    assert len(lines) == len(history) + 1


def test_missing_config_exits_2(capsys):
    rc = main(["optimize", "--config", "/nonexistent.json"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_method_in_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_pe": 8000.0, "method": "newton"}))
    rc = main(["optimize", "--config", str(cfg)])
    assert rc == 2
    assert "newton" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_pe": 8000.0, "wibble": 3}))
    rc = main(["optimize", "--config", str(cfg)])
    assert rc == 2
    assert "wibble" in capsys.readouterr().err


def test_unknown_cis_key_exits_2(tmp_path, capsys):
    # the search's only keys are j_levels and grid_step, both top-level:
    # its window and sweep cap are constants, and it draws no random
    # numbers, so optimize and ccr take no seed
    for command, key, value in (("optimize", "cis", {"grid_step": 0.005}),
                                ("optimize", "lam", 0.2), ("optimize", "i_max", 50),
                                ("optimize", "restarts", 2), ("optimize", "seed", 1),
                                ("ccr", "seed", 1)):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        rc = main([command, "--config", str(cfg)])
        assert rc == 2
        assert f"unknown {command} option(s): ['{key}']" in capsys.readouterr().err


def test_fer_tiny_run_and_csv(tmp_path, capsys):
    out = tmp_path / "fer.csv"
    rc = main(["fer", "--source", "hard", "--pe-list", "15000",
               "--t-list", "10", "--frames", "6", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "fer" in stdout.splitlines()[0]
    body = out.read_text().strip().splitlines()
    assert body[0] == "source,code,n_pe,t_ret,frames,errors,fer"
    assert len(body) == 2


@pytest.mark.parametrize("args", [
    ["fer", "--source", "hard", "--pe-list", "15000", "--t-list", "10", "--frames", "2"],
    ["ccr", "--pe-list", "8000", "--t-list", "0", "--j-list", "3"],
    ["pipeline", "--source", "hard", "--j-levels", "3", "--pe-list", "15000",
     "--t-list", "10", "--frames", "2", "--model-file"],
])
def test_stdout_header_matches_csv_header(tmp_path, capsys, args):
    if args[-1] == "--model-file":
        model = make_constant_model(ThresholdSet((1.9, 2.8, 3.4)), n_inputs=4)
        save_model(model, tmp_path / "m.bin")
        args = args + [str(tmp_path / "m.bin")]
    out = tmp_path / "out.csv"
    assert main(args + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    csv_lines = out.read_text().splitlines()
    assert stdout[0] == csv_lines[0]
    assert len(stdout) == len(csv_lines) == 2


def test_non_finite_thresholds_file_exits_2(tmp_path, capsys):
    path = tmp_path / "d.txt"
    for text in ("1.0\n2.0\ninf\n", "nan\n"):
        path.write_text(text)
        rc = main(["fer", "--source", "file", "--thresholds-file", str(path),
                   "--pe-list", "15000", "--t-list", "0", "--frames", "1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(path) in err and "finite" in err


def test_config_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"pe_list": "15000", "t_list": "0", "j_levels": 6}))
    out1 = tmp_path / "a.csv"
    rc = main(["ccr", "--config", str(cfg), "--pe-list", "9000",
               "--out", str(out1)])
    assert rc == 0
    capsys.readouterr()
    assert ",9000," in out1.read_text().splitlines()[1]


def test_ccr_reruns_byte_identical(tmp_path, capsys):
    args = ["ccr", "--pe-list", "8000", "--t-list", "0", "--j-list", "6",
            "--code-list", "2k-qc"]
    out1, out2 = tmp_path / "1.csv", tmp_path / "2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_train_tiny_end_to_end(tmp_path, capsys):
    model_out = tmp_path / "m.bin"
    data_out = tmp_path / "d.csv"
    loss_out = tmp_path / "l.csv"
    rc = main(["train", "--count", "8", "--cells", "2000", "--pe-set", "6000",
               "--t-lo", "0", "--t-hi", "10000", "--epochs", "3",
               "--batch", "4", "--lr", "0.001", "--seed", "1",
               "--dataset-out", str(data_out), "--model-out", str(model_out),
               "--loss-out", str(loss_out)])
    assert rc == 0
    capsys.readouterr()
    model = load_model(model_out)
    assert model.n_inputs == 7
    assert model.n_outputs == 6
    assert len(data_out.read_text().strip().splitlines()) == 8
    assert len(loss_out.read_text().strip().splitlines()) == 4


def test_train_from_existing_dataset(tmp_path, capsys):
    data_out = tmp_path / "d.csv"
    rc = main(["train", "--count", "6", "--cells", "2000", "--pe-set", "6000",
               "--t-lo", "0", "--t-hi", "1000", "--epochs", "1",
               "--batch", "3", "--dataset-out", str(data_out),
               "--model-out", str(tmp_path / "m1.bin")])
    assert rc == 0
    rc = main(["train", "--dataset-in", str(data_out), "--epochs", "2",
               "--batch", "3", "--lr", "0.01",
               "--model-out", str(tmp_path / "m2.bin")])
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "m2.bin").exists()


def test_train_lr_final_flag(tmp_path, capsys):
    data_out = tmp_path / "d.csv"
    rc = main(["train", "--count", "6", "--cells", "2000", "--pe-set", "6000",
               "--t-lo", "0", "--t-hi", "1000", "--epochs", "2",
               "--batch", "3", "--dataset-out", str(data_out),
               "--loss-out", str(tmp_path / "flat.csv")])
    assert rc == 0
    rc = main(["train", "--dataset-in", str(data_out), "--epochs", "2",
               "--batch", "3", "--lr", "0.01", "--lr-final", "1e-4",
               "--loss-out", str(tmp_path / "decay.csv")])
    assert rc == 0
    rc = main(["train", "--dataset-in", str(data_out), "--epochs", "2",
               "--batch", "3", "--lr", "0.01", "--lr-final", "0.02",
               "--loss-out", str(tmp_path / "bad.csv")])
    assert rc == 2
    capsys.readouterr()
    assert (tmp_path / "decay.csv").exists()
    assert not (tmp_path / "bad.csv").exists()


def test_train_hidden_flag(tmp_path, capsys):
    data_out = tmp_path / "d.csv"
    rc = main(["train", "--count", "6", "--cells", "2000", "--pe-set", "6000",
               "--t-lo", "0", "--t-hi", "1000", "--epochs", "1",
               "--batch", "3", "--hidden", "12,5",
               "--dataset-out", str(data_out),
               "--model-out", str(tmp_path / "m.bin")])
    assert rc == 0
    capsys.readouterr()
    assert load_model(tmp_path / "m.bin").dims == (7, 12, 5, 6)


def test_pipeline_cli_with_model_file(tmp_path, capsys):
    d, _ = cis_optimize(Condition(15000.0, 0.0), DEFAULT_PARAMS, 2624, 0.9)
    model_path = tmp_path / "m.bin"
    save_model(make_constant_model(d), model_path)
    out = tmp_path / "p.csv"
    rc = main(["pipeline", "--source", "cis", "--pe-list", "15000",
               "--t-list", "0", "--frames", "5", "--model-file", str(model_path),
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n_pe,t_ret,frames,first_pass_failures")
    assert len(lines) == 2


def test_pipeline_without_model_exits_2(capsys):
    rc = main(["pipeline", "--source", "cis", "--pe-list", "15000",
               "--t-list", "0", "--frames", "3"])
    assert rc == 2
    assert "model" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fer", "pipeline"])
def test_model_of_other_width_than_j_levels_exits_2(tmp_path, command, capsys):
    # a three-threshold network cannot serve the default six-level quantizer
    model_path = tmp_path / "m3.bin"
    save_model(make_constant_model(ThresholdSet((1.0, 2.0, 3.0))), model_path)
    rc = main([command, "--source", "dnn", "--pe-list", "15000", "--t-list", "0",
               "--frames", "2", "--model-file", str(model_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "3 thresholds" in err and "j_levels is 6" in err


def test_non_numeric_params_and_cis_exit_2(tmp_path, capsys):
    # the search's one number key, grid_step, sits at the top level
    for config, key in (({"params": {"v_p": "x"}}, "v_p"), ({"grid_step": "x"}, "grid_step")):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_pe": 8000.0, **config}))
        rc = main(["optimize", "--config", str(cfg)])
        assert rc == 2
        assert key in capsys.readouterr().err


def test_model_file_cut_in_header_exits_2(tmp_path, capsys):
    d, _ = cis_optimize(Condition(15000.0, 0.0), DEFAULT_PARAMS, 2624, 0.9)
    whole = tmp_path / "m.bin"
    save_model(make_constant_model(d), whole)
    cut = tmp_path / "cut.bin"
    cut.write_bytes(whole.read_bytes()[:12])   # magic plus half the header
    rc = main(["pipeline", "--source", "cis", "--pe-list", "15000",
               "--t-list", "0", "--frames", "1", "--model-file", str(cut)])
    assert rc == 2
    assert "truncated" in capsys.readouterr().err


def test_model_file_with_huge_dims_exits_2(tmp_path, capsys):
    # magic, version 3, two layers, scale, then dims (2**32 - 1, 2**32 - 1):
    # the size they imply is checked against the file before any allocation
    huge = tmp_path / "huge.bin"
    huge.write_bytes(b"FOPTMLP\x00" + struct.pack("<IId2I", 3, 2, 6.0, 2**32 - 1, 2**32 - 1)
                     + bytes(64))
    rc = main(["pipeline", "--source", "cis", "--pe-list", "15000",
               "--t-list", "0", "--frames", "1", "--model-file", str(huge)])
    assert rc == 2
    assert "truncated" in capsys.readouterr().err


def test_non_finite_n_pe_exits_2(capsys):
    for value in ("nan", "inf"):
        rc = main(["optimize", "--n-pe", value])
        assert rc == 2
        assert "finite" in capsys.readouterr().err


# one J 6 dataset row: 7 histogram fractions, then 6 increasing labels
_ROW = [0.1] * 6 + [0.4] + [0.3, 0.4, 0.5, 0.6, 0.7, 0.8]


def _dataset(tmp_path, rows):
    path = tmp_path / "d.csv"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    return path


@pytest.mark.parametrize("width", [8, 14])
def test_dataset_row_of_other_width_than_2j_plus_1_exits_2(tmp_path, capsys, width):
    # at J 6 a row holds 13 values: 8 would train a 7 -> 1 model, 14 a 7 -> 7 one
    row = _ROW[:7] + [0.05 * (k + 1) for k in range(width - 7)]
    path = _dataset(tmp_path, [_ROW, row])
    rc = main(["train", "--dataset-in", str(path), "--epochs", "1",
               "--model-out", str(tmp_path / "m.bin")])
    assert rc == 2
    assert f"{path}:2: {width} values, but the rows at J 6 hold 13" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


@pytest.mark.parametrize("width", ["0", "-1"])
def test_hidden_layer_narrower_than_1_exits_2(tmp_path, capsys, width):
    path = _dataset(tmp_path, [_ROW, _ROW])
    rc = main(["train", "--dataset-in", str(path), "--epochs", "1", f"--hidden={width}",
               "--model-out", str(tmp_path / "m.bin")])
    assert rc == 2
    assert (f"every layer needs at least one unit, got dims (7, {width}, 6)"
            in capsys.readouterr().err)
    assert not (tmp_path / "m.bin").exists()


def test_model_file_with_a_layer_of_width_0_exits_2(tmp_path, capsys):
    # magic, version 3, three layers, scale, dims (7, 0, 6), the input and
    # output scaling, then the 0-sized first layer and the second's biases
    path = tmp_path / "m0.bin"
    path.write_bytes(b"FOPTMLP\x00" + struct.pack("<IId3I", 3, 3, 6.0, 7, 0, 6)
                     + np.concatenate([np.zeros(7), np.ones(7), np.zeros(6), np.ones(6),
                                       np.zeros(6)]).astype("<f8").tobytes())
    rc = main(["fer", "--source", "dnn", "--pe-list", "15000", "--t-list", "0",
               "--frames", "1", "--model-file", str(path)])
    assert rc == 2
    assert "dims (7, 0, 6)" in capsys.readouterr().err


@pytest.mark.parametrize("config, key", [
    ({"grid_step": float("nan")}, "grid_step"),
    ({"grid_step": float("inf")}, "grid_step"),
    ({"grid_step": 10**400}, "grid_step"),  # no float holds it
    ({"params": {"v_p": float("nan")}}, "v_p"),
    ({"params": {"v_target": [1.4, 2.6, float("-inf"), 3.93]}}, "v_target"),
])
def test_non_finite_config_number_exits_2(tmp_path, capsys, config, key):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n_pe": 8000.0, **config}))  # NaN and Infinity literals
    rc = main(["optimize", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"{key} must be a" in captured.err and "finite" in captured.err
    assert captured.out == ""


def test_non_finite_lr_exits_2(tmp_path, capsys):
    path = _dataset(tmp_path, [_ROW, _ROW])
    rc = main(["train", "--dataset-in", str(path), "--lr", "nan"])
    assert rc == 2
    assert "lr must be a finite number, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["train", "--t-hi", "inf"], "t_range must be finite"),
    (["train", "--t-hi", "1e400"], "t_range must be finite"),
    (["train", "--t-lo", "-1"], "t_range"),
    (["train", "--rate", "1.5"], "rate must lie in (0, 1)"),
    (["train", "--rate", "0"], "rate must lie in (0, 1)"),
    (["optimize", "--n-pe", "8000", "--rate", "1.5"], "rate must lie in (0, 1)"),
    (["optimize", "--method", "mmi", "--rate", "-0.5"], "rate must lie in (0, 1)"),
    (["optimize", "--block-n", "0", "--n-pe", "1000"], "block_n must be at least 1"),
    (["train", "--block-n", "0", "--count", "2", "--cells", "100", "--epochs", "1",
      "--pe-set", "1000"], "block_n must be at least 1"),
    # J 1 and 2 pass CisConfig, for the sources that search nothing
    (["optimize", "--j-levels", "2"], "j_levels of at least 3, got 2"),
    (["optimize", "--method", "mmi", "--j-levels", "2"], "j_levels of at least 3, got 2"),
    (["ccr", "--j-levels", "1", "--pe-list", "8000"], "j_levels of at least 3, got 1"),
    # keys that the run would not read
    (["optimize", "--method", "mmi", "--n-pe", "8000", "--block-n", "100", "--rate", "0.5"],
     "method mmi reads no code, so drop block_n, rate"),
    (["train", "--dataset-in", "d.csv", "--count", "999", "--cells", "7", "--pe-set", "1,2",
      "--t-lo", "5", "--t-hi", "6", "--block-n", "10", "--rate", "0.2", "--epochs", "1",
      "--batch", "2"], "generates none, so drop count, cells, pe_set, t_lo, t_hi, block_n, rate"),
    (["train", "--dataset-in", "d.csv", "--grid-step", "0.005", "--params-file", "p.json"],
     "generates none, so drop grid_step, params_file"),
])
def test_out_of_range_rate_or_retention_exits_2(capsys, args, message):
    rc = main(args)
    captured = capsys.readouterr()
    assert rc == 2
    assert message in captured.err
    assert captured.out == ""


def test_hard_fer_reads_no_j_levels(capsys):
    # "hard" runs no search, so J 2 is no error
    assert main(["fer", "--source", "hard", "--j-levels", "2", "--frames", "2"]) == 0
    assert capsys.readouterr().out.startswith("source,code,")


@pytest.mark.parametrize("command, config, message", [
    ("optimize", {"n_pe": None}, "n_pe"),
    ("fer", {"frames": [3]}, "frames"),
    ("train", {"lr": None}, "lr"),
    ("optimize", {"j_levels": 6.7}, "j_levels"),
    ("fer", {"frames": 2.9}, "frames"),
    ("fer", {"seed": True}, "seed"),
    ("optimize", {"out": True}, "out"),
    ("optimize", {"history_out": 7}, "history_out"),
    ("ccr", {"code": 5}, "code must be one of 2k-qc, 2k-random, 4k-qc"),
])
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, command, config, message):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    rc = main([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert message in captured.err
    assert captured.out == ""


def test_params_file_reads_as_params_section(tmp_path, capsys):
    params = {"sigma_e": 0.36, "v_target": [1.4, 2.6, 3.2, 3.95]}
    params_file, cfg = tmp_path / "p.json", tmp_path / "c.json"
    params_file.write_text(json.dumps(params))
    cfg.write_text(json.dumps({"params": params}))
    printed = []
    for extra in (["--params-file", str(params_file)], ["--config", str(cfg)], []):
        assert main(["optimize", "--n-pe", "8000", "--t-ret", "1000", *extra]) == 0
        printed.append(capsys.readouterr().out)
    # the default parameters design other thresholds
    assert printed[0] == printed[1] != printed[2]


def test_optimize_with_the_recipe_start_below_0_volts(tmp_path, capsys):
    # the recipe's first threshold lies below 0 V; the other starts search
    params_file = tmp_path / "p.json"
    params_file.write_text(json.dumps({"v_target": [0.1, 0.7, 1.3, 1.9]}))
    assert main(["optimize", "--params-file", str(params_file), "--j-levels", "3"]) == 0
    assert [float(v) for v in capsys.readouterr().out.split()] == [0.48, 1.08, 1.4]


@pytest.mark.parametrize("route", ["params_file", "params"])
@pytest.mark.parametrize("key", ["sigma_q", "drn_log"])
def test_unknown_params_key_exits_2(tmp_path, capsys, route, key):
    # "log10" was a valid drn_log before that option was dropped
    params = {"v_p": 0.2, key: "log10"}
    if route == "params_file":
        (tmp_path / "p.json").write_text(json.dumps(params))
        argv = ["--params-file", str(tmp_path / "p.json")]
    else:
        (tmp_path / "c.json").write_text(json.dumps({"params": params}))
        argv = ["--config", str(tmp_path / "c.json")]
    assert main(["optimize", "--n-pe", "8000"] + argv) == 2
    captured = capsys.readouterr()
    assert "unknown params option" in captured.err and key in captured.err
    assert captured.out == ""


def test_params_file_holding_a_list_exits_2(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps([0.2, 0.34]))
    assert main(["optimize", "--n-pe", "8000", "--params-file", str(path)]) == 2
    assert "params file must be a JSON object" in capsys.readouterr().err


def test_params_with_params_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"params": {}}))
    (tmp_path / "p.json").write_text(json.dumps({}))
    rc = main(["optimize", "--config", str(cfg), "--params-file", str(tmp_path / "p.json")])
    assert rc == 2
    assert "give params or params_file, not both" in capsys.readouterr().err


@pytest.mark.parametrize("one, many", [("code", "code_list"), ("j_levels", "j_list")])
def test_ccr_single_key_with_its_list_key_exits_2(one, many, capsys):
    args = {"code": "4k-qc", "code_list": "2k-qc", "j_levels": "3", "j_list": "6"}
    argv = ["ccr", "--pe-list", "8000", "--t-list", "0"]
    for key in (one, many):
        argv += ["--" + key.replace("_", "-"), args[key]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"give {one} or {many}, not both" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("key", [f.key for f in FIELDS.values() if f.many])
def test_empty_list_value_exits_2(tmp_path, capsys, key):
    # read as unset, an empty list would run the default in its place
    field = FIELDS[key]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: []}))
    for argv in ([field.commands[0], field.flag, ""],
                 [field.commands[0], "--config", str(cfg)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"{key} must hold at least one item" in captured.err
        assert captured.out == ""


def test_list_keys_take_json_lists_and_comma_strings():
    for key, as_list, as_text, want in (
            ("pe_list", [8000, 9000.5], "8000,9000.5", (8000.0, 9000.5)),
            ("j_list", [6, 9], "6,9", (6, 9)),
            ("code_list", ["2k-qc", "4k-qc"], "2k-qc,4k-qc", ("2k-qc", "4k-qc")),
            ("hidden", [12, 5], "12,5", (12, 5))):
        assert FIELDS[key].parse(as_list) == FIELDS[key].parse(as_text) == want


# The CLI surface: every flag of every subcommand and every config key it
# accepts.  Adding, dropping or renaming one is a user-visible change.
_SWEEP_FLAGS = {"--code", "--grid-step", "--j-levels", "--out", "--params-file",
                "--pe-list", "--t-list"}
_READ_FLAGS = _SWEEP_FLAGS | {"--code-seed", "--frames", "--i-max", "--model-file",
                              "--seed", "--source", "--thresholds-file"}
SURFACE_FLAGS = {
    "optimize": {"--block-n", "--grid-step", "--history-out", "--j-levels", "--method",
                 "--n-pe", "--out", "--params-file", "--rate", "--t-ret"},
    "fer": _READ_FLAGS | {"--max-frame-errors"},
    "ccr": _SWEEP_FLAGS | {"--code-list", "--j-list", "--rate-eps"},
    "pipeline": _READ_FLAGS | {"--refresh-interval"},
    "train": {"--batch", "--block-n", "--cells", "--count", "--dataset-in",
              "--dataset-out", "--epochs", "--grid-step", "--hidden", "--j-levels",
              "--loss-out", "--lr", "--lr-final", "--model-out", "--params-file",
              "--pe-set", "--rate", "--seed", "--t-hi", "--t-lo"},
}


def test_cli_surface_is_pinned():
    subparsers = build_parser()._subparsers._group_actions[0].choices
    assert set(subparsers) == set(SURFACE_FLAGS)
    for command, flags in SURFACE_FLAGS.items():
        parsed = {s for a in subparsers[command]._actions for s in a.option_strings}
        assert parsed == flags | {"-h", "--help", "--config"}, command
        # every flag sets the config key of the same name, and the config
        # file also takes the params section
        keys = {f.replace("-", "_")[2:] for f in flags} | {"params"}
        assert {k for k, f in FIELDS.items() if command in f.commands} == keys, command
        # the search's lattice step is a top-level key of every subcommand
        args = build_parser().parse_args([command, "--grid-step", "0.005"])
        assert cli._settings(args)[2] == CisConfig(grid_step=0.005), command

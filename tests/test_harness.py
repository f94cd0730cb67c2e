"""Sweep driver tests: intervals, determinism, threshold sources."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import flashopt
from flashopt import harness, optimizer
from flashopt.channel import Condition, DEFAULT_PARAMS
from flashopt.harness import (ExperimentConfig, PipelineStats, cp_interval,
                              predict_thresholds, run_ccr, run_fer, run_pipeline,
                              _repair_increasing)
from flashopt.ldpc import PRESETS
from flashopt.mlp import MlpModel
from flashopt.optimizer import CisConfig, cis_optimize, mmi_optimize
from flashopt.quantizer import ThresholdSet, hard_thresholds
from flashopt.channel import state_models


def binom_cdf(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, i) * p**i * (1.0 - p) ** (n - i) for i in range(k + 1))


def cp_bisect(errors: int, trials: int, conf: float):
    """Clopper-Pearson bounds via direct bisection on the binomial CDF."""
    alpha = 1.0 - conf

    def solve(f, lo, hi):
        # f is increasing in p for both bounds
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(mid) > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    lower = 0.0 if errors == 0 else solve(
        lambda p: (1.0 - binom_cdf(errors - 1, trials, p)) - alpha / 2, 0.0, 1.0)
    upper = 1.0 if errors == trials else solve(
        lambda p: alpha / 2 - binom_cdf(errors, trials, p), 0.0, 1.0)
    return lower, upper


def constant_model(d: ThresholdSet, n_inputs: int = 7, scale: float = 6.0) -> MlpModel:
    """Zero-weight network that always predicts the given thresholds."""
    vals = np.asarray(d.as_array()) / scale
    bias = np.log(vals / (1.0 - vals))
    return MlpModel(dims=(n_inputs, 4, len(vals)),
                    weights=[np.zeros((n_inputs, 4)), np.zeros((4, len(vals)))],
                    biases=[np.zeros(4), bias], scale=scale)


def test_cp_interval_matches_bisection():
    for errors, trials in ((0, 50), (1, 50), (7, 100), (100, 100), (13, 2000)):
        lo, hi = cp_interval(errors, trials)
        blo, bhi = cp_bisect(errors, trials, 0.95)
        assert lo == pytest.approx(blo, abs=1e-9), (errors, trials)
        assert hi == pytest.approx(bhi, abs=1e-9), (errors, trials)


def test_cp_interval_closed_forms():
    n = 40
    lo, hi = cp_interval(0, n)
    assert lo == 0.0
    assert hi == pytest.approx(1.0 - 0.025 ** (1.0 / n), rel=1e-10)
    lo, hi = cp_interval(n, n)
    assert hi == 1.0
    assert lo == pytest.approx(0.025 ** (1.0 / n), rel=1e-10)


def test_cp_interval_validation():
    with pytest.raises(ValueError):
        cp_interval(5, 4)
    with pytest.raises(ValueError):
        cp_interval(-1, 4)
    with pytest.raises(ValueError):
        cp_interval(0, 0)


def test_pipeline_stats_invariants():
    s = PipelineStats(frames=100, first_pass_failures=12, dnn_invocations=12,
                      bad_blocks=3)
    assert s.first_pass_fer == pytest.approx(0.12)
    assert s.final_fer == pytest.approx(0.03)
    with pytest.raises(ValueError):
        PipelineStats(frames=10, first_pass_failures=3, dnn_invocations=3,
                      bad_blocks=4)
    with pytest.raises(ValueError):
        PipelineStats(frames=5, first_pass_failures=6, dnn_invocations=6,
                      bad_blocks=0)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(source="magic")
    with pytest.raises(ValueError):
        ExperimentConfig(frames=0)
    with pytest.raises(ValueError):
        ExperimentConfig(pe_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(rate_eps=1.5)
    for bad in ({"frames": 2.5}, {"seed": True}, {"rate_eps": None}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ExperimentConfig(**bad)
    with pytest.raises(ValueError, match="j_levels"):
        CisConfig(j_levels="6")
    for bad in ({"code": "5k"}, {"code_list": ("2k-qc", "5k")}):
        with pytest.raises(ValueError, match="unknown code '5k'"):
            ExperimentConfig(**bad)


def test_list_keys_reject_a_set_single_key():
    # the list keys replace the single ones; a single key set beside its
    # list is an error, not a setting silently dropped
    with pytest.raises(ValueError, match="code or code_list"):
        run_ccr(ExperimentConfig(code="4k-qc", code_list=("2k-qc",),
                                 cis=CisConfig(j_levels=3), j_list=(6,),
                                 pe_list=(8000.0,)))
    with pytest.raises(ValueError, match="j_levels or j_list"):
        ExperimentConfig(cis=CisConfig(j_levels=3), j_list=(6,))
    both = ExperimentConfig(code_list=("4k-qc",), j_list=(9,))  # the defaults beside
    assert both.code == "2k-qc" and both.cis.j_levels == 6


def read_thresholds(monkeypatch):
    """Every threshold set a sweep builds an LLR table for, in call order."""
    seen, real = [], harness.llr_table
    monkeypatch.setattr(harness, "llr_table", lambda models, d: seen.append(d) or
                        real(models, d))
    return seen


def test_sweeps_design_with_the_cis_j_levels(monkeypatch):
    # J has one owner, cfg.cis: a sweep designs, and checks a model, with it
    cfg = ExperimentConfig(cis=CisConfig(j_levels=9))
    assert [row["j_levels"] for row in run_ccr(cfg)] == [9]
    seen = read_thresholds(monkeypatch)
    run_fer(replace(cfg, frames=1))
    assert [d.j_levels for d in seen] == [9]
    six = constant_model(ThresholdSet((1.0, 1.5, 2.0, 2.5, 3.0, 3.5)), n_inputs=10)
    with pytest.raises(ValueError, match="j_levels is 9"):
        run_fer(replace(cfg, source="dnn", frames=1), model=six)


def test_repair_increasing():
    out = _repair_increasing(np.array([0.5, 0.2, 0.2, -1.0, 3.0, 3.0]))
    assert np.all(np.diff(out) > 0)
    assert np.all(out > 0)
    clean = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(_repair_increasing(clean), clean)


def test_points_take_thresholds_from_each_source(tmp_path):
    cond = Condition(15000.0, 0.0)

    def point(model=None, **settings):
        """The one point's (ref, thresholds)."""
        cfg = ExperimentConfig(pe_list=(cond.n_pe,), t_list=(cond.t_ret,), **settings)
        (_, _, ref, _, d, _), = harness._points(cfg, PRESETS[cfg.code], model)
        return ref, d

    ref, d = point(source="hard")
    assert ref is None and d.j_levels == 3
    assert np.allclose(d.as_array(), hard_thresholds(state_models(cond)))
    d_cis, _ = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9)
    assert point(source="cis") == (None, d_cis)
    assert point(source="mmi") == (None, mmi_optimize(cond, DEFAULT_PARAMS))
    # at zero retention the reference is the point's own search
    assert point(source="cis-t0") == (d_cis, d_cis)

    path = tmp_path / "d.txt"
    d_cis.to_file(path)
    assert point(source="file", thresholds_file=str(path)) == (None, d_cis)
    with pytest.raises(ValueError, match="source 'file' needs thresholds_file"):
        ExperimentConfig(source="file")

    # a model brings the reference, whatever the source
    model = constant_model(ThresholdSet((1.0, 1.5, 2.0, 2.5, 3.0, 3.5)))
    assert point(model, source="dnn") == (d_cis, predict_thresholds(model, np.zeros(7)))
    assert point(model, source="hard") == (d_cis, d)


def test_threshold_file_is_read_once_per_sweep(tmp_path, monkeypatch):
    six = ThresholdSet((1.0, 1.5, 2.0, 2.5, 3.0, 3.5))
    path = tmp_path / "d.txt"
    six.to_file(path)
    reads, real = [], ThresholdSet.from_file
    monkeypatch.setattr(ThresholdSet, "from_file", lambda p: reads.append(p) or real(p))
    cfg = ExperimentConfig(source="file", thresholds_file=str(path), pe_list=(4000.0, 8000.0),
                           t_list=(0.0, 1e3, 1e5), frames=1, refresh_interval=0)
    assert len(run_fer(cfg)) == 6 and len(reads) == 1
    assert len(run_pipeline(cfg, model=constant_model(six))) == 6 and len(reads) == 2


NINE = ThresholdSet(tuple(0.4 * k for k in range(1, 10)))


@pytest.mark.parametrize("driver, settings, model, message", [
    (run_fer, {"source": "file"}, None, "source 'file' needs thresholds_file"),
    (run_pipeline, {"source": "file"}, None, "source 'file' needs thresholds_file"),
    (run_fer, {"source": "dnn"}, None, "source 'dnn' needs a model"),
    (run_pipeline, {}, None, "run_pipeline needs a model"),
    (run_fer, {"source": "dnn"}, constant_model(NINE), "j_levels is 6"),
    (run_pipeline, {}, constant_model(NINE), "j_levels is 6"),
])
def test_missing_inputs_are_reported_before_any_work(monkeypatch, driver, settings,
                                                     model, message):
    calls = []

    def spy(name):
        real = getattr(harness, name)
        return lambda *args, **kwargs: calls.append(name) or real(*args, **kwargs)

    for name in ("build_code", "cis_optimize"):
        monkeypatch.setattr(harness, name, spy(name))
    with pytest.raises(ValueError, match=message):
        driver(ExperimentConfig(frames=1, **settings), model=model)
    assert calls == []


def test_predict_thresholds_dimension_mismatch():
    model = constant_model(ThresholdSet((1.0, 2.0, 3.0)), n_inputs=5)
    with pytest.raises(ValueError):
        predict_thresholds(model, np.full(7, 1.0 / 7.0))


def test_run_fer_deterministic():
    cfg = ExperimentConfig(source="hard", pe_list=(15000.0,), t_list=(10.0,),
                           frames=12, seed=4)
    rows_a = run_fer(cfg)
    rows_b = run_fer(cfg)
    assert rows_a == rows_b
    row = rows_a[0]
    assert row["frames"] == 12
    assert 0.0 <= row["fer"] <= 1.0


def test_run_fer_early_stop():
    cfg = ExperimentConfig(source="hard", pe_list=(15000.0,), t_list=(3000.0,),
                           frames=60, max_frame_errors=3, seed=0)
    row = run_fer(cfg)[0]
    assert row["errors"] == 3
    assert row["frames"] < 60


def test_run_fer_dnn_source_uses_model():
    cond = Condition(8000.0, 0.0)
    d, _ = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9)
    model = constant_model(d)
    cfg = ExperimentConfig(source="dnn", pe_list=(8000.0,), t_list=(0.0,),
                           frames=4, seed=1)
    rows = run_fer(cfg, model=model)
    assert rows[0]["frames"] == 4
    with pytest.raises(ValueError):
        run_fer(ExperimentConfig(source="dnn", frames=2))


def test_run_ccr_rows_and_determinism():
    cfg = ExperimentConfig(code_list=("2k-qc", "4k-qc"), j_list=(6,),
                           pe_list=(8000.0,), t_list=(0.0,))
    rows = run_ccr(cfg)
    assert len(rows) == 2
    for row in rows:
        assert 0.0 < row["rate"] < 1.0
    by_code = {r["code"]: r["rate"] for r in rows}
    assert by_code["4k-qc"] > by_code["2k-qc"]
    assert run_ccr(cfg) == rows


def test_run_ccr_batches_equal_per_condition_designs(monkeypatch):
    # each (code, J) block is designed in one batch; the rows must be the
    # ones that one search per condition gives
    cfg = ExperimentConfig(code_list=("2k-qc",), j_list=(6,),
                           pe_list=(4000.0, 12000.0, 19000.0), t_list=(0.0, 1e3, 1e6))
    optimizer._block_designs.cache_clear()
    batched = run_ccr(cfg)
    info = optimizer._block_designs.cache_info()
    assert (info.misses, info.hits) == (1, 8)  # one batch, one call per condition
    # the same calls without the block: one search per condition
    monkeypatch.setattr(harness, "cis_optimize", lambda *args, block: cis_optimize(*args))
    single = run_ccr(cfg)
    assert len(batched) == 9
    assert [{**r, "rate": float(r["rate"]).hex()} for r in batched] == \
        [{**r, "rate": float(r["rate"]).hex()} for r in single]


def test_run_pipeline_accounting_and_model_requirement():
    cond = Condition(15000.0, 0.0)
    d, _ = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9)
    model = constant_model(d)
    cfg = ExperimentConfig(source="cis", pe_list=(15000.0,), t_list=(0.0,),
                           frames=8, refresh_interval=0, seed=2)
    (got_cond, stats_row), = run_pipeline(cfg, model=model)
    assert got_cond == cond
    assert stats_row.frames == 8
    assert stats_row.bad_blocks <= stats_row.first_pass_failures
    assert stats_row.final_fer <= stats_row.first_pass_fer
    with pytest.raises(ValueError):
        run_pipeline(cfg, model=None)


def test_run_pipeline_refresh_counts_invocations():
    cond = Condition(15000.0, 0.0)
    d, _ = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9)
    model = constant_model(d)
    cfg = ExperimentConfig(source="cis", pe_list=(15000.0,), t_list=(0.0,),
                           frames=9, refresh_interval=3, seed=2)
    (_, stats_row), = run_pipeline(cfg, model=model)
    # refreshes fire at frames 3 and 6 regardless of decode outcomes
    assert stats_row.dnn_invocations >= 2


def test_cis_t0_searches_once_per_wear_level(monkeypatch):
    calls = []
    real = harness.cis_optimize

    def counting(cond, *args, **kwargs):
        calls.append(cond)
        return real(cond, *args, **kwargs)

    d, _ = real(Condition(4000.0, 0.0), DEFAULT_PARAMS, 2624, 0.9)
    monkeypatch.setattr(harness, "cis_optimize", counting)
    cfg = ExperimentConfig(source="cis-t0", pe_list=(4000.0,), t_list=(100.0, 1e5),
                           frames=2, refresh_interval=0)
    run_pipeline(cfg, model=constant_model(d))
    assert calls == [Condition(4000.0, 0.0)]
    calls.clear()
    rows = run_fer(cfg)
    assert calls == [Condition(4000.0, 0.0)]
    assert [r["frames"] for r in rows] == [2, 2]


def test_unset_source_is_each_drivers_default(monkeypatch):
    # fer designs at the true condition, the pipeline starts from the
    # stale zero-retention thresholds
    d, _ = cis_optimize(Condition(4000.0, 1e5), DEFAULT_PARAMS, 2624, 0.9)
    model = constant_model(d)
    cfg = ExperimentConfig(pe_list=(4000.0,), t_list=(1e5,), frames=4,
                           refresh_interval=0)
    assert cfg.source is None
    assert run_pipeline(cfg, model=model) == \
        run_pipeline(replace(cfg, source="cis-t0"), model=model)
    seen = read_thresholds(monkeypatch)
    rows = run_fer(replace(cfg, frames=2))
    assert seen == [d]
    assert rows == run_fer(replace(cfg, frames=2, source="cis"))
    assert rows[0]["source"] == "cis"


@pytest.mark.parametrize("source", ["cis-t0", "dnn"])
def test_fer_and_pipeline_read_the_same_blocks(source):
    # Without early stop or refresh, a pipeline's first reads are the fer
    # sweep's reads: same blocks, same starting thresholds.
    d, _ = cis_optimize(Condition(4000.0, 3000.0), DEFAULT_PARAMS, 2624, 0.9)
    model = constant_model(d)
    cfg = ExperimentConfig(source=source, pe_list=(4000.0,), t_list=(100.0, 1e5),
                           frames=12, max_frame_errors=12, refresh_interval=0, seed=5)
    errors = [row["errors"] for row in run_fer(cfg, model=model)]
    first = [stats.first_pass_failures for _, stats in run_pipeline(cfg, model=model)]
    assert first == errors
    assert 0 < sum(errors) < 24


def test_import_leaves_scipy_stats_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(flashopt.__file__)))
    script = "import sys, flashopt; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, cwd="/", env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"

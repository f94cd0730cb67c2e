"""Quick self-test of the benchmark (under two minutes).

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, and checks
that every metric is reported and above 0 (per-layer metrics: those of
the layers the workload calls), that no operation failed and that the
traced self times account for the traced wall time.  Then feeds each
output check a corrupted result and checks that it is rejected, and
checks that the benchmark refuses to run without a flashopt checkout.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np

import checks
from tracing import PER_LAYER

END_TO_END = ("ops_per_s", "cpu_ms_per_op", "setup_s", "peak_rss_mb")
_ALL = ("flashopt.import_s", "optimizer.cis_optimize.calls",
        "optimizer.cis_optimize.ms_per_call", "optimizer.cis_optimize.sweeps")
_DECODE = ("ldpc.build_code.ms", "ldpc.sp_decode.calls", "ldpc.sp_decode.iterations",
           "ldpc.sp_decode.us_per_iter", "ldpc.sp_decode.share",
           "ldpc.sp_decode.converged_ratio", "ldpc.encode.us_per_call",
           "channel.sample_wordline.us_per_call", "quantizer.quantize.us_per_call",
           "quantizer.llr_table.calls", "quantizer.llr_table.us_per_call",
           "optimizer.cis_optimize.share", "harness.self_share")
# per-layer metrics that must read above 0 on each workload
APPLICABLE = {
    "fer-waterfall": _ALL + _DECODE,
    "design-sweep": _ALL + ("quantizer.transition_matrix.us_per_call",
                            "fbl.achievable_rate.us_per_call",
                            "optimizer.cis_optimize.share", "harness.self_share"),
    "retry-pipeline": _ALL + _DECODE + ("mlp.forward.us_per_call",
                                        "mlp.histogram_features.us_per_call"),
    "regressor-train": _ALL + ("channel.sample_wordline.us_per_call",
                               "quantizer.quantize.us_per_call",
                               "mlp.histogram_features.us_per_call",
                               "mlp.gen_training_data.ms_per_sample",
                               "mlp.train.ms_per_step"),
}


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_runs() -> None:
    root = HERE.parent
    for workload, applicable in APPLICABLE.items():
        for trace in (0, 1):
            out = _run(root, workload, trace)
            assert out.returncode == 0, out.stderr
            res = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            metrics = res["metrics"]
            names = PER_LAYER if trace else END_TO_END
            assert set(metrics) == set(names), sorted(set(metrics) ^ set(names))
            for name, m in metrics.items():
                assert math.isfinite(m["value"]), (workload, name, m)
                must_be_positive = name in applicable if trace else True
                assert m["value"] > 0 or not must_be_positive, (workload, name, m)
            if trace:
                report = json.loads((HERE / "results" /
                                     f"{workload}-seed3-trace1-tiny.json").read_text())
                share = report["trace"]["accounted_share"]
                assert 0.97 <= share <= 1.0 + 1e-9, (workload, share)
            print(f"ok  {workload} trace={trace}")


def check_rejections() -> None:
    from flashopt import mlp
    from flashopt.channel import DEFAULT_PARAMS, Condition, state_models
    from flashopt.harness import PipelineStats
    from flashopt.optimizer import cis_optimize

    row = {"code": "2k-qc", "n_pe": 15000.0, "errors": 5, "frames": 4}
    assert checks.fer_row_problems(row, 4), "errors > frames accepted"
    assert checks.fer_row_problems({**row, "errors": 0, "frames": 3}, 4), "short row accepted"
    assert not checks.fer_row_problems({**row, "errors": 0}, 4)
    assert checks.fer_wear_problems({15000.0: (60, 100), 17000.0: (2, 100)}), \
        "FER falling with wear accepted"
    assert not checks.fer_wear_problems({15000.0: (3, 100), 17000.0: (2, 100)})

    h = np.array([[1, 1, 0, 1, 1, 0, 0], [1, 0, 1, 1, 0, 1, 0], [0, 1, 1, 1, 0, 0, 1]])
    word = np.array([1, 0, 0, 0, 1, 1, 0])
    assert not checks.codeword_problems(h, [word])
    assert checks.codeword_problems(h, [word ^ np.eye(7, dtype=int)[2]]), \
        "nonzero syndrome accepted"

    cond = Condition(12000.0, 1e3)
    models = state_models(cond, DEFAULT_PARAMS)
    d, _ = cis_optimize(cond, DEFAULT_PARAMS, 2624, 0.9)
    d = d.as_array()
    good = {"code": "2k-qc", "j_levels": 6, "n_pe": 12000.0, "t_ret": 1e3,
            "rate": checks.page_rate(models, d, 2624, 1e-4)}
    assert not checks.rate_row_problems(good, models, d, 2624, 0.9, 1e-4, 0.01)
    assert checks.rate_row_problems({**good, "rate": good["rate"] + 1e-6}, models, d,
                                    2624, 0.9, 1e-4, 0.01), "wrong rate accepted"
    assert checks.rate_row_problems({**good, "rate": 1.5}, models, d, 2624, 0.9, 1e-4,
                                    0.01), "rate >= 1 accepted"
    off = d.copy()
    off[2] += 0.05
    assert checks.rate_row_problems({**good, "rate": checks.page_rate(models, off, 2624, 1e-4)},
                                    models, off, 2624, 0.9, 1e-4, 0.01), \
        "thresholds off the optimum accepted"

    rows = [{"code": c, "j_levels": j, "n_pe": pe, "t_ret": 0.0,
             "rate": 0.9 - pe / 1e5 + j / 100 + (c == "4k-qc") / 200}
            for c in ("2k-qc", "4k-qc") for j in (6, 9) for pe in (8000.0, 12000.0)]
    assert not checks.rate_trend_problems(rows)
    broken = [dict(r) for r in rows]
    broken[0]["rate"], broken[1]["rate"] = broken[1]["rate"], broken[0]["rate"]
    assert checks.rate_trend_problems(broken), "rate rising with wear accepted"

    ok = PipelineStats(frames=20, first_pass_failures=20, dnn_invocations=20, bad_blocks=0)
    assert not checks.pipeline_row_problems(ok, 20)
    assert checks.pipeline_row_problems(
        PipelineStats(frames=20, first_pass_failures=20, dnn_invocations=19, bad_blocks=0),
        20), "missing network call accepted"
    assert checks.pipeline_row_problems(ok, 21), "short point accepted"
    assert not checks.pipeline_fer_problems(ok, 20, 0)
    assert checks.pipeline_fer_problems(ok, 19, 0), "first-pass mismatch accepted"
    assert checks.pipeline_fer_problems(ok, 20, 1), "bad-block mismatch accepted"
    assert not checks.recovery_problems(20, 0, 20)
    assert checks.recovery_problems(10, 6, 20), "unseparated recovery accepted"

    assert not checks.training_problems([1.0, 0.4], 2, 0.1, 0.5)
    assert checks.training_problems([1.0, float("nan")], 2, 0.1, 0.5), "NaN loss accepted"
    assert checks.training_problems([1.0, 0.8], 2, 0.1, 0.5), "flat loss accepted"
    assert checks.training_problems([1.0, 0.4], 2, 0.6, 0.5), "worse-than-init MSE accepted"
    assert not checks.gradient_problems(mlp)

    class SkewedGradients:
        xavier_model = staticmethod(mlp.xavier_model)
        mse_loss = staticmethod(mlp.mse_loss)

        @staticmethod
        def backprop(model, x, y):
            loss, gw, gb = mlp.backprop(model, x, y)
            return loss, [1.01 * g for g in gw], gb

    assert checks.gradient_problems(SkewedGradients), "wrong gradients accepted"
    print("ok  every check rejects its corrupted result")


def check_refuses_without_checkout() -> None:
    (HERE / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "results") as tmp:
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        out = _run(tmp, "fer-waterfall", 0)
    assert out.returncode != 0 and not out.stdout.strip(), out
    print("ok  refuses to run without src/flashopt")


if __name__ == "__main__":
    check_rejections()
    check_refuses_without_checkout()
    check_runs()
    print("self-test passed")

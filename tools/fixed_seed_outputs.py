"""Write the fixed-seed outputs of every CLI subcommand into one directory.

Usage:  python3 tools/fixed_seed_outputs.py OUTDIR

Each run is ``python -m flashopt`` on this checkout's ``src/`` with one
BLAS thread; its result files and its stdout (``<run>.stdout``) land in
OUTDIR, which must be new or empty (exit 2 otherwise), so that no file of
an earlier run can stand in for one this run failed to write.  A change
that must keep outputs byte-identical is checked by running this script
on both commits, each into a fresh directory, and comparing the two:

    diff -r OUTDIR_BEFORE OUTDIR_AFTER
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

FER_POINTS = ["--pe-list", "15000,17000", "--t-list", "0,1000", "--frames", "12",
              "--max-frame-errors", "5"]
# Wear points on the waterfall: many pages need every iteration or never
# converge, and 4k-qc's short checks exercise the decoder's pad slots.
WATERFALL = ["--source", "cis", "--t-list", "0", "--frames", "40",
             "--max-frame-errors", "40"]
PIPELINE_POINTS = ["--pe-list", "4000,6000", "--t-list", "100,1e5", "--frames", "12"]


def runs(out: Path):
    """(name, argv) in run order; later runs read earlier runs' files."""
    fine = out / "grid-0.005.json"
    fine.write_text(json.dumps({"grid_step": 0.005}))
    # criterion 7's wear levels and grid: two full blocks of labels and a
    # partial one
    yield "train-blocks", ["train", "--config", fine, "--count", "20", "--cells", "2000",
                           "--pe-set", "4000,5000,6000", "--epochs", "2", "--batch", "10",
                           "--dataset-out", out / "train-blocks.dataset.csv"]
    yield "train", ["train", "--count", "12", "--cells", "5000",
                    "--pe-set", "4000,6000,15000,17000", "--t-lo", "0", "--t-hi", "1e5",
                    "--epochs", "300", "--batch", "5", "--lr", "1e-3", "--lr-final", "1e-4",
                    "--dataset-out", out / "train.dataset.csv",
                    "--model-out", out / "train.model.bin",
                    "--loss-out", out / "train.loss.csv"]
    yield "train-dataset-in", ["train", "--dataset-in", out / "train.dataset.csv",
                               "--hidden", "16,8", "--epochs", "300", "--batch", "5",
                               "--model-out", out / "train-dataset-in.model.bin",
                               "--loss-out", out / "train-dataset-in.loss.csv"]
    # rows of 2J+1 values at J 3, written and read back
    yield "train-j3", ["train", "--j-levels", "3", "--count", "8", "--cells", "5000",
                       "--pe-set", "4000,6000", "--epochs", "50", "--batch", "4",
                       "--dataset-out", out / "train-j3.dataset.csv"]
    yield "train-j3-dataset-in", ["train", "--j-levels", "3",
                                  "--dataset-in", out / "train-j3.dataset.csv",
                                  "--epochs", "50", "--batch", "4",
                                  "--model-out", out / "train-j3-dataset-in.model.bin"]
    yield "optimize-cis", ["optimize", "--n-pe", "12000", "--t-ret", "1000",
                           "--out", out / "optimize-cis.txt",
                           "--history-out", out / "optimize-cis.history.csv"]
    yield "optimize-mmi", ["optimize", "--method", "mmi", "--n-pe", "12000",
                           "--t-ret", "1000",
                           "--history-out", out / "optimize-mmi.history.csv"]
    # the 4-input MMI lattice at the finest grid
    yield "optimize-mmi-j9-fine", ["optimize", "--config", fine, "--method", "mmi",
                                   "--j-levels", "9", "--n-pe", "16000", "--t-ret", "1e5",
                                   "--out", out / "optimize-mmi-j9-fine.txt"]
    params = out / "params.json"
    params.write_text(json.dumps({"sigma_e": 0.36, "v_target": [1.4, 2.6, 3.2, 3.95]}))
    yield "optimize-params-file", ["optimize", "--params-file", params, "--n-pe", "8000",
                                   "--t-ret", "1000",
                                   "--out", out / "optimize-params-file.txt"]
    # 9-condition batches per (code, J) whose points compare by eps and
    # by logit(eps)
    yield "ccr", ["ccr", "--code-list", "2k-qc,4k-qc", "--j-list", "6,9",
                  "--pe-list", "8000,12000,16000", "--t-list", "0,1000,100000",
                  "--out", out / "ccr.csv"]
    # J set only through the single-value key
    yield "ccr-j3-4k-qc", ["ccr", "--code", "4k-qc", "--j-levels", "3",
                           "--pe-list", "8000,16000", "--t-list", "0,1000",
                           "--out", out / "ccr-j3-4k-qc.csv"]
    for source in ("hard", "mmi", "cis", "cis-t0", "dnn", "file"):
        yield f"fer-{source}", ["fer", "--source", source, *FER_POINTS,
                                "--thresholds-file", out / "optimize-cis.txt",
                                "--model-file", out / "train.model.bin",
                                "--out", out / f"fer-{source}.csv"]
    yield "fer-cis-j9", ["fer", "--source", "cis", "--j-levels", "9", *FER_POINTS,
                         "--out", out / "fer-cis-j9.csv"]
    yield "fer-cis-4k-qc", ["fer", "--source", "cis", "--code", "4k-qc", *FER_POINTS,
                            "--out", out / "fer-cis-4k-qc.csv"]
    yield "fer-hard-2k-random", ["fer", "--source", "hard", "--code", "2k-random",
                                 *FER_POINTS, "--out", out / "fer-hard-2k-random.csv"]
    yield "fer-waterfall-2k-qc", ["fer", *WATERFALL, "--pe-list", "15000,17000,19000",
                                  "--out", out / "fer-waterfall-2k-qc.csv"]
    yield "fer-waterfall-4k-qc", ["fer", *WATERFALL, "--code", "4k-qc", "--pe-list", "17000",
                                  "--out", out / "fer-waterfall-4k-qc.csv"]
    # every other run encodes with code seed 0's builds; this one encodes
    # with 4k-qc's seed-1 build, a few frames at one waterfall point
    yield "fer-4k-qc-code-seed-1", ["fer", "--source", "cis", "--code", "4k-qc",
                                    "--code-seed", "1", "--pe-list", "17000", "--t-list", "0",
                                    "--frames", "12", "--max-frame-errors", "12",
                                    "--out", out / "fer-4k-qc-code-seed-1.csv"]
    yield "pipeline-cis-t0", ["pipeline", "--source", "cis-t0", *PIPELINE_POINTS,
                              "--refresh-interval", "5",
                              "--model-file", out / "train.model.bin",
                              "--out", out / "pipeline-cis-t0.csv"]
    yield "pipeline-dnn", ["pipeline", "--source", "dnn", *PIPELINE_POINTS,
                           "--refresh-interval", "0",
                           "--model-file", out / "train.model.bin",
                           "--out", out / "pipeline-dnn.csv"]
    # start sources that are not the reference: the retries still need it
    for source in ("cis", "hard"):
        yield f"pipeline-{source}", ["pipeline", "--source", source, *PIPELINE_POINTS,
                                     "--refresh-interval", "5",
                                     "--model-file", out / "train.model.bin",
                                     "--out", out / f"pipeline-{source}.csv"]


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        print(f"{out} exists and is not an empty directory", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, **dict.fromkeys(BLAS_THREADS, "1")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for name, args in runs(out):
        cmd = [sys.executable, "-m", "flashopt", *map(str, args)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode:
            print(f"{name} failed ({done.returncode}):\n{done.stderr}", file=sys.stderr)
            return 1
        (out / f"{name}.stdout").write_text(done.stdout)
        print(name, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

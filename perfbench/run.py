"""Benchmark of flashopt's public entry points, one workload per run.

Usage, from the root of a flashopt checkout:

    python3 perfbench/run.py --workload fer-waterfall --seed 1 --seconds 10 --trace 0

A run measures in fresh worker processes, one after another: three
untraced, or one traced.  Each worker imports flashopt from ``src/``,
sets up the workload, makes one untimed warm-up round, then repeats
whole rounds of entry-point calls for its share of ``--seconds``, timing
each call whole, and checks the outputs once its timing is over.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics (the end-to-end ones, or with
``--trace 1`` the per-layer ones).  A full report goes to
``perfbench/results/``.  See README.md.
"""

import os

# One BLAS thread, set before numpy loads: with OpenBLAS's default of one
# thread per CPU, small matrix-vector products (ldpc.encode) stall at
# random on a 2-CPU machine.  One thread is the single-threaded baseline.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
WORKLOADS = ("fer-waterfall", "design-sweep", "retry-pipeline", "regressor-train")
# Worker processes per untraced run.  A process's speed depends on more
# than the machine's load (identical sweeps differ more between processes
# than within one), so the timed calls are spread over several.
WORKERS = 3
MIN_ROUNDS = 2
WORKER_TIMEOUT_S = 120


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest inputs, for the self-test")
    p.add_argument("--part", type=int, default=None,
                   help="run as worker number PART and print its raw results")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _set_up(args, traced: bool):
    """Import flashopt and build the workload; times both."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import flashopt
    import_s = time.perf_counter() - start
    import workloads
    from tracing import Tracer
    tracer = Tracer(flashopt) if traced else None
    if tracer:
        tracer.install()
    workload = workloads.make(args.workload, args.tiny)
    start = time.perf_counter()
    workload.setup(args.seed)
    build_s = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    return workload, tracer, import_s, import_s + build_s


def _spawn(args, part: int, seconds: float) -> dict:
    """One worker process; waits for it and returns its raw results."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--part", str(part)] + (["--tiny"] if args.tiny else [])
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"worker {part} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _traced(tracer, thunk):
    """thunk with the tracer's wrappers in place for exactly its duration."""
    def call():
        tracer.install()
        try:
            return thunk()
        finally:
            tracer.uninstall()
    return call


def _timed_phase(args, workload, tracer):
    """Whole rounds until --seconds have passed (at least MIN_ROUNDS).

    Traced, every call runs twice on the same inputs, once plain and once
    traced, the order alternating by round.  Returns the plain records,
    the traced ones (none untraced) and the number of rounds.
    """
    import workloads
    plain, traced = [], []
    start, r = time.perf_counter(), 1
    while r <= MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        seed = workloads.round_seed(args.seed, args.part, r)
        order = (False,) if tracer is None else ((False, True) if r % 2 else (True, False))
        for key, thunk, ops in workload.round(seed):
            for with_trace in order:
                call = _traced(tracer, thunk) if with_trace else thunk
                rec = workloads.timed_call(workload, key, seed, call, ops)
                (traced if with_trace else plain).append(rec)
        r += 1
    return plain, traced, r - 1


def _blas_facts():
    """BLAS library and thread count of every OpenBLAS loaded (numpy's, scipy's)."""
    facts = []
    try:
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts.append({"numpy_blas": blas.get("name"), "version": blas.get("version")})
    except (ImportError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                facts.append({"library": Path(path).name, "threads": getattr(lib, sym)()})
                break
    return facts


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _worker(args) -> dict:
    """Set up, warm up, time whole rounds for --seconds, check; raw results."""
    workload, tracer, import_s, setup_s = _set_up(args, traced=bool(args.trace))
    import workloads
    for _, thunk, _ in workload.round(workloads.round_seed(args.seed, args.part, 0)):
        thunk()   # warm-up: first-call costs (first encode, first train) stay untimed
    if tracer:
        tracer.phase = "timed"
    plain, traced, rounds = _timed_phase(args, workload, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "part": args.part, "setup_s": setup_s, "import_s": import_s,
        "peak_rss_mb": peak_rss_mb, "rounds": rounds, "blas": _blas_facts(),
        "run_problems": workload.finish(plain + traced, args.seed),
        "calls": [{"key": str(rec.key), "seed": rec.seed, "ops": rec.ops, "wall_s": rec.wall,
                   "cpu_s": rec.cpu, "failed": rec.failed, "problems": rec.problems,
                   "traced": with_trace, "part": args.part, "summary": repr(rec.summary)}
                  for recs, with_trace in ((plain, False), (traced, True)) for rec in recs],
    }
    if tracer:
        from tracing import per_layer
        plain_wall = sum(rec.wall for rec in plain)
        traced_wall = sum(rec.wall for rec in traced)
        summary = tracer.summary()
        out["per_layer"] = per_layer(
            summary, tracer.counts, import_s=import_s, timed_wall=traced_wall,
            overhead_pct=100.0 * (1.0 - plain_wall / traced_wall),
            samples=getattr(workload, "samples", 0),
            train_steps=sum(rec.ops for rec in traced))
        timed_self = sum(row["self_s"] for (phase, _), row in summary.items()
                         if phase == "timed")
        out["trace"] = {
            "accounted_share": timed_self / traced_wall,
            "spans_by_name": [{"phase": phase, "name": name, **row}
                              for (phase, name), row in sorted(summary.items())],
            "span_fields": ["name", "start_s", "end_s", "parent", "phase"],
            "spans": tracer.spans,
        }
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "flashopt" / "__init__.py").is_file():
        print(f"perfbench: no flashopt package at {SRC}; run from a flashopt checkout",
              file=sys.stderr)
        return 2
    if args.part is not None:
        print(json.dumps(_worker(args)))
        return 0

    parts = 1 if args.trace else WORKERS
    load_start = os.getloadavg()
    workers = [_spawn(args, part, args.seconds / parts) for part in range(parts)]
    load_end = os.getloadavg()

    calls = [c for w in workers for c in w["calls"]]
    plain = [c for c in calls if not c["traced"]]
    problems = [p for w in workers for p in w["run_problems"]]
    attempted = sum(c["ops"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    wall = sum(c["wall_s"] for c in plain)
    cpu = sum(c["cpu_s"] for c in plain)
    ops = sum(c["ops"] for c in plain)
    e2e = {
        "ops_per_s": _metric(ops / wall, "1/s"),
        "cpu_ms_per_op": _metric(1e3 * cpu / ops, "ms"),
        "setup_s": _metric(statistics.median(w["setup_s"] for w in workers), "s"),
        "peak_rss_mb": _metric(max(w["peak_rss_mb"] for w in workers), "MB"),
    }
    metrics = workers[0]["per_layer"] if args.trace else e2e
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "attempted": attempted, "failed": failed, "correct": not problems,
        "run_problems": problems,
        "call_problems": [p for c in calls for p in c["problems"]][:50],
        "end_to_end": e2e, "per_layer": workers[0].get("per_layer"),
        "workers": [{k: w[k] for k in ("part", "setup_s", "import_s", "peak_rss_mb",
                                       "rounds")} for w in workers],
        "machine": {
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": workers[0]["blas"], "loadavg_1min_start": load_start[0],
            "loadavg_1min_end": load_end[0], "cpu_to_wall": cpu / wall,
            "python": platform.python_version(),
        },
        "calls": calls,
        "trace": workers[0].get("trace"),
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    with open(RESULTS / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads, shaped like flashopt's CLI subcommands.

A workload builds what its calls need in ``setup``, hands out one round
of entry-point calls per round seed, checks each result as it comes
back (``digest``) and checks the whole run once timing is over
(``finish``).  Every call goes through a module attribute
(``flashopt.harness.run_fer``, ...), so the tracer's wrappers see it.
The program receives only the generated inputs; the seeds come from the
benchmark.
"""

from __future__ import annotations

import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from flashopt import harness, ldpc, mlp
from flashopt.channel import DEFAULT_PARAMS, Condition, state_models
from flashopt.harness import ExperimentConfig
from flashopt.optimizer import CisConfig, cis_optimize

import checks


@dataclass
class Record:
    """One timed entry-point call and what its checks found."""

    key: object
    seed: int
    ops: int
    wall: float
    cpu: float
    error: str | None = None
    summary: object = None
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, problems, ops=None) -> None:
        if problems:
            self.problems.extend(problems)
            self.failed = min(self.ops, self.failed + (self.ops if ops is None else ops))


def _cpu_s() -> float:
    """CPU time of this process (all threads) plus its reaped children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def timed_call(workload, key, seed: int, thunk, ops: int) -> Record:
    """One entry-point call timed whole, then its result checked."""
    cpu, wall = _cpu_s(), time.perf_counter()
    try:
        out, error = thunk(), None
    except Exception:  # a raising call is a failed operation, not a crash
        out, error = None, traceback.format_exc()
    wall, cpu = time.perf_counter() - wall, _cpu_s() - cpu
    rec = Record(key=key, seed=seed, ops=ops, wall=wall, cpu=cpu, error=error)
    if error is not None:
        rec.fail([error.strip().splitlines()[-1]])
        return rec
    try:
        workload.digest(rec, out)
    except Exception:  # a result the checks cannot read fails them
        rec.fail([traceback.format_exc()])
    return rec


def round_seed(seed: int, part: int, r: int) -> int:
    """Seed of round r of worker ``part`` of a run; round 0 is the warm-up."""
    return int(np.random.SeedSequence([seed, part, r]).generate_state(1)[0])


class FerWaterfall:
    """`flashopt fer --source cis` at criterion 5's wear points, t = 0.

    One operation is one frame (both pages).  max_frame_errors equals the
    frame count, so every call decodes all its frames.
    """

    POINTS = (("2k-qc", (15000.0, 17000.0, 19000.0)), ("4k-qc", (17000.0,)))

    def __init__(self, frames: int):
        self.frames = frames
        self.codes = {}

    def setup(self, seed: int) -> None:
        for code, _ in self.POINTS:
            self.codes[code] = harness.build_code(code)

    def round(self, seed: int):
        calls = []
        for code, pes in self.POINTS:
            cfg = ExperimentConfig(code=code, source="cis", pe_list=pes, t_list=(0.0,),
                                   frames=self.frames, max_frame_errors=self.frames,
                                   seed=seed)
            calls.append((code, lambda cfg=cfg: harness.run_fer(cfg), len(pes) * self.frames))
        return calls

    def digest(self, rec: Record, rows) -> None:
        rec.summary = [(r["code"], r["n_pe"], r["errors"], r["frames"]) for r in rows]
        for r in rows:
            rec.fail(checks.fer_row_problems(r, self.frames), self.frames)

    def finish(self, records, seed: int) -> list:
        problems = []
        for code, _ in self.POINTS:
            totals = {}
            for rec in records:
                if rec.error is None and not rec.failed and rec.key == code:
                    for _, pe, errors, frames in rec.summary:
                        e, n = totals.get(pe, (0, 0))
                        totals[pe] = (e + errors, n + frames)
            problems += checks.fer_wear_problems(totals)
            built = self.codes[code]
            rng = np.random.default_rng([seed, 7])
            words = [ldpc.encode(built, rng.integers(0, 2, built.info_len, dtype=np.uint8))
                     for _ in range(4)]
            problems += [f"{code}: {p}" for p in
                         checks.codeword_problems(built.h.dense(), words)]
        return problems


class DesignSweep:
    """`flashopt ccr` over 2 codes x J 6, 9 x PE 8000/12000/16000 x
    t 0, 1e3, 1e5 h at the default CisConfig; 36 conditions per sweep.

    One operation is one designed condition.  CIS draws nothing at the
    default settings (no jittered restarts), so every sweep does the same
    work; the round seed is passed through all the same.
    """

    CODES = ("2k-qc", "4k-qc")
    J_LIST = (6, 9)
    PE_LIST = (8000.0, 12000.0, 16000.0)
    T_LIST = (0.0, 1e3, 1e5)

    def setup(self, seed: int) -> None:
        pass

    def round(self, seed: int):
        cfg = ExperimentConfig(code_list=self.CODES, j_list=self.J_LIST,
                               pe_list=self.PE_LIST, t_list=self.T_LIST, seed=seed)
        ops = len(self.CODES) * len(self.J_LIST) * len(self.PE_LIST) * len(self.T_LIST)
        return [("sweep", lambda: harness.run_ccr(cfg), ops)]

    def digest(self, rec: Record, rows) -> None:
        rec.summary = [{k: r[k] for k in ("code", "j_levels", "n_pe", "t_ret")}
                       | {"rate": float(r["rate"])} for r in rows]
        if len(rows) != rec.ops:
            rec.fail([f"{len(rows)} rows for {rec.ops} conditions"])

    def finish(self, records, seed: int) -> list:
        cis = CisConfig()
        eps = ExperimentConfig().rate_eps
        verdict = {}   # (condition, rate) -> problems
        problems = []
        for rec in records:
            if rec.error is not None or rec.failed:
                continue
            bad = 0
            for row in rec.summary:
                key = tuple(row.values())
                if key not in verdict:
                    spec = ldpc.PRESETS[row["code"]]
                    cond = Condition(row["n_pe"], row["t_ret"])
                    cfg = CisConfig(j_levels=row["j_levels"])
                    d, _ = cis_optimize(cond, DEFAULT_PARAMS, spec.n, spec.rate, cfg,
                                        seed=0)
                    verdict[key] = checks.rate_row_problems(
                        row, state_models(cond, DEFAULT_PARAMS), d.as_array(), spec.n,
                        spec.rate, eps, cis.grid_step)
                if verdict[key]:
                    rec.problems.extend(verdict[key])
                    bad += 1
            rec.failed = bad
            problems += checks.rate_trend_problems(rec.summary)
        return sorted(set(problems))


def flat_model(thresholds, scale: float = mlp.THRESHOLD_SCALE):
    """Full-size 7-512-256-128-6 network that outputs ``thresholds``.

    Hidden weights are zero, so every hidden unit reads 0.5; the last
    layer's biases are the logits of thresholds / scale.  A forward pass
    costs what a trained network's does.
    """
    t = np.asarray(thresholds, dtype=float) / scale
    dims = (t.size + 1, *mlp.DEFAULT_HIDDEN, t.size)
    weights = [np.zeros((a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(b) for b in dims[1:-1]] + [np.log(t / (1.0 - t))]
    return mlp.MlpModel(dims=dims, weights=weights, biases=biases, scale=scale)


class RetryPipeline:
    """`flashopt pipeline --source cis-t0` at PE 4000, t = 30, 100, 1e5 h.

    Each point's model returns that condition's CIS thresholds, so a
    retry reads with matched thresholds.  The refresh cadence lies past
    the block count.  One operation is one block.
    """

    N_PE = 4000.0
    T_LIST = (30.0, 100.0, 1e5)

    def __init__(self, frames: int):
        self.frames = frames
        self.models = {}

    def setup(self, seed: int) -> None:
        spec = harness.build_code("2k-qc").spec
        for t in self.T_LIST:
            d, _ = harness.cis_optimize(Condition(self.N_PE, t), DEFAULT_PARAMS, spec.n,
                                        spec.rate, CisConfig(), seed=0)
            self.models[t] = flat_model(d.as_array())

    def _cfg(self, source: str, t: float, seed: int) -> ExperimentConfig:
        return ExperimentConfig(source=source, pe_list=(self.N_PE,), t_list=(t,),
                                frames=self.frames, max_frame_errors=self.frames,
                                refresh_interval=self.frames + 1, seed=seed)

    def round(self, seed: int):
        return [(t, lambda t=t: harness.run_pipeline(self._cfg("cis-t0", t, seed),
                                                     model=self.models[t]), self.frames)
                for t in self.T_LIST]

    def digest(self, rec: Record, result) -> None:
        (_, stats), = result
        rec.summary = stats
        rec.fail(checks.pipeline_row_problems(stats, self.frames))

    def finish(self, records, seed: int) -> list:
        first = bad = frames = 0
        fer = {}   # (t, seed) -> (stale errors, matched errors); traced runs repeat calls
        for rec in records:
            if rec.error is not None or rec.failed:
                continue
            if (rec.key, rec.seed) not in fer:
                fer[rec.key, rec.seed] = tuple(
                    harness.run_fer(self._cfg(source, rec.key, rec.seed))[0]["errors"]
                    for source in ("cis-t0", "cis"))
            rec.fail(checks.pipeline_fer_problems(rec.summary, *fer[rec.key, rec.seed]))
            if rec.key == self.T_LIST[-1] and not rec.failed:
                first += rec.summary.first_pass_failures
                bad += rec.summary.bad_blocks
                frames += rec.summary.frames
        if not frames:
            return [f"no checked blocks at t = {self.T_LIST[-1]:g} h"]
        return checks.recovery_problems(first, bad, frames)


class RegressorTrain:
    """`flashopt train` at criterion 7's settings on a small dataset.

    Set-up generates the dataset (PE 4000/5000/6000, t uniform in
    [0, 1e6] h, 100 k cells, grid_step 0.005).  Each call trains a fresh
    model for a fixed number of epochs (lr 1e-3, batch 100, default dims).
    One operation is one Adam step.
    """

    PE_SET = (4000.0, 5000.0, 6000.0)
    T_RANGE = (0.0, 1e6)
    CELLS = 100_000
    BATCH = 100

    def __init__(self, samples: int, epochs: int):
        self.samples, self.epochs = samples, epochs
        self.dataset = []

    def setup(self, seed: int) -> None:
        gen = mlp.GenConfig(count=self.samples, cis=CisConfig(grid_step=0.005))
        self.dataset = mlp.gen_training_data(DEFAULT_PARAMS, self.PE_SET, self.T_RANGE,
                                             self.CELLS, gen, seed=seed)
        self.x = np.array([s.features for s in self.dataset])
        self.y = np.array([s.label for s in self.dataset])

    def round(self, seed: int):
        cfg = mlp.TrainConfig(lr=1e-3, epochs=self.epochs, batch=self.BATCH)
        steps = self.epochs * math.ceil(len(self.dataset) / self.BATCH)
        return [("train", lambda: mlp.train(self.dataset, cfg, seed=seed), steps)]

    def digest(self, rec: Record, result) -> None:
        model, losses = result
        init = mlp.xavier_model(model.dims, seed=rec.seed, scale=model.scale)
        for side in ("x_shift", "x_scale", "y_shift", "y_scale"):
            setattr(init, side, getattr(model, side))
        trained = mlp.mse_loss(model, self.x, self.y)
        start = mlp.mse_loss(init, self.x, self.y)
        rec.summary = {"first_loss": losses[0], "last_loss": losses[-1],
                       "mse_init": start, "mse_trained": trained}
        rec.fail(checks.training_problems(losses, self.epochs, trained, start))

    def finish(self, records, seed: int) -> list:
        return checks.gradient_problems(mlp)


# name -> (full size, tiny size used by the self-test)
WORKLOADS = {
    "fer-waterfall": (lambda: FerWaterfall(frames=25), lambda: FerWaterfall(frames=2)),
    "design-sweep": (DesignSweep, DesignSweep),
    "retry-pipeline": (lambda: RetryPipeline(frames=20), lambda: RetryPipeline(frames=4)),
    "regressor-train": (lambda: RegressorTrain(samples=200, epochs=100),
                        lambda: RegressorTrain(samples=20, epochs=100)),
}


def make(name: str, tiny: bool = False):
    return WORKLOADS[name][tiny]()

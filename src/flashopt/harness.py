"""Monte-Carlo experiment drivers.

Three entry points, each sweeping a grid of wear/retention conditions:

* run_fer: frame error rate of both logical pages under soft decoding,
  with thresholds chosen by any supported source.
* run_ccr: channel capacity region style summary, reporting the
  finite-blocklength achievable rate at each condition.
* run_pipeline: read-retry controller simulation; failed first reads
  trigger a network re-estimate of the thresholds and one retry.

run_fer and run_pipeline share one per-point set-up (condition,
reference quantizer, thresholds, LLR table), which alone picks the
thresholds from the source each driver sets; only their frame loops
differ.  The reference quantizer, a CIS at zero retention, is searched
once per wear level when a model is in play or the source is "cis-t0",
and a missing model or threshold file is reported before any work.
Sweep rows are dicts whose keys are the CSV header.

All randomness is keyed by (seed, point, frame) so any row of a sweep
can be reproduced in isolation and runs are byte-identical across
machines.  The drivers write no files; the CLI writes their rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import betainccinv, betaincinv

from .channel import (Condition, FlashParams, check_numbers, sample_wordline,
                      state_models)
from .fbl import achievable_rate, info_iu
from .ldpc import LdpcCode, PRESETS, build_code, encode, sp_decode
from .mlp import MlpModel, forward, histogram_features, load_model
from .optimizer import CisConfig, cis_optimize, mmi_optimize
from .quantizer import (PAGE_STATES, ThresholdSet, gray_state, hard_thresholds,
                        llr_table, quantize, transition_matrix)

SOURCES = ("hard", "mmi", "cis", "cis-t0", "dnn", "file")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for the sweep drivers.

    ``source`` None is "cis", except in run_pipeline, which starts from
    "cis-t0".  ``code_list`` and ``j_list``, when set, replace ``code``
    and ``cis.j_levels``, which must then keep their defaults.
    """

    code: str = "2k-qc"
    source: str | None = None
    pe_list: tuple = (15000.0,)
    t_list: tuple = (0.0,)
    frames: int = 2000
    i_max: int = 25
    seed: int = 0
    code_seed: int = 0
    max_frame_errors: int = 100
    rate_eps: float = 1e-4
    refresh_interval: int = 1000
    thresholds_file: str | None = None
    model_file: str | None = None
    code_list: tuple = ()
    j_list: tuple = ()
    params: FlashParams = field(default_factory=FlashParams)
    cis: CisConfig = field(default_factory=CisConfig)

    def __post_init__(self):
        check_numbers(self, ("frames", "i_max", "seed", "code_seed",
                             "max_frame_errors", "refresh_interval"), integral=True)
        check_numbers(self, ("rate_eps",))
        if self.source is not None and self.source not in SOURCES:
            raise ValueError(f"unknown threshold source {self.source!r}")
        if self.source == "file" and self.thresholds_file is None:
            raise ValueError("source 'file' needs thresholds_file")
        # a dataclass's class attributes are its fields' defaults
        if self.code_list and self.code != ExperimentConfig.code:
            raise ValueError("give code or code_list, not both")
        if self.j_list and self.cis.j_levels != CisConfig.j_levels:
            raise ValueError("give cis.j_levels or j_list, not both")
        for name in (self.code, *self.code_list):
            if name not in PRESETS:
                raise ValueError(f"unknown code {name!r}; presets are {', '.join(PRESETS)}")
        if self.frames < 1 or self.i_max < 1 or self.max_frame_errors < 1:
            raise ValueError("frames, i_max, and max_frame_errors must be positive")
        if not self.pe_list or not self.t_list:
            raise ValueError("pe_list and t_list must be nonempty")
        if not 0 < self.rate_eps < 1:
            raise ValueError("rate_eps must lie in (0, 1)")
        if self.refresh_interval < 0:
            raise ValueError("refresh_interval must be >= 0 (0 disables)")


@dataclass(frozen=True)
class PipelineStats:
    """Per-condition controller tallies."""

    frames: int
    first_pass_failures: int
    dnn_invocations: int
    bad_blocks: int

    def __post_init__(self):
        if not 0 <= self.bad_blocks <= self.first_pass_failures <= self.frames:
            raise ValueError("inconsistent tallies")

    @property
    def first_pass_fer(self) -> float:
        return self.first_pass_failures / self.frames

    @property
    def final_fer(self) -> float:
        return self.bad_blocks / self.frames

    def row(self, cond: Condition) -> dict:
        """The condition, the tallies and the two FERs, keyed by column name."""
        return {"n_pe": cond.n_pe, "t_ret": cond.t_ret, **vars(self),
                "first_pass_fer": self.first_pass_fer, "final_fer": self.final_fer}


def cp_interval(errors: int, trials: int):
    """Clopper-Pearson 95 % binomial confidence interval for an error count."""
    if not 0 <= errors <= trials or trials < 1:
        raise ValueError("need 0 <= errors <= trials with trials >= 1")
    alpha = 1.0 - 0.95  # not 0.05, which differs in the last bit
    lo = 0.0 if errors == 0 else float(betaincinv(errors, trials - errors + 1, alpha / 2))
    hi = 1.0 if errors == trials else float(betainccinv(errors + 1, trials - errors, alpha / 2))
    return lo, hi


def _repair_increasing(values: np.ndarray) -> np.ndarray:
    """Force a strictly increasing positive sequence (defensive nudge)."""
    out = np.sort(np.asarray(values, dtype=float))
    floor = 1e-6
    for i in range(out.size):
        if out[i] <= floor:
            out[i] = floor + 1e-9
        floor = out[i]
    return out


def predict_thresholds(model: MlpModel, features) -> ThresholdSet:
    """Network output as a usable threshold set."""
    return ThresholdSet(tuple(_repair_increasing(forward(model, features))))


def _load_model(cfg: ExperimentConfig, model, user: str) -> MlpModel:
    """``model``, else cfg.model_file's, for ``user``, which needs one with
    cfg.cis.j_levels outputs."""
    if model is None and cfg.model_file is not None:
        model = load_model(cfg.model_file)
    if model is None:
        raise ValueError(f"{user} needs a model (model or cfg.model_file)")
    if model.n_outputs != cfg.cis.j_levels:
        raise ValueError(f"model gives {model.n_outputs} thresholds; "
                         f"j_levels is {cfg.cis.j_levels}")
    return model


def _points(cfg: ExperimentConfig, spec, model):
    """Yield (point, condition, ref, state models, thresholds, LLR table)
    in point order, the thresholds from cfg.source, which the driver has
    set.  ``ref``, the wear level's zero-retention thresholds, is searched
    once per wear level when there is a model or the source is "cis-t0",
    else None.  A threshold file is read once, before the first point."""
    point = 0
    if cfg.source == "file":
        d = ThresholdSet.from_file(cfg.thresholds_file)
    for n_pe in cfg.pe_list:
        ref = None
        if model is not None or cfg.source == "cis-t0":
            ref = cis_optimize(Condition(n_pe, 0.0), cfg.params, spec.n, spec.rate,
                               cfg.cis)[0]
        for t_ret in cfg.t_list:
            cond = Condition(n_pe, t_ret)
            models = state_models(cond, cfg.params)
            if cfg.source == "hard":  # the three crossings, whatever cfg.cis.j_levels
                d = ThresholdSet(tuple(hard_thresholds(models)))
            elif cfg.source == "mmi":
                d = mmi_optimize(cond, cfg.params, cfg.cis)
            elif cfg.source == "cis":
                d = cis_optimize(cond, cfg.params, spec.n, spec.rate, cfg.cis)[0]
            elif cfg.source == "cis-t0":
                d = ref
            elif cfg.source == "dnn":  # one pilot block read at cond, histogrammed against ref
                pilot = np.random.default_rng((cfg.seed, 2, point))
                states = pilot.integers(0, 4, size=spec.n)
                volts = sample_wordline(states, cond, cfg.params, pilot)
                d = predict_thresholds(model, histogram_features(volts, ref))
            yield point, cond, ref, models, d, llr_table(models, d)
            point += 1


def _simulate_block(code: LdpcCode, cfg: ExperimentConfig, cond: Condition,
                    point: int, frame: int):
    """Encode two fresh pages, program, and read back cell voltages."""
    # Tagged streams: any frame of any sweep point reproduces in isolation.
    rng = np.random.default_rng((cfg.seed, 1, point, frame))
    info_m = rng.integers(0, 2, size=code.info_len, dtype=np.uint8)
    info_l = rng.integers(0, 2, size=code.info_len, dtype=np.uint8)
    code_m = encode(code, info_m)
    code_l = encode(code, info_l)
    states = gray_state(code_m, code_l)
    volts = sample_wordline(states, cond, cfg.params, rng)
    return code_m, code_l, volts


def _decode_block(code: LdpcCode, volts, d: ThresholdSet, table: np.ndarray,
                  code_m, code_l, i_max: int):
    """Both pages through the soft decoder, with the LLR table ``table``;
    True means block success."""
    llrs = table[quantize(volts, d)]
    bits_m, ok_m, _ = sp_decode(code, llrs[:, 0], i_max=i_max)
    if not (ok_m and np.array_equal(bits_m, code_m)):
        return False
    bits_l, ok_l, _ = sp_decode(code, llrs[:, 1], i_max=i_max)
    return ok_l and np.array_equal(bits_l, code_l)


def run_fer(cfg: ExperimentConfig, model: MlpModel | None = None):
    """Frame error rate sweep; returns one row dict per condition.

    A frame counts as an error when either page fails to converge or
    decodes to the wrong codeword.  Points stop early once
    cfg.max_frame_errors errors are in, so deep-FER points stay cheap.
    For source "dnn" each point featurizes one pilot block read at the
    true condition with zero-retention reference thresholds, mirroring
    how the controller would estimate wear state online.
    """
    cfg = replace(cfg, source=cfg.source or "cis")
    model = _load_model(cfg, model, "source 'dnn'") if cfg.source == "dnn" else None
    code = build_code(cfg.code, seed=cfg.code_seed)
    rows = []
    for point, cond, _, _, d, table in _points(cfg, code.spec, model):
        errors = 0
        for frame in range(cfg.frames):
            code_m, code_l, volts = _simulate_block(code, cfg, cond, point, frame)
            if not _decode_block(code, volts, d, table, code_m, code_l, cfg.i_max):
                errors += 1
                if errors >= cfg.max_frame_errors:
                    break
        rows.append({"source": cfg.source, "code": cfg.code,
                     "n_pe": float(cond.n_pe), "t_ret": float(cond.t_ret),
                     "frames": frame + 1, "errors": errors,
                     "fer": errors / (frame + 1)})
    return rows


def run_ccr(cfg: ExperimentConfig):
    """Achievable-rate sweep over codes, quantizer sizes, and conditions.

    Thresholds are re-optimized (CIS) at every point, each (code, J)
    block's points in one lockstep batch; the reported rate is the
    two-page average of the finite-blocklength achievable rate at target
    error cfg.rate_eps.  No parity matrices are built; only the preset
    blocklength and rate enter the calculation.
    """
    codes = cfg.code_list or (cfg.code,)
    j_values = cfg.j_list or (cfg.cis.j_levels,)
    rows = []
    for code_name in codes:
        spec = PRESETS[code_name]
        for j in j_values:
            cis_cfg = replace(cfg.cis, j_levels=j)
            block = tuple(Condition(n_pe, t_ret) for n_pe in cfg.pe_list for t_ret in cfg.t_list)
            for cond in block:
                d, _ = cis_optimize(cond, cfg.params, spec.n, spec.rate, cis_cfg, block=block)
                w = transition_matrix(state_models(cond, cfg.params), d)
                i, u = info_iu(w[PAGE_STATES].mean(axis=2), np.array([0.5, 0.5]))
                rates = [achievable_rate(spec.n, cfg.rate_eps, i[k], u[k]) for k in (0, 1)]
                rows.append({"code": code_name, "j_levels": j,
                             "n_pe": float(cond.n_pe), "t_ret": float(cond.t_ret),
                             "n": spec.n, "rate": np.mean(rates)})
    return rows


def run_pipeline(cfg: ExperimentConfig, model: MlpModel | None = None):
    """Read-retry controller: stale thresholds, retry via the network.

    Each point starts from thresholds chosen by cfg.source, by default
    "cis-t0": optimal for the wear level but blind to elapsed time.
    Every block is read with the current thresholds first; on failure the
    block's own voltage histogram, taken against the zero-retention
    reference quantizer, is pushed through the network and the block is
    retried once with the predicted thresholds.  A block failing both
    reads is bad.  The retry thresholds are not kept: the persistent set
    only changes at the refresh cadence (every cfg.refresh_interval
    blocks, using the latest block histogram), matching a controller
    that batches calibration.  LLR tables always come from the true condition's
    state statistics evaluated at whichever thresholds are active.
    """
    cfg = replace(cfg, source=cfg.source or "cis-t0")
    model = _load_model(cfg, model, "run_pipeline")
    code = build_code(cfg.code, seed=cfg.code_seed)
    results = []
    for point, cond, ref, models, current, table in _points(cfg, code.spec, model):
        first_fail = 0
        invocations = 0
        bad = 0
        for frame in range(cfg.frames):
            if cfg.refresh_interval and frame and frame % cfg.refresh_interval == 0:
                invocations += 1
                current = predict_thresholds(model, feats)
                table = llr_table(models, current)
            code_m, code_l, volts = _simulate_block(code, cfg, cond, point, frame)
            feats = histogram_features(volts, ref)
            if _decode_block(code, volts, current, table, code_m, code_l, cfg.i_max):
                continue
            first_fail += 1
            invocations += 1
            retry = predict_thresholds(model, feats)
            if not _decode_block(code, volts, retry, llr_table(models, retry),
                                 code_m, code_l, cfg.i_max):
                bad += 1
        results.append((cond, PipelineStats(frames=cfg.frames,
                                            first_pass_failures=first_fail,
                                            dnn_invocations=invocations,
                                            bad_blocks=bad)))
    return results

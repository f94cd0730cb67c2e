"""Output checks of the benchmark, computed apart from the program.

Each check returns a list of problems; an empty list means the output
passed.  The arithmetic here (GF(2) products, Clopper-Pearson bounds,
Gaussian tails, page channels, I/U, the normal approximation and log eps)
is written out again on purpose instead of calling flashopt's own
functions, so a fault in the program cannot hide behind itself.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betaincinv, log_ndtr, ndtr, ndtri

# State -> (msb, lsb) of the standard MLC Gray mapping.
GRAY_BITS = ((1, 1), (1, 0), (0, 0), (0, 1))
_LN2 = math.log(2.0)


def gf2_syndrome(h_dense: np.ndarray, word: np.ndarray) -> np.ndarray:
    """H c over GF(2), in integer arithmetic (no BLAS, no float rounding)."""
    return (h_dense.astype(np.int64) @ word.astype(np.int64)) & 1


def clopper_pearson(errors: int, trials: int, conf: float = 0.95):
    """Two-sided Clopper-Pearson interval from inverse regularized betas."""
    alpha = 1.0 - conf
    lo = 0.0 if errors == 0 else float(betaincinv(errors, trials - errors + 1, alpha / 2))
    hi = 1.0 if errors == trials else float(
        betaincinv(errors + 1, trials - errors, 1.0 - alpha / 2))
    return lo, hi


def _overlap(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


# -- fer-waterfall -------------------------------------------------------------

def fer_row_problems(row: dict, frames: int) -> list:
    """A row must report the frames it was asked for, 0 <= errors <= frames."""
    out = []
    if row["frames"] != frames:
        out.append(f"{row['code']} PE {row['n_pe']:g}: {row['frames']} frames, asked {frames}")
    if not 0 <= row["errors"] <= row["frames"]:
        out.append(f"{row['code']} PE {row['n_pe']:g}: errors {row['errors']} "
                   f"outside [0, {row['frames']}]")
    return out


def fer_wear_problems(totals: dict) -> list:
    """FER must not fall with wear beyond the overlap of 95 % intervals.

    ``totals`` maps PE -> (errors, frames) pooled over a run, one code.
    """
    out = []
    pes = sorted(totals)
    for a, b in zip(pes, pes[1:]):
        (ea, na), (eb, nb) = totals[a], totals[b]
        if ea / na > eb / nb and not _overlap(clopper_pearson(ea, na),
                                              clopper_pearson(eb, nb)):
            out.append(f"FER falls from PE {a:g} ({ea}/{na}) to PE {b:g} ({eb}/{nb})")
    return out


def codeword_problems(h_dense: np.ndarray, words) -> list:
    """Every codeword must have a zero syndrome."""
    bad = sum(bool(gf2_syndrome(h_dense, w).any()) for w in words)
    return [f"{bad} of {len(words)} codewords have a nonzero syndrome"] if bad else []


# -- design-sweep --------------------------------------------------------------

def _page_channels(models, d) -> np.ndarray:
    """(page, bit, region) masses of both pages' binary-input channels."""
    mu = np.array([m.mu for m in models])[:, None]
    sigma = np.array([m.sigma for m in models])[:, None]
    above = ndtr((mu - np.asarray(d, dtype=float)[None, :]) / sigma)   # P(v > d_j)
    edges = np.hstack((np.ones((4, 1)), above, np.zeros((4, 1))))
    w = np.maximum(edges[:, :-1] - edges[:, 1:], 0.0)
    bits = np.array(GRAY_BITS)
    return np.array([[w[bits[:, page] == b].mean(axis=0) for b in (0, 1)]
                     for page in (0, 1)])


def _info_stats(w: np.ndarray):
    """I and U in bits of each page's channel with a uniform input prior."""
    p_out = 0.5 * (w[:, 0] + w[:, 1])
    i = np.zeros(2)
    second = np.zeros(2)
    for b in (0, 1):
        ok = w[:, b] > 0.0
        dens = np.zeros_like(p_out)
        dens[ok] = np.log2(w[:, b][ok] / p_out[ok])
        i += 0.5 * (w[:, b] * dens).sum(axis=1)
        second += 0.5 * (w[:, b] * dens * dens).sum(axis=1)
    return i, np.maximum(second - i * i, 0.0)


def page_rate(models, d, n: int, eps: float) -> float:
    """Two-page mean of the normal-approximation rate at error eps."""
    i, u = _info_stats(_page_channels(models, d))
    rates = i - np.sqrt(u / n) * (-ndtri(eps)) + math.log2(n) / (2.0 * n)
    return float(rates.mean())


def log_eps(models, d, n: int, rate: float) -> float:
    """log of the two-page eps_max, exact in the deep tail via log_ndtr."""
    i, u = _info_stats(_page_channels(models, d))
    bracket = i - rate + math.log2(n) / (2.0 * n)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(u > 0.0, bracket * np.sqrt(n / np.where(u > 0.0, u, 1.0)),
                     np.sign(bracket) * np.inf)
    lq = log_ndtr(-t)
    return float(np.logaddexp(lq[0], lq[1]) - _LN2)


def rate_row_problems(row: dict, models, d, n: int, rate: float, eps: float,
                      step: float) -> list:
    """One designed condition: the rate lies in (0, 1) and matches the rate
    recomputed from the thresholds, and no one-grid-step move of a single
    threshold lowers log eps."""
    where = f"{row['code']} J {row['j_levels']} PE {row['n_pe']:g} t {row['t_ret']:g}"
    out = []
    if not 0.0 < row["rate"] < 1.0:
        out.append(f"{where}: rate {row['rate']} outside (0, 1)")
    again = page_rate(models, d, n, eps)
    if not abs(again - row["rate"]) <= 1e-9:
        out.append(f"{where}: rate {row['rate']!r} but the thresholds give {again!r}")
    d = np.asarray(d, dtype=float)
    base = log_eps(models, d, n, rate)
    tol = 1e-9 * max(1.0, abs(base))
    for j in range(d.size):
        for move in (-step, step):
            moved = d.copy()
            moved[j] += move
            if moved[0] <= 0.0 or np.any(np.diff(moved) <= 0.0):
                continue
            if log_eps(models, moved, n, rate) < base - tol:
                out.append(f"{where}: moving d{j + 1} by {move:+g} V lowers log eps")
    return out


def rate_trend_problems(rows) -> list:
    """Criterion 3's trends at every retention time: the rate falls with
    wear, J = 9 beats J = 6, and 4k-qc beats 2k-qc."""
    rate = {(r["code"], r["j_levels"], r["n_pe"], r["t_ret"]): r["rate"] for r in rows}
    codes = sorted({k[0] for k in rate})
    js = sorted({k[1] for k in rate})
    pes = sorted({k[2] for k in rate})
    ts = sorted({k[3] for k in rate})
    out = []
    for t in ts:
        for c in codes:
            for j in js:
                seq = [rate[c, j, pe, t] for pe in pes]
                if not all(a > b for a, b in zip(seq, seq[1:])):
                    out.append(f"t {t:g} {c} J {j}: rate does not fall with wear")
            for pe in pes:
                seq = [rate[c, j, pe, t] for j in js]
                if not all(a < b for a, b in zip(seq, seq[1:])):
                    out.append(f"t {t:g} {c} PE {pe:g}: more levels do not raise the rate")
        for j in js:
            for pe in pes:
                seq = [rate[c, j, pe, t] for c in ("2k-qc", "4k-qc") if c in codes]
                if not all(a < b for a, b in zip(seq, seq[1:])):
                    out.append(f"t {t:g} J {j} PE {pe:g}: the longer code does not win")
    return out


# -- retry-pipeline ------------------------------------------------------------

def pipeline_row_problems(stats, frames: int) -> list:
    """Tallies of one point: the frames asked for, 0 <= bad <= first-pass
    failures <= frames, and one network call per failed first read (the
    refresh cadence lies past the block count)."""
    out = []
    if stats.frames != frames:
        out.append(f"{stats.frames} blocks, asked {frames}")
    if not 0 <= stats.bad_blocks <= stats.first_pass_failures <= stats.frames:
        out.append(f"inconsistent tallies {stats}")
    if stats.dnn_invocations != stats.first_pass_failures:
        out.append(f"{stats.dnn_invocations} network calls for "
                   f"{stats.first_pass_failures} failed first reads")
    return out


def pipeline_fer_problems(stats, stale_errors: int, matched_errors: int) -> list:
    """First-pass failures are the stale thresholds' frame errors, and bad
    blocks the matched thresholds' frame errors, on the same frames."""
    out = []
    if stats.first_pass_failures != stale_errors:
        out.append(f"first-pass failures {stats.first_pass_failures}, "
                   f"stale-threshold FER errors {stale_errors}")
    if stats.bad_blocks != matched_errors:
        out.append(f"bad blocks {stats.bad_blocks}, matched-threshold FER "
                   f"errors {matched_errors}")
    return out


def recovery_problems(first: int, bad: int, frames: int) -> list:
    """Criterion 8: the final and first-pass 95 % intervals are separated."""
    lo_first = clopper_pearson(first, frames)[0]
    hi_final = clopper_pearson(bad, frames)[1]
    if bad < first and hi_final < lo_first:
        return []
    return [f"final {bad}/{frames} not separated from first pass {first}/{frames}"]


# -- regressor-train -----------------------------------------------------------

def training_problems(losses, epochs: int, mse_trained: float, mse_init: float) -> list:
    """Finite per-epoch losses, the last at most half the first, and a
    trained MSE below the MSE at the Xavier initialization."""
    out = []
    if len(losses) != epochs:
        out.append(f"{len(losses)} epoch losses for {epochs} epochs")
    if not all(math.isfinite(v) for v in losses):
        out.append("non-finite epoch loss")
    elif losses and not losses[-1] <= 0.5 * losses[0]:
        out.append(f"last loss {losses[-1]:.4g} not below half the first {losses[0]:.4g}")
    if not mse_trained < mse_init:
        out.append(f"trained MSE {mse_trained:.4g} not below initial {mse_init:.4g}")
    return out


def gradient_problems(mlp) -> list:
    """``mlp.backprop`` against central differences of ``mlp.mse_loss`` on a
    small net (criterion 7's check), worst relative error below 1e-4."""
    rng = np.random.default_rng(0)
    small = mlp.xavier_model((4, 8, 5, 3), seed=1)
    x = rng.uniform(0.0, 1.0, (6, 4))
    y = rng.uniform(0.1, 0.9, (6, 3))
    _, gw, gb = mlp.backprop(small, x, y)
    h = 1e-6
    worst = 0.0
    for layer in range(len(small.weights)):
        for arr, grads in ((small.weights[layer], gw[layer]),
                           (small.biases[layer], gb[layer])):
            flat = arr.reshape(-1)
            for k in rng.choice(flat.size, size=min(8, flat.size), replace=False):
                keep = flat[k]
                flat[k] = keep + h
                up = mlp.mse_loss(small, x, y)
                flat[k] = keep - h
                down = mlp.mse_loss(small, x, y)
                flat[k] = keep
                fd = (up - down) / (2.0 * h)
                g = grads.reshape(-1)[k]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-12))
    return [] if worst < 1e-4 else [f"backprop vs finite differences: {worst:.2e}"]

"""Finite-blocklength channel metrics.

For a discrete memoryless channel and a code of length n and rate R, the
normal approximation expresses the achievable rate and the block error
probability through the mutual information I, the unconditional
information variance U, and the statistic

    T = (I - R + log2(n) / (2n)) * sqrt(n / U).

All rates and information quantities here are in bits (base-2 logs),
matching code rates expressed in information bits per channel bit.

The arithmetic works on whole batches of channels: the threshold search
evaluates thousands of candidate channels at once, and one channel is a
batch of one.  A batch of channels is an array of input masses in
regions, (C, X, ..., R): C channels, X inputs, any batch axes, R regions.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, erfcinv

_SQRT2 = math.sqrt(2.0)


def q_func(x):
    """Standard Gaussian upper-tail probability Q(x)."""
    out = 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)
    return out if out.ndim else float(out)


def q_inv(p):
    """Inverse of q_func on (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("q_inv requires 0 < p < 1")
    out = _SQRT2 * erfcinv(2.0 * arr)
    return out if out.ndim else float(out)


def region_terms(w, prior):
    """Per-region contributions to I and to E[i^2] of each channel.

    ``w`` holds the inputs' masses in regions, (C, X, ...), and ``prior``
    the input probabilities.  Returns a (2, C, ...) array, I terms then
    E[i^2] terms; summed over regions they give I and E[i^2] in bits.
    Zero-mass cells contribute nothing.
    """
    joint = prior.reshape((-1,) + (1,) * (w.ndim - 2)) * w
    p_out = joint.sum(axis=1, keepdims=True)
    dens = np.log2(np.divide(w, p_out, out=np.ones_like(w), where=w > 0.0))
    terms = np.empty((2,) + w.shape)
    np.multiply(joint, dens, out=terms[0])
    np.multiply(terms[0], dens, out=terms[1])
    return terms.sum(axis=2)


def iu_from_sums(sums):
    """I and U from region terms summed over regions, (2, ...)."""
    i = sums[0]
    return i, np.maximum(sums[1] - i * i, 0.0)


def info_iu(w, prior):
    """I and U of each channel from its full region masses (C, X, ..., R)."""
    return iu_from_sums(region_terms(w, prior).sum(axis=-1))


def t_stat(n: int, rate: float, i, u):
    """Normal-approximation statistic T for a length-n rate-``rate`` code.

    ``i`` and ``u`` may be arrays; scalars give a float.  A zero variance
    makes the statistic infinite with the sign of the bracket (exactly
    zero bracket gives 0); tiny negative u from float cancellation is
    treated as zero.
    """
    if n < 1:
        raise ValueError("block length must be at least 1")
    i = np.asarray(i, dtype=float)
    u = np.asarray(u, dtype=float)
    low = u.min()
    if low < -1e-12:
        raise ValueError("information variance must be nonnegative")
    bracket = i - rate + math.log2(n) / (2.0 * n)
    if low > 0.0:
        t = bracket * np.sqrt(n / u)
    else:
        degenerate = u <= 0.0
        t = np.where(bracket == 0.0, 0.0, np.copysign(np.inf, bracket))
        t[~degenerate] = bracket[~degenerate] * np.sqrt(n / u[~degenerate])
    return t if t.ndim else float(t)


def eps_max(t_msb, t_lsb):
    """Worst-page-averaged decoding error probability from two T statistics."""
    return 0.5 * (q_func(t_msb) + q_func(t_lsb))


def achievable_rate(n: int, eps: float, i: float, u: float) -> float:
    """Rate achievable at error probability ``eps`` and block length ``n``."""
    if n < 1:
        raise ValueError("block length must be at least 1")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    if u < -1e-12:
        raise ValueError("information variance must be nonnegative")
    u = max(u, 0.0)
    return i - math.sqrt(u / n) * q_inv(eps) + math.log2(n) / (2.0 * n)

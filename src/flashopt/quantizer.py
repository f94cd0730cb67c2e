"""Read-region quantization of the flash voltage axis.

A set of J read thresholds splits the voltage axis into J+1 half-open
regions.  Sensing a cell returns only the region index, so the analog
channel collapses to a discrete memoryless channel with four inputs (the
charge states) and J+1 outputs.  This module builds that channel, the
Gray page table that groups its states into the two pages' bits, the
per-region LLR tables used by the soft decoder, and the classic
hard-decision thresholds at the pairwise density crossings.

Region masses come from one batch routine (Gaussian tails of groups of
states at many threshold rows at once) that the threshold search runs
directly; a transition matrix is that routine applied to one row with
each state its own group.  A page's binary channel is the mean of its
bit's two state rows, ``w[PAGE_STATES].mean(axis=2)`` for both pages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ldpc
from .channel import N_STATES, StateModel
from .fbl import q_func


@dataclass(frozen=True)
class ThresholdSet:
    """Ordered read thresholds d_1 < ... < d_J, all positive and finite."""

    d: tuple

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("thresholds must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(d)):
            raise ValueError(f"thresholds must be finite, got {tuple(d.tolist())}")
        if d[0] <= 0:
            raise ValueError("first threshold must be positive")
        if not np.all(np.diff(d) > 0):
            raise ValueError("thresholds must be strictly increasing")
        object.__setattr__(self, "d", tuple(float(x) for x in d))

    @property
    def j_levels(self) -> int:
        return len(self.d)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.d, dtype=float)

    @classmethod
    def from_file(cls, path) -> "ThresholdSet":
        """One value per line; blank lines and ``#`` comments are skipped."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.split("#", 1)[0].strip() for line in fh]
        try:
            return cls(tuple(float(line) for line in lines if line))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{v:.17g}\n" for v in self.d)


# Gray mapping of the four states to (msb, lsb): 11, 10, 00, 01, so that
# adjacent states differ in one bit.  PAGE_STATES[page, bit] lists the
# states whose bit on page 0 (MSB) or 1 (LSB) is ``bit``.
PAGE_STATES = np.array([[[2, 3], [0, 1]],
                        [[1, 2], [0, 3]]])
_STATE_OF = np.array([2, 3, 1, 0])  # state holding (msb, lsb), at 2 * msb + lsb


def gray_state(msb, lsb):
    """State index of bit arrays (or scalars) under the Gray mapping."""
    out = _STATE_OF[2 * np.asarray(msb, dtype=np.int64) + lsb]
    return out if out.ndim else int(out)


def _gaussian_crossing(a: StateModel, b: StateModel) -> float:
    """Voltage where the two densities are equal, strictly between the means."""
    if a.sigma == b.sigma:
        return 0.5 * (a.mu + b.mu)
    # p_a(v) = p_b(v) reduces to a quadratic in v.
    ia, ib = 1.0 / a.sigma**2, 1.0 / b.sigma**2
    qa = ia - ib
    qb = 2.0 * (b.mu * ib - a.mu * ia)
    qc = a.mu**2 * ia - b.mu**2 * ib - 2.0 * math.log(b.sigma / a.sigma)
    roots = np.roots([qa, qb, qc])
    roots = roots[np.abs(roots.imag) < 1e-9].real
    lo, hi = min(a.mu, b.mu), max(a.mu, b.mu)
    inside = [r for r in roots if lo < r < hi]
    if not inside:
        raise ValueError("densities do not cross between the state means")
    return float(inside[0])


def hard_thresholds(models) -> tuple:
    """Density-crossing read thresholds between adjacent states."""
    mus = [m.mu for m in models]
    if not all(mus[i] < mus[i + 1] for i in range(len(mus) - 1)):
        raise ValueError("state means must be strictly increasing")
    return tuple(_gaussian_crossing(models[i], models[i + 1]) for i in range(len(models) - 1))


def quantize(v, d: ThresholdSet):
    """Region index of voltage(s) ``v``: j such that v lies in [d_j, d_{j+1}).

    The leftmost region extends to -inf so retention-shifted negative
    samples stay representable; a sample exactly at d_j belongs to region j.
    """
    v = np.asarray(v, dtype=float)
    # counts the thresholds at or below v (NaN lies above all of them), as
    # np.searchsorted(side="right") does, in one pass per threshold: faster
    # than a binary search per reading on fresh random readings, from one
    # 2624-cell page to a 100 k-cell wordline
    out = np.zeros(v.shape, dtype=np.intp)
    for edge in d.d:
        out += ~(v < edge)
    return out if out.ndim else int(out)


def single_states(n_states: int) -> np.ndarray:
    """Groups for one channel whose inputs are the states themselves."""
    return np.arange(n_states).reshape(1, n_states, 1)


def input_tails(v, models, groups):
    """Tail mass above voltage(s) v of every channel input; (C, X, *v.shape).

    ``groups`` (C, X, G) names, for each of C channels, the states that
    input X averages (a page bit averages two states).
    """
    v = np.asarray(v, dtype=float)
    shape = (-1,) + (1,) * v.ndim
    mus = np.array([m.mu for m in models]).reshape(shape)
    sigmas = np.array([m.sigma for m in models]).reshape(shape)
    return q_func((v - mus) / sigmas)[groups].mean(axis=2)


def region_masses(tails):
    """Region masses from tails at J ordered thresholds: (..., J) -> (..., J+1)."""
    shape = tails.shape[:-1] + (1,)
    edges = np.concatenate((np.ones(shape), tails, np.zeros(shape)), axis=-1)
    return np.maximum(edges[..., :-1] - edges[..., 1:], 0.0)


def transition_matrix(models, d: ThresholdSet) -> np.ndarray:
    """Region masses of each state, (states, J+1): row s is the channel's
    transition row from state s (tail-difference masses)."""
    return region_masses(input_tails(d.as_array(), models, single_states(len(models))))[0]


def llr_table(models, d: ThresholdSet) -> np.ndarray:
    """Per-region LLRs, (J+1, 2): log of bit-1 mass over bit-0 mass, column
    0 for the MSB page and 1 for the LSB.

    Regions holding only bit-1 (or only bit-0) mass clamp to +-ldpc.L_MAX,
    read at call time, and an entirely empty region contributes 0 (no
    information).
    """
    if len(models) != N_STATES:
        raise ValueError(f"expected {N_STATES} state models")
    l_max = ldpc.L_MAX
    w = transition_matrix(models, d)
    num = w[PAGE_STATES[:, 1]].sum(axis=1)  # (page, region)
    den = w.sum(axis=0) - num
    both = (num > 0.0) & (den > 0.0)
    ratio = np.divide(num, den, out=np.ones_like(num), where=both)
    # math.log: numpy's vectorized log may differ from it in the last bit
    llr = np.fromiter(map(math.log, ratio.flat), float, ratio.size).reshape(ratio.shape)
    one_bit = l_max * (num > 0.0) - l_max * (den > 0.0)  # +-l_max, 0 if empty
    return np.where(both, np.clip(llr, -l_max, l_max), one_bit).T

"""Read-threshold design by cross iterative search.

The objective is the finite-blocklength maximum decoding-error
probability eps averaged over the two pages of an MLC cell.  The search
compares threshold sets by eps, or by logit(eps) taken from ``log_ndtr``
of both pages' T statistics wherever eps underflows to 0 or rounds to 1,
so that it stays informative in the deep tail and at saturation.

Thresholds live on the lattice of multiples of ``grid_step``.  The search
sweeps one threshold at a time over the lattice points within LAM of its
current value (clipped so the ordering never breaks) and moves it to the
best of them only when that strictly lowers the objective.  It stops
once every threshold has been tried since the last move, so that a
further sweep could move nothing, or after I_MAX sweeps; no threshold on
the objective's change is involved.

The best split of the J thresholds among the three state crossings
changes with wear and retention, so the search starts from several
points: the initial recipe and one start per split (k1, k2, k3) with
every k_i >= 1 (k_i thresholds centred on crossing i, delta/2 apart).
Only a start that does not round to positive, strictly increasing
lattice points is dropped.  All starts of all conditions run in
lockstep, one batch of (starts x candidates) per coordinate, and a move
re-evaluates only the two regions next to the moved threshold.  The
region terms kept for those moves also score the final points: each
condition's best final point wins, ties going to the smaller thresholds.

A mutual-information-maximizing variant of the same search provides the
classic baseline for comparison.  Every search runs through ``_search``:
``cis_optimize`` and ``cis_optimize_many`` for eps, ``mmi_optimize`` for
mutual information.  ``eps_max_batch`` scores any threshold rows by the
eps objective, with the same bits as a search's history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import log_ndtr

from .channel import Condition, FlashParams, check_numbers, state_models
from .fbl import eps_max, info_iu, iu_from_sums, region_terms, t_stat
from .quantizer import (PAGE_STATES, ThresholdSet, hard_thresholds,
                        input_tails, region_masses, single_states)

_LN2 = math.log(2.0)
LAM = 0.2    # half-width of the per-coordinate window [V]
I_MAX = 50   # sweep cap


@dataclass(frozen=True)
class CisConfig:
    """What a search run sets: the number of thresholds J and the lattice
    step [V], which must lie in (0, LAM]."""

    j_levels: int = 6
    grid_step: float = 0.01

    def __post_init__(self):
        check_numbers(self, ("j_levels",), integral=True)
        check_numbers(self, ("grid_step",))
        if self.j_levels < 1:
            raise ValueError("j_levels must be at least 1")
        if not 0 < self.grid_step <= LAM:
            raise ValueError(f"grid_step must lie in (0, {LAM}], got {self.grid_step}")


# -- objective evaluation -----------------------------------------------------
#
# Each objective reads the voltage axis through one or more channels whose
# inputs are groups of states (an MLC page averages two states per bit).
# quantizer.input_tails gives an input's tail mass above a voltage as the
# mean of its states' tails and quantizer.region_masses its region masses;
# fbl.region_terms splits the information sums into one term per region.
# The batch functions evaluate whole threshold rows; the search
# re-evaluates only the two regions a moved threshold bounds.  Arrays keep
# channels and inputs on the first two axes and the batch on the trailing
# axes, so every small reduction runs over whole contiguous blocks.
# `eps_max_batch` on a search's final row gives the same bits as the last
# entry of its history.

_HALF = np.array([0.5, 0.5])
_SLICE = 1024  # most candidates a lattice objective scores at once


def _eps_order(t: np.ndarray, cond: np.ndarray) -> np.ndarray:
    """Values that order the entries of t as eps_max(t[0], t[1]) does,
    never tied by underflow to 0 or rounding to 1.

    Entry i belongs to condition cond[i], nondecreasing in i.  Where every
    eps of a condition lies in [1e-300, 0.5], its values are eps itself;
    otherwise logit(eps): from eps itself within that range; below, where
    1 - eps is 1, from log_ndtr(-t); above, with log(1 - eps) from
    log_ndtr(t).  Only values from one condition in one call are comparable.
    """
    eps = eps_max(t[0], t[1])
    if eps.min() >= 1e-300 and eps.max() <= 0.5:
        return eps
    out = np.log(np.maximum(eps, 1e-300)) - np.log1p(-np.minimum(eps, 0.5))
    low = eps < 1e-300
    if low.any():
        up = log_ndtr(-t[:, low])
        out[low] = np.logaddexp(up[0], up[1]) - _LN2
    high = eps > 0.5
    if high.any():
        down = log_ndtr(t[:, high])
        out[high] = np.log(eps[high]) - np.logaddexp(down[0], down[1]) + _LN2
    if cond[0] != cond[-1]:  # conditions with every eps in range keep eps
        keep = (np.bincount(cond, ~((eps >= 1e-300) & (eps <= 0.5))) == 0)[cond]
        out[keep] = eps[keep]
    return out


def eps_max_batch(d_batch: np.ndarray, models, n: int, rate: float) -> np.ndarray:
    """Two-page eps_max for each row of threshold candidates."""
    w = region_masses(input_tails(np.atleast_2d(d_batch), models, PAGE_STATES))
    return eps_max(*t_stat(n, rate, *info_iu(w, _HALF)))


# -- search ------------------------------------------------------------------

def init_thresholds(h, j_levels: int) -> np.ndarray:
    """Initial thresholds spanning the hard-decision crossings h, for
    j_levels >= 3, which ``_starts`` checks.

    The recipe anchors d_1 one spacing below the first crossing and d_J
    one spacing above the last, leaving a double-width gap after d_1.
    The row may start at or below 0 V; the search drops such starts.
    """
    h1, h3 = h[0], h[-1]
    delta = (h3 - h1) / (j_levels - 1)
    d = np.empty(j_levels)
    d[0] = h1 - delta
    for j in range(2, j_levels):
        d[j - 1] = h1 + (j - 1) * delta
    d[-1] = h3 + delta
    return d


class _Lattice:
    """A region-additive objective of thresholds on the lattice k * step.

    Start s belongs to condition cond[s], with state models models[cond[s]].
    Input tail masses are tabulated per condition and lattice point, from 0
    up to a margin above the highest threshold reached so far (the table
    grows when a candidate passes it); point k of condition c sits at
    k * len(models) + c on the table's last axis.  The region terms of
    every start's thresholds are kept between calls.  ``stat`` maps the
    channels' (I, U) to one row per channel, and ``order`` maps those and
    the candidates' conditions to the value minimized.
    """

    def __init__(self, models, cond, step: float, groups, prior, stat, order):
        self.models, self.cond, self.step, self.groups = models, cond, step, groups
        self.prior, self.stat, self.order = prior, stat, order

    def _index(self, k: np.ndarray, cond: np.ndarray) -> np.ndarray:
        return k * len(self.models) + cond

    def _tabulate(self, size: int) -> None:
        """Extend the table to the lattice indices below ``size``; a tail is
        elementwise in its lattice point, so the table's length changes
        no bit of it."""
        lattice = np.arange(self._size, size) * self.step
        new = np.stack([input_tails(lattice, m, self.groups) for m in self.models], axis=-1)
        self._table = np.concatenate((self._table, new.reshape(new.shape[:2] + (-1,))),
                                     axis=-1)
        self._size = size

    def reset(self, k: np.ndarray, margin: int) -> None:
        """Start from the thresholds k (one row per start); the table keeps
        ``margin`` lattice points above the highest threshold it serves."""
        self._margin, self._size = margin, 0
        self._table = np.empty(self.groups.shape[:2] + (0,))
        self._tabulate(int(k.max()) + margin + 1)
        self._terms = region_terms(region_masses(np.take(
            self._table, self._index(k, self.cond[:, None]), axis=-1)), self.prior)

    def _moved_terms(self, at) -> np.ndarray:
        """Terms (2, C, 2, n) of the two regions the moved threshold bounds,
        for the last call's candidates at positions ``at``."""
        # ndarray.take: the same gathers as fancy indexing, at a fraction of the cost
        table = self._table
        tc = table.take(self._cand[at], axis=-1)
        w = np.empty(tc.shape[:2] + (2,) + tc.shape[2:])
        np.subtract(1.0 if self._above is None else table.take(self._above[at], axis=-1),
                    tc, out=w[:, :, 0])
        np.subtract(tc, 0.0 if self._below is None else table.take(self._below[at], axis=-1),
                    out=w[:, :, 1])
        return region_terms(np.maximum(w, 0.0, out=w), self.prior)

    def __call__(self, k: np.ndarray, j: int, sid: np.ndarray,
                 cand: np.ndarray) -> np.ndarray:
        """Objective of start sid[n] with threshold j moved to cand[n].

        Only the two regions that threshold j bounds are evaluated; the
        other regions' terms come from the kept terms of the current
        thresholds.  Candidates are scored in slices of at most _SLICE, so
        that only their new terms and statistics take memory per candidate;
        the call keeps just their table indices, for ``accept``.
        """
        top = int(cand.max())
        if top >= self._size:
            self._tabulate(top + self._margin + 1)
        kept = self._terms
        rest = kept[..., :j].sum(axis=-1) + kept[..., j + 2:].sum(axis=-1)
        kb = self._index(k, self.cond[:, None])
        cond = self.cond[sid]
        self._cand = self._index(cand, cond)
        self._above = kb[:, j - 1][sid] if j else None
        self._below = kb[:, j + 1][sid] if j + 1 < k.shape[1] else None
        stat = np.empty((self._table.shape[0], cand.size))
        for lo in range(0, cand.size, _SLICE):
            part = slice(lo, lo + _SLICE)
            new = self._moved_terms(part)
            stat[:, part] = self.stat(*iu_from_sums(
                rest.take(sid[part], axis=-1) + (new[:, :, 0] + new[:, :, 1])))
        return self.order(stat, cond)

    def accept(self, sid: np.ndarray, j: int, choice: np.ndarray) -> None:
        """Starts sid moved threshold j to the candidates at positions choice
        of the last call."""
        self._terms[:, :, sid, j:j + 2] = np.moveaxis(self._moved_terms(choice), 2, -1)

    def score(self) -> np.ndarray:
        """Objective of every start's current thresholds, from the kept terms."""
        return self.order(self.stat(*iu_from_sums(self._terms.sum(axis=-1))), self.cond)


def _descend(obj, starts: np.ndarray, grid_step: float):
    """Cyclic per-coordinate lattice descent from every row of ``starts``.

    All starts advance in lockstep, one (starts x candidates) batch per
    coordinate.  Coordinate j may take any lattice index within LAM of
    its own that stays strictly between its neighbours (and positive); it
    moves to the first best candidate only if that strictly improves on
    staying put.  A start stops once a full cycle of coordinates has
    passed without a move: a sweep from there on could move nothing.
    Returns the trail, every start's thresholds at the start and after
    each sweep (one array per sweep), and the sweep in which each start
    stopped; a stopped start's thresholds stay as they are.
    """
    k = starts.copy()
    n_starts, n_dim = k.shape
    steps = int(round(LAM / grid_step))
    offsets = np.arange(-steps, steps + 1)
    obj.reset(k, steps)  # one move reaches at most `steps` points
    trail = [k.copy()]
    last = np.full(n_starts, I_MAX)   # sweep in which each start stopped
    quiet = np.zeros(n_starts, dtype=np.int64)  # evaluations since the last move
    active = np.arange(n_starts)
    for sweep in range(1, I_MAX + 1):
        for j in range(n_dim):
            ka = k[active]
            cand = ka[:, j, None] + offsets
            ok = cand > (ka[:, j - 1, None] if j else 0)
            if j + 1 < n_dim:
                ok &= cand < ka[:, j + 1, None]
            flat = np.flatnonzero(ok)
            vals = np.full(cand.shape, np.inf)
            vals.flat[flat] = obj(k, j, np.take(active, flat // cand.shape[1]),
                                  np.take(cand, flat))
            best = np.argmin(vals, axis=1)
            better = vals[np.arange(active.size), best] < vals[:, steps]
            if better.any():
                chosen = np.flatnonzero(better) * cand.shape[1] + best[better]
                obj.accept(active[better], j, np.searchsorted(flat, chosen))
                k[active[better], j] = np.take(cand, chosen)
            streak = np.where(better, 0, quiet[active] + 1)
            quiet[active] = streak
            stop = streak >= n_dim
            if stop.any():
                last[active[stop]] = sweep
                active = active[~stop]
                if not active.size:
                    break
        trail.append(k.copy())
        if not active.size:
            break
    return trail, last


def _split_start(h, delta: float, split) -> np.ndarray:
    """k_i thresholds centred on crossing h[i], delta / 2 apart, per split k."""
    return np.concatenate([c + (np.arange(m) - (m - 1) / 2) * delta / 2
                           for c, m in zip(h, split)])


def _starts(models, cfg: CisConfig) -> np.ndarray:
    """Lattice indices of every valid start; one row per start."""
    j_levels = cfg.j_levels
    if j_levels < 3:
        raise ValueError(f"the search needs j_levels of at least 3, got {j_levels}")
    h = hard_thresholds(models)
    delta = (h[-1] - h[0]) / (j_levels - 1)
    starts = [init_thresholds(h, j_levels)]
    for k1 in range(1, j_levels - 1):
        for k2 in range(1, j_levels - k1):
            starts.append(_split_start(h, delta, (k1, k2, j_levels - k1 - k2)))
    k = np.rint(np.array(starts) / cfg.grid_step).astype(np.int64)
    k = k[(k[:, 0] >= 1) & np.all(np.diff(k, axis=1) > 0, axis=1)]
    if not len(k):
        raise ValueError(f"the first state crossing, {h[0]:.3g} V, lies below the first "
                         f"lattice point, {cfg.grid_step} V" if h[0] < cfg.grid_step else
                         f"grid_step {cfg.grid_step} is too coarse for {j_levels} levels")
    return k


def _search(models, cfg: CisConfig, groups, prior, stat, order) -> list:
    """For each condition's models, in order, the lattice path of its start
    that ends lowest (ties: smallest thresholds): its thresholds at the
    start and after each sweep."""
    starts = [_starts(m, cfg) for m in models]
    cond = np.repeat(np.arange(len(starts)), [len(s) for s in starts])
    obj = _Lattice(models, cond, cfg.grid_step, groups, prior, stat, order)
    trail, last = _descend(obj, np.concatenate(starts), cfg.grid_step)
    ends, score = trail[-1], obj.score()
    wins = [min(np.flatnonzero(cond == c), key=lambda s: (score[s], tuple(ends[s])))
            for c in range(len(starts))]
    return [np.array([step[s] for step in trail[:last[s] + 1]]) for s in wins]


def cis_optimize_many(conds, params: FlashParams, n: int, rate: float,
                      cfg: CisConfig = CisConfig()) -> list:
    """``cis_optimize`` at each condition, all searches in one lockstep
    batch; returns (thresholds, eps history) per condition, each the same
    as the condition's own search."""
    models = [state_models(c, params) for c in conds]
    paths = _search(models, cfg, PAGE_STATES, _HALF,
                    lambda i, u: t_stat(n, rate, i, u), _eps_order)
    return [(ThresholdSet(tuple(p[-1] * cfg.grid_step)),
             eps_max_batch(p * cfg.grid_step, m, n, rate).tolist())
            for p, m in zip(paths, models)]


# the last block's batch, reused by cis_optimize's calls for its conditions
_block_designs = lru_cache(maxsize=1)(cis_optimize_many)


def cis_optimize(cond: Condition, params: FlashParams, n: int, rate: float,
                 cfg: CisConfig = CisConfig(), seed: int = 0, block: tuple | None = None):
    """Minimize the two-page eps_max; returns thresholds and eps history.

    The history holds eps at the start and after each sweep of the
    winning start's search.  Given ``block``, a tuple of conditions holding
    cond, the first call searches the whole block in one lockstep batch and
    the calls for its other conditions reuse it, with the same results.
    ``seed`` changes nothing, as the search draws no random numbers; it
    stays only because perfbench's workloads pass it.
    """
    if block is None:
        return cis_optimize_many([cond], params, n, rate, cfg)[0]
    d, history = _block_designs(block, params, n, rate, cfg)[block.index(cond)]
    return d, list(history)


def mmi_optimize(cond: Condition, params: FlashParams,
                 cfg: CisConfig = CisConfig()) -> ThresholdSet:
    """Same search maximizing full-alphabet mutual information."""
    models = state_models(cond, params)
    prior = np.full(len(models), 1.0 / len(models))
    path, = _search([models], cfg, single_states(len(models)), prior,
                    lambda i, u: -i, lambda v, cond: v[0])
    return ThresholdSet(tuple(path[-1] * cfg.grid_step))

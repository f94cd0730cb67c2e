"""Quantizer and soft-information tests with quadrature oracles."""

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import norm

from flashopt import ldpc
from flashopt.channel import Condition, StateModel, state_models
from flashopt.quantizer import (PAGE_STATES, ThresholdSet, gray_state,
                                hard_thresholds, llr_table, quantize,
                                transition_matrix)

# state -> (msb, lsb) of the standard MLC Gray mapping
GRAY_BITS = ((1, 1), (1, 0), (0, 0), (0, 1))


def test_threshold_set_validation():
    with pytest.raises(ValueError):
        ThresholdSet((0.0, 1.0))
    with pytest.raises(ValueError):
        ThresholdSet((1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        ThresholdSet((2.0, 1.0))
    for bad in ((float("nan"),), (1.0, 2.0, float("inf")), (float("-inf"), 1.0)):
        with pytest.raises(ValueError, match="finite"):
            ThresholdSet(bad)
    d = ThresholdSet((1.0, 2.0, 3.0))
    assert d.j_levels == 3


def test_threshold_file_roundtrip(tmp_path):
    d = ThresholdSet((1.25, 2.5, 2.625, 3.75))
    path = tmp_path / "thresholds.txt"
    d.to_file(path)
    assert ThresholdSet.from_file(path) == d


def test_threshold_file_skips_comments(tmp_path):
    path = tmp_path / "thresholds.txt"
    path.write_text("# read levels\n1.5\n\n2.5 # mid\n3.5\n")
    assert ThresholdSet.from_file(path).d == (1.5, 2.5, 3.5)


def test_quantize_region_semantics():
    d = ThresholdSet((1.0, 2.0, 3.0))
    assert quantize(-5.0, d) == 0
    assert quantize(0.999, d) == 0
    # a sample exactly at a threshold belongs to the region it opens
    assert quantize(1.0, d) == 1
    assert quantize(2.5, d) == 2
    assert quantize(3.0, d) == 3
    assert quantize(100.0, d) == 3
    out = quantize(np.array([0.5, 1.0, 2.0, 9.0]), d)
    assert np.array_equal(out, [0, 1, 2, 3])


@pytest.mark.parametrize("j_levels", [1, 3, 6, 9, 15])
def test_quantize_equals_searchsorted(j_levels):
    rng = np.random.default_rng(j_levels)
    d = ThresholdSet(tuple(np.sort(rng.choice(np.arange(1, 500), j_levels, replace=False))
                           / 100.0))
    edges = d.as_array()
    v = np.concatenate([rng.normal(2.5, 1.5, 5000), edges, np.nextafter(edges, -np.inf),
                        [np.nan, np.inf, -np.inf, 0.0, -0.0]])
    expect = np.searchsorted(edges, v, side="right")
    assert np.array_equal(quantize(v, d), expect)
    assert [quantize(x, d) for x in v[-60:]] == expect[-60:].tolist()
    assert np.array_equal(quantize(v[:5000].reshape(-1, 5), d), expect[:5000].reshape(-1, 5))


def test_transition_matrix_matches_quadrature():
    models = state_models(Condition(9000.0, 300.0))
    d = ThresholdSet((1.8, 2.2, 2.6, 2.9, 3.2, 3.5))
    w = transition_matrix(models, d)
    edges = [-np.inf, *d.d, np.inf]
    for i, m in enumerate(models):
        for j in range(len(edges) - 1):
            lo = max(edges[j], m.mu - 14 * m.sigma)
            hi = min(edges[j + 1], m.mu + 14 * m.sigma)
            expect = 0.0
            if lo < hi:
                expect, _ = integrate.quad(lambda v: norm.pdf(v, m.mu, m.sigma), lo, hi)
            assert w[i, j] == pytest.approx(expect, abs=1e-10)


def test_transition_rows_sum_to_one():
    models = state_models(Condition(15000.0, 5000.0))
    w = transition_matrix(models, ThresholdSet((2.0, 3.0)))
    assert w.shape == (4, 3)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose((np.full(4, 0.25) @ w).sum(), 1.0, atol=1e-12)


def test_gray_mapping_fixed():
    assert PAGE_STATES.tolist() == [[[2, 3], [0, 1]], [[1, 2], [0, 3]]]
    for page in range(2):
        for bit in range(2):
            expect = [s for s in range(4) if GRAY_BITS[s][page] == bit]
            assert sorted(PAGE_STATES[page, bit]) == expect
    # adjacent states differ in exactly one bit
    for a, b in zip(GRAY_BITS[:-1], GRAY_BITS[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_gray_state_of_inverts_bits():
    msb = np.array([1, 1, 0, 0], dtype=np.uint8)
    lsb = np.array([1, 0, 0, 1], dtype=np.uint8)
    assert np.array_equal(gray_state(msb, lsb), [0, 1, 2, 3])
    assert gray_state(0, 1) == 3


def test_hard_thresholds_match_density_scan():
    models = state_models(Condition(10000.0, 1000.0))
    got = hard_thresholds(models)
    assert len(got) == 3
    for k, t in enumerate(got):
        a, b = models[k], models[k + 1]
        grid = np.linspace(a.mu, b.mu, 200_001)[1:-1]
        gap = np.abs(norm.pdf(grid, a.mu, a.sigma) - norm.pdf(grid, b.mu, b.sigma))
        best = grid[np.argmin(gap)]
        assert t == pytest.approx(best, abs=2e-5)
        assert a.mu < t < b.mu


def test_hard_threshold_equal_sigma_is_midpoint():
    a = StateModel(0, 1.0, 0.2)
    b = StateModel(1, 2.0, 0.2)
    got = hard_thresholds([a, b])
    assert got[0] == pytest.approx(1.5, abs=1e-12)


def test_llr_table_matches_quadrature():
    cond = Condition(9000.0, 300.0)
    models = state_models(cond)
    d = ThresholdSet(hard_thresholds(models))
    table = llr_table(models, d)
    edges = [-np.inf, *d.d, np.inf]

    def mass(m, lo, hi):
        lo = max(lo, m.mu - 14 * m.sigma)
        hi = min(hi, m.mu + 14 * m.sigma)
        if lo >= hi:
            return 0.0
        val, _ = integrate.quad(lambda v: norm.pdf(v, m.mu, m.sigma), lo, hi)
        return val

    for j in range(len(edges) - 1):
        for col, page in enumerate(("msb", "lsb")):
            ones = list(PAGE_STATES[col, 1])
            num = sum(0.25 * mass(models[s], edges[j], edges[j + 1]) for s in ones)
            den = sum(0.25 * mass(models[s], edges[j], edges[j + 1])
                      for s in range(4) if s not in ones)
            if num > 0 and den > 0:
                # quadrature loses digits on deep-tail masses, so allow a
                # small relative term on very large magnitudes
                assert table[j, col] == pytest.approx(np.log(num / den),
                                                      abs=1e-7, rel=1e-5)


def test_llr_monte_carlo_sanity():
    cond = Condition(8000.0, 100.0)
    models = state_models(cond)
    d = ThresholdSet(hard_thresholds(models))
    table = llr_table(models, d)
    rng = np.random.default_rng(11)
    states = rng.integers(0, 4, size=400_000)
    mus = np.array([m.mu for m in models])
    sigmas = np.array([m.sigma for m in models])
    volts = mus[states] + sigmas[states] * rng.standard_normal(states.size)
    regions = quantize(volts, d)
    msb = np.array([GRAY_BITS[s][0] for s in range(4)])[states]
    for j in range(d.j_levels + 1):
        sel = regions == j
        ones = np.count_nonzero(msb[sel])
        zeros = np.count_nonzero(sel) - ones
        if ones > 500 and zeros > 500:
            assert table[j, 0] == pytest.approx(np.log(ones / zeros), abs=0.08)


def test_llr_empty_region_is_zero():
    models = state_models(Condition(0.0, 0.0))
    # everything sits far below 50, so the top region has no mass at all
    table = llr_table(models, ThresholdSet((50.0, 60.0)))
    assert table[2, 0] == 0.0
    assert table[2, 1] == 0.0


def test_llr_clamped_to_l_max(monkeypatch):
    models = state_models(Condition(0.0, 0.0))
    d = ThresholdSet(hard_thresholds(models))
    strong = llr_table(models, d)
    assert strong.shape == (d.j_levels + 1, 2)
    assert np.max(np.abs(strong)) <= 30.0
    assert np.max(np.abs(strong)) > 2.5
    monkeypatch.setattr(ldpc, "L_MAX", 2.5)  # read at call time
    assert np.all(np.abs(llr_table(models, d)) <= 2.5 + 1e-12)


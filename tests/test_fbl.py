"""Normal-approximation arithmetic against independent references.

The binary-symmetric-channel constants and the t statistic value were
computed with mpmath at 40 digits; they double as regression pins.
"""

import numpy as np
import pytest

from flashopt.channel import Condition, state_models
from flashopt.fbl import achievable_rate, eps_max, info_iu, q_func, q_inv, t_stat
from flashopt.quantizer import (PAGE_STATES, ThresholdSet, hard_thresholds,
                                transition_matrix)

HALF = np.array([0.5, 0.5])


def bsc_iu(p):
    """I and U in bits of the binary symmetric channel with crossover p."""
    (i,), (u,) = info_iu(np.array([[[1 - p, p], [p, 1 - p]]]), HALF)
    return i, u


def test_q_func_values():
    assert q_func(0.0) == 0.5
    assert q_func(1.96) == pytest.approx(0.024997895148, abs=1e-12)
    x = np.linspace(-6, 6, 101)
    assert np.allclose(q_func(x) + q_func(-x), 1.0, atol=1e-14)
    assert q_func(40.0) == 0.0  # deep tail underflows cleanly


def test_q_inv_roundtrip():
    # Near p = 1 a double ulp (1.1e-16) spans about 1.8e-8 in x because
    # the density at |x| = 6 is 6.1e-9, so no double-valued pair can beat
    # roughly 9e-9 there; inside |x| <= 5 the roundtrip is essentially exact.
    x = np.linspace(-6.0, 6.0, 241)
    back = np.array([q_inv(q_func(v)) for v in x])
    err = np.abs(back - x)
    assert err.max() < 2e-8
    assert err[np.abs(x) <= 5.0].max() < 1e-10


def test_q_inv_domain():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            q_inv(bad)


def test_bsc_oracle_values():
    i, u = bsc_iu(0.1)
    assert i == pytest.approx(0.531004406411, abs=1e-10)
    assert u == pytest.approx(0.904358206329, abs=1e-10)


def test_perfect_and_useless_channels():
    (i,), (u,) = info_iu(np.eye(4)[None], np.full(4, 0.25))
    assert i == pytest.approx(2.0, abs=1e-12)
    assert u == pytest.approx(0.0, abs=1e-12)
    (i,), (u,) = info_iu(np.array([[[0.3, 0.7], [0.3, 0.7]]]), HALF)
    assert i == pytest.approx(0.0, abs=1e-12)
    assert u == pytest.approx(0.0, abs=1e-12)


def test_t_stat_frozen_value():
    # (1 - 0.9 + log2(2048)/4096) * sqrt(2048)
    assert t_stat(2048, 0.9, 1.0, 1.0) == pytest.approx(4.64701737761, abs=1e-9)


def test_t_stat_degenerate_variance():
    assert t_stat(1024, 0.5, 0.9, 0.0) == np.inf
    assert t_stat(1024, 0.99, 0.5, 0.0) == -np.inf
    n = 1024
    r_exact = 0.7 + np.log2(n) / (2 * n)
    assert t_stat(n, r_exact, 0.7, 0.0) == 0.0
    assert t_stat(n, r_exact, 0.7, -1e-14) == 0.0  # rounding noise tolerated
    with pytest.raises(ValueError):
        t_stat(1024, 0.5, 0.9, -1e-6)
    with pytest.raises(ValueError):
        t_stat(0, 0.5, 0.9, 1.0)


def test_eps_max_averages_pages():
    cond = Condition(12000.0, 500.0)
    models = state_models(cond)
    d = ThresholdSet(hard_thresholds(models))
    w = transition_matrix(models, d)
    # each page's binary channel: bit b's row is the mean of its two states' rows
    pages = w[PAGE_STATES].mean(axis=2)
    assert np.array_equal(pages[0, 1], 0.5 * (w[0] + w[1]))  # MSB bit 1: states 0, 1
    n, rate = 2624, 0.9
    ts = t_stat(n, rate, *info_iu(pages, HALF))
    got = eps_max(ts[0], ts[1])
    assert got == pytest.approx(0.5 * (q_func(ts[0]) + q_func(ts[1])), rel=1e-12)
    assert eps_max(np.inf, np.inf) == 0.0
    assert eps_max(-np.inf, np.inf) == 0.5


def test_achievable_rate_inverts_t_stat():
    i, u = bsc_iu(0.03)
    n = 2048
    t = t_stat(n, 0.75, i, u)
    eps = q_func(t)
    # feeding the resulting error target back recovers the rate
    assert achievable_rate(n, eps, i, u) == pytest.approx(0.75, abs=1e-9)


def test_achievable_rate_zero_variance():
    assert achievable_rate(1024, 1e-4, 0.8, 0.0) == pytest.approx(
        0.8 + np.log2(1024) / 2048, abs=1e-12)
    with pytest.raises(ValueError):
        achievable_rate(1024, 0.0, 0.8, 0.5)
    with pytest.raises(ValueError):
        achievable_rate(1024, 1.0, 0.8, 0.5)


def test_achievable_rate_decreasing_in_eps_strictness():
    i, u = bsc_iu(0.05)
    loose = achievable_rate(4096, 1e-2, i, u)
    tight = achievable_rate(4096, 1e-6, i, u)
    assert tight < loose < i + np.log2(4096) / 8192

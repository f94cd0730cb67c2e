"""Voltage model tests against high-precision reference values.

Frozen constants below were computed independently with mpmath at 40
digits from the closed-form noise expressions.
"""

import math

import numpy as np
import pytest

from flashopt.channel import (Condition, DEFAULT_PARAMS, FlashParams,
                              StateModel, drn_params, rtn_sigma,
                              sample_wordline, state_model, state_models)


def test_default_parameter_values():
    p = DEFAULT_PARAMS
    assert p.v_target == (1.4, 2.6, 3.2, 3.93)
    assert p.v_p == 0.2
    assert p.sigma_e == 0.34
    assert p.sigma_pn == 0.05


def test_params_validation():
    with pytest.raises(ValueError):
        FlashParams(v_target=(1.4, 2.6, 2.6, 3.93))
    with pytest.raises(ValueError):
        FlashParams(v_p=0.0)
    with pytest.raises(ValueError):
        FlashParams(sigma_e=-0.1)
    for kwargs in ({"v_p": "x"}, {"sigma_e": None}, {"alpha0": True},
                   {"v_target": (1.4, "2.6", 3.2, 3.93)}, {"v_target": 5}):
        with pytest.raises(ValueError):
            FlashParams(**kwargs)
    assert FlashParams(v_target=[1.4, 2.6, 3.2, 3.93]) == DEFAULT_PARAMS


def test_condition_validation():
    with pytest.raises(ValueError):
        Condition(-1.0, 0.0)
    with pytest.raises(ValueError):
        Condition(0.0, -5.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Condition(bad, 0.0)
        with pytest.raises(ValueError, match="finite"):
            Condition(0.0, bad)
    with pytest.raises(ValueError):
        Condition("8000", 0.0)


def test_rtn_sigma_frozen():
    # 0.00027 * 10000**0.64, mpmath 40-digit reference
    assert rtn_sigma(10000.0) == pytest.approx(0.0980310747879, abs=1e-12)
    assert rtn_sigma(4000.0) == pytest.approx(0.0545358590585, abs=1e-12)
    assert rtn_sigma(0.0) == 0.0


def test_drn_vanishes_fresh_and_erased():
    assert drn_params(0, Condition(10000, 1000.0)) == (0.0, 0.0)
    assert drn_params(3, Condition(10000, 0.0)) == (0.0, 0.0)
    assert drn_params(3, Condition(0.0, 1000.0)) == (0.0, 0.0)


def test_drn_frozen_reference():
    # state 3 at 1e4 cycles, 1e3 hours:
    # log(1001) * (3.93-1.4) * (1e-5*1e4**0.68 + 8e-5*1e4**0.52)
    mu_r, sig_r = drn_params(3, Condition(10000.0, 1000.0))
    assert mu_r == pytest.approx(0.259848360257, abs=1e-11)
    assert sig_r == pytest.approx(0.103939344103, abs=1e-11)


def test_state_models_frozen_reference():
    models = state_models(Condition(10000.0, 1000.0))
    m0, m3 = models[0], models[3]
    assert m0.mu == pytest.approx(1.4, abs=1e-12)
    assert m0.sigma == pytest.approx(0.35385038028, abs=1e-10)
    assert m3.mu == pytest.approx(3.57015163974, abs=1e-10)
    assert m3.sigma == pytest.approx(0.151371988415, abs=1e-10)


def test_programmed_state_mean_is_half_step_low():
    # fresh device: no retention or telegraph shifts, only the program
    # step offset and programming noise remain
    m = state_model(1, Condition(0.0, 0.0))
    assert m.mu == pytest.approx(2.6 - 0.1, abs=1e-15)
    assert m.sigma == pytest.approx(0.05, abs=1e-15)


def test_state_means_increase():
    for cond in (Condition(0, 0), Condition(8000, 100.0), Condition(15000, 1e4)):
        mus = [m.mu for m in state_models(cond)]
        assert np.all(np.diff(mus) > 0)


def test_sampling_moments_match_model():
    cond = Condition(10000.0, 1000.0)
    m = state_model(3, cond)
    v = sample_wordline(np.full(200_000, 3), cond, DEFAULT_PARAMS,
                        np.random.default_rng(7))
    assert np.mean(v) == pytest.approx(m.mu, abs=5 * m.sigma / np.sqrt(v.size))
    assert np.std(v) == pytest.approx(m.sigma, rel=0.01)


def test_sample_wordline_deterministic():
    states = np.array([0, 1, 2, 3, 3, 1])
    cond = Condition(5000.0, 10.0)
    a = sample_wordline(states, cond, DEFAULT_PARAMS, np.random.default_rng(42))
    b = sample_wordline(states, cond, DEFAULT_PARAMS, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert a.shape == states.shape


def test_sample_wordline_per_state_stats():
    rng = np.random.default_rng(3)
    states = rng.integers(0, 4, size=100_000)
    cond = Condition(8000.0, 50.0)
    v = sample_wordline(states, cond, DEFAULT_PARAMS, rng)
    for m in state_models(cond):
        sel = v[states == m.state]
        assert np.mean(sel) == pytest.approx(m.mu, abs=6 * m.sigma / np.sqrt(sel.size))


def test_state_model_validation():
    with pytest.raises(ValueError):
        StateModel(state=0, mu=1.0, sigma=0.0)
    with pytest.raises(ValueError):
        state_model(4, Condition(0, 0))

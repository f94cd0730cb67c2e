"""Voltage-domain model of a 2-bit MLC flash read channel.

Each cell stores one of four nominal charge states.  The readback voltage
of a cell is modelled as a Gaussian whose mean and spread depend on the
state, the program/erase cycle count, and the retention time:

  * the erased state keeps its wide erase distribution,
  * programmed states start as narrow Gaussians centred half a program
    step below their verify target,
  * random telegraph noise widens every state with cycling,
  * charge leakage during retention shifts programmed states downward and
    adds a proportional spread.

Cell-to-cell coupling from neighbouring wordlines is not modelled.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

N_STATES = 4


def _is_number(value, kind=numbers.Real) -> bool:
    """Whether ``value`` is a number of ``kind`` (booleans are not) and, unless
    an integer is asked for, a finite float."""
    if isinstance(value, bool) or not isinstance(value, kind):
        return False
    try:
        return kind is numbers.Integral or math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def check_numbers(obj, names, integral: bool = False) -> None:
    """Raise ValueError unless each named field of ``obj`` is a finite real
    number (an integer if ``integral``); booleans are neither."""
    kind, what = ((numbers.Integral, "an integer") if integral
                  else (numbers.Real, "a finite number"))
    for name in names:
        value = getattr(obj, name)
        if not _is_number(value, kind):
            raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class FlashParams:
    """Device constants of the voltage model.

    Defaults describe the 2-bit MLC reference device used throughout the
    package.
    """

    v_target: tuple = (1.4, 2.6, 3.2, 3.93)  # verify targets per state [V]
    v_p: float = 0.2          # incremental program step [V]
    sigma_e: float = 0.34     # erased-state spread [V]
    sigma_pn: float = 0.05    # programming noise spread [V]
    rtn_coeff: float = 0.00027  # telegraph-noise power-law scale
    rtn_exp: float = 0.64       # telegraph-noise power-law exponent
    beta0: float = 1e-5       # leakage cycling terms: amplitude ...
    beta1: float = 8e-5
    alpha0: float = 0.68      # ... and exponents
    alpha1: float = 0.52

    def __post_init__(self):
        check_numbers(self, ("v_p", "sigma_e", "sigma_pn", "rtn_coeff", "rtn_exp",
                             "beta0", "beta1", "alpha0", "alpha1"))
        if not isinstance(self.v_target, (tuple, list)) or not all(
                map(_is_number, self.v_target)):
            raise ValueError(f"v_target must be a list of finite numbers, got {self.v_target!r}")
        object.__setattr__(self, "v_target", tuple(self.v_target))
        if len(self.v_target) != N_STATES:
            raise ValueError(f"expected {N_STATES} verify targets, got {len(self.v_target)}")
        diffs = np.diff(np.asarray(self.v_target, dtype=float))
        if not np.all(diffs > 0):
            raise ValueError("verify targets must be strictly increasing")
        if self.v_p <= 0:
            raise ValueError("program step v_p must be positive")
        for name in ("sigma_e", "sigma_pn", "rtn_coeff"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class Condition:
    """Operating point: cycling count and retention time [hours]."""

    n_pe: float = 0.0
    t_ret: float = 0.0

    def __post_init__(self):
        check_numbers(self, ("n_pe", "t_ret"))
        if self.n_pe < 0:
            raise ValueError("cycle count n_pe must be nonnegative")
        if self.t_ret < 0:
            raise ValueError("retention time t_ret must be nonnegative")


@dataclass(frozen=True)
class StateModel:
    """Gaussian readback distribution of one charge state."""

    state: int
    mu: float     # mean [V]
    sigma: float  # standard deviation [V]

    def __post_init__(self):
        if not 0 <= self.state < N_STATES:
            raise ValueError(f"state index out of range: {self.state}")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


DEFAULT_PARAMS = FlashParams()


def rtn_sigma(n_pe: float, params: FlashParams = DEFAULT_PARAMS) -> float:
    """Telegraph-noise spread after ``n_pe`` program/erase cycles [V]."""
    if n_pe < 0:
        raise ValueError("n_pe must be nonnegative")
    return params.rtn_coeff * float(n_pe) ** params.rtn_exp


def drn_params(state: int, cond: Condition, params: FlashParams = DEFAULT_PARAMS):
    """Retention-loss mean shift and spread for one state, as ``(mu_r, sigma_r)``.

    The shift grows with the log of retention time and with the voltage
    distance from the erased state, scaled by a two-term cycling power
    law.  The erased state does not leak, so its shift is zero.
    """
    if not 0 <= state < N_STATES:
        raise ValueError(f"state must be in [0, {N_STATES})")
    dv = params.v_target[state] - params.v_target[0]
    wear = params.beta0 * cond.n_pe ** params.alpha0 + params.beta1 * cond.n_pe ** params.alpha1
    mu_r = math.log1p(cond.t_ret) * dv * wear
    return mu_r, 0.4 * abs(mu_r)


def state_model(state: int, cond: Condition, params: FlashParams = DEFAULT_PARAMS) -> StateModel:
    """Effective Gaussian for one state at the given operating point."""
    mu_r, sigma_r = drn_params(state, cond, params)
    s_rtn = rtn_sigma(cond.n_pe, params)
    if state == 0:
        mu = params.v_target[0] - mu_r
        var = params.sigma_e**2 + s_rtn**2 + sigma_r**2
    else:
        mu = params.v_target[state] - params.v_p / 2 - mu_r
        var = params.sigma_pn**2 + s_rtn**2 + sigma_r**2
    return StateModel(state, mu, math.sqrt(var))


def state_models(cond: Condition, params: FlashParams = DEFAULT_PARAMS):
    """All four state Gaussians at the given operating point."""
    return [state_model(s, cond, params) for s in range(N_STATES)]


def sample_wordline(states, cond: Condition, params: FlashParams, rng: np.random.Generator):
    """Vectorized draw: one voltage per entry of the state array ``states``."""
    states = np.asarray(states)
    if states.size and (states.min() < 0 or states.max() >= N_STATES):
        raise ValueError("state indices out of range")
    models = state_models(cond, params)
    mus = np.array([m.mu for m in models])
    sigmas = np.array([m.sigma for m in models])
    return mus[states] + sigmas[states] * rng.standard_normal(states.shape)

"""Participation analysis for the normal-noise threshold audit.

Risk-averse opt-out utility, the participation boundary gamma_bar, coverage
sweeps over (delta, sigma), and the shape analysis of the waiver cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import optimal_strategy, waiver_cost
from .types import GridSpec, TestFunction, ThresholdTest, VendorParams, _require_finite

_EXP_OVERFLOW = 700.0  # exp argument beyond this maps to the +inf sentinel
_GAMMA_CAP = 1e6  # gamma_bar reports +inf beyond this risk aversion


@dataclass(frozen=True)
class LiabilityModel:
    """Risk aversion gamma with loss moments mu_Z(x) = mu0/x, sigma_Z(x) = s0/x."""

    gamma: float
    mu0: float = 1.0
    s0: float = 1.5

    def __post_init__(self):
        _require_finite(gamma=self.gamma, mu0=self.mu0, s0=self.s0)
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if not self.mu0 > 0 or not self.s0 > 0:
            raise ValueError("mu0 and s0 must be positive")


def liability_loss(model: LiabilityModel, x):
    """Certainty-equivalent liability loss exp(gamma*mu_Z + gamma^2*sigma_Z^2/2).

    Diverges at x = 0; overflow is reported as +inf, never raised.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("effort x must be > 0 (loss diverges at x = 0)")
    g = model.gamma
    arg = g * model.mu0 / x + 0.5 * (g * model.s0 / x) ** 2
    val = np.where(arg > _EXP_OVERFLOW, np.inf, np.exp(np.minimum(arg, _EXP_OVERFLOW)))
    return float(val) if val.ndim == 0 else val


def opt_out_utility(model: LiabilityModel, params: VendorParams, x):
    """Expected utility of releasing without audit: R - c*x - liability loss."""
    loss = liability_loss(model, x)
    val = params.R - params.c * np.asarray(x, dtype=float) - loss
    return float(val) if np.ndim(val) == 0 else val


def max_opt_out_utility(model: LiabilityModel, params: VendorParams) -> tuple[float, float]:
    """Maximize the opt-out utility over effort.

    For gamma = 0 the supremum R - 1 is approached as x -> 0 and is returned
    with x_star = 0. For gamma > 0 the utility is concave, and its maximizer
    is the root of the first-order condition
    c = L(x) * (gamma*mu0/x^2 + gamma^2*s0^2/x^3), whose right side falls
    from +inf to 0. Safeguarded Newton finds the root in log x on the log of
    that condition, which neither overflows nor underflows for any finite gamma.
    Loss moments so far out that the search leaves the float range raise
    ValueError.
    """
    if model.gamma == 0.0:
        return params.R - 1.0, 0.0
    g, m, s = model.gamma, model.mu0, model.s0
    log_g, log_c = math.log(g), math.log(params.c)

    def h(t: float) -> tuple[float, float]:  # log(right side / c) at x = e^t, and its slope
        x = math.exp(t)
        r = g * s / x
        value = g * m / x + 0.5 * r * r + log_g + math.log(m * x + g * s * s) - 3.0 * t - log_c
        return value, -g * m / x - r * r + m * x / (m * x + g * s * s) - 3.0

    # the right side exceeds gamma*mu0/x^2 everywhere, and for x >= gamma*max(mu0, s0),
    # where L(x) <= e^1.5, it is below 4.5*gamma*(mu0 + s0)/x^2
    lo = 0.5 * (log_g + math.log(m) - log_c)
    hi = max(log_g + math.log(max(m, s)), 0.5 * (math.log(5.0) + log_g + math.log(m + s) - log_c))
    try:
        x_star = math.exp(_newton(h, lo, hi, 1e-12))
    except (OverflowError, ValueError):  # math.exp overflowed, or math.log met 0
        raise ValueError(
            f"loss moments out of range: mu0 = {m}, s0 = {s} (gamma = {g}) "
            "take the first-order condition outside the float range"
        ) from None
    return opt_out_utility(model, params, x_star), x_star


def _newton(f, lo: float, hi: float, rel_tol: float) -> float:
    """Root in [lo, hi] of a function that is positive left of it and not right of it.

    f(t) returns the value and the slope at t. Newton's method, safeguarded
    (Press et al., rtsafe): every evaluation tightens the bracket, and a
    step that leaves it or is not finite becomes a bisection step. Stops
    when a Newton step moves t by at most rel_tol * max(1, |t|), or when no
    float lies between the bracket's ends.
    """
    t = 0.5 * (lo + hi)
    while lo < t < hi:
        value, slope = f(t)
        lo, hi = (t, hi) if value > 0.0 else (lo, t)
        t_new = t - (value / slope if 0.0 < abs(slope) < math.inf else math.nan)
        if abs(t_new - t) <= rel_tol * max(1.0, abs(t)) and lo <= t_new <= hi:
            return t_new
        t = t_new if lo < t_new < hi else 0.5 * (lo + hi)  # a NaN step bisects too
    return t


def gamma_bar(
    test: ThresholdTest,
    mu0: float,
    s0: float,
    params: VendorParams,
    rel_tol: float = 1e-9,
) -> float:
    """Risk-aversion level at which opting in and opting out are indifferent.

    Returns 0 when the audit already beats the best possible opt-out utility
    (full coverage), +inf when no gamma below 1e6 makes the vendor
    participate, and otherwise the root of F(gamma) = U_out*(gamma) - U_in*,
    bracketed by doubling gamma from 1. F falls with slope
    -L(x*) * (mu0/x* + gamma*s0^2/x*^2), L(x*) = R - c*x* - U_out* (envelope
    theorem), and safeguarded Newton stops once a step moves gamma by at most
    rel_tol * max(1, gamma), or no float is left inside the bracket.
    """
    u_in = optimal_strategy(test, params).utility
    if u_in >= params.R - 1.0:
        return 0.0

    def f(g: float) -> tuple[float, float]:
        u_out, x = max_opt_out_utility(LiabilityModel(g, mu0, s0), params)
        loss, r = params.R - params.c * x - u_out, s0 / x
        return u_out - u_in, -loss * (mu0 / x + g * r * r)

    lo, hi = 0.0, 1.0
    while f(hi)[0] > 0.0:
        lo, hi = hi, 2.0 * hi
        if hi > _GAMMA_CAP:
            return math.inf
    return _newton(f, lo, hi, rel_tol)


@dataclass(frozen=True)
class CoverageCell:
    delta: float
    sigma: float
    gamma_bar: float  # +inf means the vendor never participates


def coverage_grid(
    delta_range, sigma_range, mu0: float, s0: float, params: VendorParams
) -> list[CoverageCell]:
    """gamma_bar over the cartesian product of delta and sigma values, row-major."""
    deltas = list(delta_range)
    sigmas = list(sigma_range)
    if not deltas or not sigmas:
        raise ValueError("delta and sigma ranges must be non-empty")
    LiabilityModel(0.0, mu0, s0)  # rejects bad loss moments before any cell is solved
    cells = []
    for d in deltas:
        for s in sigmas:
            gb = gamma_bar(ThresholdTest(delta=d, sigma=s), mu0, s0, params)
            cells.append(CoverageCell(delta=d, sigma=s, gamma_bar=gb))
    return cells


@dataclass(frozen=True)
class ShapeReport:
    """Sign-change locations of the second finite difference of the waiver cost."""

    transitions: tuple  # (x, kind) with kind "concave_to_convex" or "convex_to_concave"
    grid_step: float

    @property
    def concave_to_convex(self) -> tuple:
        return tuple(x for x, kind in self.transitions if kind == "concave_to_convex")


def ca_shape_report(
    test: TestFunction, params: VendorParams, grid: GridSpec
) -> ShapeReport:
    """Scan the waiver cost's curvature to locate risk-attitude transitions."""
    xs = grid.points()
    ca = waiver_cost(test, params, xs)
    d2 = ca[2:] - 2.0 * ca[1:-1] + ca[:-2]
    zero_tol = 1e-12 * max(1.0, params.R) * grid.step
    signs = np.sign(np.where(np.abs(d2) <= zero_tol, 0.0, d2))

    transitions = []
    prev = 0.0
    for i, s in enumerate(signs):
        if s == 0.0:
            continue
        if prev != 0.0 and s != prev:
            kind = "concave_to_convex" if s > 0 else "convex_to_concave"
            transitions.append((float(xs[i + 1]), kind))
        prev = s
    return ShapeReport(transitions=tuple(transitions), grid_step=grid.step)

"""Participation analysis for the normal-noise threshold audit.

Risk-averse opt-out utility, the participation boundary gamma_bar, coverage
sweeps over (delta, sigma), and the shape analysis of the waiver cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import golden_max, optimal_strategy, waiver_cost
from .types import GridSpec, TestFunction, ThresholdTest, VendorParams, _require_finite

_EXP_OVERFLOW = 700.0  # exp argument beyond this maps to the +inf sentinel


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
    arg = g * model.mu0 / x + 0.5 * g * g * (model.s0 / x) ** 2
    val = np.where(arg > _EXP_OVERFLOW, np.inf, np.exp(np.minimum(arg, _EXP_OVERFLOW)))
    return float(val) if val.ndim == 0 else val


def opt_out_utility(model: LiabilityModel, params: VendorParams, x):
    """Expected utility of releasing without audit: R - c*x - liability loss."""
    loss = liability_loss(model, x)
    val = params.R - params.c * np.asarray(x, dtype=float) - loss
    return float(val) if np.ndim(val) == 0 else val


def max_opt_out_utility(
    model: LiabilityModel, params: VendorParams, coarse_step: float = 1e-2
) -> tuple[float, float]:
    """Maximize the opt-out utility over effort.

    For gamma = 0 the supremum R - 1 is approached as x -> 0 and is returned
    with x_star = 0. For gamma > 0 the interior maximizer is located by a
    coarse grid (expanded rightward while the argmax sits on the edge)
    followed by golden-section refinement.
    """
    if model.gamma == 0.0:
        return params.R - 1.0, 0.0

    x_hi = params.rosi + 1.0
    while True:
        xs = np.arange(coarse_step, x_hi + coarse_step, coarse_step)
        u = opt_out_utility(model, params, xs)
        i = int(np.argmax(u))
        if i < len(xs) - 1 or x_hi > 1e6:
            break
        x_hi *= 2.0

    lo = xs[i - 1] if i > 0 else coarse_step * 1e-6
    hi = xs[i + 1] if i < len(xs) - 1 else xs[i]
    f = lambda x: opt_out_utility(model, params, x)
    x_star = golden_max(f, lo, hi)
    cands = [(x_star, f(x_star)), (float(xs[i]), float(u[i]))]
    x_star, u_star = max(cands, key=lambda t: t[1])
    return u_star, x_star


def gamma_bar(
    test: ThresholdTest,
    mu0: float,
    s0: float,
    params: VendorParams,
    gamma_cap: float = 1e6,
    rel_tol: float = 1e-9,
) -> float:
    """Risk-aversion level at which opting in and opting out are indifferent.

    Returns 0 when the audit already beats the best possible opt-out utility
    (full coverage), +inf when no gamma below gamma_cap makes the vendor
    participate, and otherwise the bisection root of
    U_out*(gamma) = U_in*.
    """
    u_in = optimal_strategy(test, params).utility
    if u_in >= params.R - 1.0:
        return 0.0

    def excess(g: float) -> float:
        u_out, _ = max_opt_out_utility(LiabilityModel(g, mu0, s0), params)
        return u_out - u_in

    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > gamma_cap:
            return math.inf
    lo = 0.0
    while hi - lo > rel_tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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

"""Participation analysis for the normal-noise threshold audit.

Risk-averse opt-out utility, the participation boundary gamma_bar, coverage
sweeps over (delta, sigma), and the shape analysis of the waiver cost.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import g_value, grid_peaks, refine_peaks, waiver_cost
from .types import GridSpec, TestFunction, ThresholdTest, VendorParams, default_grid
from .types import _require_finite, _threshold_pass

_EXP_OVERFLOW = 700.0  # exp argument beyond this maps to the +inf sentinel
_GAMMA_CAP = 1e6  # gamma_bar reports +inf beyond this risk aversion
_BLOCK_POINTS = 2**15  # grid points per block of cells in the opt-in grid pass


@dataclass(frozen=True)
class LiabilityModel:
    """Risk aversion gamma with loss moments mu_Z(x) = mu0/x, sigma_Z(x) = s0/x."""

    gamma: float
    mu0: float
    s0: float

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
    """Expected utility of releasing without audit: R - c*x - liability loss.

    Overflow is reported as -inf, never raised.
    """
    with np.errstate(over="ignore"):  # c*x and the sum overflow at extreme cost and effort
        val = params.R - params.c * np.asarray(x, dtype=float) - liability_loss(model, x)
    return float(val) if np.ndim(val) == 0 else val


def max_opt_out_utility(model: LiabilityModel, params: VendorParams) -> tuple[float, float]:
    """Maximize the opt-out utility over effort.

    For gamma = 0 the supremum R - 1 is approached as x -> 0 and is returned
    with x_star = 0. For gamma > 0 the utility is concave, and its maximizer
    is the root of the first-order condition c = L(x) * (a/x^2 + b^2/x^3),
    with a = gamma*mu0 and b = gamma*s0, whose right side falls from +inf to
    0. Safeguarded Newton finds the root in log x on the log of that
    condition. The condition depends on the model only through a and b, so
    it neither overflows nor underflows while a, b and b^2/a are normal
    floats; loss moments that take them outside that range raise ValueError.

    No solver calls it, and auditopt does not export it: it stays here only
    because bench/tracer.py wraps it by name, and goes once the bench drops it.
    """
    if model.gamma == 0.0:
        return params.R - 1.0, 0.0
    a, b = model.gamma * model.mu0, model.gamma * model.s0
    k = b * (b / a)  # the effort at which a/x^2 = b^2/x^3
    out_of_range = ValueError(
        f"loss moments out of range: mu0 = {model.mu0}, s0 = {model.s0} "
        f"(gamma = {model.gamma}) take the first-order condition outside the float range"
    )
    if not (min(a, b) >= sys.float_info.min and a + b + k < math.inf):
        raise out_of_range
    log_a, log_c = math.log(a), math.log(params.c)

    def h(t: float) -> tuple[float, float]:  # log(right side / c) at x = e^t, and its slope
        x = math.exp(t)
        r = b / x
        value = a / x + 0.5 * r * r + log_a + math.log(x + k) - 3.0 * t - log_c
        return value, -a / x - r * r + x / (x + k) - 3.0

    # the right side exceeds a/x^2 everywhere, and for x >= max(a, b), where
    # L(x) <= e^1.5, it is below 4.5*(a + b)/x^2
    lo = 0.5 * (log_a - log_c)
    hi = max(math.log(max(a, b)), 0.5 * (math.log(5.0) + math.log(a + b) - log_c))
    try:
        x_star = math.exp(_newton(h, lo, hi, 1e-12))
    except OverflowError:  # math.exp met an effort beyond float max (extreme cost)
        raise out_of_range from None
    # float arithmetic: opt_out_utility's value without its numpy overhead; an
    # overflow at extreme cost saturates to -inf without a warning
    return params.R - params.c * x_star - liability_loss(model, x_star), x_star


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


def _opt_in_utilities(tests: list, params: VendorParams) -> list:
    """Opt-in utility max(0, max_x G(x)) of every threshold test, as a list of floats.

    Each value equals optimal_strategy(test, params).utility bit for bit. G
    is evaluated on the default grid for blocks of tests at once, one row
    per test and at most _BLOCK_POINTS grid points per block (at least one
    row); a block keeps only its peak brackets, and stops two grid steps past
    its largest cut delta + z*sigma, so the block size bounds memory only up
    to the cut. There p >= 1/2 and phi(z) <= phi(z*), so G' <= -c + R(1-alpha)
    phi(z)/(sigma(1-alpha/2)^2) <= -1e-6*c: a peak cut off, or the window's
    last point, refines to no more than a kept peak. Every peak of every test
    is then refined by nested grids in one lockstep refine_peaks call.
    """
    deltas = np.array([t.delta for t in tests], dtype=float)
    sigmas = np.array([t.sigma for t in tests], dtype=float)
    grid = default_grid(params)
    xs = grid.points()
    rows = max(1, _BLOCK_POINTS // len(xs))
    a = params.alpha
    with np.errstate(divide="ignore", over="ignore"):  # z* = inf for a vanishing sigma
        phi_cut = math.sqrt(2.0 * math.pi) * params.c * (1.0 - a / 2) ** 2 * (1.0 - 1e-6) * sigmas
        z_cut = np.sqrt(np.maximum(0.0, -2.0 * np.log(phi_cut / (params.R * (1.0 - a)))))
        cuts = np.minimum(np.ceil((deltas + z_cut * sigmas) / grid.step) + 2, len(xs) - 1)
    blocks = []
    for first in range(0, len(deltas), rows):
        d, s = deltas[first:first + rows, None], sigmas[first:first + rows, None]
        window = xs[:int(max(cuts[first:first + rows].max(), 1.0)) + 1]
        row, bx, bu = grid_peaks(window, g_value(lambda x: _threshold_pass(x, d, s), params, window))
        blocks.append((row + first, bx, bu))
    cell, bx, bu = (np.concatenate(parts) for parts in zip(*blocks))
    d, s = deltas[cell, None], sigmas[cell, None]  # one row of samples per peak
    f = lambda x: g_value(lambda y: _threshold_pass(y, d, s), params, x)
    _, values = refine_peaks(f, bx, bu)
    # cell ascends, and every cell has a peak (both window ends are peaks)
    best = np.maximum.reduceat(values, np.searchsorted(cell, np.arange(len(deltas))))
    return np.maximum(best, 0.0).tolist()


def _indifference(u_in: float, mu0: float, s0: float, params: VendorParams) -> float:
    """gamma_bar for the opt-in utility u_in; see coverage_grid.

    At gamma_bar the opt-out optimum x meets two conditions. Indifference
    fixes the loss L = R - c*x - u_in, and the loss exponent
    gamma*mu0/x + gamma^2*s0^2/(2*x^2) = q = log L then gives gamma in closed
    form, gamma = 2*x*q/(w + mu0) with w = sqrt(mu0^2 + 2*s0^2*q). The
    first-order condition becomes 2*L*q*w = c*x*(w + mu0), with no exp and no
    inner solve. With y = R - 1 - u_in its root in u = c*x lies in (y/2, y):
    at y/2, (1 + u)*log(1 + u) > u and w > mu0 make the left side larger, and
    at y, q = 0. One safeguarded Newton finds it in log u on the log of the
    condition and stops at float resolution. Both moments are divided by
    the larger one, so moments anywhere in the float range neither overflow
    nor give NaN, and gamma(k*mu0, k*s0) = gamma(mu0, s0)/k holds bit for bit
    for k a power of 2 while gamma and both moments are normal floats.
    """
    y = params.R - 1.0 - u_in
    if y <= 0.0:
        return 0.0
    scale = max(mu0, s0)
    m, s = mu0 / scale, s0 / scale

    def terms(t: float) -> tuple[float, float, float]:  # u = e^t, q = log L and w/scale
        u = math.exp(t)
        q = math.log1p(y - u)
        return u, q, math.hypot(m, s * math.sqrt(2.0 * max(q, 0.0)))

    def h(t: float) -> tuple[float, float]:  # log(2*L*q*w / (u*(w + mu0))) and its slope
        u, q, w = terms(t)
        if not q > 0.0:  # u rounds to y, the right end of the bracket
            return -math.inf, -1.0
        value = q + math.log(2.0 * q) - t - math.log1p(m / w)
        return value, -1.0 - u / (1.0 + (y - u)) * (1.0 + 1.0 / q + m * s * s / (w * w * (w + m)))

    u, q, w = terms(_newton(h, math.log(0.5 * y), math.log(y), sys.float_info.epsilon))
    # gamma = 2*q/(m + w) * u/(c*scale), with the powers of 2 of u, c and scale
    # kept apart so that no step overflows or underflows
    (fu, eu), (fc, ec), (fs, es) = math.frexp(u), math.frexp(params.c), math.frexp(scale)
    try:
        gamma = math.ldexp(2.0 * q / (m + w) * fu / (fc * fs), eu - ec - es)
    except OverflowError:
        return math.inf
    return math.inf if gamma > _GAMMA_CAP else max(gamma, math.ulp(0.0))


@dataclass(frozen=True)
class CoverageCell:
    delta: float
    sigma: float
    gamma_bar: float  # +inf means the vendor never participates


def coverage_grid(
    delta_range, sigma_range, mu0: float, s0: float, params: VendorParams
) -> list[CoverageCell]:
    """gamma_bar over the cartesian product of delta and sigma values, row-major.

    A cell's gamma_bar is the risk aversion at which opting in and opting out
    are indifferent: 0 when the audit already beats the best opt-out utility
    (full coverage), +inf above 1e6 (the vendor practically never
    participates), else the root of U_out*(gamma) = U_in* to float
    resolution; a positive root below the smallest float reads 5e-324. Every
    U_in* = optimal_strategy(test, params).utility comes from one grid pass,
    in blocks of at most 2^15 grid points (at least one cell) cut past
    delta + z*sigma, right of which G' <= -1e-6*c (_opt_in_utilities), and
    one lockstep nested-grid refinement of every cell's peaks. Each gamma_bar
    is then one scalar root (_indifference), no opt-out solve. Memory grows
    by a few floats per cell, and per block only up to the cut. Loss moments
    that are not finite and positive raise ValueError, at full coverage too.
    """
    deltas = list(delta_range)
    sigmas = list(sigma_range)
    if not deltas or not sigmas:
        raise ValueError("delta and sigma ranges must be non-empty")
    LiabilityModel(0.0, mu0, s0)  # rejects bad loss moments before any cell is solved
    tests = [ThresholdTest(delta=d, sigma=s) for d in deltas for s in sigmas]
    u_ins = _opt_in_utilities(tests, params)
    return [
        CoverageCell(t.delta, t.sigma, _indifference(u_in, mu0, s0, params))
        for t, u_in in zip(tests, u_ins)
    ]


def gamma_bar(test: ThresholdTest, mu0: float, s0: float, params: VendorParams) -> float:
    """Risk-aversion level at which opting in and opting out are indifferent.

    The one-cell case of coverage_grid, which defines the result. It scales
    as 1/mu0 at a fixed ratio s0/mu0.
    """
    return coverage_grid([test.delta], [test.sigma], mu0, s0, params)[0].gamma_bar


@dataclass(frozen=True)
class ShapeReport:
    """Sign-change locations of the second finite difference of the waiver cost."""

    transitions: tuple  # (x, kind) with kind "concave_to_convex" or "convex_to_concave"


def ca_shape_report(
    test: TestFunction, params: VendorParams, grid: GridSpec
) -> ShapeReport:
    """Scan the waiver cost's curvature to locate risk-attitude transitions."""
    xs = grid.points()
    ca = waiver_cost(test, params, xs)
    d2 = ca[2:] - 2.0 * ca[1:-1] + ca[:-2]
    zero_tol = 1e-12 * params.R * grid.step
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
    return ShapeReport(transitions=tuple(transitions))

"""Participation analysis for the normal-noise threshold audit.

Risk-averse opt-out utility, the participation boundary gamma_bar, coverage
sweeps over (delta, sigma), in which each cell is three scalar roots and no
effort grid, and the shape analysis of the waiver cost.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import g_value, waiver_cost
from .types import GridSpec, TestFunction, ThresholdTest, VendorParams, _require_finite

_EXP_OVERFLOW = 700.0  # exp argument beyond this maps to the +inf sentinel
_GAMMA_CAP = 1e6  # gamma_bar reports +inf beyond this risk aversion
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


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


def _opt_in_utility(delta: float, sigma: float, params: VendorParams) -> float:
    """Opt-in utility max(0, max_x G(x)) of the threshold test (delta, sigma).

    With z = (x - delta)/sigma, D = 1 - alpha + alpha*Phi(z) and r = phi(z)/D,
    G' > 0 exactly when h(z) = log phi(z) - 2*log D exceeds k = log(c*sigma/R)
    - log(1 - alpha). h has one mode: h'(z) = -z - 2*alpha*r runs from +inf
    (D >= 1 - alpha) to -inf, and at its zeros r' = -z*r - alpha*r^2 =
    alpha*r^2, so h'' = -1 - 2*alpha^2*r^2 < 0 and there is only one. So on
    x >= 0, G peaks at 0 or at x_r = delta + sigma*z_r, z_r the root of h = k
    right of the mode, which counts only in (0, R/c), as G(x) <= R - c*x; G
    is also read at the next float, where p jumps to 1 if sigma is below the
    float spacing at x_r. Safeguarded Newton finds the mode in [-sqrt(1 +
    2*max(0, log(alpha/(1 - alpha)))), 0], where h' changes sign, and z_r in
    [mode, 2*b - mode], from its midpoint b = sqrt(2*max(0, C - k)) >= z_r:
    h(z) <= C - z^2/2 on z >= 0 with C = -log sqrt(2*pi) - 2*log(1 -
    alpha/2). Each stops at a step of 1e-12*max(1, |z|), and the value lies
    within 1e-14*R of optimal_strategy(test, params).utility. Scaling (R, c)
    or (delta, sigma, 1/c) by 2^j keeps c*sigma/R, and so every root.
    """
    a = params.alpha
    cs = params.c * sigma
    if all(sys.float_info.min <= v < math.inf for v in (cs, cs / params.R)):
        k = math.log(cs / params.R) - math.log1p(-a)
    else:  # c*sigma or c*sigma/R leaves the normal floats
        k = math.log(params.c) + math.log(sigma) - math.log(params.R) - math.log1p(-a)

    def h(z: float) -> tuple[float, float, float]:  # h(z) - k, h'(z) and h''(z)
        log_d = math.log(1.0 - a + a * 0.5 * math.erfc(-z / _SQRT2))
        log_phi = -0.5 * z * z - _LOG_SQRT_2PI
        r = math.exp(log_phi - log_d)
        return log_phi - 2.0 * log_d - k, -z - 2.0 * a * r, -1.0 + 2.0 * a * r * (z + a * r)

    lo = -math.sqrt(1.0 + 2.0 * max(0.0, math.log(a) - math.log1p(-a)))
    mode = _newton(lambda z: h(z)[1:], lo, 0.0, 1e-12)
    xs = [0.0]
    if h(mode)[0] > 0.0:
        b = math.sqrt(2.0 * max(0.0, -_LOG_SQRT_2PI - 2.0 * math.log1p(-0.5 * a) - k))
        x_r = delta + sigma * _newton(lambda z: h(z)[:2], mode, 2.0 * b - mode, 1e-12)
        if 0.0 < x_r < params.rosi:
            xs += [x_r, math.nextafter(x_r, math.inf)]
    return max(0.0, float(np.max(g_value(ThresholdTest(delta, sigma), params, xs))))


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
    resolution; a positive root below the smallest float reads 5e-324. Each
    U_in* is two scalar roots with no effort grid (_opt_in_utility), within
    1e-14*R of optimal_strategy(test, params).utility, and each gamma_bar one
    more (_indifference), no opt-out solve; cells are solved one at a time.
    A delta that is not finite, or a sigma or loss moment that is not finite
    and positive, raises ValueError before any cell is solved.
    """
    deltas = list(delta_range)
    sigmas = list(sigma_range)
    if not deltas or not sigmas:
        raise ValueError("delta and sigma ranges must be non-empty")
    LiabilityModel(0.0, mu0, s0)  # rejects bad loss moments before any cell is solved
    if not all(map(math.isfinite, deltas)) or not all(0.0 < s < math.inf for s in sigmas):
        raise ValueError("every delta must be finite and every sigma finite and positive")
    return [
        CoverageCell(d, s, _indifference(_opt_in_utility(d, s, params), mu0, s0, params))
        for d in deltas for s in sigmas
    ]


def gamma_bar(test: ThresholdTest, mu0: float, s0: float, params: VendorParams) -> float:
    """Risk-aversion level at which opting in and opting out are indifferent.

    The one-cell case of coverage_grid, which defines the result: its opt-in
    utility lies within 1e-14*R of optimal_strategy(test, params).utility.
    It scales as 1/mu0 at a fixed ratio s0/mu0.
    """
    return coverage_grid([test.delta], [test.sigma], mu0, s0, params)[0].gamma_bar


def ca_shape_report(test: TestFunction, params: VendorParams, grid: GridSpec) -> tuple:
    """Risk-attitude transitions of the waiver cost on the grid, as a tuple of (x, kind).

    One pair per sign change of the waiver cost's second finite difference,
    in ascending x: kind is "concave_to_convex" or "convex_to_concave", and
    x is the centre of the first difference with the new sign. Differences
    within 1e-15 * R of 0, a band in money alone, carry no sign.
    """
    xs = grid.points()
    ca = waiver_cost(test, params, xs)
    d2 = ca[2:] - 2.0 * ca[1:-1] + ca[:-2]
    signs = np.sign(np.where(np.abs(d2) <= 1e-15 * params.R, 0.0, d2))

    transitions = []
    prev = 0.0
    for i, s in enumerate(signs):
        if s == 0.0:
            continue
        if prev != 0.0 and s != prev:
            kind = "concave_to_convex" if s > 0 else "convex_to_concave"
            transitions.append((float(xs[i + 1]), kind))
        prev = s
    return tuple(transitions)

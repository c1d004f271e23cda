"""Vendor's optimal-stopping problem under a static audit.

Closed-form net utility G, the waiver-cost decomposition, the optimal
investment strategy, and an independent value-iteration oracle that
verifies the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import GridSpec, Schedule, TestFunction, VendorParams, default_grid

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BRACKET = np.array([0, -1, 1])  # grid offsets of a peak, its left and its right neighbour
_ZOOM = 16  # a refinement pass samples 2*_ZOOM + 1 points and shrinks its step by _ZOOM
_OFFSETS = np.arange(-_ZOOM, _ZOOM + 1) / _ZOOM


def g_value(test: TestFunction, params: VendorParams, x):
    """Net expected discounted utility of a one-time investment x under a static audit.

    G(x) = -c*x + p(x)*R / (1 - alpha + alpha*p(x)).
    """
    x = np.asarray(x, dtype=float)
    if np.count_nonzero(x < 0):  # np.any costs more on the small arrays of refine_peaks
        raise ValueError("effort x must be >= 0")
    p = test(x)
    val = -params.c * x + p * params.R / (1.0 - params.alpha + params.alpha * p)
    return float(val) if val.ndim == 0 else val


def waiver_cost(test: TestFunction, params: VendorParams, x):
    """One-time fee equivalent of the audit: R - c*x - G(x).

    Equals (1-alpha)*(1-p(x))*R / (1 - alpha + alpha*p(x)); lies in [0, R].
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("effort x must be >= 0")
    p = test(x)
    a = params.alpha
    val = (1.0 - a) * (1.0 - p) * params.R / (1.0 - a + a * p)
    return float(val) if val.ndim == 0 else val


def golden_max(f, a, b, tol: float = 1e-9):
    """Golden-section maximization of f on [a, b]; assumes a single interior peak.

    a and b may be arrays of brackets, refined in lockstep: f is called with
    an array of their shape, entry i inside bracket i, and answers entry by
    entry. Each bracket stops once its own width is at most tol, so each
    result equals a scalar call on that bracket. A bracket also stops when a
    step leaves its width unchanged, which happens once tol is below the
    spacing of the floats around it. Scalar brackets give a float.

    No solver calls it: refine_peaks refines by nested grids, in fewer and
    larger calls of f. It is kept as a refinement that shares no code with
    refine_peaks, for the acceptance criteria that check the solvers, and
    because bench/tracer.py wraps it by name.
    """
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(a, b))
    w = b - a
    c = b - _GOLDEN * w
    d = a + _GOLDEN * w
    fc, fd = f(c), f(d)
    live = w > tol
    while np.count_nonzero(live):
        left = fc > fd  # the peak lies in [a, d]
        np.copyto(b, d, where=left & live)
        np.copyto(a, c, where=live > left)  # live and not left
        w_new = b - a
        step = _GOLDEN * w_new
        new = np.where(left, b - step, a + step)
        f_new = f(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
        live = (w_new > tol) & (w_new < w)
        w = w_new
    mid = 0.5 * (a + b)
    return float(mid) if mid.ndim == 0 else mid


def grid_peaks(xs: np.ndarray, u: np.ndarray):
    """Every local maximum of each row of u on the grid xs, endpoints included.

    u has shape (k, n), one row per function sampled on xs. Returns each
    peak's row and its bracket: the grid points (peak, left neighbour, right
    neighbour), clipped to the grid, and their values, as (m, 3) arrays.
    """
    n = u.shape[1]
    peak = np.ones(u.shape, dtype=bool)
    peak[:, 1:-1] = (u[:, 1:-1] >= u[:, :-2]) & (u[:, 1:-1] >= u[:, 2:])
    row, i = np.divmod(np.flatnonzero(peak), n)  # np.nonzero is slower on 2-D
    j = np.minimum(np.maximum(i[:, None] + _BRACKET, 0), n - 1)
    return row, xs[j], u[row[:, None], j]


def refine_peaks(f, bx: np.ndarray, bu: np.ndarray):
    """Refine the peak brackets of grid_peaks by nested grids over their two cells.

    Each pass calls f once on an (m, 2*_ZOOM + 1) array, row i sampling
    x_i + h_i*k/_ZOOM for k = -_ZOOM.._ZOOM, clipped to bracket i, and f
    answers entry by entry. h starts at the larger of the peak's two cells.
    A sample strictly better than the peak replaces it (the earliest on a
    tie), so a value never drops, and h shrinks by _ZOOM. Each peak stops on
    its own once h is at most tol/2 = 5e-10, so a lockstep call gives every
    peak the result of a call on it alone: 6 passes on a 1e-3 grid. Returns
    the peaks' positions and values.
    """
    tol = 1e-9  # golden_max's default
    rows = np.arange(len(bx))
    x, u = bx[:, 0], bu[:, 0]
    lo, hi = bx[:, 1:2], bx[:, 2:3]
    h = np.maximum(x - lo[:, 0], hi[:, 0] - x)
    live = h > tol / 2
    while np.count_nonzero(live):
        xs = np.minimum(np.maximum(x[:, None] + h[:, None] * _OFFSETS, lo), hi)
        us = f(xs)
        j = np.argmax(us, axis=1)  # the earliest sample on a tie
        better = live & (us[rows, j] > u)
        x, u = np.where(better, xs[rows, j], x), np.where(better, us[rows, j], u)
        h = h / _ZOOM
        live = h > tol / 2
    return x, u


def _running_max(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max_{y >= x} values(y) on the grid, one right-to-left pass, into out if given.

    fmax equals maximum on finite input, only faster. On a tie of -0.0 and +0.0 the
    sign may differ, but value iteration makes no -0.0, as c*x is at least +0.0.
    """
    return np.fmax.accumulate(values[::-1], out=None if out is None else out[::-1])[::-1]


@dataclass(frozen=True)
class StrategySolution:
    """Optimal net utility, the maximizer set, and a flat-region flag."""

    utility: float
    maximizers: tuple
    tie_tol: float
    flat: bool = False  # maximizers form a continuum; endpoints reported

    def to_json(self) -> dict:
        return {
            "utility": self.utility,
            "maximizers": list(self.maximizers),
            "tie_tol": self.tie_tol,
            "flat": self.flat,
        }


def optimal_strategy(
    test: TestFunction,
    params: VendorParams,
    grid: GridSpec | None = None,
) -> StrategySolution:
    """Maximize G on [0, x_max] by grid search plus nested-grid refinement.

    Returns every refined local maximum whose value lies within
    tie_tol = 1e-6 * R of the global maximum. A run of >= 5 consecutive
    near-optimal grid points is flagged as a flat region, and the first and
    last near-optimal grid points join the maximizers.
    """
    if grid is None:
        grid = default_grid(params)
    if grid.x_max < params.rosi:
        raise ValueError(f"grid.x_max must be >= R/c = {params.rosi}")
    tie_tol = 1e-6 * params.R

    xs = grid.points()
    g = g_value(test, params, xs)
    _, bx, bu = grid_peaks(xs, g[None])
    peaks, values = refine_peaks(lambda x: g_value(test, params, x), bx, bu)
    best = float(values.max())
    utility = max(best, 0.0)

    maximizers = []
    for x_star in np.sort(peaks[values >= best - tie_tol]):
        if not maximizers or x_star - maximizers[-1] > 1e-7:
            maximizers.append(float(x_star))

    # flat-region detection: long contiguous stretch of (numerically) exactly
    # optimal grid points; a smooth peak never produces one at this tolerance
    near = g >= best - 1e-12 * params.R
    five_in_a_row = near[:-4] & near[1:-3] & near[2:-2] & near[3:-1] & near[4:]
    flat = bool(np.count_nonzero(five_in_a_row))
    if flat:
        idx = np.nonzero(near)[0]
        maximizers = sorted(set(maximizers) | {float(xs[idx[0]]), float(xs[idx[-1]])})

    return StrategySolution(utility=utility, maximizers=tuple(maximizers), tie_tol=tie_tol, flat=flat)


def enumerate_schedules(solution: StrategySolution, switch_times=None) -> list[Schedule]:
    """Concrete optimal investment schedules drawn from the maximizer set.

    One one-and-done schedule per maximizer. With two or more maximizers,
    one incremental schedule steps through the ascending maximizer levels at
    the given switch times (default: t = 1, 2, ...), checked by Schedule.
    """
    if not solution.maximizers:
        raise ValueError("solution has no maximizers")

    schedules = [Schedule(levels=(m,)) for m in solution.maximizers]
    levels = sorted(solution.maximizers)
    if len(levels) >= 2:
        schedules.append(Schedule(levels=tuple(levels), switch_times=switch_times))
    return schedules


@dataclass(frozen=True)
class ValueFunction:
    """A value function on the grid.

    value_iteration_oracle gives the fixed point of the vendor's Bellman
    equation; backward_induction gives the best net value max_{y >= x} U_0(y)
    of a finite-step audit, with its step-0 maximizer. Only step 0 is kept:
    step n of an audit is step 0 of Audit(prefix[n:], tail).
    """

    xs: np.ndarray
    values: np.ndarray
    maximizer: float | None = None

    def at_zero(self) -> float:
        return float(self.values[0])

    @property
    def max_value(self) -> float:
        return self.at_zero()


def value_iteration_oracle(
    test: TestFunction,
    params: VendorParams,
    grid: GridSpec | None = None,
    tol: float = 1e-9,
) -> ValueFunction:
    """Solve the vendor's MDP by value iteration on the grid.

    V(x) = max{0, max_{y >= x} [c*x - c*y + p(y)*R + alpha*(1-p(y))*V(y)]},
    with the inner maximum computed by one right-to-left running-max pass.
    Stops when the sup-norm change drops below tol*(1-alpha)*R. Each step of a
    sweep is monotone and V starts at 0, so V never decreases: the returned V
    lies at or below the fixed point and within alpha*tol*R of it.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    if grid is None:
        grid = default_grid(params)
    if grid.x_max < params.rosi:
        raise ValueError(f"grid.x_max must be >= R/c = {params.rosi}")

    xs = grid.points()
    p = np.asarray(test(xs), dtype=float)
    c, R, a = params.c, params.R, params.alpha
    base = -c * xs + p * R  # y-dependent part excluding the continuation term

    # contraction factor <= alpha; generous cap on top of the analytic count
    max_iter = int(abs(math.log(tol * (1.0 - a)) / math.log(a))) * 4 + 100

    w, cx = a * (1.0 - p), c * xs  # w*V rounds exactly as a*(1-p)*V
    V, V_new, change = np.zeros_like(xs), np.empty_like(xs), np.empty_like(xs)
    thresh = tol * (1.0 - a) * R
    for _ in range(max_iter):
        np.multiply(w, V, out=V_new)
        V_new += base
        np.add(_running_max(V_new, out=V_new), cx, out=V_new)
        np.maximum(0.0, V_new, out=V_new)
        if np.subtract(V_new, V, out=change).max() < thresh:
            return ValueFunction(xs=xs, values=V_new)
        V, V_new = V_new, V
    raise RuntimeError(f"value iteration failed to converge in {max_iter} sweeps")

"""Audit design with truncated-linear tests.

Closed-form net utility for the linear test family, the static design
optimizer, the two-step (easier-first / harder-first) designers, and the
continuation value used to verify them, all read from one ramp peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import grid_peaks, refine_peaks
from .types import GridSpec, VendorParams


class RegimeError(ValueError):
    """Raised when a designer is called outside its ROSI regime."""


class RosiCase(Enum):
    LOW = "i"  # R/c < 1 - alpha: no investment is incentivizable
    MID = "ii"  # 1 - alpha <= R/c < 1/(1 - alpha)
    HIGH = "iii"  # R/c >= 1/(1 - alpha): full capacity is incentivizable


def rosi_case(params: VendorParams) -> RosiCase:
    rosi, a = params.rosi, params.alpha
    if rosi < 1.0 - a:
        return RosiCase.LOW
    if rosi < 1.0 / (1.0 - a):
        return RosiCase.MID
    return RosiCase.HIGH


def g_linear(b, params: VendorParams, x):
    """Net utility of a one-time investment under the static linear-b audit.

    Three-piece closed form; identical to core.g_value with LinearTest(b).
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    c, R, a = params.c, params.R, params.alpha
    t = np.minimum(np.maximum(x - b, 0.0), 1.0)
    val = -c * x + R * t / (1.0 - a + a * t)
    return float(val) if val.ndim == 0 else val


@dataclass(frozen=True)
class LinearDesign:
    """A (one- or two-test) linear audit design and its induced investment."""

    case: RosiCase
    b: float
    x: float
    utility: float
    verified: bool
    b_prime: float | None = None

    def to_json(self) -> dict:
        out = {
            "case": self.case.value,
            "b": self.b,
            "x": self.x,
            "utility": self.utility,
            "verified": self.verified,
        }
        if self.b_prime is not None:
            out["b_prime"] = self.b_prime
        return out


def _ramp_peak(rosi: float, a: float) -> tuple[float, float]:
    """(k, K): for every b, G^b peaks on its ramp [b, b+1] at b + k, worth c*(K - b).

    Clipping k to [0, 1] covers all three regimes: k = K = 0 at low ROSI, k = 1
    and K = R/c - 1 at high ROSI."""
    abar = (1.0 - a) / a
    k = min(max(math.sqrt(abar * rosi / a) - abar, 0.0), 1.0)
    return k, rosi * k / (1.0 - a * (1.0 - k)) - k


def design_static(params: VendorParams) -> LinearDesign:
    """Entrance value maximizing the investment a static linear audit can induce."""
    case = rosi_case(params)
    k, b = _ramp_peak(params.rosi, params.alpha)
    x = b + k
    f = lambda y: g_linear(b, params, y)
    # below R/c = 1 - alpha every G^b falls from x = 0, so there is nothing to search
    verified = case is RosiCase.LOW or _best_response(f, x, params.rosi + 1.0, params)
    return LinearDesign(case=case, b=b, x=x, utility=float(f(x)), verified=verified)


def capacity_gap_bound(params: VendorParams) -> float:
    """Upper bound on R/c - x(b*) in the mid-ROSI case: 1/(4 alpha) or 1 - alpha."""
    if rosi_case(params) is not RosiCase.MID:
        raise RegimeError("capacity gap bound applies to the mid-ROSI case only")
    a = params.alpha
    bound = 1.0 / (4.0 * a) if a >= 0.5 else 1.0 - a
    k, K = _ramp_peak(params.rosi, a)
    gap = params.rosi - (K + k)
    if gap > bound + 1e-12:
        raise RuntimeError(f"capacity gap {gap} exceeds its bound {bound}")
    return bound


def tail_value(b, params: VendorParams, x):
    """Best continuation value max_{y >= x} G^b(y) under the static linear-b audit.

    G^b peaks once, at b + k (_ramp_peak): right of it the best is G^b(x), at or
    left of it the larger of G^b(x) and the peak's value c*(K - b), in every regime.
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    k, K = _ramp_peak(params.rosi, params.alpha)
    here = g_linear(b, params, x)
    val = np.where(x <= b + k, np.maximum(here, params.c * (K - b)), here)
    return float(val) if val.ndim == 0 else val


def two_step_value(b_prime, b, params: VendorParams, x):
    """Vendor utility of investing x, facing test b' once then the static b audit."""
    x = np.asarray(x, dtype=float)
    c, R, a = params.c, params.R, params.alpha
    pp = np.minimum(np.maximum(x - np.asarray(b_prime, dtype=float), 0.0), 1.0)
    val = -(1.0 - a + a * pp) * c * x + pp * R + a * (1.0 - pp) * tail_value(b, params, x)
    return float(val) if val.ndim == 0 else val


def argmax_largest_tie(f, xs: np.ndarray, tie_tol: float = 1e-9):
    """Largest global maximizer of f over the grid, after nested-grid refinement.

    Every local maximum of f on the grid is refined between its neighbours,
    so a maximizer sitting between grid points is not lost; ties within
    tie_tol are broken toward the largest effort (the designers' convention:
    the auditor credits the highest optimal investment).
    """
    _, bx, bu = grid_peaks(xs, np.asarray(f(xs), dtype=float)[None])
    peaks, values = refine_peaks(f, bx, bu)
    top = float(values.max())
    return float(peaks[values >= top - tie_tol].max()), top


def _best_response(f, x: float, x_hi: float, params: VendorParams) -> bool:
    """Whether the vendor facing utility f chooses the design's investment x.

    One 1e-3 grid pass over [0, x_hi], every peak refined; ties within
    1e-9 * max(1, R) go to the largest effort. x passes when that largest
    maximizer lies within 1e-6 of it and is worth at least -1e-9. GridSpec
    refuses, with ValueError, a range wider than MAX_GRID_POINTS steps.
    """
    xs = GridSpec(x_max=x_hi, step=1e-3).points()
    x_num, u_num = argmax_largest_tie(f, xs, tie_tol=1e-9 * max(1.0, params.R))
    return abs(x_num - x) <= 1e-6 and u_num >= -1e-9


def design_dynamic_easier_first(params: VendorParams) -> LinearDesign:
    """Easier first test, harder repeated tail; induces the full capacity R/c.

    Requires 1 < R/c < 1/(1-alpha); outside that band a dynamic audit cannot
    beat the static design.
    """
    rosi, a = params.rosi, params.alpha
    if not 1.0 < rosi < 1.0 / (1.0 - a):
        raise RegimeError(
            f"easier-first design needs 1 < R/c < 1/(1-alpha); got R/c = {rosi}"
        )
    b = rosi + _ramp_peak(rosi, a)[1]
    b_prime = rosi - 1.0
    x = rosi
    f = lambda y: two_step_value(b_prime, b, params, y)
    return LinearDesign(
        case=RosiCase.MID, b=b, b_prime=b_prime, x=x, utility=float(f(x)),
        verified=_best_response(f, x, b + 2.0, params),  # b > b_prime
    )


def design_dynamic_harder_first(params: VendorParams, epsilon: float = 1e-2) -> LinearDesign:
    """Harder first test b' = b + epsilon, easier repeated tail b.

    The vendor either climbs the first test's ramp to its peak or puts in
    zero effort, fails the first test and waits for the tail. b is the
    largest entrance value at which the peak is worth at least zero and at
    least that zero-effort deviation, so the design always induces strictly
    less investment than the static optimum. Raises RegimeError when no
    such audit induces effort.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(
            f"epsilon must lie in (0, 1] (the first test must overlap b..b+1), got {epsilon}"
        )
    a, rosi = params.alpha, params.rosi
    if not (1.0 - a) < rosi < 1.0 / (1.0 - a):
        raise RegimeError(
            "harder-first design needs 1-alpha < R/c < 1/(1-alpha); "
            f"got R/c = {rosi}"
        )
    # the first test's ramp peaks k above b, as a static one at R/c*(1 + alpha*epsilon)
    k, K1 = _ramp_peak(rosi * (1.0 + a * epsilon), a)
    k_static, K = _ramp_peak(rosi, a)
    # b0 puts the peak's value at zero; raising b lowers it by c per unit, and
    # the zero-effort value alpha*c*max(0, K - b) by alpha*c while positive
    b0 = K1 - epsilon * rosi
    b = min(b0, (b0 - a * K) / (1.0 - a))
    if b < 0:
        raise RegimeError(f"no harder-first audit with epsilon = {epsilon} induces effort")
    b_prime = b + epsilon
    x = b + k

    if not x < K + k_static:
        raise RuntimeError("harder-first design unexpectedly beats the static optimum")
    f = lambda y: two_step_value(b_prime, b, params, y)
    return LinearDesign(
        case=rosi_case(params), b=b, b_prime=b_prime, x=x, utility=float(f(x)),
        verified=_best_response(f, x, b_prime + 2.0, params),
    )

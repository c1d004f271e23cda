"""Audit design with truncated-linear tests.

Closed-form net utility for the linear test family, the static design
optimizer, the two-step (easier-first / harder-first) designers, and the
piecewise tail utilities used to verify them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import grid_peaks, optimal_strategy, refine_peaks
from .types import LinearTest, VendorParams


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
    t = np.clip(x - b, 0.0, 1.0)
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


def _static_closed_form(params: VendorParams) -> tuple[RosiCase, float, float]:
    c, R, a = params.c, params.R, params.alpha
    case = rosi_case(params)
    if case is RosiCase.LOW:
        # entrance value is arbitrary here; 0 keeps the output deterministic
        return case, 0.0, 0.0
    if case is RosiCase.MID:
        b = (math.sqrt(R) - math.sqrt((1.0 - a) * c)) ** 2 / (a * c)
        x = (R - math.sqrt((1.0 - a) * R * c)) / (a * c)
        return case, b, x
    return case, R / c - 1.0, R / c


def design_static(params: VendorParams) -> LinearDesign:
    """Entrance value maximizing the investment a static linear audit can induce."""
    case, b, x = _static_closed_form(params)
    utility = g_linear(b, params, x) if case is not RosiCase.LOW else 0.0

    verified = True
    if case is not RosiCase.LOW:
        sol = optimal_strategy(LinearTest(b), params)
        verified = (
            abs(max(sol.maximizers) - x) <= 1e-6 and g_linear(b, params, x) >= -1e-9
        )
    return LinearDesign(case=case, b=b, x=x, utility=float(utility), verified=verified)


def capacity_gap_bound(params: VendorParams) -> float:
    """Upper bound on R/c - x(b*) in the mid-ROSI case: 1/(4 alpha) or 1 - alpha."""
    if rosi_case(params) is not RosiCase.MID:
        raise RegimeError("capacity gap bound applies to the mid-ROSI case only")
    a = params.alpha
    bound = 1.0 / (4.0 * a) if a >= 0.5 else 1.0 - a
    gap = params.rosi - design_static(params).x
    if gap > bound + 1e-12:
        raise RuntimeError(f"capacity gap {gap} exceeds its bound {bound}")
    return bound


def tail_value(b, params: VendorParams, x):
    """Best continuation value max_{y >= x} G^b(y) under the static linear-b audit.

    Closed-form piecewise in every ROSI regime (constant plateau between the
    points where investing stops paying and where the middle branch peaks).
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    c, R, a = params.c, params.R, params.alpha
    abar = (1.0 - a) / a
    rosi = params.rosi

    if rosi < 1.0 - a:
        # G^b strictly decreasing: nothing beyond x is worth waiting for
        val = g_linear(b, params, x)
        return val

    if rosi >= 1.0 / (1.0 - a):
        # passing for sure at b+1 dominates the middle branch
        plateau = R - c * (b + 1.0)
        val = np.select(
            [x < b + 1.0 - rosi, x < b + 1.0],
            [-c * x, plateau * np.ones_like(x * b)],
            default=R - c * x,
        )
    else:
        s1r = b - (math.sqrt(R / (a * c)) - math.sqrt(abar)) ** 2
        s2r = b - abar + math.sqrt(abar * R / (a * c))
        plateau = (math.sqrt(R / a) - math.sqrt(abar * c)) ** 2 - b * c
        t = np.clip(x - b, 0.0, 1.0)
        val = np.select(
            [x < s1r, x < s2r, x < b + 1.0],
            [-c * x, plateau * np.ones_like(x * b), -c * x + t * R / (1.0 - a + a * t)],
            default=R - c * x,
        )
    return float(val) if np.ndim(val) == 0 else val


def two_step_value(b_prime, b, params: VendorParams, x):
    """Vendor utility of investing x, facing test b' once then the static b audit."""
    x = np.asarray(x, dtype=float)
    c, R, a = params.c, params.R, params.alpha
    pp = np.clip(x - np.asarray(b_prime, dtype=float), 0.0, 1.0)
    val = -(1.0 - a + a * pp) * c * x + pp * R + a * (1.0 - pp) * tail_value(b, params, x)
    return float(val) if val.ndim == 0 else val


def argmax_largest_tie(f, xs: np.ndarray, tie_tol: float = 1e-9):
    """Largest global maximizer of f over the grid, after golden refinement.

    Every local maximum of f on the grid is refined between its neighbours,
    so a maximizer sitting between grid points is not lost; ties within
    tie_tol are broken toward the largest effort (the designers' convention:
    the auditor credits the highest optimal investment).
    """
    _, bx, bu = grid_peaks(xs, np.asarray(f(xs), dtype=float)[None])
    peaks, values = refine_peaks(f, bx, bu)
    top = float(values.max())
    return float(peaks[values >= top - tie_tol].max()), top


def _two_step_argmax(b_prime: float, b: float, params: VendorParams):
    """Largest numerical argmax of the two-step utility (1e-3 grid + refinement)."""
    x_hi = max(b, b_prime) + 2.0
    xs = np.arange(0.0, x_hi + 1e-3, 1e-3)
    f = lambda x: two_step_value(b_prime, b, params, x)
    return argmax_largest_tie(f, xs)


def design_dynamic_easier_first(params: VendorParams) -> LinearDesign:
    """Easier first test, harder repeated tail; induces the full capacity R/c.

    Requires 1 < R/c < 1/(1-alpha); outside that band a dynamic audit cannot
    beat the static design.
    """
    c, R, a = params.c, params.R, params.alpha
    if not 1.0 < params.rosi < 1.0 / (1.0 - a):
        raise RegimeError(
            f"easier-first design needs 1 < R/c < 1/(1-alpha); got R/c = {params.rosi}"
        )
    b = R / c + (math.sqrt(R / (a * c)) - math.sqrt((1.0 - a) / a)) ** 2
    b_prime = R / c - 1.0
    x = R / c

    x_num, u_num = _two_step_argmax(b_prime, b, params)
    verified = abs(x_num - x) <= 1e-6 and u_num >= -1e-9
    utility = two_step_value(b_prime, b, params, x)
    return LinearDesign(
        case=RosiCase.MID, b=b, b_prime=b_prime, x=x, utility=float(utility), verified=verified
    )


def design_dynamic_harder_first(params: VendorParams, epsilon: float = 1e-2) -> LinearDesign:
    """Harder first test (b' = b + epsilon or more), easier repeated tail.

    Always induces strictly less investment than the static optimum; the
    returned design is the constrained best given the minimum test gap.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(
            f"epsilon must lie in (0, 1] (the first test must overlap b..b+1), got {epsilon}"
        )
    c, R, a = params.c, params.R, params.alpha
    rosi = params.rosi
    if not (1.0 - a) < rosi < 1.0 / (1.0 - a):
        raise RegimeError(
            "harder-first design needs 1-alpha < R/c < 1/(1-alpha); "
            f"got R/c = {rosi}"
        )
    abar = (1.0 - a) / a
    gap_switch = c / (a * (1.0 - a) * R) - 1.0 / a

    if rosi < 1.0 / (1.0 - a * a) or epsilon < gap_switch:
        root = math.sqrt(abar * R / (a * c) + abar * R * epsilon / c)
        b = abar + R / (a * c) - 2.0 * root
        if b < 0:
            raise RegimeError("epsilon too large: no feasible harder-first design")
        b_prime = b + epsilon
        x = b - abar + root
    else:
        b = (R - (1.0 + a) * c) / (a * c)
        b_prime = R / (a * c) + c / (a * (1.0 - a) * R) - (2.0 + a) / a
        if b < 0:
            raise RegimeError("infeasible harder-first design (negative entrance value)")
        x = (R - c) / (a * c)

    x_static = (rosi - math.sqrt((1.0 - a) * rosi)) / a  # design_static's x, without R*c
    if not x < x_static:
        raise RuntimeError("harder-first design unexpectedly beats the static optimum")
    utility = two_step_value(b_prime, b, params, x)
    return LinearDesign(
        case=rosi_case(params), b=b, b_prime=b_prime, x=x, utility=float(utility), verified=True
    )


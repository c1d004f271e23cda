"""Shared domain types: economic parameters, test functions, grids, schedules."""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from dataclasses import dataclass
from numbers import Integral

import numpy as np


MAX_GRID_POINTS = 10**7  # 80 MB per float array over the grid


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@functools.cache
def _ndtr():
    """scipy.special.ndtr, imported on first use: most commands never evaluate Phi."""
    from scipy.special import ndtr

    return ndtr


@dataclass(frozen=True)
class VendorParams:
    """Economic primitives: revenue R, marginal investment cost c, discount alpha.

    R is the money unit: every tolerance on a money value is a multiple of R,
    so scaling R and c by a power of 2 scales every utility by it exactly and
    changes no effort, maximizer or verdict.
    """

    R: float
    c: float
    alpha: float

    def __post_init__(self):
        _require_finite(R=self.R, c=self.c, alpha=self.alpha)
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")

    @property
    def rosi(self) -> float:
        """Return on security investment R/c; also the investment capacity."""
        return self.R / self.c


class TestFunction:
    """Monotone map from cumulative effort x >= 0 to pass probability in [0,1]."""

    def __call__(self, x):
        raise NotImplementedError

    @staticmethod
    def from_json(obj: dict) -> "TestFunction":
        kind = obj.get("type")
        if kind == "threshold":
            return ThresholdTest(float(obj["delta"]), float(obj["sigma"]))
        if kind == "linear":
            return LinearTest(float(obj["b"]))
        if kind == "constant":
            return ConstantTest(float(obj["p"]))
        raise ValueError(f"unknown test type: {kind!r}")


@dataclass(frozen=True)
class ThresholdTest(TestFunction):
    """Pass iff a noisy estimate x + N(0, sigma^2) clears the threshold delta.

    p(x) = Phi((x - delta) / sigma); p(delta) = 1/2 exactly.
    """

    delta: float
    sigma: float

    def __post_init__(self):
        _require_finite(delta=self.delta, sigma=self.sigma)
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def __call__(self, x):
        return _ndtr()((np.asarray(x, dtype=float) - self.delta) / self.sigma)


@dataclass(frozen=True)
class LinearTest(TestFunction):
    """Truncated-linear test: 0 below the entrance value b, 1 above b+1."""

    b: float

    def __post_init__(self):
        _require_finite(b=self.b)
        if self.b < 0:
            raise ValueError(f"entrance value b must be >= 0, got {self.b}")

    def __call__(self, x):
        return np.clip(np.asarray(x, dtype=float) - self.b, 0.0, 1.0)


@dataclass(frozen=True)
class ConstantTest(TestFunction):
    """Effort-independent pass probability."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0,1], got {self.p}")

    def __call__(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.p)


@dataclass(frozen=True)
class GridSpec:
    """Uniform effort grid [0, x_max] with the given step, the effort unit.

    Every effort tolerance is a multiple of the step or of a peak's first
    cell, so scaling x_max, step, delta, sigma and schedule levels by 2^j and
    c by 2^-j changes no utility and scales every effort by 2^j exactly.
    default_grid's R/c + 1 does not scale: callers that scale pass grids.
    """

    x_max: float
    step: float = 1e-3

    def __post_init__(self):
        _require_finite(x_max=self.x_max, step=self.step)
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if not self.x_max > 0:
            raise ValueError(f"x_max must be positive, got {self.x_max}")
        if self.x_max / self.step + 0.5 >= MAX_GRID_POINTS:
            raise ValueError(
                f"x_max/step = {self.x_max / self.step:.3g} gives more than "
                f"{MAX_GRID_POINTS} grid points"
            )

    def points(self) -> np.ndarray:
        n = int(math.floor(self.x_max / self.step + 0.5)) + 1
        return np.linspace(0.0, (n - 1) * self.step, n)


def default_grid(params: VendorParams) -> GridSpec:
    """Grid of step 1e-3 on [0, R/c + 1]; every maximizer of the net utility lies in [0, R/c]."""
    return GridSpec(x_max=params.rosi + 1.0, step=1e-3)


@dataclass(frozen=True)
class Schedule:
    """Non-decreasing effort levels: levels[0] from t = 0, levels[i] from switch_times[i-1].

    switch_times are strictly increasing integers >= 1, one per change of
    level (None: t = 1, 2, ...); the last level repeats forever.
    """

    levels: tuple
    switch_times: tuple | None = None

    def __post_init__(self):
        if len(self.levels) == 0:
            raise ValueError("schedule needs at least one level")
        for prev, lv in zip((0.0, *self.levels), self.levels):
            _require_finite(level=lv)
            if lv < prev:
                raise ValueError("levels must be non-negative and non-decreasing")
        times = self.switch_times
        times = tuple(range(1, len(self.levels)) if times is None else times)
        if len(times) != len(self.levels) - 1 or not all(
                isinstance(t, Integral) and t > t_prev for t_prev, t in zip((0, *times), times)):
            raise ValueError("need one strictly increasing switch time >= 1 per level transition")
        object.__setattr__(self, "switch_times", times)

    @property
    def kind(self) -> str:
        return "one_and_done" if len(self.levels) == 1 else "incremental"

    def level_at(self, t: int) -> float:
        return self.levels[bisect_right(self.switch_times, t)]

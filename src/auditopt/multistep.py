"""Finite-step audits: backward induction, perturbation bounds, truncation error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .types import GridSpec, TestFunction, VendorParams
from .core import ValueFunction, _running_max, g_value


@dataclass(frozen=True)
class Audit:
    """A finite prefix of tests followed by an indefinitely repeated tail test."""

    prefix: tuple
    tail: TestFunction

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))

    def test_at(self, step: int) -> TestFunction:
        return self.prefix[step] if step < len(self.prefix) else self.tail

    def to_json(self) -> dict:
        return {"prefix": [t.to_json() for t in self.prefix], "tail": self.tail.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "Audit":
        return Audit(
            prefix=tuple(TestFunction.from_json(t) for t in obj.get("prefix", [])),
            tail=TestFunction.from_json(obj["tail"]),
        )


def _backups(audit: Audit, params: VendorParams, xs: np.ndarray):
    """Yield (U_n, U*_n) on xs for each step n, from the tail back to step 0.

    The tail is the static problem (running max of the closed-form net
    utility); each prefix step applies
    U_n(x) = -(1-a+a*p_n(x))*c*x + p_n(x)*R + a*(1-p_n(x))*U*_{n+1}(x).
    """
    c, R, a = params.c, params.R, params.alpha
    u = np.asarray(g_value(audit.tail, params, xs))  # raw step-0 utility when static
    u_star = _running_max(u)
    yield u, u_star
    for test in reversed(audit.prefix):
        p = np.asarray(test(xs))
        u = -(1.0 - a + a * p) * c * xs + p * R + a * (1.0 - p) * u_star
        u_star = _running_max(u)
        yield u, u_star


def backward_induction(
    audit: Audit, params: VendorParams, grid: GridSpec
) -> ValueFunction:
    """Step 0 of the audit, backed up from the tail; memory does not grow with the prefix."""
    xs = grid.points()
    for u0, u_star in _backups(audit, params, xs):
        pass

    # break exact ties toward the largest effort (the designers' convention)
    top = float(np.max(u0))
    i = int(np.nonzero(u0 >= top - 1e-12 * params.R)[0][-1])
    return ValueFunction(xs=xs, values=u_star, maximizer=float(xs[i]))


@dataclass(frozen=True)
class PerturbResult:
    delta_value: float  # signed change of the optimal value at x = 0
    bound: float  # alpha^m * sup|q_m - p_m| * R


def perturb_one_test(
    audit: Audit,
    m: int,
    q_m: TestFunction,
    params: VendorParams,
    grid: GridSpec,
) -> PerturbResult:
    """Swap the m-th prefix test and measure the change in the optimal value.

    The realized change obeys |delta| <= alpha^m * Delta * R, and its sign
    follows the pointwise ordering of the two tests when one dominates.
    """
    if not 0 <= m < len(audit.prefix):
        raise IndexError(f"m must index the prefix (0..{len(audit.prefix) - 1})")
    xs = grid.points()
    p_old = np.asarray(audit.prefix[m](xs))
    p_new = np.asarray(q_m(xs))
    delta_sup = float(np.max(np.abs(p_new - p_old)))
    bound = params.alpha**m * delta_sup * params.R

    base = backward_induction(audit, params, grid)
    new_prefix = list(audit.prefix)
    new_prefix[m] = q_m
    perturbed = backward_induction(Audit(tuple(new_prefix), audit.tail), params, grid)
    delta = perturbed.max_value - base.max_value

    slack = 1e-9 * params.R
    if abs(delta) > bound + slack:
        raise RuntimeError(f"perturbation change {delta} exceeds bound {bound}")
    if np.all(p_new >= p_old) and delta < -slack:
        raise RuntimeError("value dropped although the new test dominates pointwise")
    if np.all(p_new <= p_old) and delta > slack:
        raise RuntimeError("value rose although the new test is dominated pointwise")
    return PerturbResult(delta_value=delta, bound=bound)


def truncate(audit: Audit, k: int) -> Audit:
    """Keep the first k prefix tests and repeat the k-th test indefinitely."""
    if not 0 <= k <= len(audit.prefix):
        raise IndexError(f"k must lie in 0..{len(audit.prefix)}")
    if k == len(audit.prefix):
        return audit
    return Audit(prefix=audit.prefix[:k], tail=audit.prefix[k])


class PreconditionError(ValueError):
    """Raised when a study's stated preconditions do not hold."""


@dataclass(frozen=True)
class ApproxRow:
    k: int
    measured_error: float
    bound: float
    maximizer: float


@dataclass(frozen=True)
class ApproxStudy:
    rows: tuple
    reference_residual: float
    reference_maximizer: float


def approximation_study(
    audit: Audit, params: VendorParams, grid: GridSpec, k_list
) -> ApproxStudy:
    """Sup-norm error of k-step truncations against the full-prefix reference.

    The reference is itself a truncation (at the full prefix length K), so its
    own residual alpha^(K+1)*R/(1-alpha) is reported and must be small
    relative to the tightest bound under study.
    """
    k_list = sorted(set(int(k) for k in k_list))
    if k_list and k_list[-1] > len(audit.prefix):
        raise IndexError("k values must not exceed the prefix length")
    K = len(audit.prefix)
    a, R = params.alpha, params.R
    residual = a ** (K + 1) * R / (1.0 - a)
    bounds = {k: a ** (k + 1) * R / (1.0 - a) for k in k_list}
    # k = K reproduces the reference exactly, so that row cannot be spoiled
    # by the reference's own truncation residual
    strict = [bounds[k] for k in k_list if k < K]
    if strict and residual >= 0.1 * min(strict):
        raise PreconditionError(
            f"reference prefix too short: residual {residual} is not negligible "
            f"against the smallest bound {min(bounds.values())}"
        )

    reference = backward_induction(audit, params, grid)
    rows = []
    for k in k_list:
        approx = backward_induction(truncate(audit, k), params, grid)
        err = float(np.max(np.abs(approx.values - reference.values)))
        rows.append(
            ApproxRow(k=k, measured_error=err, bound=bounds[k], maximizer=approx.maximizer)
        )
    return ApproxStudy(
        rows=tuple(rows),
        reference_residual=residual,
        reference_maximizer=reference.maximizer,
    )


@dataclass(frozen=True)
class BddReport:
    ok: bool
    min_net: float  # min over grid of c*x + U*_0(x); must be >= 0
    max_net: float  # max over grid of c*x + U*_0(x); must be <= R


def bdd_check(audit: Audit, params: VendorParams, grid: GridSpec) -> BddReport:
    """Check 0 <= c*x + U*_0(x) <= R on every grid point, with 1e-9 * R slack."""
    nvf = backward_induction(audit, params, grid)
    net = params.c * nvf.xs + nvf.values
    lo, hi = float(np.min(net)), float(np.max(net))
    return BddReport(ok=(lo >= -1e-9 * params.R and hi <= params.R * (1 + 1e-9)),
                     min_net=lo, max_net=hi)

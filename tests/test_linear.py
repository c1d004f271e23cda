import math

import numpy as np
import pytest

from auditopt import (
    GridSpec,
    LinearTest,
    RegimeError,
    RosiCase,
    VendorParams,
    capacity_gap_bound,
    design_dynamic_easier_first,
    design_dynamic_harder_first,
    design_static,
    g_value,
    tail_value,
    two_step_value,
)
from auditopt.linear import g_linear, rosi_case
from auditopt.multistep import Audit, backward_induction

P4 = VendorParams(R=4.0, c=1.0, alpha=0.5)
P15 = VendorParams(R=1.5, c=1.0, alpha=0.5)
PLOW = VendorParams(R=0.3, c=1.0, alpha=0.5)
# the regime edges R/c = 1 - alpha and R/c = 1/(1 - alpha)
PEDGE_LOW = VendorParams(R=0.5, c=1.0, alpha=0.5)
PEDGE_HIGH = VendorParams(R=2.0, c=1.0, alpha=0.5)


def grid_running_max(b, params, xs):
    """max_{y >= x} G^b(y) on the grid, from core.g_value: tail_value calls g_linear."""
    g = g_value(LinearTest(b), params, xs)
    return np.maximum.accumulate(g[::-1])[::-1]


def test_g_linear_branches():
    assert g_linear(2.0, P15, 1.0) == -1.0
    assert g_linear(2.0, P15, 3.0) == pytest.approx(1.5 - 3.0)
    x_bar = math.sqrt(3.0)
    xs = np.arange(1.0, 2.0, 1e-4)
    dense_max = float(np.max(g_linear(1.0, P15, xs)))
    assert g_linear(1.0, P15, x_bar) == pytest.approx(dense_max, abs=1e-7)


def test_g_linear_matches_g_value():
    xs = np.linspace(0.0, 5.0, 777)
    assert np.allclose(
        g_linear(1.3, P4, xs), g_value(LinearTest(1.3), P4, xs), atol=1e-14
    )


def test_rosi_cases():
    assert rosi_case(PLOW) is RosiCase.LOW
    assert rosi_case(P15) is RosiCase.MID
    assert rosi_case(P4) is RosiCase.HIGH


def test_design_static_high_rosi_exact():
    d = design_static(P4)
    assert d.case is RosiCase.HIGH
    assert d.b == 3.0
    assert d.x == 4.0
    assert d.utility == pytest.approx(0.0, abs=1e-12)
    assert d.verified


def test_design_static_low_rosi():
    d = design_static(PLOW)
    assert d.case is RosiCase.LOW
    assert d.x == 0.0
    assert d.b == 0.0


def test_design_static_mid_rosi_frozen():
    d = design_static(P15)
    b_expect = (math.sqrt(1.5) - math.sqrt(0.5)) ** 2 / 0.5
    x_expect = (1.5 - math.sqrt(0.75)) / 0.5
    assert d.case is RosiCase.MID
    assert d.b == pytest.approx(b_expect, rel=1e-12)
    assert d.x == pytest.approx(x_expect, rel=1e-12)
    assert d.verified


def test_design_static_at_huge_revenue_and_cost():
    # R*c overflows; the design depends on R/c alone, as at R = c = 1
    huge = design_static(VendorParams(R=1e300, c=1e300, alpha=0.3))
    unit = design_static(VendorParams(R=1.0, c=1.0, alpha=0.3))
    assert huge.case is unit.case
    assert huge.b == pytest.approx(unit.b, rel=1e-12)
    assert huge.x == pytest.approx(unit.x, rel=1e-12)
    assert huge.verified and unit.verified


def test_capacity_gap_bound_values():
    assert capacity_gap_bound(P15) == 0.5
    p = VendorParams(R=1.0, c=1.0, alpha=0.25)
    assert capacity_gap_bound(p) == 0.75
    gap = P15.rosi - design_static(P15).x
    assert gap <= 0.5 + 1e-12
    with pytest.raises(RegimeError):
        capacity_gap_bound(P4)


@pytest.mark.parametrize(
    "params,b",
    [
        (P15, 0.3),
        (P15, 0.55),
        (P15, 1.0),
        (P4, 0.5),
        (P4, 3.0),
        (PLOW, 0.2),
        (PEDGE_LOW, 0.0),
        (PEDGE_LOW, 0.7),
        (PEDGE_HIGH, 0.0),
        (PEDGE_HIGH, 1.2),
    ],
)
def test_tail_value_matches_grid_oracle(params, b):
    xs = np.arange(0.0, params.rosi + 2.0, 1e-4)
    oracle = grid_running_max(b, params, xs)
    assert np.max(np.abs(tail_value(b, params, xs) - oracle)) <= 1e-6


def test_tail_value_past_safe_harbor():
    assert tail_value(1.0, P15, 2.5) == pytest.approx(1.5 - 2.5)
    assert tail_value(0.5, P4, 3.0) == pytest.approx(4.0 - 3.0)


def test_tail_value_mid_rosi_plateau():
    # between giving up on extra effort and the middle-branch peak the
    # continuation value is constant
    b = 1.0
    plateau = (math.sqrt(1.5 / 0.5) - math.sqrt(1.0 * 0.5 / 0.5)) ** 2 - b
    xs = np.linspace(1.05, 1.3, 40)
    vals = tail_value(b, P15, xs)
    assert np.allclose(vals, plateau, atol=1e-12)


def test_two_step_certain_first_pass():
    # beyond the first test's safe harbor the tail never matters
    assert two_step_value(0.5, 2.0, P15, 1.8) == pytest.approx(1.5 - 1.8)


def test_two_step_certain_first_fail_past_tail():
    # first test unpassable, tail certain: only the discounted tail payout
    assert two_step_value(3.0, 0.0, P15, 1.5) == pytest.approx(
        -1.5 + 0.5 * 1.5, abs=1e-12
    )


def test_two_step_designed_optimum_hits_vp_boundary():
    b = 1.5 + (math.sqrt(3.0) - 1.0) ** 2
    assert two_step_value(0.5, b, P15, 1.5) == pytest.approx(0.0, abs=1e-12)


def test_two_step_matches_backward_induction():
    grid = GridSpec(x_max=4.0, step=1e-3)
    xs = grid.points()
    for b_prime, b in [(0.5, 2.0359), (1.2, 0.4), (0.9, 0.9)]:
        audit = Audit(prefix=(LinearTest(b_prime),), tail=LinearTest(b))
        nvf = backward_induction(audit, P15, grid)
        vals = two_step_value(b_prime, b, P15, xs)
        envelope = np.maximum.accumulate(vals[::-1])[::-1]
        assert np.max(np.abs(envelope - nvf.values)) <= 1e-6


def test_easier_first_design_frozen():
    d = design_dynamic_easier_first(P15)
    assert d.b_prime == pytest.approx(0.5, rel=1e-12)
    assert d.b == pytest.approx(1.5 + (math.sqrt(3.0) - 1.0) ** 2, rel=1e-12)
    assert d.x == pytest.approx(1.5, rel=1e-12)
    assert d.verified
    assert d.x > design_static(P15).x


def test_easier_first_verified_just_above_unit_rosi():
    # x = 0 and x = R/c tie at U = 0; the check must credit the larger one
    for rosi in (1.0005, 1.001, 1.003):
        d = design_dynamic_easier_first(VendorParams(R=rosi, c=1.0, alpha=0.5))
        assert d.verified, rosi


def test_easier_first_regime_errors():
    with pytest.raises(RegimeError):
        design_dynamic_easier_first(P4)
    with pytest.raises(RegimeError):
        design_dynamic_easier_first(PLOW)
    # R/c in (1 - alpha, 1] is routed to the static designer
    with pytest.raises(RegimeError):
        design_dynamic_easier_first(VendorParams(R=0.9, c=1.0, alpha=0.5))


# Harder-first values below come from bisecting the tail entrance b, with
# b' = b + epsilon, on whether the largest maximizer of the two-step utility
# (20,001-point grid on [0, b' + 2] plus nested-grid refinement, ties within
# 1e-9 * max(1, R)) is positive; the designer is never called. That search
# overshoots the cliff by at most tie / (c * (1 - alpha)), hence abs=1e-7.


def test_harder_first_design_frozen():
    d = design_dynamic_harder_first(P15, epsilon=0.01)
    assert d.b == pytest.approx(0.5185994764636193, abs=1e-7)
    assert d.b_prime == pytest.approx(d.b + 0.01, rel=1e-12)
    assert d.x == pytest.approx(1.2549750099991144, abs=1e-7)
    # the closed form written out: b0 zeroes the ramp peak's value, and the
    # zero-effort plateau alpha*(K - c*b) then lowers b to where both tie
    a, rosi, eps = P15.alpha, P15.rosi, 0.01
    abar = (1.0 - a) / a
    root = math.sqrt(abar * rosi / a + abar * rosi * eps)
    b0 = abar + rosi / a - 2.0 * root
    k_over_c = (math.sqrt(rosi / a) - math.sqrt(abar)) ** 2
    b_expect = (b0 - a * k_over_c) / (1.0 - a)
    assert d.b == pytest.approx(b_expect, rel=1e-12)
    assert d.x == pytest.approx(b_expect + root - abar, rel=1e-12)
    assert d.verified
    assert d.x < design_static(P15).x


def test_harder_first_is_the_best_response_at_the_readme_point():
    d = design_dynamic_harder_first(P15, epsilon=0.01)
    ys = np.arange(0.0, d.b_prime + 2.0, 1e-4)
    u_x = two_step_value(d.b_prime, d.b, P15, d.x)
    assert np.all(two_step_value(d.b_prime, d.b, P15, ys) <= u_x + 1e-9)
    assert d.verified


def test_harder_first_epsilon_limit_recovers_static_peak():
    d = design_dynamic_harder_first(P15, epsilon=1e-10)
    x_bar_at_b = d.b - 1.0 + math.sqrt(3.0)
    assert d.x == pytest.approx(x_bar_at_b, abs=1e-5)


def test_harder_first_wide_gap():
    # at epsilon = 0.7 zero effort beats every ramp peak the audit can offer
    with pytest.raises(RegimeError):
        design_dynamic_harder_first(P15, epsilon=0.7)
    # the ramp peak sits at its corner x = b + 1
    p = VendorParams(R=4.109, c=1.0, alpha=0.79)
    d = design_dynamic_harder_first(p, epsilon=0.722)
    assert d.b == pytest.approx(0.11824226967978106, abs=1e-7)
    assert d.x == pytest.approx(d.b + 1.0, rel=1e-12)
    assert d.verified
    assert d.x < design_static(p).x


def test_harder_first_at_huge_revenue_and_cost():
    # R*c overflows; the design depends on R/c alone, as at R = c = 1
    huge = design_dynamic_harder_first(VendorParams(R=1e300, c=1e300, alpha=0.3))
    unit = design_dynamic_harder_first(VendorParams(R=1.0, c=1.0, alpha=0.3))
    assert huge.b == pytest.approx(unit.b, rel=1e-12)
    assert huge.x == pytest.approx(unit.x, rel=1e-12)


def test_harder_first_validation():
    for eps in (0.0, 1.5, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            design_dynamic_harder_first(P15, epsilon=eps)
    with pytest.raises(RegimeError):
        design_dynamic_harder_first(P4, epsilon=0.01)
    with pytest.raises(RegimeError):
        design_dynamic_harder_first(VendorParams(R=0.5, c=1.0, alpha=0.5), epsilon=0.01)


def test_harder_first_design_sits_on_its_feasibility_cliff():
    # x is a strict local peak of the two-step utility, worth exactly what
    # zero effort is worth (fail the first test, then wait for the tail)
    cases = [(P15, 0.01), (P15, 0.1), (VendorParams(R=4.109, c=1.0, alpha=0.79), 0.722)]
    for params, eps in cases:
        d = design_dynamic_harder_first(params, epsilon=eps)
        f = lambda x: two_step_value(d.b_prime, d.b, params, x)
        assert f(d.x - 1e-6) < f(d.x) > f(d.x + 1e-6), eps
        assert abs(f(d.x) - f(0.0)) <= 1e-12 * params.R, eps


def test_hardness_ordering():
    xs = np.linspace(0.0, 4.0, 500)
    easy = LinearTest(0.5)(xs)
    hard = LinearTest(1.5)(xs)
    assert np.all(hard <= easy + 1e-15)
    assert np.any(hard < easy)


def test_dynamic_impossibility_low_rosi():
    # below the participation floor no two-step audit induces any effort
    rng = np.random.default_rng(5)
    xs = np.linspace(0.0, 3.0, 1500)
    for _ in range(10):
        b = rng.uniform(0.0, 2.0)
        b_prime = b + rng.uniform(0.0, 1.0)
        vals = two_step_value(b_prime, b, PLOW, xs)
        assert np.all(np.diff(vals) <= 1e-10)


def test_dynamic_impossibility_high_rosi():
    # high ROSI: no two-step design beats the static capacity R/c
    from auditopt.linear import argmax_largest_tie

    xs = np.arange(0.0, 6.0, 1e-3)
    best = 0.0
    for b in np.arange(0.0, 4.51, 0.5):
        for b_prime in np.arange(0.0, 4.51, 0.5):
            x_star, u = argmax_largest_tie(
                lambda x: two_step_value(b_prime, b, P4, x), xs
            )
            if u >= -1e-9:
                best = max(best, x_star)
    x_static, u_static = argmax_largest_tie(
        lambda x: two_step_value(3.0, 3.0, P4, x), xs
    )
    best = max(best, x_static)
    assert best == pytest.approx(4.0, abs=1e-6)


def test_two_step_shape_high_rosi():
    # decreasing before the first test bites, increasing on its ramp,
    # decreasing past its safe harbor
    b_prime, b = 1.5, 1.0
    xs1 = np.linspace(0.0, b_prime - 1e-6, 200)
    xs2 = np.linspace(b_prime + 1e-6, b_prime + 1.0 - 1e-6, 200)
    xs3 = np.linspace(b_prime + 1.0 + 1e-6, 6.0, 200)
    v1 = two_step_value(b_prime, b, P4, xs1)
    v2 = two_step_value(b_prime, b, P4, xs2)
    v3 = two_step_value(b_prime, b, P4, xs3)
    assert np.all(np.diff(v1) <= 1e-10)
    assert np.all(np.diff(v2) >= -1e-10)
    assert np.all(np.diff(v3) <= 1e-10)


def test_design_json_shape():
    d = design_dynamic_easier_first(P15)
    j = d.to_json()
    assert j["case"] == "ii" and j["verified"] is True
    assert set(j) >= {"case", "b", "b_prime", "x", "utility", "verified"}
    js = design_static(P4).to_json()
    assert "b_prime" not in js

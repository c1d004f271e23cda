import math

import numpy as np
import pytest

from auditopt import (
    ConstantTest,
    GridSpec,
    LiabilityModel,
    ThresholdTest,
    VendorParams,
    ca_shape_report,
    coverage_grid,
    gamma_bar,
    liability_loss,
    max_opt_out_utility,
    opt_out_utility,
)

P4 = VendorParams(R=4.0, c=1.0, alpha=0.5)


def test_liability_loss_risk_neutral():
    m = LiabilityModel(gamma=0.0, mu0=1.0, s0=1.5)
    assert liability_loss(m, 0.3) == 1.0
    assert liability_loss(m, 100.0) == 1.0


def test_liability_loss_frozen_point():
    m = LiabilityModel(gamma=1.0, mu0=1.0, s0=1.5)
    assert liability_loss(m, 1.0) == pytest.approx(math.exp(2.125), rel=1e-14)


def test_liability_loss_vanishes_at_infinity():
    m = LiabilityModel(gamma=2.0, mu0=1.0, s0=1.5)
    assert liability_loss(m, 1e9) == pytest.approx(1.0, abs=1e-8)


def test_liability_loss_domain_and_overflow():
    m = LiabilityModel(gamma=1.0, mu0=1.0, s0=1.5)
    with pytest.raises(ValueError):
        liability_loss(m, 0.0)
    big = LiabilityModel(gamma=1e6, mu0=1.0, s0=1.5)
    assert liability_loss(big, 0.1) == math.inf
    assert opt_out_utility(big, P4, 0.1) == -math.inf


def test_opt_out_utility_overflow_is_infinite_without_warning():
    # pytest turns RuntimeWarning into an error, so a numpy overflow warning fails here
    params = VendorParams(R=2.5, c=1e300, alpha=0.3)
    assert opt_out_utility(LiabilityModel(1.0, 1e300, 1e-300), params, 1e300) == -math.inf
    assert max_opt_out_utility(LiabilityModel(1.0, 1e300, 1e-300), params)[0] == -math.inf


def test_liability_loss_monotone_in_effort_and_aversion():
    xs = np.linspace(0.2, 5.0, 80)
    m = LiabilityModel(gamma=0.8, mu0=1.0, s0=1.5)
    vals = np.array([liability_loss(m, x) for x in xs])
    assert np.all(np.diff(vals) < 0.0)
    gammas = np.linspace(0.1, 3.0, 30)
    at_x = [liability_loss(LiabilityModel(g, 1.0, 1.5), 1.3) for g in gammas]
    assert np.all(np.diff(at_x) > 0.0)


def test_opt_out_utility_frozen_point():
    m = LiabilityModel(gamma=1.0, mu0=1.0, s0=1.5)
    expected = 4.0 - 1.0 - math.exp(2.125)
    assert opt_out_utility(m, P4, 1.0) == pytest.approx(expected, rel=1e-12)


def test_max_opt_out_risk_neutral_supremum():
    m = LiabilityModel(gamma=0.0, mu0=1.0, s0=1.5)
    u, x = max_opt_out_utility(m, P4)
    assert (u, x) == (3.0, 0.0)


def test_max_opt_out_interior_matches_dense_grid():
    m = LiabilityModel(gamma=1.0, mu0=1.0, s0=1.5)
    u, x_star = max_opt_out_utility(m, P4)
    assert u < 3.0
    xs = np.arange(1e-5, 8.0, 1e-5)
    with np.errstate(over="ignore"):
        dense = 4.0 - xs - np.exp(m.gamma / xs + 0.5 * (m.gamma * 1.5 / xs) ** 2)
    i = int(np.argmax(dense))
    assert u == pytest.approx(float(dense[i]), abs=1e-8)
    assert x_star == pytest.approx(float(xs[i]), abs=1e-4)


def test_max_opt_out_when_coarse_grid_overflows():
    # every point of a 1e-2 grid up to R/c + 1 overflows the loss; the
    # maximum sits far to the right
    m = LiabilityModel(gamma=40.0, mu0=0.3, s0=2.8)
    params = VendorParams(R=2.85, c=1.9, alpha=0.3)
    u, x_star = max_opt_out_utility(m, params)
    xs = np.arange(30.0, 80.0, 1e-4)
    dense = opt_out_utility(m, params, xs)
    i = int(np.argmax(dense))
    assert u == pytest.approx(-107.65884973983826, abs=1e-8)
    assert u == pytest.approx(float(dense[i]), abs=1e-8)
    assert x_star == pytest.approx(float(xs[i]), abs=1e-4)


@pytest.mark.parametrize("gamma", [1e-300, 1e6])
def test_max_opt_out_extreme_aversion(gamma):
    m = LiabilityModel(gamma=gamma, mu0=1.0, s0=1.5)
    u, x_star = max_opt_out_utility(m, P4)
    assert math.isfinite(u) and 0.0 < x_star < math.inf
    assert u <= 3.0
    # the first-order root beats its neighbours at relative distance 1e-6
    for x in (x_star * (1 - 1e-6), x_star * (1 + 1e-6)):
        assert opt_out_utility(m, P4, x) <= u
    if gamma < 1.0:
        assert u == 3.0 and x_star == pytest.approx(math.sqrt(gamma), rel=1e-9)


@pytest.mark.parametrize("gamma", [1e-300, 1e-6, 1.0, 1e6])
def test_max_opt_out_matches_dense_grid_over_aversion(gamma):
    u, x_star = max_opt_out_utility(LiabilityModel(gamma, 1.0, 1.5), P4)
    # the utility less its supremum R - 1, which keeps its digits at tiny gamma
    def excess(x):
        return -P4.c * x - np.expm1(gamma / x + 0.5 * (gamma * 1.5 / x) ** 2)

    xs = math.sqrt(gamma / P4.c) * np.geomspace(1e-2, 1e4, 300_001)
    with np.errstate(over="ignore"):
        dense = excess(xs)
    i = int(np.argmax(dense))
    assert 0 < i < len(xs) - 1
    assert x_star == pytest.approx(float(xs[i]), rel=1e-4)
    assert excess(x_star) >= dense[i] - 1e-12 * abs(dense[i])
    assert u == pytest.approx(P4.R - 1.0 + excess(x_star), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize(
    "model",
    [
        LiabilityModel(1e6, 1.0, 1e308),  # the bracket's upper end passes log(float max)
        LiabilityModel(1.0, 1e-320, 1e-320),  # mu0*x + gamma*s0^2 underflows to 0
    ],
)
def test_max_opt_out_refuses_loss_moments_beyond_float_range(model):
    with pytest.raises(ValueError, match="loss moments out of range"):
        max_opt_out_utility(model, P4)


def test_max_opt_out_monotone_in_aversion():
    utils = [
        max_opt_out_utility(LiabilityModel(g, 1.0, 1.5), P4)[0]
        for g in (0.0, 0.5, 1.0, 2.0)
    ]
    assert all(a >= b - 1e-12 for a, b in zip(utils, utils[1:]))
    assert all(u <= 3.0 + 1e-12 for u in utils)


def test_gamma_bar_full_coverage_branch():
    # a nearly free test makes the opt-in utility approach R, beating R - 1
    assert gamma_bar(ThresholdTest(0.0, 0.01), 1.0, 1.5, P4) == 0.0


def test_gamma_bar_frozen_value_and_indifference():
    test = ThresholdTest(3.0, 1.0)
    gb = gamma_bar(test, 1.0, 1.5, P4)
    assert gb == pytest.approx(0.9108548662625253, abs=1e-6)
    from auditopt import optimal_strategy

    u_in = optimal_strategy(test, P4).utility
    u_out, _ = max_opt_out_utility(LiabilityModel(gb, 1.0, 1.5), P4)
    assert u_out == pytest.approx(u_in, abs=1e-6)


def test_gamma_bar_stops_at_float_resolution():
    # the root to float resolution (the default tolerance lands on it too)
    gb = gamma_bar(ThresholdTest(3.0, 1.0), 1.0, 1.5, P4, rel_tol=0.0)
    assert gb == 0.9108548660555045


def bisect_to_float_resolution(left_of_root, lo, hi):
    """Plain bisection oracle: halve [lo, hi] until no float lies inside."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if left_of_root(mid):
            lo = mid
        else:
            hi = mid


def opt_out_oracle(gamma, mu0, s0, params):
    """U_out*(gamma) by bisecting the sign of dU/dx in x itself."""
    c, R = params.c, params.R

    def loss(x):
        return math.exp(gamma * mu0 / x + 0.5 * (gamma * s0 / x) ** 2)

    def rising(x):
        return loss(x) * (gamma * mu0 / x**2 + gamma**2 * s0**2 / x**3) > c

    lo = hi = math.sqrt(gamma * mu0 / c)  # dU/dx > 0 below this
    while rising(hi):
        hi *= 2.0
    x = bisect_to_float_resolution(rising, lo, hi)
    return R - c * x - loss(x)


CRITERION_10_CELLS = [
    ThresholdTest(float(d), float(s))
    for d in np.linspace(0.0, 3.0, 7)
    for s in np.linspace(0.1, 3.0, 7)
]


def test_gamma_bar_matches_bisection_oracle_and_is_indifferent():
    from auditopt import optimal_strategy

    finite = 0
    for test in CRITERION_10_CELLS:
        gb = gamma_bar(test, 1.0, 1.5, P4)
        u_in = optimal_strategy(test, P4).utility
        if gb == 0.0:
            assert u_in >= P4.R - 1.0
            continue
        finite += 1
        hi = 1.0
        while opt_out_oracle(hi, 1.0, 1.5, P4) > u_in:
            hi *= 2.0
        oracle = bisect_to_float_resolution(
            lambda g: opt_out_oracle(g, 1.0, 1.5, P4) > u_in, 0.0, hi
        )
        assert abs(gb - oracle) <= 1e-12 * max(1.0, oracle)
        u_out, _ = max_opt_out_utility(LiabilityModel(gb, 1.0, 1.5), P4)
        assert abs(u_out - u_in) <= 1e-12 * P4.R
    assert finite > 40


def test_gamma_bar_opt_out_solves_per_cell(monkeypatch):
    from auditopt import threshold

    calls = []
    solve = threshold.max_opt_out_utility

    def counted(model, params):
        calls.append(model.gamma)
        return solve(model, params)

    monkeypatch.setattr(threshold, "max_opt_out_utility", counted)
    per_cell = []
    for test in CRITERION_10_CELLS:
        calls.clear()
        gamma_bar(test, 1.0, 1.5, P4)
        per_cell.append(len(calls))
    # about 6 per cell; each solve is most of a cell's cost
    assert max(per_cell) <= 12


def test_gamma_bar_monotone_in_threshold():
    g1 = gamma_bar(ThresholdTest(1.0, 1.0), 1.0, 1.5, P4)
    g2 = gamma_bar(ThresholdTest(2.0, 1.0), 1.0, 1.5, P4)
    assert 0.0 < g1 <= g2


def test_gamma_bar_never_participates_sentinel():
    # negligible loss moments keep opting out attractive at any aversion level
    gb = gamma_bar(ThresholdTest(3.0, 0.5), 1e-12, 1e-12, P4)
    assert gb == math.inf


def test_coverage_grid_single_cell_and_order():
    cells = coverage_grid([1.0], [1.0], 1.0, 1.5, P4)
    assert len(cells) == 1
    assert cells[0].delta == 1.0 and cells[0].sigma == 1.0
    assert cells[0].gamma_bar >= 0.0

    grid = coverage_grid([0.5, 1.5], [0.8, 1.2], 1.0, 1.5, P4)
    keys = [(c.delta, c.sigma) for c in grid]
    assert keys == [(0.5, 0.8), (0.5, 1.2), (1.5, 0.8), (1.5, 1.2)]


def test_coverage_grid_monotone_in_delta():
    deltas = [0.5, 1.0, 2.0, 3.0]
    cells = coverage_grid(deltas, [1.0], 1.0, 1.5, P4)
    vals = [c.gamma_bar for c in cells]
    assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


def assert_sweep_matches_cells(deltas, sigmas, mu0, s0, params):
    """coverage_grid and its stacked opt-in utilities against cell-by-cell solves, bit for bit."""
    from auditopt import optimal_strategy
    from auditopt.threshold import _opt_in_utilities

    tests = [ThresholdTest(float(d), float(s)) for d in deltas for s in sigmas]
    stacked = _opt_in_utilities(tests, params)
    assert stacked == [optimal_strategy(t, params).utility for t in tests]
    cells = coverage_grid(deltas, sigmas, mu0, s0, params)
    assert [c.gamma_bar for c in cells] == [gamma_bar(t, mu0, s0, params) for t in tests]


def test_coverage_grid_matches_cell_by_cell_solves():
    deltas, sigmas = np.linspace(0.0, 3.0, 7), np.linspace(0.1, 3.0, 7)
    assert_sweep_matches_cells(deltas, sigmas, 1.0, 1.5, P4)


def test_coverage_grid_across_block_boundaries():
    from auditopt import default_grid
    from auditopt.threshold import _BLOCK_POINTS

    # 5,001 grid points: 6 cells to a block, so 15 cells end in a partial block
    assert _BLOCK_POINTS // len(default_grid(P4).points()) == 6
    assert_sweep_matches_cells([0.5, 1.5, 2.5, 3.0, 3.5], [0.3, 1.0, 2.0], 1.0, 1.5, P4)
    # 41,001 grid points: one row is larger than a block
    p40 = VendorParams(R=40.0, c=1.0, alpha=0.5)
    assert len(default_grid(p40).points()) > _BLOCK_POINTS
    assert_sweep_matches_cells([0.0, 5.0, 20.0], [0.5, 4.0], 1.0, 1.5, p40)


def test_coverage_grid_memory_does_not_grow_with_cells():
    import tracemalloc

    def peak(deltas):
        tracemalloc.start()
        try:
            coverage_grid(deltas, np.linspace(0.1, 3.0, 6), 1.0, 1.5, P4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(np.linspace(0.0, 3.0, 10)) <= 1.5 * peak([1.0])


def test_gamma_bar_root_below_float_range_is_not_full_coverage():
    # at these loss moments U_out*(5e-324) = -inf, so in every cell short of
    # R - 1 the indifference root lies below the smallest positive float
    from auditopt import optimal_strategy

    cells = coverage_grid([0.0, 1.0, 3.0], [0.1, 1.0], 1e308, 1e308, P4)
    full = 0
    for cell in cells:
        test = ThresholdTest(cell.delta, cell.sigma)
        gb = gamma_bar(test, 1e308, 1e308, P4)
        assert cell.gamma_bar == gb
        if optimal_strategy(test, P4).utility >= P4.R - 1.0:
            full += 1
            assert gb == 0.0
        else:
            assert gb == math.ulp(0.0)
    assert full == 1


def test_ca_shape_constant_test_is_flat():
    report = ca_shape_report(ConstantTest(0.4), P4, GridSpec(5.0, 1e-3))
    assert report.transitions == ()


def test_ca_shape_single_transition_frozen():
    report = ca_shape_report(ThresholdTest(3.0, 1.0), P4, GridSpec(5.0, 1e-3))
    kinds = [k for _, k in report.transitions]
    assert kinds == ["concave_to_convex"]
    assert report.transitions[0][0] == pytest.approx(2.467, abs=5e-3)


def test_ca_shape_transition_moves_with_noise():
    locs = {}
    for sigma in (0.5, 1.0, 2.0):
        rep = ca_shape_report(ThresholdTest(3.0, sigma), P4, GridSpec(5.0, 1e-3))
        assert len(rep.transitions) == 1
        locs[sigma] = rep.transitions[0][0]
    assert locs[0.5] > locs[1.0] > locs[2.0]


def test_liability_model_validation():
    with pytest.raises(ValueError):
        LiabilityModel(gamma=-0.1, mu0=1.0, s0=1.5)
    with pytest.raises(ValueError):
        LiabilityModel(gamma=1.0, mu0=0.0, s0=1.5)
    with pytest.raises(ValueError):
        LiabilityModel(gamma=1.0, mu0=1.0, s0=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            LiabilityModel(gamma=bad, mu0=1.0, s0=1.5)
        with pytest.raises(ValueError):
            LiabilityModel(gamma=1.0, mu0=bad, s0=1.5)
        with pytest.raises(ValueError):
            LiabilityModel(gamma=1.0, mu0=1.0, s0=bad)

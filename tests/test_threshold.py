import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    opt_out_utility,
)
from auditopt.threshold import max_opt_out_utility

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


def test_max_opt_out_depends_on_aversion_times_moments_only():
    # gamma*mu0 = gamma*s0 = 4.94e-16 in both models
    tiny_aversion = max_opt_out_utility(LiabilityModel(5e-324, 1e308, 1e308), P4)
    assert tiny_aversion == max_opt_out_utility(LiabilityModel(5e-324 * 1e308, 1.0, 1.0), P4)
    assert tiny_aversion[0] == pytest.approx(2.99999996, abs=1e-8)


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


@pytest.mark.parametrize(
    "mu0, s0",
    [(-1.0, 1.5), (1.0, -1.5), (0.0, 1.5), (math.nan, 1.5), (1.0, math.nan),
     (math.inf, 1.5), (1.0, math.inf), (-1.0, math.nan)],
)
def test_gamma_bar_rejects_bad_loss_moments_at_full_coverage(mu0, s0):
    # the full-coverage cell never reaches the opt-out solver, yet the
    # moments are checked as coverage_grid checks them
    with pytest.raises(ValueError):
        gamma_bar(ThresholdTest(0.0, 0.01), mu0, s0, P4)
    with pytest.raises(ValueError):
        coverage_grid([0.0], [0.01], mu0, s0, P4)


def test_gamma_bar_frozen_value_and_indifference():
    test = ThresholdTest(3.0, 1.0)
    gb = gamma_bar(test, 1.0, 1.5, P4)
    assert gb == pytest.approx(0.9108548662625253, abs=1e-6)
    from auditopt import optimal_strategy

    u_in = optimal_strategy(test, P4).utility
    assert opt_out_oracle(gb, 1.0, 1.5, P4) == pytest.approx(u_in, abs=1e-6)


def test_gamma_bar_stops_at_float_resolution():
    from fractions import Fraction

    gb = gamma_bar(ThresholdTest(3.0, 1.0), 1.0, 1.5, P4)
    assert gb == 0.9108548660555046
    # within one ulp of the root to 50 digits
    root = Fraction("0.91085486605550455866")
    assert abs(Fraction(gb) - root) <= Fraction(math.ulp(gb))


def test_gamma_bar_finite_up_to_the_cap():
    # gamma_bar scales as 1/mu0: 607,236.58 lies below the 1e6 cap, 1.14e6 above it
    test = ThresholdTest(3.0, 1.0)
    gb = gamma_bar(test, 1.5e-6, 2.25e-6, P4)
    assert gb == pytest.approx(607236.577, abs=1e-3)
    assert gb == pytest.approx(gamma_bar(test, 1.0, 1.5, P4) / 1.5e-6, rel=1e-14)
    from auditopt import optimal_strategy

    u_out = opt_out_oracle(gb, 1.5e-6, 2.25e-6, P4)
    assert abs(u_out - optimal_strategy(test, P4).utility) <= 1e-12 * P4.R
    assert gamma_bar(test, 8e-7, 1.2e-6, P4) == math.inf


def test_gamma_bar_small_root_to_relative_precision():
    # the indifference root to 60 digits (mpmath) for this cell's float opt-in utility
    gb = gamma_bar(ThresholdTest(0.7750000000000001, 0.09), 1.1, 1.65, P4)
    assert gb == pytest.approx(5.7617572060819203e-10, rel=1e-12, abs=0.0)


def test_gamma_bar_tiny_loss_moments_never_participate():
    # gamma_bar ~ 1/mu0 = 1e300, far above the cap, without an overflow on the way
    assert gamma_bar(ThresholdTest(3.0, 1.0), 1e-300, 1e-300, P4) == math.inf


def test_gamma_bar_without_intermediate_overflow_at_extreme_revenue():
    # 2*q/(m + w) * c*x alone would overflow here; the root to 60 digits (mpmath)
    from auditopt.threshold import _indifference

    gb = _indifference(0.0, 1e308, 1e308, VendorParams(R=1e308, c=1e-3, alpha=0.5))
    assert gb == pytest.approx(36455.996807819466085, rel=1e-12)


@pytest.mark.parametrize("k", [2.0**-16, 0.5, 2.0, 2.0**40, 2.0**1000])
def test_gamma_bar_scales_as_one_over_loss_moments(k):
    deltas, sigmas = np.linspace(0.0, 3.0, 7), np.linspace(0.1, 3.0, 7)
    base = [c.gamma_bar for c in coverage_grid(deltas, sigmas, 1.0, 1.5, P4)]
    scaled = [c.gamma_bar for c in coverage_grid(deltas, sigmas, k, 1.5 * k, P4)]
    assert any(0.0 < g < math.inf for g in base)
    assert scaled == [g / k for g in base]


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
    """U_out*(gamma) by bisecting the sign of dU/dx in x itself.

    The loss reads the model only through a = gamma*mu0 and b = gamma*s0, so
    moments of 1e308 neither overflow nor give NaN.
    """
    c, R = params.c, params.R
    a, b = gamma * mu0, gamma * s0

    def loss(x):
        return math.exp(a / x + 0.5 * (b / x) ** 2)

    def rising(x):
        return loss(x) * (a / x + (b / x) ** 2) / x > c

    lo = hi = math.sqrt(a / c)  # dU/dx > 0 below this
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

    cases = [
        (CRITERION_10_CELLS, 1.0, 1.5),
        ([ThresholdTest(3.0, 1.0)], 1.5e-6, 2.25e-6),  # gamma_bar = 607,236.58, near the cap
        ([ThresholdTest(0.7750000000000001, 0.09)], 1.1, 1.65),  # gamma_bar = 5.8e-10
    ]
    finite = 0
    for tests, mu0, s0 in cases:
        for test in tests:
            gb = gamma_bar(test, mu0, s0, P4)
            u_in = optimal_strategy(test, P4).utility
            if gb == 0.0:
                assert u_in >= P4.R - 1.0
                continue
            finite += 1
            hi = 1.0
            while opt_out_oracle(hi, mu0, s0, P4) > u_in:
                hi *= 2.0
            oracle = bisect_to_float_resolution(
                lambda g: opt_out_oracle(g, mu0, s0, P4) > u_in, 0.0, hi
            )
            assert abs(gb - oracle) <= 1e-12 * max(1.0, oracle)
            assert abs(opt_out_oracle(gb, mu0, s0, P4) - u_in) <= 1e-12 * P4.R
    assert finite > 42


def test_gamma_bar_opt_out_solves_per_cell(monkeypatch):
    from auditopt import threshold

    def no_opt_out_solve(model, params):
        raise AssertionError("the sweep solved an opt-out problem")

    cells = []  # per cell, the evaluations of each of its roots
    newton, opt_in_utility = threshold._newton, threshold._opt_in_utility

    def counted_newton(f, lo, hi, rel_tol):
        def counted(t):
            cells[-1][-1] += 1
            return f(t)

        cells[-1].append(0)
        return newton(counted, lo, hi, rel_tol)

    def opt_in_cell(delta, sigma, params):
        cells.append([])
        return opt_in_utility(delta, sigma, params)

    monkeypatch.setattr(threshold, "max_opt_out_utility", no_opt_out_solve)
    monkeypatch.setattr(threshold, "_newton", counted_newton)
    monkeypatch.setattr(threshold, "_opt_in_utility", opt_in_cell)
    deltas, sigmas = np.linspace(0.0, 3.0, 7), np.linspace(0.1, 3.0, 7)
    coverage_grid(deltas, sigmas, 1.0, 1.5, P4)
    # the mode, the opt-in peak and the indifference root, each of a few evaluations
    assert len(cells) == 49
    assert max(len(roots) for roots in cells) <= 3
    assert sum(len(roots) for roots in cells) > 120
    assert max(max(roots) for roots in cells) <= 8


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


OPT_IN_TOL = 1e-14  # times R: the opt-in root against the refined grid of optimal_strategy


def assert_sweep_matches_cells(deltas, sigmas, mu0, s0, params):
    """Opt-in utilities against optimal_strategy, and coverage_grid against gamma_bar."""
    from auditopt import optimal_strategy
    from auditopt.threshold import _opt_in_utility

    tests = [ThresholdTest(float(d), float(s)) for d in deltas for s in sigmas]
    for t in tests:
        gap = _opt_in_utility(t.delta, t.sigma, params) - optimal_strategy(t, params).utility
        assert abs(gap) <= OPT_IN_TOL * params.R, (t, params, gap)
    cells = coverage_grid(deltas, sigmas, mu0, s0, params)
    assert [c.gamma_bar for c in cells] == [gamma_bar(t, mu0, s0, params) for t in tests]


def test_coverage_grid_matches_cell_by_cell_solves():
    deltas, sigmas = np.linspace(0.0, 3.0, 7), np.linspace(0.1, 3.0, 7)
    assert_sweep_matches_cells(deltas, sigmas, 1.0, 1.5, P4)


def test_coverage_grid_memory_does_not_grow_with_cells():
    import tracemalloc

    def peak(deltas):
        tracemalloc.start()
        try:
            coverage_grid(deltas, np.linspace(0.1, 3.0, 6), 1.0, 1.5, P4)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    coverage_grid([3.0], [1.0], 1.0, 1.5, P4)  # imports scipy.special outside the traced peaks
    # each cell keeps its CoverageCell, about 140 bytes; one row of the
    # 5,001-point effort grid would be 40,008
    per_cell = (peak(np.linspace(0.0, 3.0, 100)) - peak([3.0])) / (99 * 6)
    assert per_cell <= 5001 * 8 / 40


def _random_sweeps(seed, sets=20, side=10):
    """Seeded (params, deltas, sigmas): R/c 0.1-100, sigma 1e-3 to 30, alpha
    1e-9, 1 - 1e-9, within 1e-9 to 0.1 of 0 or of 1, or uniform, in turn.

    Each set has a delta below 0 and one beyond R/c + 1.
    """
    rng = np.random.default_rng(seed)
    alphas = (lambda: 1e-9, lambda: 1.0 - 1e-9, lambda: 10.0 ** rng.uniform(-9.0, -1.0),
              lambda: 1.0 - 10.0 ** rng.uniform(-9.0, -1.0), lambda: rng.uniform(0.01, 0.99))
    for i in range(sets):
        rosi = 10.0 ** rng.uniform(-1.0, 2.0)
        c = 10.0 ** rng.uniform(-1.0, 1.0)
        params = VendorParams(R=rosi * c, c=c, alpha=alphas[i % len(alphas)]())
        deltas = rng.uniform(-3.0, rosi + 4.0, side)
        deltas[:2] = -rng.uniform(0.0, 3.0), rosi + 1.0 + rng.uniform(0.0, 3.0)
        sigmas = 10.0 ** rng.uniform(-3.0, math.log10(30.0), side)
        yield params, deltas, sigmas


def test_coverage_grid_cut_matches_cell_by_cell_solves_on_random_cells():
    cells = 0
    for params, deltas, sigmas in _random_sweeps(23):
        assert_sweep_matches_cells(deltas, sigmas, 1.0, 1.5, params)
        cells += len(deltas) * len(sigmas)
    assert cells >= 2000


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    alpha=st.one_of(st.sampled_from([1e-9, 1.0 - 1e-9]), st.floats(1e-9, 1.0 - 1e-9)),
    log_sigma=st.floats(-3.0, math.log10(30.0)),
    delta=st.floats(-3.0, 30.0),
    log_rosi=st.floats(-1.0, 2.0),
    log_c=st.floats(-1.0, 1.0),
)
def test_net_utility_has_at_most_one_interior_peak(alpha, log_sigma, delta, log_rosi, log_c):
    # the premise of _opt_in_utility, on a dense grid and with no root: the
    # differences of G are negative, positive, then negative, each run
    # possibly empty, so they change sign from + to - at most once
    from auditopt import g_value

    c, sigma = 10.0**log_c, 10.0**log_sigma
    params = VendorParams(R=10.0**log_rosi * c, c=c, alpha=alpha)
    xs = delta + sigma * np.linspace(-12.0, 12.0, 4801)  # outside, p is 0 or 1 and G falls
    diffs = np.diff(g_value(ThresholdTest(delta, sigma), params, xs[xs >= 0.0]))
    signs = np.sign(diffs[np.abs(diffs) > 1e-14 * params.R])  # rounding in G is a few ulps of R
    runs = signs[np.flatnonzero(np.diff(signs, prepend=0.0))]  # the sign of each run
    assert "".join("+" if v > 0 else "-" for v in runs) in ("", "-", "+", "-+", "+-", "-+-")


@pytest.mark.parametrize(
    "deltas, sigmas",
    [([0.0, 1.0, math.nan], [1.0]), ([0.0, math.inf], [1.0]), ([0.0, 1.0], [1.0, 0.0]),
     ([0.0], [1.0, -1.0]), ([1.0], [math.nan])],
)
def test_coverage_grid_refuses_a_bad_cell_before_solving_any(monkeypatch, deltas, sigmas):
    from auditopt import threshold

    def no_solve(*args):
        raise AssertionError("a cell was solved")

    monkeypatch.setattr(threshold, "_opt_in_utility", no_solve)
    with pytest.raises(ValueError):
        coverage_grid(deltas, sigmas, 1.0, 1.5, P4)


def test_opt_in_utility_where_sigma_is_below_the_float_spacing_of_delta():
    # delta + sigma*z_r rounds to delta, where p = 1/2; at the next float p is 1
    from auditopt import optimal_strategy
    from auditopt.threshold import _opt_in_utility

    u_in = _opt_in_utility(1.0, 1e-20, P4)
    assert u_in == P4.R - P4.c * math.nextafter(1.0, 2.0) == 3.0
    assert u_in == optimal_strategy(ThresholdTest(1.0, 1e-20), P4).utility


@pytest.mark.parametrize(
    "R, c, sigma, expected",
    [
        (1e308, 5e-324, 5e-324, 1e308),  # c*sigma underflows: a free, certain pass
        (5e-324, 1e308, 1e308, 0.0),  # c*sigma overflows: G(0), p = 1/2, rounds to 0
        (1e-300, 1e300, 1.0, 1e-300 / 1.5),  # c*sigma/R overflows: G(0) at p = 1/2
        (1e300, 1e-300, 1.0, 1e300),  # c*sigma/R underflows
    ],
)
def test_opt_in_utility_where_c_sigma_over_r_leaves_the_floats(R, c, sigma, expected):
    from auditopt.threshold import _opt_in_utility

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _opt_in_utility(0.0, sigma, VendorParams(R, c, 0.5)) == pytest.approx(
            expected, rel=1e-15, abs=0.0)


def test_gamma_bar_root_below_float_range_is_not_full_coverage():
    # at these loss moments every cell short of R - 1 has its indifference
    # root among the subnormal floats, 1e-310 to 1e-308
    from auditopt import optimal_strategy

    cells = coverage_grid([0.0, 1.0, 3.0], [0.1, 1.0], 1e308, 1e308, P4)
    k = 2.0**-1000  # the same cells at normal-range moments, by the scaling law
    normal = coverage_grid([0.0, 1.0, 3.0], [0.1, 1.0], 1e308 * k, 1e308 * k, P4)
    full = 0
    for cell, ref in zip(cells, normal):
        test = ThresholdTest(cell.delta, cell.sigma)
        gb = gamma_bar(test, 1e308, 1e308, P4)
        assert cell.gamma_bar == gb
        u_in = optimal_strategy(test, P4).utility
        if u_in >= P4.R - 1.0:
            full += 1
            assert gb == 0.0 == ref.gamma_bar
            continue
        assert gb > 0.0
        assert gb == pytest.approx(ref.gamma_bar * k, rel=0.0, abs=math.ulp(0.0))
        assert abs(opt_out_oracle(gb, 1e308, 1e308, P4) - u_in) <= 1e-12 * P4.R
    assert full == 1
    # a root below even the subnormals is reported as the smallest float
    from auditopt.threshold import _indifference

    u_in = P4.R - 1.0 - 2.0**-30
    assert 0.0 < _indifference(u_in, 1.0, 1.0, P4) < 1e-17
    assert _indifference(u_in, 1e308, 1e308, P4) == math.ulp(0.0)


def test_ca_shape_constant_test_is_flat():
    assert ca_shape_report(ConstantTest(0.4), P4, GridSpec(5.0, 1e-3)) == ()


def test_ca_shape_single_transition_frozen():
    transitions = ca_shape_report(ThresholdTest(3.0, 1.0), P4, GridSpec(5.0, 1e-3))
    kinds = [k for _, k in transitions]
    assert kinds == ["concave_to_convex"]
    assert transitions[0][0] == pytest.approx(2.467, abs=5e-3)


def test_ca_shape_transition_moves_with_noise():
    locs = {}
    for sigma in (0.5, 1.0, 2.0):
        transitions = ca_shape_report(ThresholdTest(3.0, sigma), P4, GridSpec(5.0, 1e-3))
        assert len(transitions) == 1
        locs[sigma] = transitions[0][0]
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

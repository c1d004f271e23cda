import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from auditopt import (
    ConstantTest,
    GridSpec,
    LinearTest,
    Schedule,
    ThresholdTest,
    VendorParams,
    default_grid,
    enumerate_schedules,
    g_value,
    optimal_strategy,
    value_iteration_oracle,
    waiver_cost,
)
from auditopt import core
from auditopt.core import golden_max, grid_peaks, refine_peaks
from auditopt.types import MAX_GRID_POINTS

P4 = VendorParams(R=4.0, c=1.0, alpha=0.5)


def test_g_value_certain_pass():
    assert g_value(ConstantTest(1.0), P4, 0.0) == 4.0
    assert g_value(ConstantTest(1.0), P4, 1.5) == 4.0 - 1.5


def test_g_value_certain_fail():
    assert g_value(ConstantTest(0.0), P4, 2.0) == -2.0


def test_g_value_rejects_negative_effort():
    with pytest.raises(ValueError):
        g_value(ConstantTest(0.5), P4, -0.1)
    with pytest.raises(ValueError):
        waiver_cost(ConstantTest(0.5), P4, -0.1)


def test_g_value_threshold_has_interior_maximum():
    xs = np.arange(0.0, 8.0, 1e-3)
    g = g_value(ThresholdTest(1.0, 1.0), P4, xs)
    i = int(np.argmax(g))
    assert 0 < i < len(xs) - 1
    assert g[i] > g[0] and g[i] > g[-1]


def test_waiver_cost_boundary_values():
    assert waiver_cost(ConstantTest(0.0), P4, 1.0) == 4.0
    assert waiver_cost(ConstantTest(1.0), P4, 1.0) == 0.0
    p3 = VendorParams(R=3.0, c=1.0, alpha=0.5)
    assert waiver_cost(ConstantTest(0.5), p3, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_waiver_cost_decreasing_and_bounded():
    xs = np.arange(0.0, 6.0, 1e-2)
    ca = waiver_cost(ThresholdTest(2.0, 0.7), P4, xs)
    assert np.all(np.diff(ca) <= 1e-12)
    assert np.all(ca >= -1e-15) and np.all(ca <= 4.0 + 1e-15)


@settings(max_examples=60, deadline=None)
@given(
    r=st.floats(0.5, 5.0),
    c=st.floats(0.5, 2.0),
    a=st.floats(0.05, 0.95),
    delta=st.floats(0.0, 3.0),
    sigma=st.floats(0.2, 2.0),
    x=st.floats(0.0, 8.0),
)
def test_identity_g_plus_waiver_plus_cost(r, c, a, delta, sigma, x):
    params = VendorParams(R=r, c=c, alpha=a)
    test = ThresholdTest(delta, sigma)
    total = g_value(test, params, x) + waiver_cost(test, params, x) + c * x
    assert total == pytest.approx(r, abs=1e-12)


def test_optimal_strategy_certain_pass():
    sol = optimal_strategy(ConstantTest(1.0), P4)
    assert sol.utility == 4.0
    assert sol.maximizers == (0.0,)


def test_optimal_strategy_linear_safe_harbor():
    # entrance value 3 leaves the vendor indifferent between 0 and full effort
    sol = optimal_strategy(LinearTest(3.0), P4)
    assert sol.utility == pytest.approx(0.0, abs=1e-12)
    assert max(sol.maximizers) == pytest.approx(4.0, abs=1e-9)
    assert min(sol.maximizers) == pytest.approx(0.0, abs=1e-9)


def test_golden_max_lockstep_matches_scalar_calls():
    f = lambda x: -((x - 0.3) ** 2) * (1.0 + np.sin(7.0 * x) ** 2)
    los = np.array([0.0, 0.25, 0.1, 0.29999, 0.3])
    his = np.array([1.0, 0.35, 0.31, 0.30001, 0.3])
    xs = golden_max(f, los, his, tol=1e-12)
    scalar = [golden_max(f, lo, hi, tol=1e-12) for lo, hi in zip(los, his)]
    assert all(type(x) is float for x in scalar)
    assert xs.tolist() == scalar


def test_golden_max_stops_below_float_spacing():
    # at 1e13 neighbouring floats are 2e-3 apart, far above tol
    x = golden_max(lambda x: -((x - 1.00000001e13) ** 2), 1e13, 1e13 + 1e7, tol=1e-9)
    assert abs(x - 1.00000001e13) < 1.0


def test_refine_peaks_lockstep_matches_single_peak_calls():
    f = lambda x: -((x - 0.3) ** 2) * (1.0 + np.sin(7.0 * x) ** 2)
    # (peak, left neighbour, right neighbour) as grid_peaks gives them, clipped
    # at a grid end in the last two rows
    bx = np.array([[0.5, 0.0, 1.0], [0.3, 0.25, 0.35], [0.3, 0.29999, 0.30001],
                   [0.3, 0.3, 0.3], [0.0, 0.0, 0.31], [1.0, 0.29, 1.0]])
    bu = f(bx)
    xs, us = refine_peaks(f, bx, bu)
    alone = [refine_peaks(f, bx[i:i + 1], bu[i:i + 1]) for i in range(len(bx))]
    assert xs.tolist() == [x[0] for x, _ in alone]
    assert us.tolist() == [u[0] for _, u in alone]
    assert np.all(us >= bu[:, 0]) and us[3] == bu[3, 0]  # values never drop
    assert np.all((bx[:, 1] <= xs) & (xs <= bx[:, 2]))
    assert np.all(np.abs(xs[:3] - 0.3) <= 1e-9)


def test_refine_peaks_stops_below_float_spacing():
    # at 1e13 neighbouring floats are 2e-3 apart, far above the 1e-9 tolerance
    f = lambda x: -((x - 1.00000001e13) ** 2)
    bx = np.array([[1e13 + 5e6, 1e13, 1e13 + 1e7]])
    xs, us = refine_peaks(f, bx, f(bx))
    assert abs(xs[0] - 1.00000001e13) < 1.0


def test_refine_peaks_calls_f_six_times_on_a_fine_grid(monkeypatch):
    # nested grids of 33 points: 6 calls of f per refinement on a 1e-3 grid
    # (a golden-section refinement makes 34)
    shapes = []
    g_value = core.g_value

    def counted(test, params, x):
        shapes.append(np.shape(x))
        return g_value(test, params, x)

    monkeypatch.setattr(core, "g_value", counted)
    sol = optimal_strategy(ThresholdTest(1.0, 1.0), P4)
    assert sol.utility == pytest.approx(1.7704991603434688, abs=1e-9)
    grid, *passes = shapes
    assert grid == (len(default_grid(P4).points()),)
    assert len(passes) == 6 and all(s[1] == 33 for s in passes)


def test_optimal_strategy_at_a_linear_kink():
    # the maximum sits at the kink x = b + 1, where a golden-section refinement
    # stops 1.1e-10 below it
    R, c, b = 3.7648563533187662, 1.939974088552574, 0.6639707914651352
    sol = optimal_strategy(LinearTest(b), VendorParams(R, c, 0.38479697116430794))
    exact = R - c * (b + 1.0)  # 0.5367961337680854
    assert exact - 2e-11 <= sol.utility <= exact + 4e-16
    assert sol.maximizers == pytest.approx((b + 1.0,), abs=1e-9)


def test_grid_spec_caps_point_count():
    GridSpec(x_max=(MAX_GRID_POINTS - 1) * 1e-3, step=1e-3)  # exactly at the cap
    for x_max, step in ((MAX_GRID_POINTS * 1e-3, 1e-3), (1e3, 1e-9)):
        with pytest.raises(ValueError, match="grid points"):
            GridSpec(x_max=x_max, step=step)
    with pytest.raises(ValueError, match="grid points"):
        GridSpec(x_max=1e300, step=1e-300)


def test_optimal_strategy_short_grids():
    for step in (1.0, 2.5, 10.0):  # 4, 2 and 1 grid points
        sol = optimal_strategy(ThresholdTest(1.0, 0.5), VendorParams(2.0, 1.0, 0.5),
                               GridSpec(x_max=3.0, step=step))
        assert sol.maximizers and all(type(m) is float for m in sol.maximizers)
        assert not sol.flat


def test_optimal_strategy_threshold_frozen():
    # frozen grid+refinement solution, cross-checked below against the
    # independent value-iteration oracle
    sol = optimal_strategy(ThresholdTest(1.0, 1.0), P4)
    assert sol.utility == pytest.approx(1.7704991603434688, abs=1e-9)
    assert len(sol.maximizers) == 1
    assert sol.maximizers[0] == pytest.approx(1.4827686447796231, abs=1e-6)
    assert sol.utility >= 0.0


def test_optimal_strategy_matches_value_iteration():
    test = ThresholdTest(1.0, 1.0)
    sol = optimal_strategy(test, P4)
    vf = value_iteration_oracle(test, P4, tol=1e-8)
    assert abs(sol.utility - vf.at_zero()) <= 1e-4


def test_enumerate_schedules_singleton():
    sol = optimal_strategy(ConstantTest(1.0), P4)
    scheds = enumerate_schedules(sol, horizon=4)
    assert len(scheds) == 1
    assert scheds[0].levels == (0.0, 0.0, 0.0, 0.0)
    assert scheds[0].kind == "one_and_done"


def test_enumerate_schedules_two_maximizers():
    sol = optimal_strategy(LinearTest(3.0), P4)
    assert len(sol.maximizers) == 2
    x_lo, x_hi = sorted(sol.maximizers)
    scheds = enumerate_schedules(sol, horizon=5, switch_times=[2])
    kinds = [s.kind for s in scheds]
    assert kinds.count("one_and_done") == 2
    assert kinds.count("incremental") == 1
    inc = next(s for s in scheds if s.kind == "incremental")
    assert inc.levels == (x_lo, x_lo, x_hi, x_hi, x_hi)
    one_levels = {s.levels[0] for s in scheds if s.kind == "one_and_done"}
    assert one_levels == {x_lo, x_hi}


def test_enumerate_schedules_rejects_empty_horizon():
    sol = optimal_strategy(ConstantTest(1.0), P4)
    with pytest.raises(ValueError):
        enumerate_schedules(sol, horizon=0)


def test_value_iteration_certain_pass():
    vf = value_iteration_oracle(ConstantTest(1.0), P4, GridSpec(5.0, 1e-2))
    assert np.allclose(vf.values, 4.0, atol=1e-8)


def test_value_iteration_net_value_monotone():
    vf = value_iteration_oracle(ThresholdTest(1.5, 0.8), P4, GridSpec(5.0, 1e-2))
    net = vf.values - P4.c * vf.xs
    assert np.all(np.diff(net) <= 1e-9)


def test_value_iteration_never_quits():
    # the max-with-zero in the fixed point is never strictly binding
    test = ThresholdTest(2.0, 1.0)
    grid = GridSpec(5.0, 1e-2)
    vf = value_iteration_oracle(test, P4, grid, tol=1e-9)
    xs = vf.xs
    p = test(xs)
    q = -P4.c * xs + p * P4.R + P4.alpha * (1.0 - p) * vf.values
    m = np.maximum.accumulate(q[::-1])[::-1]
    continuation = P4.c * xs + m
    assert np.min(continuation) >= -1e-6


def test_grid_default_covers_capacity():
    grid = default_grid(P4)
    assert grid.x_max >= P4.R / P4.c
    xs = grid.points()
    assert xs[0] == 0.0 and xs[-1] == pytest.approx(grid.x_max)


def test_schedule_validation():
    with pytest.raises(ValueError):
        Schedule(levels=())
    with pytest.raises(ValueError):
        Schedule(levels=(1.0, 0.5))
    with pytest.raises(ValueError):
        Schedule(levels=(-1.0,))
    s = Schedule(levels=(0.5, 1.0))
    assert s.level_at(0) == 0.5 and s.level_at(7) == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_types_reject_non_finite(bad):
    for make in (
        lambda: VendorParams(R=bad, c=1.0, alpha=0.5),
        lambda: VendorParams(R=4.0, c=bad, alpha=0.5),
        lambda: ThresholdTest(delta=bad, sigma=1.0),
        lambda: ThresholdTest(delta=1.0, sigma=bad),
        lambda: LinearTest(b=bad),
        lambda: GridSpec(x_max=bad, step=1e-3),
        lambda: Schedule(levels=(0.5, bad)),
    ):
        with pytest.raises(ValueError, match="finite"):
            make()


def test_test_function_json_round_trip():
    from auditopt import TestFunction

    for t in (ThresholdTest(1.0, 0.5), LinearTest(2.0), ConstantTest(0.3)):
        again = TestFunction.from_json(t.to_json())
        assert again == t
    with pytest.raises(ValueError):
        TestFunction.from_json({"type": "mystery"})


@settings(max_examples=30, deadline=None)
@given(
    delta=st.floats(-1.0, 3.0),
    sigma=st.floats(0.2, 2.0),
    b=st.floats(0.0, 3.0),
    p=st.floats(0.0, 1.0),
)
def test_test_functions_monotone_and_bounded(delta, sigma, b, p):
    xs = np.linspace(0.0, 6.0, 301)
    for t in (ThresholdTest(delta, sigma), LinearTest(b), ConstantTest(p)):
        vals = t(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.all(np.diff(vals) >= -1e-15)


def test_threshold_calibration_at_delta():
    t = ThresholdTest(1.7, 0.6)
    assert t(1.7) == pytest.approx(0.5, abs=1e-15)
    assert t(1.7 + 1e-6) > 0.5 > t(1.7 - 1e-6)

"""The grid step is the effort unit: scaling x_max, the step, every delta,
sigma and schedule level by 2^j and c by 2^-j changes no utility, bit for
bit, and scales every maximizer and transition by 2^j exactly.

LinearTest is left out: its ramp has width 1, an effort unit of its own.
"""

from hypothesis import given, settings, strategies as st

from auditopt import (
    Audit,
    ConstantTest,
    GridSpec,
    Schedule,
    ThresholdTest,
    VendorParams,
    backward_induction,
    ca_shape_report,
    evaluate_schedule,
    optimal_strategy,
    value_iteration_oracle,
)

SCALES = (-6, 6)

TESTS = st.one_of(
    st.builds(ThresholdTest, st.floats(0.0, 3.0), st.floats(0.05, 1.5)),
    st.builds(ConstantTest, st.floats(0.0, 1.0)),
)


def _scale(test, s):
    return ThresholdTest(s * test.delta, s * test.sigma) if isinstance(test, ThresholdTest) else test


def _outcomes(params, test, prefix, levels, grid):
    """Every utility and value array, every effort, and every transition kind."""
    sol = optimal_strategy(test, params, grid)
    audit = Audit(prefix, test)
    vf = backward_induction(audit, params, grid)
    transitions = ca_shape_report(test, params, grid)
    money = [sol.utility, sol.tie_tol, evaluate_schedule(Schedule(levels), audit, params),
             value_iteration_oracle(test, params, grid).values.tolist(), vf.values.tolist()]
    efforts = [*sol.maximizers, vf.maximizer, *(x for x, _ in transitions)]
    return money, efforts, [kind for _, kind in transitions]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    rosi=st.floats(0.3, 6.0),
    c=st.floats(0.1, 10.0),
    alpha=st.floats(0.1, 0.9),
    step=st.sampled_from([1e-3, 3e-3, 1e-2]),
    test=TESTS,
    prefix=st.lists(TESTS, max_size=2),
    levels=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=3).map(sorted),
)
def test_every_solver_scales_exactly_with_the_effort_unit(rosi, c, alpha, step, test, prefix,
                                                          levels):
    params = VendorParams(rosi * c, c, alpha)
    grid = GridSpec(x_max=params.rosi + 1.0, step=step)
    money, efforts, kinds = _outcomes(params, test, prefix, levels, grid)
    for j in SCALES:
        s = 2.0**j
        scaled = _outcomes(VendorParams(params.R, c / s, alpha), _scale(test, s),
                           [_scale(t, s) for t in prefix], [s * x for x in levels],
                           GridSpec(x_max=s * grid.x_max, step=s * step))
        assert scaled == (money, [s * x for x in efforts], kinds), j

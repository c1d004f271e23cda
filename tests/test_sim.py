import math
import time
import tracemalloc

import numpy as np
import pytest

from auditopt import (
    Audit,
    ConstantTest,
    GridSpec,
    LinearTest,
    Schedule,
    ThresholdTest,
    VendorParams,
    backward_induction,
    default_grid,
    enumerate_schedules,
    evaluate_schedule,
    g_value,
    never_quit_audit_trail,
    optimal_strategy,
    simulate,
)

P4 = VendorParams(R=4.0, c=1.0, alpha=0.5)


def static(test):
    return Audit(prefix=(), tail=test)


def test_evaluate_certain_pass():
    sched = Schedule(levels=(1.5,))
    assert evaluate_schedule(sched, static(ConstantTest(1.0)), P4) == pytest.approx(
        4.0 - 1.5, abs=1e-12
    )


def test_evaluate_safe_harbor_design_point():
    sched = Schedule(levels=(4.0,))
    assert evaluate_schedule(sched, static(LinearTest(3.0)), P4) == pytest.approx(
        0.0, abs=1e-12
    )


def test_one_and_done_equals_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(10):
        test = ThresholdTest(rng.uniform(0.0, 3.0), rng.uniform(0.3, 1.5))
        x = rng.uniform(0.0, 4.0)
        sched = Schedule(levels=(x,))
        assert evaluate_schedule(sched, static(test), P4) == pytest.approx(
            g_value(test, P4, x), abs=1e-10
        )


def test_schedule_timing_invariance_on_tied_maximizers():
    # entrance value 3 ties investing nothing with full effort, so the
    # switch time of the incremental schedule cannot matter
    sol = optimal_strategy(LinearTest(3.0), P4)
    audit = static(LinearTest(3.0))
    values = []
    for switch in (1, 2, 5):
        scheds = enumerate_schedules(sol, switch_times=[switch])
        inc = next(s for s in scheds if s.kind == "incremental")
        values.append(evaluate_schedule(inc, audit, P4))
        for s in scheds:
            values.append(evaluate_schedule(s, audit, P4))
    assert max(values) - min(values) <= 1e-6


def test_simulate_degenerate_is_exact():
    res = simulate(Schedule(levels=(1.0,)), static(ConstantTest(1.0)), P4, 500, seed=1)
    assert res.mean_utility == pytest.approx(3.0, abs=1e-12)
    assert res.std_error == 0.0
    assert res.pass_time_histogram == {1: 500}
    assert res.truncated_fraction == 0.0


def test_simulate_deterministic_for_fixed_seed():
    sched = Schedule(levels=(1.0, 1.5))
    audit = static(ThresholdTest(1.0, 1.0))
    a = simulate(sched, audit, P4, 2000, seed=42)
    b = simulate(sched, audit, P4, 2000, seed=42)
    assert a == b
    c = simulate(sched, audit, P4, 2000, seed=43)
    assert c.mean_utility != a.mean_utility


def test_simulate_agrees_with_analytic_value():
    test = ThresholdTest(1.0, 1.0)
    sol = optimal_strategy(test, P4)
    sched = Schedule(levels=(sol.maximizers[0],))
    res = simulate(sched, static(test), P4, 100000, seed=7)
    exact = evaluate_schedule(sched, static(test), P4)
    assert abs(res.mean_utility - exact) <= 3.0 * res.std_error
    assert res.mean_utility == pytest.approx(exact, abs=0.05)


def test_simulate_result_json():
    res = simulate(Schedule(levels=(1.0,)), static(ConstantTest(1.0)), P4, 10, seed=0)
    j = res.to_json()
    assert j["episodes"] == 10
    assert j["pass_time_histogram"] == {"1": 10}
    assert set(j) == {
        "mean",
        "std_error",
        "episodes",
        "truncated_fraction",
        "pass_time_histogram",
    }


def test_never_quit_trail_along_optimal_schedule():
    test = ThresholdTest(1.0, 1.0)
    sol = optimal_strategy(test, P4)
    sched = enumerate_schedules(sol)[0]
    trail = never_quit_audit_trail(static(test), P4, sched)
    assert all(v >= -1e-9 for v in trail)


def test_never_quit_trail_indifferent_at_zero():
    trail = never_quit_audit_trail(
        static(ConstantTest(0.0)), P4, Schedule(levels=(0.0,))
    )
    assert all(abs(v) <= 1e-12 for v in trail)


def test_never_quit_trail_two_step_design_point():
    import math

    from auditopt import design_dynamic_easier_first

    p15 = VendorParams(R=1.5, c=1.0, alpha=0.5)
    d = design_dynamic_easier_first(p15)
    audit = Audit(prefix=(LinearTest(d.b_prime),), tail=LinearTest(d.b))
    trail = never_quit_audit_trail(audit, p15, Schedule(levels=(d.x,)))
    assert all(v >= -1e-9 for v in trail)


def test_never_quit_trail_at_a_million_steps():
    start = time.perf_counter()
    trail = never_quit_audit_trail(static(LinearTest(1.0)), P4, Schedule((1.0, 2.0), (10**6,)))
    assert time.perf_counter() - start < 1.0
    assert len(trail) == 10**6 + 2
    assert type(trail[0]) is float and type(trail[-1]) is float
    # every step before the switch holds level 1 and meets the same tail
    assert trail[1] == trail[10**6] and trail[10**6 + 1] != trail[1]
    grid = GridSpec(x_max=P4.rosi + 1.0, step=1e-3)
    u_star = backward_induction(static(LinearTest(1.0)), P4, grid).values
    assert trail[1] == P4.c * 1.0 + float(np.interp(1.0, grid.points(), u_star))


def test_never_quit_trail_refuses_a_late_switch_before_allocating():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="steps is more than"):
        never_quit_audit_trail(static(LinearTest(1.0)), P4, Schedule((1.0, 2.0), (10**9,)))
    assert time.perf_counter() - start < 0.1


def test_a_stationary_zero_pass_probability_ends_the_steps():
    params = VendorParams(R=4.0, c=1.0, alpha=0.999999)  # horizons of ~10^7 steps
    start = time.perf_counter()
    audit = static(ConstantTest(0.0))
    assert evaluate_schedule(Schedule((1.0,)), audit, params) == -1.0
    res = simulate(Schedule((1.0,)), audit, params, 1000, seed=1)
    assert (res.mean_utility, res.std_error, res.truncated_fraction) == (-1.0, 0.0, 1.0)
    assert res.pass_time_histogram == {}
    # a zero before the audit and the schedule are stationary does not end the steps
    late = Audit(prefix=(ConstantTest(0.0),), tail=ConstantTest(1.0))
    assert evaluate_schedule(Schedule((1.0,)), late, params) == -1.0 + params.alpha * params.R
    assert simulate(Schedule((1.0,)), late, params, 1000, seed=1).pass_time_histogram == {2: 1000}
    switch, ramp = Schedule((0.0, 2.0), (3,)), static(LinearTest(1.0))
    assert evaluate_schedule(switch, ramp, params) == pytest.approx(
        params.alpha**3 * (params.R - 2.0 * params.c), rel=1e-15)
    assert simulate(switch, ramp, params, 1000, seed=1).pass_time_histogram == {4: 1000}
    assert time.perf_counter() - start < 1.0


def test_never_quit_trail_covers_the_prefix():
    prefix = (LinearTest(0.5), ThresholdTest(1.0, 0.5), LinearTest(2.0))
    audit = Audit(prefix=prefix, tail=LinearTest(1.0))
    grid = GridSpec(x_max=P4.rosi + 1.0, step=1e-3)
    for sched, steps in ((Schedule(levels=(1.5,)), 5), (Schedule((0.5, 1.5, 2.5), (2, 6)), 8)):
        trail = never_quit_audit_trail(audit, P4, sched)
        assert len(trail) == steps
        assert all(v >= -1e-9 for v in trail)
        for t, v in enumerate(trail):  # one scalar step at a time, as a reference
            x_prev = 0.0 if t == 0 else sched.level_at(t - 1)
            u_star = backward_induction(Audit(prefix[t:], audit.tail), P4, grid).values
            assert v == P4.c * x_prev + float(np.interp(x_prev, grid.points(), u_star))


def test_simulate_certain_fail_truncates_every_episode():
    levels = (0.5, 1.0, 1.5)
    res = simulate(Schedule(levels=levels), static(ConstantTest(0.0)), P4, 3000, seed=4)
    assert res.truncated_fraction == 1.0
    assert res.pass_time_histogram == {}
    # every episode pays the stepped schedule's costs and never earns; the
    # level stops rising after step 2, so later steps cost nothing
    cost, disc, x_prev = 0.0, 1.0, 0.0
    for x in levels:
        cost -= disc * P4.c * (x - x_prev)
        disc *= P4.alpha
        x_prev = x
    assert res.mean_utility == cost
    assert res.std_error == 0.0


@pytest.mark.parametrize("episodes", [1, 8193, 10**12])
def test_simulate_counts_every_episode(episodes):
    sched = Schedule(levels=(1.0, 1.5))
    audit = static(ThresholdTest(1.0, 1.0))
    start = time.perf_counter()
    res = simulate(sched, audit, P4, episodes, seed=9)
    assert time.perf_counter() - start < 1.0  # the steps played set the time
    assert res.episodes == episodes
    assert sum(res.pass_time_histogram.values()) + round(
        res.truncated_fraction * episodes
    ) == episodes
    if episodes == 1:
        assert res.std_error == 0.0
    assert math.isfinite(res.mean_utility) and math.isfinite(res.std_error)


def test_simulate_memory_is_bounded_by_chunk():
    # a chunk of 8192 episodes held as floats is the most the run may grow by
    # when the episode count is multiplied by four
    chunk = 8192
    sched = Schedule(levels=(1.0,))
    audit = static(ConstantTest(0.5))

    def peak(episodes):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate(sched, audit, P4, episodes, seed=3)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    simulate(sched, audit, P4, 10, seed=3)  # warm up lazy set-up
    chunk_bytes = chunk * np.dtype(float).itemsize
    assert abs(peak(16 * chunk) - peak(4 * chunk)) < chunk_bytes


def test_simulate_keeps_no_per_episode_array():
    # every episode fails, so both counts play the same steps to the horizon
    # and only the number of episodes differs
    sched = Schedule(levels=(0.5, 1.0, 1.5))
    audit = static(ConstantTest(0.0))

    def peak(episodes):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            simulate(sched, audit, P4, episodes, seed=3)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    simulate(sched, audit, P4, 10, seed=3)  # warm up lazy set-up
    assert abs(peak(10**12) - peak(10)) < 256


def pass_time_law(schedule, audit, params):
    """Probability of a first pass at each time t+1, and of reaching the
    default horizon without one, from the tests' probabilities alone."""
    law, survive, t = {}, 1.0, 0
    while params.alpha**t * params.R / (1.0 - params.alpha) >= 1e-9 * params.R:
        p = float(audit.test_at(t)(schedule.level_at(t)))
        law[t + 1] = survive * p
        survive *= 1.0 - p
        t += 1
    return law, survive


@pytest.mark.parametrize("seed", range(5))
def test_simulate_pass_times_follow_the_tests(seed):
    sched = Schedule(levels=(0.4, 0.4, 1.2))
    audit = Audit(prefix=(LinearTest(0.2), ThresholdTest(1.5, 0.8)), tail=ThresholdTest(1.0, 0.6))
    n = 100_000
    law, p_trunc = pass_time_law(sched, audit, P4)
    res = simulate(sched, audit, P4, n, seed=seed)
    assert set(res.pass_time_histogram) <= set(law)
    cells = [(res.pass_time_histogram.get(t, 0), pi) for t, pi in law.items()]
    cells.append((round(res.truncated_fraction * n), p_trunc))
    # the normal bound needs an expected count of at least 5, so the rarer
    # cells are pooled into one
    rare = [cell for cell in cells if n * cell[1] < 5.0]
    observed = [cell for cell in cells if n * cell[1] >= 5.0]
    if rare:
        observed.append((sum(k for k, _ in rare), sum(pi for _, pi in rare)))
    for count, pi in observed:
        assert abs(count - n * pi) <= 5.0 * math.sqrt(n * pi * (1.0 - pi)) + 1e-9


def test_simulate_does_not_use_the_exact_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate must not call evaluate_schedule")

    monkeypatch.setattr("auditopt.sim.evaluate_schedule", refuse)
    res = simulate(Schedule(levels=(1.0, 1.5)), static(ThresholdTest(1.0, 1.0)), P4, 1000, seed=5)
    assert res.episodes == 1000


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_simulate_rejects_a_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        simulate(Schedule(levels=(1.0,)), static(ConstantTest(0.5)), P4, 10, seed=seed)


@pytest.mark.parametrize("episodes", [0, 2.5, 2**63])
def test_simulate_rejects_a_bad_episode_count(episodes):
    with pytest.raises(ValueError, match=r"episodes must be an integer in \[1, 2\*\*63\)"):
        simulate(Schedule(levels=(1.0,)), static(ConstantTest(0.5)), P4, episodes, seed=0)


def _schedule_cases(seed, n):
    """Seeded schedules, parameters and audits with prefixes, all three test kinds."""
    rng = np.random.default_rng(seed)
    kinds = (
        lambda: ThresholdTest(rng.uniform(0.0, 3.0), rng.uniform(0.3, 1.5)),
        lambda: LinearTest(rng.uniform(0.0, 3.0)),
        lambda: ConstantTest(rng.uniform(0.0, 1.0)),
    )
    for i in range(n):
        prefix = tuple(kinds[rng.integers(3)]() for _ in range(rng.integers(0, 3)))
        levels = tuple(float(x) for x in np.sort(rng.uniform(0.0, 4.0, rng.integers(1, 4))))
        params = VendorParams(rng.uniform(1.0, 10.0), rng.uniform(0.5, 2.0), rng.uniform(0.1, 0.95))
        yield Schedule(levels=levels), Audit(prefix=prefix, tail=kinds[i % 3]()), params


@pytest.mark.parametrize("j", [-3, 5])
def test_schedule_values_scale_exactly_with_the_money_unit(j):
    s = 2.0**j
    for schedule, audit, params in _schedule_cases(13, 30):
        scaled = VendorParams(s * params.R, s * params.c, params.alpha)
        value = evaluate_schedule(schedule, audit, params)
        assert evaluate_schedule(schedule, audit, scaled) == s * value
        res = simulate(schedule, audit, params, 1000, seed=5)
        res_scaled = simulate(schedule, audit, scaled, 1000, seed=5)
        assert res_scaled.mean_utility == s * res.mean_utility
        assert res_scaled.std_error == s * res.std_error
        assert res_scaled.pass_time_histogram == res.pass_time_histogram
        assert res_scaled.truncated_fraction == res.truncated_fraction
        vf = backward_induction(audit, params, default_grid(params))
        vf_scaled = backward_induction(audit, scaled, default_grid(scaled))
        assert np.array_equal(vf_scaled.values, s * vf.values)
        assert vf_scaled.maximizer == vf.maximizer
        trail = np.array(never_quit_audit_trail(audit, params, schedule))
        assert np.array_equal(never_quit_audit_trail(audit, scaled, schedule), s * trail)

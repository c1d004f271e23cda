"""End-to-end acceptance suite.

Each test exercises one numbered acceptance criterion at its stated
tolerance and prints a single pass/fail line. Run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from types import SimpleNamespace

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
    bdd_check,
    capacity_gap_bound,
    coverage_grid,
    design_dynamic_easier_first,
    design_dynamic_harder_first,
    design_static,
    enumerate_schedules,
    evaluate_schedule,
    g_value,
    optimal_strategy,
    perturb_one_test,
    simulate,
    value_iteration_oracle,
    waiver_cost,
)
from auditopt.core import golden_max
from auditopt.linear import argmax_largest_tie, g_linear
from auditopt.multistep import approximation_study


def golden_argmax(f, a, b, tol=1e-12):
    x = golden_max(f, a, b, tol=tol)
    return x, f(x)


def report(number, description, ok):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    slowest = 0.0
    for _ in range(20):
        params = VendorParams(
            R=rng.uniform(1.0, 5.0), c=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.2, 0.8)
        )
        test = ThresholdTest(rng.uniform(0.0, 3.0), rng.uniform(0.5, 2.0))
        grid = GridSpec(x_max=params.rosi + 1.0, step=1e-3)
        t0 = time.time()
        sol = optimal_strategy(test, params, grid)
        vf = value_iteration_oracle(test, params, grid, tol=1e-6)
        slowest = max(slowest, time.time() - t0)
        worst = max(worst, abs(sol.utility - vf.at_zero()))
    report(
        1,
        f"closed form vs value iteration, worst gap {worst:.2e} <= 1e-4, "
        f"slowest run {slowest:.2f}s < 5s",
        worst <= 1e-4 and slowest < 5.0,
    )


def brute_force_static_design(samples):
    """Best entrance value and induced investment of every sample by generic
    search: scan each sample's b-grid for the feasibility cliff of the
    interior peak, bisect all the cliffs in lockstep, then refine each
    induced investment."""

    def peak(b, params):  # b may be an array of entrance values, refined in lockstep
        x = golden_max(lambda x: g_linear(b, params, x), b, b + 1.0, tol=1e-12)
        return x, g_linear(b, params, x)

    lo, hi, any_feasible = [], [], []
    for params in samples:
        b_hi = params.rosi + 1.0
        bs = np.arange(0.0, b_hi, 1e-3)
        feasible = peak(bs, params)[1] >= 0.0
        i = int(np.nonzero(feasible)[0][-1]) if feasible[0] else 0
        lo.append(bs[i])
        hi.append(min(bs[i] + 1e-3, b_hi))
        any_feasible.append(bool(feasible[0]))
    # g_linear reads only R, c and alpha, so per-sample arrays of them make
    # one lockstep call score every sample's midpoint
    arrays = SimpleNamespace(**{k: np.array([getattr(p, k) for p in samples])
                                for k in ("R", "c", "alpha")})
    lo, hi = np.array(lo), np.array(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ok = peak(mid, arrays)[1] >= 0.0
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    x = peak(lo, arrays)[0]
    return np.where(any_feasible, lo, 0.0), np.where(any_feasible, x, 0.0)


def sample_cases(rng, case, n):
    out = []
    while len(out) < n:
        a = rng.uniform(0.2, 0.8)
        c = rng.uniform(0.5, 2.0)
        if case == "i":
            rosi = rng.uniform(0.05, (1.0 - a) * 0.95)
        elif case == "ii":
            rosi = rng.uniform((1.0 - a) * 1.02, 0.98 / (1.0 - a))
        else:
            rosi = rng.uniform(1.0 / (1.0 - a) * 1.02, 4.0 / (1.0 - a))
        out.append(VendorParams(R=rosi * c, c=c, alpha=a))
    return out


def test_criterion_02_static_design_closed_forms():
    rng = np.random.default_rng(202)
    cases = [(case, p) for case in ("i", "ii", "iii") for p in sample_cases(rng, case, 50)]
    b_num, x_num = brute_force_static_design([p for _, p in cases])
    worst_b = 0.0
    worst_x = 0.0
    for (case, params), b, x in zip(cases, b_num, x_num):
        d = design_static(params)
        worst_x = max(worst_x, abs(d.x - x))
        if case != "i":  # the entrance value is arbitrary when nothing is induced
            worst_b = max(worst_b, abs(d.b - b))
    exact = design_static(VendorParams(R=4.0, c=1.0, alpha=0.5))
    report(
        2,
        f"static designer vs brute force over 150 samples, "
        f"worst |db|={worst_b:.2e}, |dx|={worst_x:.2e} <= 1e-4; "
        f"high-return landmark b*={exact.b}, x={exact.x}",
        worst_b <= 1e-4 and worst_x <= 1e-4 and exact.b == 3.0 and exact.x == 4.0,
    )


def test_criterion_03_capacity_gap_bound():
    rng = np.random.default_rng(303)
    ok = True
    worst_slack = math.inf
    for params in sample_cases(rng, "ii", 50):
        bound = capacity_gap_bound(params)
        gap = params.rosi - design_static(params).x
        ok = ok and gap <= bound + 1e-12
        worst_slack = min(worst_slack, bound - gap)
    report(
        3,
        f"mid-return capacity gap within bound on 50 samples "
        f"(tightest slack {worst_slack:.3f})",
        ok,
    )


def test_criterion_04_easier_first_design():
    rng = np.random.default_rng(404)
    ok = True
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(0.25, 0.75)
        c = rng.uniform(0.5, 2.0)
        rosi = rng.uniform(1.02, 0.98 / (1.0 - a))
        params = VendorParams(R=rosi * c, c=c, alpha=a)
        d = design_dynamic_easier_first(params)
        grid = GridSpec(x_max=max(d.b, d.b_prime) + 2.0, step=1e-3)
        audit = Audit(prefix=(LinearTest(d.b_prime),), tail=LinearTest(d.b))
        tail = backward_induction(Audit(prefix=(), tail=audit.tail), params, grid)
        tail_interp = lambda x: np.interp(x, tail.xs, tail.values)

        def step0(x):
            p = LinearTest(d.b_prime)(np.asarray(x, dtype=float))
            return (
                -(1.0 - a + a * p) * c * np.asarray(x, dtype=float)
                + p * params.R
                + a * (1.0 - p) * tail_interp(x)
            )

        x_num, u_num = argmax_largest_tie(step0, grid.points(), tie_tol=1e-7)
        worst = max(worst, abs(x_num - params.rosi))
        ok = ok and abs(d.x - params.rosi) < 1e-12 and u_num >= -1e-6
        ok = ok and d.x > design_static(params).x + 1e-9
    report(
        4,
        f"easier-first design induces full capacity R/c, backward-induction "
        f"argmax gap {worst:.2e} <= 1e-4, above the static design on 20 samples",
        ok and worst <= 1e-4,
    )


def two_step_utility(params, b_prime, b):
    """(x, i) -> the vendor's utility of investing x against test b'[i] once,
    then the static b[i] audit, for 1-D arrays b' and b; written out here so
    that it shares no code with the designer's tail value. The tail follows
    bench/oracle.py's rule: G^b(x) past G^b's ramp peak, and up to it the
    larger of G^b(x) and the peak's value. Every entry's peak is found once,
    by one lockstep golden search on [b, b + 1]."""
    c, R, a = params.c, params.R, params.alpha

    def g(b, x):  # G^b(x) of the static linear-b audit
        t = np.minimum(np.maximum(x - b, 0.0), 1.0)
        return -c * x + R * t / (1.0 - a + a * t)

    y_peak = golden_max(lambda y: g(b, y), b, b + 1.0, tol=1e-12)
    v_peak = g(b, y_peak)

    def utility(x, i):
        here = g(b[i], x)
        tail = np.where(x <= y_peak[i], np.maximum(here, v_peak[i]), here)
        p = np.minimum(np.maximum(x - b_prime[i], 0.0), 1.0)
        return -(1.0 - a + a * p) * c * x + p * R + a * (1.0 - p) * tail

    return utility


def brute_force_harder_first(params, epsilon):
    """Constrained search: for each allowed test gap, bisect the tail entrance
    value up to the cliff where the vendor stops choosing a positive effort."""

    def best_responses(b, delta):
        """argmax_largest_tie(f, grid on [0, b + delta + 1], 1e-10) of the
        two-step utility f of test b + delta once, then tail b, for every entry
        of b and delta at once, on a grid no coarser than 400 points over
        [b, b + delta + 1]: every grid local maximum of every row is refined
        in one lockstep golden_max call, then each row keeps its largest tie."""
        b, delta = (np.ravel(v).astype(float) for v in np.broadcast_arrays(b, delta))
        n = 1 + int(np.ceil(np.max(399.0 * (b + delta + 1.0) / (delta + 1.0))))
        xs = np.linspace(0.0, b + delta + 1.0, n, axis=-1)
        utility = two_step_utility(params, b + delta, b)
        vals = utility(xs, np.arange(len(b))[:, None])
        peak = np.ones(vals.shape, dtype=bool)
        peak[:, 1:-1] = (vals[:, 1:-1] >= vals[:, :-2]) & (vals[:, 1:-1] >= vals[:, 2:])
        row, i = np.nonzero(peak)
        lo, hi = np.maximum(i - 1, 0), np.minimum(i + 1, xs.shape[1] - 1)
        f = lambda x: utility(x, row)
        x_star = golden_max(f, xs[row, lo], xs[row, hi])
        best_x, best_u = xs[row, i], vals[row, i]
        candidates = (x_star, f(x_star)), (xs[row, lo], vals[row, lo]), (xs[row, hi], vals[row, hi])
        for x, v in candidates:
            better = v > best_u  # strict, so the earliest candidate wins a tie
            best_x, best_u = np.where(better, x, best_x), np.where(better, v, best_u)
        top = np.full(len(b), -np.inf)
        np.maximum.at(top, row, best_u)
        tied = best_u >= top[row] - 1e-10
        arg = np.full(len(b), -np.inf)
        np.maximum.at(arg, row[tied], best_x[tied])
        return arg

    # larger gaps only hurt: check a few and keep the binding one; a design is
    # feasible when the vendor's largest best response is a positive effort
    deltas = np.array([d for d in (epsilon, 2 * epsilon, 5 * epsilon, 0.1, 0.3) if d <= 1.0])
    bs = np.arange(0.0, params.rosi + 1.0, 2e-2)
    feasible = (best_responses(bs[None, :], deltas[:, None]) > 0.0).reshape(len(deltas), -1)
    last = np.array([np.nonzero(row)[0][-1] if row[0] else 0 for row in feasible])
    lo, hi = bs[last], bs[last] + 2e-2
    for _ in range(50):  # every gap's cliff, bisected in lockstep
        mid = 0.5 * (lo + hi)
        ok = best_responses(mid, deltas) > 0.0
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    x_at = best_responses(lo, deltas)
    b_d = np.where(feasible[:, 0], lo, 0.0)
    x_d = np.where(feasible[:, 0], x_at, 0.0)
    k = int(np.argmax(x_d))  # the first of equal investments, as a strict scan keeps
    return float(b_d[k]), float(x_d[k]), float(deltas[k])


def test_criterion_05_harder_first_design():
    from auditopt import RegimeError

    rng = np.random.default_rng(505)
    ok = True
    worst = 0.0
    done = infeasible = 0
    while done < 20:
        a = rng.uniform(0.3, 0.7)
        c = rng.uniform(0.5, 2.0)
        rosi = rng.uniform((1.0 - a) * 1.05, 0.95 / (1.0 - a))
        params = VendorParams(R=rosi * c, c=c, alpha=a)
        b_num, x_num, delta_num = brute_force_harder_first(params, 1e-2)
        try:
            d = design_dynamic_harder_first(params, epsilon=1e-2)
        except RegimeError:
            # no audit with the minimum test gap induces effort: the brute
            # force must find none either
            infeasible += 1
            ok = ok and x_num == 0.0
            continue
        done += 1
        worst = max(worst, abs(d.x - x_num), abs(d.b - b_num))
        static_x = design_static(params).x if rosi >= 1.0 - a else 0.0
        ok = ok and d.x < static_x and d.verified
    report(
        5,
        f"harder-first design vs constrained 2-D brute force on 20 samples, "
        f"worst gap {worst:.2e} <= 1e-3, always below the static investment; "
        f"brute force finds no design on the {infeasible} the designer refuses",
        ok and worst <= 1e-3,
    )


def random_audit(rng, n_prefix, hardest=3.0):
    tests = []
    for _ in range(n_prefix + 1):
        if rng.random() < 0.5:
            tests.append(ThresholdTest(rng.uniform(0.0, hardest), rng.uniform(0.3, 1.5)))
        else:
            tests.append(LinearTest(rng.uniform(0.0, hardest)))
    return Audit(prefix=tuple(tests[:-1]), tail=tests[-1])


def test_criterion_06_one_change_bound():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(100):
        params = VendorParams(
            R=rng.uniform(1.0, 5.0), c=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.2, 0.8)
        )
        audit = random_audit(rng, int(rng.integers(1, 6)))
        m = int(rng.integers(0, len(audit.prefix)))
        grid = GridSpec(x_max=params.rosi + 1.0, step=1e-2)
        if rng.random() < 0.5:
            q = ThresholdTest(rng.uniform(0.0, 3.0), rng.uniform(0.3, 1.5))
        else:
            q = LinearTest(rng.uniform(0.0, 3.0))
        res = perturb_one_test(audit, m, q, params, grid)
        ok = ok and abs(res.delta_value) <= res.bound + 1e-9
        # sign check when one test dominates the other pointwise on the grid
        xs = grid.points()
        dp = np.asarray(q(xs)) - np.asarray(audit.prefix[m](xs))
        if np.all(dp >= 0.0):
            ok = ok and res.delta_value >= -1e-9
        elif np.all(dp <= 0.0):
            ok = ok and res.delta_value <= 1e-9
    report(6, "single-test perturbation bound and sign on 100 random audits", ok)


def test_criterion_07_truncation_approximation():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(20):
        alpha = rng.uniform(0.3, 0.6)
        params = VendorParams(R=rng.uniform(1.0, 5.0), c=rng.uniform(0.5, 2.0), alpha=alpha)
        audit = random_audit(rng, 12, hardest=0.8 * params.rosi)
        grid = GridSpec(x_max=params.rosi + 1.0, step=1e-2)
        study = approximation_study(audit, params, grid, [0, 1, 2, 3, 4, 5])
        errs = [row.measured_error for row in study.rows]
        # realized errors need not fall step by step, but they live under a
        # geometrically decreasing envelope and die out along the prefix
        for row in study.rows:
            ok = ok and row.measured_error <= row.bound + study.reference_residual + 1e-9
        ok = ok and errs[-1] <= errs[0] + study.reference_residual + 1e-9
        ok = ok and errs[-1] <= study.rows[-1].bound + study.reference_residual + 1e-9
    report(
        7,
        "truncation errors under the geometric envelope on 20 random "
        "12-test audits",
        ok,
    )


def test_criterion_08_net_value_bounds():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(100):
        params = VendorParams(
            R=rng.uniform(1.0, 5.0), c=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.2, 0.8)
        )
        audit = random_audit(rng, int(rng.integers(0, 6)))
        grid = GridSpec(x_max=params.rosi + 1.0, step=1e-2)
        rep = bdd_check(audit, params, grid)
        ok = ok and rep.ok and rep.min_net >= -1e-9 and rep.max_net <= params.R + 1e-9
    report(8, "0 <= c*x + net value <= R at every grid point, 100 random audits", ok)


def test_criterion_09_monte_carlo_agreement():
    rng = np.random.default_rng(909)
    ok = True
    worst_z = 0.0
    for i in range(10):
        params = VendorParams(
            R=rng.uniform(1.0, 5.0), c=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.2, 0.8)
        )
        audit = random_audit(rng, int(rng.integers(0, 3)), hardest=0.8 * params.rosi)
        sched = Schedule(levels=(rng.uniform(0.0, params.rosi),))
        res = simulate(sched, audit, params, episodes=100000, seed=1000 + i)
        exact = evaluate_schedule(sched, audit, params)
        se = max(res.std_error, 1e-12)
        z = abs(res.mean_utility - exact) / se
        worst_z = max(worst_z, z)
        ok = ok and abs(res.mean_utility - exact) <= 4.0 * res.std_error + 1e-12
        again = simulate(sched, audit, params, episodes=100000, seed=1000 + i)
        ok = ok and res == again
    report(
        9,
        f"Monte Carlo mean within 4 standard errors (worst z={worst_z:.2f}) and "
        "bit-identical under a fixed seed, 10 configurations",
        ok,
    )


def test_criterion_10_coverage_monotonicity():
    t0 = time.time()
    params = VendorParams(R=4.0, c=1.0, alpha=0.5)
    deltas = list(np.linspace(0.0, 3.0, 7))
    sigmas = list(np.linspace(0.1, 3.0, 7))
    cells = coverage_grid(deltas, sigmas, 1.0, 1.5, params)
    gb = np.array([c.gamma_bar for c in cells]).reshape(len(deltas), len(sigmas))
    ok = True
    for j in range(len(sigmas)):
        col = gb[:, j]
        ok = ok and np.all(np.diff(col) >= -1e-9)
    col_min = gb.min(axis=0)
    ok = ok and np.all(np.diff(col_min) >= -1e-9)
    elapsed = time.time() - t0
    report(
        10,
        f"participation threshold non-decreasing in the test threshold and "
        f"per-noise minimum non-decreasing in noise ({elapsed:.1f}s < 60s)",
        ok and elapsed < 60.0,
    )


def test_criterion_11_schedule_timing_invariance():
    params = VendorParams(R=4.0, c=1.0, alpha=0.5)
    worst = 0.0

    # exact tie by construction: the safe-harbor entrance value leaves the
    # vendor indifferent between zero effort and full capacity
    test = LinearTest(3.0)
    sol = optimal_strategy(test, params)
    audit = Audit(prefix=(), tail=test)
    assert len(sol.maximizers) == 2
    values = []
    for switch in (1, 3):
        for s in enumerate_schedules(sol, switch_times=[switch]):
            values.append(evaluate_schedule(s, audit, params))
    worst = max(worst, max(values) - min(values))

    # near-tie by bisection: move the detection threshold until the interior
    # peak of the one-shot utility matches the zero-effort value
    def tie_gap(delta):
        t = ThresholdTest(delta, 1.0)
        interior = golden_argmax(lambda x: g_value(t, params, x), 0.5, 6.0)[1]
        return interior - g_value(t, params, 0.0)

    lo, hi = 1.0, 3.0
    assert tie_gap(lo) > 0.0 > tie_gap(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if tie_gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    t = ThresholdTest(0.5 * (lo + hi), 1.0)
    sol = optimal_strategy(t, params)
    assert len(sol.maximizers) == 2
    audit = Audit(prefix=(), tail=t)
    values = []
    for switch in (1, 4):
        for s in enumerate_schedules(sol, switch_times=[switch]):
            values.append(evaluate_schedule(s, audit, params))
    worst = max(worst, max(values) - min(values))
    report(
        11,
        f"one-and-done and incremental schedules through tied optima agree "
        f"within {worst:.2e} <= 1e-6",
        worst <= 1e-6,
    )


def test_criterion_12_identity_suite():
    rng = np.random.default_rng(1212)
    worst = 0.0
    n = 0
    while n < 10**6:
        batch = 10**5
        params = VendorParams(
            R=rng.uniform(0.5, 5.0), c=rng.uniform(0.5, 2.0), alpha=rng.uniform(0.05, 0.95)
        )
        kind = rng.integers(0, 3)
        if kind == 0:
            test = ThresholdTest(rng.uniform(-1.0, 3.0), rng.uniform(0.2, 2.0))
        elif kind == 1:
            test = LinearTest(rng.uniform(0.0, 3.0))
        else:
            test = ConstantTest(rng.uniform(0.0, 1.0))
        xs = rng.uniform(0.0, 8.0, size=batch)
        total = g_value(test, params, xs) + waiver_cost(test, params, xs) + params.c * xs
        worst = max(worst, float(np.max(np.abs(total - params.R))))
        n += batch
    report(
        12,
        f"utility + waiver cost + investment cost = revenue, worst error "
        f"{worst:.2e} <= 1e-12 over 1e6 points",
        worst <= 1e-12,
    )

"""R is the money unit: scaling R and c by 2^j scales every utility by 2^j,
bit for bit, and changes no effort, maximizer, design or verdict."""

import math

import numpy as np

from auditopt import (
    Audit,
    ConstantTest,
    GridSpec,
    LinearTest,
    RegimeError,
    ThresholdTest,
    VendorParams,
    backward_induction,
    bdd_check,
    ca_shape_report,
    design_dynamic_easier_first,
    design_dynamic_harder_first,
    design_static,
    optimal_strategy,
    perturb_one_test,
)
from auditopt.threshold import _opt_in_utility

SCALES = (-40, -30, -3, 5, 30, 40)
DESIGNERS = (design_static, design_dynamic_easier_first, design_dynamic_harder_first)


def _cases(seed, n):
    """Seeded (params, test, audit, replacement for the audit's first test).

    The first case is the README's R = 4, c = 1, alpha = 0.5 with the
    threshold test (1, 1), the second a certain pass; the rest draw R/c from
    0.3 to 6 and alpha from 0.1 to 0.9, which covers all three ROSI regimes.
    """
    rng = np.random.default_rng(seed)
    kinds = (
        lambda: ThresholdTest(rng.uniform(0.0, 3.0), rng.uniform(0.1, 1.5)),
        lambda: LinearTest(rng.uniform(0.0, 3.0)),
        lambda: ConstantTest(rng.uniform(0.0, 1.0)),
    )
    yield (VendorParams(4.0, 1.0, 0.5), ThresholdTest(1.0, 1.0),
           Audit((LinearTest(1.0),), ThresholdTest(1.0, 1.0)), LinearTest(2.0))
    # a certain pass, where bdd_check's c*x + U*_0(x) rounds one ulp above R
    certain = ConstantTest(1.0)
    yield VendorParams(1.7, 0.6, 0.4), certain, Audit((certain,), certain), ConstantTest(0.5)
    for i in range(n - 2):
        rosi = 10.0 ** rng.uniform(math.log10(0.3), math.log10(6.0))
        c = 10.0 ** rng.uniform(-1.0, 1.0)
        params = VendorParams(rosi * c, c, rng.uniform(0.1, 0.9))
        audit = Audit(tuple(kinds[rng.integers(2)]() for _ in range(2)), kinds[i % 3]())
        yield params, kinds[i % 2](), audit, kinds[rng.integers(3)]()


def _outcomes(params, test, audit, q):
    """Every solver's money values, and everything else it reports."""
    money, rest = [], []
    sol = optimal_strategy(test, params)
    money += [sol.utility, sol.tie_tol]
    rest.append(sol.maximizers)
    for design in DESIGNERS:
        try:
            d = design(params)
        except RegimeError as err:
            rest.append(str(err))
        else:
            money.append(d.utility)
            rest.append((d.case, d.b, d.b_prime, d.x, d.verified))
    grid = GridSpec(x_max=params.rosi + 1.0, step=1e-2)
    vf = backward_induction(audit, params, grid)
    money += vf.values.tolist()
    rest.append(vf.maximizer)
    report = bdd_check(audit, params, grid)
    money += [report.min_net, report.max_net]
    rest.append(report.ok)
    try:
        res = perturb_one_test(audit, 0, q, params, grid)
    except RuntimeError as err:
        rest.append(type(err))  # its message quotes money values
    else:
        money += [res.delta_value, res.bound]
    rest.append(ca_shape_report(test, params, GridSpec(x_max=3.0, step=1e-3)))
    return money, rest


def test_every_solver_scales_exactly_with_the_money_unit():
    for params, test, audit, q in _cases(24, 10):
        money, rest = _outcomes(params, test, audit, q)
        for j in SCALES:
            s = 2.0**j
            scaled = VendorParams(s * params.R, s * params.c, params.alpha)
            money_s, rest_s = _outcomes(scaled, test, audit, q)
            assert rest_s == rest, (params, j)
            assert money_s == [s * m for m in money], (params, j)


def test_coverage_opt_in_utilities_scale_exactly_with_the_money_unit():
    """Every opt-in utility of a coverage cell scales by 2^j bit for bit.

    gamma_bar is left out: the liability loss exp(.) >= 1 is money in a unit
    of its own, so scaling R and c alone does not scale the opt-out side.
    """
    rng = np.random.default_rng(25)
    for _ in range(10):
        rosi = 10.0 ** rng.uniform(math.log10(0.3), math.log10(6.0))
        c = 10.0 ** rng.uniform(-1.0, 1.0)
        params = VendorParams(rosi * c, c, rng.uniform(0.1, 0.9))
        cells = [(rng.uniform(0.0, 3.0), rng.uniform(0.05, 1.5)) for _ in range(12)]
        u_ins = [_opt_in_utility(delta, sigma, params) for delta, sigma in cells]
        for j in SCALES:
            s = 2.0**j
            scaled = VendorParams(s * params.R, s * params.c, params.alpha)
            u_scaled = [_opt_in_utility(delta, sigma, scaled) for delta, sigma in cells]
            assert u_scaled == [s * u for u in u_ins], (params, j)

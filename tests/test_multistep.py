import math

import numpy as np
import pytest

from auditopt import (
    Audit,
    ConstantTest,
    GridSpec,
    LinearTest,
    ThresholdTest,
    VendorParams,
    approximation_study,
    backward_induction,
    bdd_check,
    optimal_strategy,
    perturb_one_test,
    tail_value,
    truncate,
)
from auditopt.multistep import PreconditionError

P4 = VendorParams(R=4.0, c=1.0, alpha=0.5)
P15 = VendorParams(R=1.5, c=1.0, alpha=0.5)
GRID = GridSpec(x_max=5.0, step=1e-2)


def random_audit(rng, n_prefix):
    tests = []
    for _ in range(n_prefix + 1):
        if rng.random() < 0.5:
            tests.append(ThresholdTest(rng.uniform(0.0, 3.0), rng.uniform(0.3, 1.5)))
        else:
            tests.append(LinearTest(rng.uniform(0.0, 3.0)))
    return Audit(prefix=tuple(tests[:-1]), tail=tests[-1])


def test_backward_induction_certain_tail():
    nvf = backward_induction(Audit(prefix=(), tail=ConstantTest(1.0)), P4, GRID)
    assert np.allclose(nvf.values, 4.0 - nvf.xs, atol=1e-12)


def test_backward_induction_matches_easier_first_design():
    b = 1.5 + (math.sqrt(3.0) - 1.0) ** 2
    audit = Audit(prefix=(LinearTest(0.5),), tail=LinearTest(b))
    nvf = backward_induction(audit, P15, GridSpec(x_max=4.0, step=1e-3))
    assert nvf.maximizer == pytest.approx(1.5, abs=1e-3)
    assert nvf.max_value == pytest.approx(0.0, abs=1e-9)


def test_backward_induction_matches_core_for_static_audit():
    test = ThresholdTest(1.0, 1.0)
    nvf = backward_induction(Audit(prefix=(), tail=test), P4, GridSpec(5.0, 1e-3))
    sol = optimal_strategy(test, P4)
    assert nvf.max_value == pytest.approx(sol.utility, abs=1e-6)


def test_backward_induction_matches_linear_tail_closed_form():
    nvf = backward_induction(
        Audit(prefix=(), tail=LinearTest(0.8)), P15, GridSpec(3.0, 1e-3)
    )
    assert np.max(np.abs(nvf.values - tail_value(0.8, P15, nvf.xs))) <= 1e-6


def test_net_values_non_increasing():
    rng = np.random.default_rng(11)
    for _ in range(10):
        nvf = backward_induction(random_audit(rng, 3), P4, GRID)
        for step in nvf.step_values:
            assert np.all(np.diff(step) <= 1e-12)


def test_perturb_identical_test_is_free():
    audit = Audit(prefix=(LinearTest(1.0), LinearTest(2.0)), tail=LinearTest(0.5))
    res = perturb_one_test(audit, 1, LinearTest(2.0), P4, GRID)
    assert res.delta_value == 0.0 and res.bound == 0.0


def test_perturb_bound_with_unit_gap():
    # swapping a certain fail for a certain pass three steps in
    audit = Audit(
        prefix=(LinearTest(0.5), LinearTest(1.0), LinearTest(1.5), ConstantTest(0.0)),
        tail=LinearTest(1.0),
    )
    res = perturb_one_test(audit, 3, ConstantTest(1.0), P4, GRID)
    assert res.bound == pytest.approx(0.5**3 * 1.0 * 4.0)
    assert abs(res.delta_value) <= res.bound + 1e-9


def test_perturb_sign_follows_pointwise_order():
    audit = Audit(prefix=(LinearTest(2.0),), tail=ThresholdTest(1.0, 1.0))
    res = perturb_one_test(audit, 0, LinearTest(1.0), P4, GRID)
    assert res.delta_value >= -1e-12


def test_perturb_index_error():
    audit = Audit(prefix=(LinearTest(1.0),), tail=LinearTest(0.5))
    with pytest.raises(IndexError):
        perturb_one_test(audit, 1, LinearTest(0.2), P4, GRID)


def test_truncate_endpoints():
    prefix = tuple(LinearTest(b) for b in (0.2, 0.4, 0.6, 0.8))
    audit = Audit(prefix=prefix, tail=LinearTest(1.0))
    t0 = truncate(audit, 0)
    assert t0.prefix == () and t0.tail == LinearTest(0.2)
    t2 = truncate(audit, 2)
    assert t2.prefix == prefix[:2] and t2.tail == LinearTest(0.6)
    t_full = truncate(audit, 4)
    a = backward_induction(audit, P4, GRID)
    b = backward_induction(t_full, P4, GRID)
    assert np.array_equal(a.values, b.values)
    with pytest.raises(IndexError):
        truncate(audit, 5)


def test_approximation_study_bounds_and_exact_tail():
    rng = np.random.default_rng(3)
    audit = random_audit(rng, 10)
    study = approximation_study(audit, P4, GRID, [0, 1, 2, 3, 10])
    for row in study.rows:
        bound = 0.5 ** (row.k + 1) * 4.0 / 0.5
        assert row.bound == pytest.approx(bound)
        assert row.measured_error <= bound + study.reference_residual + 1e-9
    by_k = {row.k: row.measured_error for row in study.rows}
    assert by_k[10] == 0.0


def test_approximation_study_k2_special_case():
    # the stated two-step bound alpha^2 R/(1-alpha) is looser than the
    # general bound alpha^3 R/(1-alpha); the measurement sits under both
    rng = np.random.default_rng(4)
    audit = random_audit(rng, 10)
    study = approximation_study(audit, P4, GRID, [2])
    row = study.rows[0]
    general = 0.5**3 * 4.0 / 0.5
    special = 0.5**2 * 4.0 / 0.5
    assert row.measured_error <= general + study.reference_residual + 1e-9
    assert row.measured_error <= special + study.reference_residual + 1e-9
    assert general == 1.0 and special == 2.0


def test_approximation_study_precondition():
    audit = Audit(prefix=(LinearTest(1.0), LinearTest(2.0)), tail=LinearTest(0.5))
    with pytest.raises(PreconditionError):
        approximation_study(audit, P4, GRID, [0, 1, 2])


def test_bdd_certain_pass_is_tight():
    report = bdd_check(Audit(prefix=(), tail=ConstantTest(1.0)), P4, GRID)
    assert report.ok
    assert report.min_net == pytest.approx(4.0, abs=1e-9)
    assert report.max_net == pytest.approx(4.0, abs=1e-9)


def test_bdd_certain_fail_hits_lower_bound():
    report = bdd_check(Audit(prefix=(), tail=ConstantTest(0.0)), P4, GRID)
    assert report.ok
    assert report.min_net == pytest.approx(0.0, abs=1e-9)


def test_bdd_random_audits():
    rng = np.random.default_rng(9)
    for _ in range(10):
        report = bdd_check(random_audit(rng, 4), P4, GRID)
        assert report.ok
        assert -1e-9 <= report.min_net and report.max_net <= 4.0 + 1e-9


def test_audit_monotone_in_pointwise_dominance():
    base = Audit(
        prefix=(LinearTest(1.0), LinearTest(2.0)), tail=ThresholdTest(1.5, 0.8)
    )
    easier = Audit(
        prefix=(LinearTest(0.5), LinearTest(1.2)), tail=ThresholdTest(1.0, 0.8)
    )
    u_base = backward_induction(base, P4, GRID).values
    u_easy = backward_induction(easier, P4, GRID).values
    assert np.all(u_easy >= u_base - 1e-12)


def test_audit_json_round_trip():
    audit = Audit(
        prefix=(LinearTest(1.0), ThresholdTest(0.5, 0.3)), tail=ConstantTest(0.2)
    )
    again = Audit.from_json(audit.to_json())
    assert again == audit

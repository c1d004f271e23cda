"""The names auditopt exports, pinned so that every change to the public API
shows in the diff of this file."""

import types

import auditopt

EXPORTS = [
    "ApproxStudy", "Audit", "ConstantTest", "CoverageCell", "GridSpec", "LiabilityModel",
    "LinearDesign", "LinearTest", "RegimeError", "RosiCase", "Schedule", "SimResult",
    "StrategySolution", "TestFunction", "ThresholdTest", "ValueFunction", "VendorParams",
    "approximation_study", "backward_induction", "bdd_check", "ca_shape_report",
    "capacity_gap_bound", "coverage_grid", "default_grid", "design_dynamic_easier_first",
    "design_dynamic_harder_first", "design_static", "enumerate_schedules", "evaluate_schedule",
    "g_value", "gamma_bar", "liability_loss", "never_quit_audit_trail", "opt_out_utility",
    "optimal_strategy", "perturb_one_test", "simulate", "tail_value", "truncate",
    "two_step_value", "value_iteration_oracle", "waiver_cost",
]


def test_auditopt_exports_exactly_the_pinned_names():
    exported = sorted(name for name, value in vars(auditopt).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == EXPORTS
    assert len(EXPORTS) == 42

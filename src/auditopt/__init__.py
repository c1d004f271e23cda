"""Optimal vendor investment under repeated security audits, and audit design."""

__version__ = "0.1.0"

from .types import (
    ConstantTest,
    GridSpec,
    LinearTest,
    Schedule,
    TestFunction,
    ThresholdTest,
    VendorParams,
    default_grid,
)
from .core import (
    StrategySolution,
    ValueFunction,
    enumerate_schedules,
    g_value,
    optimal_strategy,
    value_iteration_oracle,
    waiver_cost,
)
from .threshold import (
    CoverageCell,
    LiabilityModel,
    ca_shape_report,
    coverage_grid,
    gamma_bar,
    liability_loss,
    max_opt_out_utility,
    opt_out_utility,
)
from .linear import (
    LinearDesign,
    RegimeError,
    RosiCase,
    capacity_gap_bound,
    design_dynamic_easier_first,
    design_dynamic_harder_first,
    design_static,
    tail_value,
    two_step_value,
)
from .multistep import (
    ApproxStudy,
    Audit,
    approximation_study,
    backward_induction,
    bdd_check,
    perturb_one_test,
    truncate,
)
from .sim import SimResult, evaluate_schedule, never_quit_audit_trail, simulate

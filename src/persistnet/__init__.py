"""Simulation and certification for consensus dynamics on directed graphs
whose arc weights vary with time.

The package answers three kinds of question about a network of agents that
repeatedly average their neighbors' values:

* structure: which arcs carry unbounded total influence (persistent) and
  which fade out (vanishing), and what the subgraph of persistent arcs
  looks like;
* simulation: exact discrete averaging runs and guaranteed-stochastic
  integration of the continuous flow;
* certification: computable contraction rates, agreement horizons, and
  disagreement floors, each verified against an actual trajectory.
"""

from .analysis import (
    AgreementHorizon,
    BlockGap,
    CertificateDomainError,
    ContractionReport,
    FloorUnavailableError,
    LowerBoundCertificate,
    NotSummableError,
    RateCertificate,
    agreement_time_bound,
    continuous_disagreement_floor,
    continuous_rate_bound,
    discrete_disagreement_floor,
    discrete_rate_bound,
    find_window_violation,
    verify_contraction,
    window_violation_threshold,
)
from .checks import (
    ROW_SUM_TOLERANCE,
    CheckResult,
    check_arc_balance,
    check_cut_balance,
    check_integral_arc_balance,
    check_self_confidence,
    check_stochasticity,
    check_window_bound,
)
from .continuous import (
    MIN_STEP,
    StepSizeUnderflow,
    integrate,
)
from .discrete import RowSumViolation, Trajectory, simulate
from .graph import (
    Arc,
    Digraph,
    diameter,
    is_quasi_strongly_connected,
)
from .scenarios import (
    RunReport,
    Scenario,
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    Spec,
    ZeroOneSplit,
    build_network,
    catalog,
    load_scenario,
    parse_scenario_dict,
    parse_weight,
    read_trajectory_csv,
    resolve_x0,
    run_and_write,
    run_scenario,
    save_scenario,
    scenario_to_dict,
    weight_to_spec,
    write_trajectory_csv,
)
from .weights import (
    Constant,
    ExponentialDecay,
    Mode,
    PeriodicPulse,
    PersistenceReport,
    PowerDecay,
    Tabulated,
    TimeVaryingNetwork,
    UndeclaredPersistenceError,
    Weight,
    WeightBank,
    WeightSum,
    Zero,
    aggregate_vanishing_weight,
    persistence_report,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementHorizon",
    "Arc",
    "BlockGap",
    "CertificateDomainError",
    "CheckResult",
    "Constant",
    "ContractionReport",
    "Digraph",
    "ExponentialDecay",
    "FloorUnavailableError",
    "LowerBoundCertificate",
    "MIN_STEP",
    "Mode",
    "NotSummableError",
    "PeriodicPulse",
    "PersistenceReport",
    "PowerDecay",
    "ROW_SUM_TOLERANCE",
    "RateCertificate",
    "RowSumViolation",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "ScenarioParseError",
    "ScenarioValidationError",
    "Spec",
    "StepSizeUnderflow",
    "Tabulated",
    "TimeVaryingNetwork",
    "Trajectory",
    "UndeclaredPersistenceError",
    "Weight",
    "WeightBank",
    "WeightSum",
    "Zero",
    "ZeroOneSplit",
    "agreement_time_bound",
    "aggregate_vanishing_weight",
    "build_network",
    "catalog",
    "check_arc_balance",
    "check_cut_balance",
    "check_integral_arc_balance",
    "check_self_confidence",
    "check_stochasticity",
    "check_window_bound",
    "continuous_disagreement_floor",
    "continuous_rate_bound",
    "diameter",
    "discrete_disagreement_floor",
    "discrete_rate_bound",
    "find_window_violation",
    "integrate",
    "is_quasi_strongly_connected",
    "load_scenario",
    "parse_scenario_dict",
    "parse_weight",
    "persistence_report",
    "read_trajectory_csv",
    "resolve_x0",
    "run_and_write",
    "run_scenario",
    "save_scenario",
    "scenario_to_dict",
    "simulate",
    "weight_to_spec",
    "verify_contraction",
    "window_violation_threshold",
    "write_trajectory_csv",
]

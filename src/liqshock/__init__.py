"""Positivity-preserving IMEX finite-difference solvers for European
option pricing under liquidity shocks."""

from .analysis import (
    AuditReport,
    CheckResult,
    ConvergenceRow,
    ExtrapolationRow,
    at_the_money,
    audit_comparison,
    audit_sup_bound,
    audit_m_matrix,
    audit_positivity,
    audit_translation,
    convergence_study,
    convergence_tables,
    extrapolated_study,
    implicit_oracle,
    ode_oracle,
    richardson,
    verify,
)
from .config import RunConfig, parse_config
from .errors import (
    ConfigError,
    LiqshockError,
    NumericalError,
    OracleConvergenceError,
    SingularSystemError,
    SolveFailure,
    ValidationError,
)
from .mesh import (
    HALF_MIN_SPACING,
    SpatialGrid,
    TimeGrid,
    tavella_randall_grid,
    time_grid_from_space,
    uniform_grid,
)
from .model import (
    DerivedConstants,
    ModelParams,
    derive_constants,
    evaluate_f,
    payoff_call,
    payoff_zero,
    to_prices,
)
from .schemes import (
    NATURAL,
    GridState,
    SchemeConfig,
    SolveDiagnostics,
    SolveResult,
    StepPlan,
    assemble_scheme1,
    assemble_scheme2,
    initial_state,
    restriction_ratio,
    solve_forward,
    step,
)
from .tridiag import (
    MMatrixReport,
    TridiagonalSystem,
    check_m_matrix,
    solve,
    stability_bound,
)

__version__ = "0.1.0"

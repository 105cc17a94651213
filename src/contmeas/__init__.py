"""Discrete-time repeated quantum measurements over finite-dimensional
systems: trajectory enumeration and sampling, information quantities, and
numerical audits of the entropic bounds they satisfy."""

from .engine import (
    TrajectoryRecord,
    compute_a_priori,
    consistency_checks,
    enumerate_trajectories,
    sample_trajectories,
)
from .entropics import (
    EntropyReport,
    EntropyReportBuilder,
    build_entropy_report,
    check_bounds,
    mutual_entropy_hybrid,
)
from .errors import (
    BudgetExceeded,
    ContmeasError,
    DimensionMismatch,
    GridMiss,
    InvalidParameters,
    ModelSyntaxError,
    NonHermitianInput,
    NotPositiveSemidefinite,
    NumericRangeError,
    ShapeError,
    UnknownScenario,
)
from .model import (
    Check,
    CheckReport,
    Ensemble,
    MeasurementModel,
    TimeGrid,
    builtin_scenario,
    is_pure_preserving,
    parse_model,
    random_model,
    serialize_model,
    validate_model,
)
from .quantum import (
    DensityOperator,
    Instrument,
    KrausMap,
    average_state,
    chi_quantity,
    hybrid_relative_entropy,
    quantum_relative_entropy,
)

__version__ = "0.1.0"

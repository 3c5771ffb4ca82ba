"""Light-pulse atom interferometry: closed-form phases, clock beats, oracle.

The package computes the phase decomposition of a branch-dependent light
pulse sequence (proper-time difference, gravito-recoil, laser terms), the
two-internal-state beat signal with its visibility envelope, and provides an
independent finite-pulse-width numeric integrator to cross-check the closed
forms.  See the module docstrings for conventions; everything is SI.
"""

__version__ = "0.1.0"

from .constants import CODATA2018, K_MAGIC, PhysicalConstants
from .core import (
    ClockPair,
    GravityEnv,
    InitialConditions,
    PhaseBreakdown,
    Pulse,
    PulseSequence,
    Species,
    Violation,
    compton_frequency,
    require_valid,
    validate_sequence,
)
from .errors import (
    GeometryParseError,
    InternalConsistencyError,
    NonFiniteResultError,
    OpenSequenceError,
    OracleAccuracyError,
    OracleConfigError,
)
from .geometry import (
    ClosureReport,
    build_mzi,
    build_rbi_asymmetric,
    build_rbi_double_loop,
    build_rbi_symmetric,
    closure_check,
    parse_geometry,
    serialize_geometry,
)
from .kinematics import (
    BranchTrajectory,
    gravity_trajectory,
    kick_trajectory,
    sample,
    trajectory_table,
)
from .phase import (
    gravito_recoil_phase,
    laser_phase,
    proper_time_difference,
    recoil_double_sum,
    recoil_phase,
    require_closed,
    total_phase,
)
from .clock import (
    BeatSignal,
    beat,
    clock_limit_phase,
    fringe,
    per_state_phase,
    visibility_scan,
)
from .oracle import (
    ConvergenceStudy,
    OracleActions,
    OracleConfig,
    OracleResult,
    SampledTrajectory,
    action_numeric,
    convergence_study,
    integrate_branch,
    oracle_report,
    proper_time_numeric,
)

__all__ = [
    "__version__",
    "CODATA2018",
    "K_MAGIC",
    "PhysicalConstants",
    "ClockPair",
    "GravityEnv",
    "InitialConditions",
    "PhaseBreakdown",
    "Pulse",
    "PulseSequence",
    "Species",
    "Violation",
    "compton_frequency",
    "require_valid",
    "validate_sequence",
    "GeometryParseError",
    "InternalConsistencyError",
    "NonFiniteResultError",
    "OpenSequenceError",
    "OracleAccuracyError",
    "OracleConfigError",
    "ClosureReport",
    "build_mzi",
    "build_rbi_asymmetric",
    "build_rbi_double_loop",
    "build_rbi_symmetric",
    "closure_check",
    "parse_geometry",
    "serialize_geometry",
    "BranchTrajectory",
    "gravity_trajectory",
    "kick_trajectory",
    "sample",
    "trajectory_table",
    "gravito_recoil_phase",
    "laser_phase",
    "proper_time_difference",
    "recoil_double_sum",
    "recoil_phase",
    "require_closed",
    "total_phase",
    "BeatSignal",
    "beat",
    "clock_limit_phase",
    "fringe",
    "per_state_phase",
    "visibility_scan",
    "ConvergenceStudy",
    "OracleActions",
    "OracleConfig",
    "OracleResult",
    "SampledTrajectory",
    "action_numeric",
    "convergence_study",
    "integrate_branch",
    "oracle_report",
    "proper_time_numeric",
]

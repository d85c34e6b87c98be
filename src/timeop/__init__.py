"""timeop: a desk-scale laboratory for internal-time operator dynamics.

The package builds finite-window cascades (truncated bilateral shift,
dyadic baker transformation in its Walsh basis) carrying an age grading
and an internal-time operator, weights them with admissible decay
profiles, derives the induced contraction semigroup, materializes the
graded norm towers the weighting generates, and mechanically verifies
the operator identities, inequalities, and classifications that tie
these pieces together.  Everything is exact where permutation and
diagonal arithmetic allow, and log-domain elsewhere.
"""

__version__ = "0.1.0"

from .hilbert import BasisMismatchError, HVector
from .cascade import (
    AgeWindow,
    CascadeSystem,
    GridDensity,
    MarginError,
    WeightedShift,
    build_baker_cascade,
    build_shift_cascade,
    grid_to_walsh,
    verify_covariance,
    verify_imprimitivity,
    walsh_to_grid,
)
from .profiles import (
    DecayOperator,
    DecayProfile,
    ProfileError,
    build_decay_operator,
    check_admissible,
    gumbel,
    log_condition_number,
    logistic,
    profile_from_table,
    verify_covariant_transform,
)
from .rigging import (
    SingularSpectrum,
    build_tower,
    classify_spectrum,
    geometric_spectrum,
    graded_norm_rows,
    isometry_check,
    kothe_nuclearity,
    power_spectrum,
)
from .markov import (
    AsymmetryReport,
    LyapunovTrace,
    MarkovEvolution,
    PositivityReport,
    asymmetry_probe,
    lyapunov_trace,
    markov_step,
    positivity_probe,
)
from .duals import OperatorWeb, build_operator_web, verify_web
from .config import ConfigError, DEMO_CONFIG, ExperimentConfig, parse_config
from .runner import ReportBundle, emit_report, run_experiments

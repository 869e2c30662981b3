"""Extended-precision laboratory for Cauchy biorthogonal polynomials and
multi-level Hermite-Pade forms on Nikishin chains of interval measures."""

from .precision import set_precision, tol
from .measures import (
    Interval,
    IntervalMeasure,
    MeasureError,
    SupportError,
    WeightSpec,
    lebesgue,
    make_measure,
)
from .poly import Polynomial
from .nikishin import NikishinSystem, SystemError_, make_system
from .hp import (
    HPSolution,
    HPSolverError,
    biorthogonality_matrix,
    form_identity_residual,
    solve_hp_vector,
    solve_Qn,
    solve_reversed,
)
from .polyzeros import (
    DiscreteMeasure,
    RootCountError,
    counting_measure,
    interlaces,
    log_potential,
    moment_distance,
    real_roots,
)
from .equilibrium import EquilibriumError, EquilibriumSolution, solve_equilibrium
from .asymptotics import (
    AsymptoticPredictor,
    F_ratio_modulus,
    default_probes,
    empirical_tables,
    form_ratio_prediction,
    make_predictor,
    nth_root_prediction,
    rate_prediction,
)

__version__ = "0.1.0"

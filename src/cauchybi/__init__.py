"""Extended-precision laboratory for Cauchy biorthogonal polynomials and
multi-level Hermite-Pade forms on Nikishin chains of interval measures."""

from .precision import (
    DEFAULT_PRECISION_BITS,
    decimal_digits,
    extra_precision,
    precision_bits,
    set_precision,
    tol,
    working_precision,
)
from .measures import (
    Interval,
    IntervalMeasure,
    MeasureError,
    SupportError,
    WeightSpec,
    cauchy_transform,
    lebesgue,
    make_measure,
    moment,
)
from .poly import Polynomial
from .nikishin import NikishinSystem, SystemError_, make_system
from .hp import (
    HPSolution,
    HPSolverError,
    biorthogonality_entry,
    biorthogonality_matrix,
    biorthogonality_quadrature,
    eval_form,
    form_identity_residual,
    solve_hp_vector,
    solve_Qn,
    solve_reversed,
    zeros_of_form,
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
from .equilibrium import (
    EquilibriumError,
    EquilibriumSolution,
    InteractionMatrix,
    combined_potential,
    equilibrium_constants,
    nikishin_matrix,
    solve_equilibrium,
)
from .asymptotics import (
    AsymptoticPredictor,
    F_ratio_modulus,
    consecutive_form_ratio_prediction,
    default_probes,
    empirical_tables,
    form_ratio_prediction,
    make_predictor,
    nth_root_prediction,
    rate_prediction,
    reversed_predictions,
)

__version__ = "0.1.0"

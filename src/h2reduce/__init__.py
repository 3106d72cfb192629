"""Globally optimal H2 model-order reduction by one.

For a stable, strictly proper SISO transfer function with distinct poles,
the first-order optimality conditions for the best order-(N-1) approximant
form a diagonal-quadratic polynomial system. Its solutions are read off the
simultaneous eigenvalues of commuting multiplication matrices on the
2^N-dimensional quotient ring, so every critical point is enumerated and
the global optimum is certified, not just a local one.
"""

from .errors import (
    BasisSizeError,
    ConjugationDefectError,
    DefectiveEigenstructureError,
    H2ReduceError,
    IllConditionedError,
    InputError,
    NoAdmissibleSolutionError,
    NotStrictlyProperError,
    NumericalError,
    PoleZeroCancellationError,
    RepeatedPoleError,
    UnstablePoleError,
    ValidationError,
)
from .foc import CandidateTable, CriticalPoint, build_M, recover_candidates
from .poly import Polynomial, derivative, eval_poly, roots
from .reduce import ReductionReport, solve_reduction
from .stetter import (
    Combination,
    DiagQuadSystem,
    EigenSolution,
    EigenSolutionSet,
    MultiplicationMatrices,
    build_critical_value_matrix,
    combine,
    common_eigen_solutions,
)
from .tf import (
    TransferFunction,
    ValidatedSystem,
    from_pole_residue,
    generate_relaxation,
    h2_distance,
    h2_norm,
    strip_feedthrough,
    validate,
)
from .tolerances import Tolerances

__version__ = "0.1.0"

__all__ = [
    "BasisSizeError",
    "CandidateTable",
    "Combination",
    "ConjugationDefectError",
    "CriticalPoint",
    "DefectiveEigenstructureError",
    "DiagQuadSystem",
    "EigenSolution",
    "EigenSolutionSet",
    "H2ReduceError",
    "IllConditionedError",
    "InputError",
    "MultiplicationMatrices",
    "NoAdmissibleSolutionError",
    "NotStrictlyProperError",
    "NumericalError",
    "PoleZeroCancellationError",
    "Polynomial",
    "ReductionReport",
    "RepeatedPoleError",
    "Tolerances",
    "TransferFunction",
    "UnstablePoleError",
    "ValidatedSystem",
    "ValidationError",
    "build_M",
    "build_critical_value_matrix",
    "combine",
    "common_eigen_solutions",
    "derivative",
    "eval_poly",
    "from_pole_residue",
    "generate_relaxation",
    "h2_distance",
    "h2_norm",
    "recover_candidates",
    "roots",
    "solve_reduction",
    "strip_feedthrough",
    "validate",
]

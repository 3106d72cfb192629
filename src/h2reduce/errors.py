"""Exception hierarchy.

The CLI maps these onto exit codes: InputError -> 1,
NoAdmissibleSolutionError -> 2, ValidationError -> 3, NumericalError -> 4.
"""


class H2ReduceError(Exception):
    """Base class for all package errors.

    ``diagnostics`` holds what the failing stage measured, for the report.
    """

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class InputError(H2ReduceError):
    """Malformed user input (bad file, bad flag combination)."""


class ValidationError(H2ReduceError):
    """The given transfer function violates a standing assumption."""


class NotStrictlyProperError(ValidationError):
    pass


class UnstablePoleError(ValidationError):
    def __init__(self, pole):
        self.pole = pole
        super().__init__(f"unstable pole at {pole}")


class RepeatedPoleError(ValidationError):
    def __init__(self, pole_a, pole_b):
        self.pair = (pole_a, pole_b)
        super().__init__(
            f"repeated (or nearly repeated) pole: {pole_a} vs {pole_b}; "
            "systems with repeated poles are not supported"
        )


class PoleZeroCancellationError(ValidationError):
    def __init__(self, pole, value):
        self.pole = pole
        self.value = value
        super().__init__(
            f"pole-zero cancellation: numerator value {value} at pole {pole}"
        )


class NumericalError(H2ReduceError):
    """A numerical check failed; the result would not be trustworthy."""


class IllConditionedError(NumericalError):
    """The Vandermonde pair behind the coupling matrix is too ill-conditioned."""

    def __init__(self, message, residual=None):
        self.residual = residual
        super().__init__(message)


class ConjugationDefectError(NumericalError):
    """The combination of multiplication matrices does not respect the
    declared conjugation of the variables, so it has no real form."""


class DefectiveEigenstructureError(NumericalError):
    """Fewer than 2^N distinct roots could be read off the eigenvectors."""


class DegenerateLeadingCoefficientError(NumericalError):
    """Recovered polynomial has (numerically) vanishing leading coefficient."""


class NoAdmissibleSolutionError(H2ReduceError):
    """Every critical-point candidate was rejected."""


class BasisSizeError(H2ReduceError):
    """2^N monomial basis exceeds the cap on N."""

"""Exception hierarchy.

Each class carries the exit code and the stderr label that ``cli.main``
reports it with, as ``exit_code`` and ``label``: these class attributes are
the one map from an error to its exit code.
"""


class H2ReduceError(Exception):
    """Base class for all package errors.

    ``diagnostics`` holds what the failing stage measured, for the report.
    """

    exit_code, label = 4, None

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class InputError(H2ReduceError):
    """Malformed user input (bad file, bad flag combination)."""
    exit_code, label = 1, "input"


class ValidationError(H2ReduceError):
    """The given transfer function violates a standing assumption."""
    exit_code, label = 3, "validation"


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
    label = "numerical"


class IllConditionedError(NumericalError):
    """The Vandermonde pair behind the coupling matrix is too ill-conditioned."""


class ConjugationDefectError(NumericalError):
    """The combination of multiplication matrices does not respect the
    declared conjugation of the variables, so it has no real form."""


class DefectiveEigenstructureError(NumericalError):
    """Fewer than 2^N distinct roots could be read off the eigenvectors."""


class NoAdmissibleSolutionError(H2ReduceError):
    """Every critical-point candidate was rejected."""
    exit_code, label = 2, "no admissible critical point"


class BasisSizeError(H2ReduceError):
    """2^N monomial basis exceeds the cap on N."""

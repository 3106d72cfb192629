"""Transfer-function ingestion, validation and H2 norms by residue calculus."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InputError,
    NotStrictlyProperError,
    PoleZeroCancellationError,
    RepeatedPoleError,
    UnstablePoleError,
    ValidationError,
    NumericalError,
)
from .poly import Polynomial, derivative, eval_poly, roots
from .tolerances import TOL, Tolerances


@dataclass(frozen=True)
class TransferFunction:
    """Strictly proper rational function numerator/denominator.

    The denominator is normalized to be monic on construction (both
    polynomials are divided by its leading coefficient).
    """

    numerator: Polynomial
    denominator: Polynomial

    def __init__(self, numerator: Polynomial, denominator: Polynomial):
        if not isinstance(numerator, Polynomial):
            numerator = Polynomial(numerator)
        if not isinstance(denominator, Polynomial):
            denominator = Polynomial(denominator)
        if denominator.is_zero:
            raise InputError("the denominator is identically zero")
        lead = denominator.coeffs[0]
        object.__setattr__(self, "numerator", numerator.scale(1.0 / lead))
        object.__setattr__(self, "denominator", denominator.monic())


def strip_feedthrough(numerator: Polynomial, denominator: Polynomial) -> TransferFunction:
    """Remove the direct feedthrough by polynomial division.

    The optimal strictly proper approximant is unaffected by the
    feedthrough term, so this is sound, but callers must opt in.
    """
    _, r = np.polydiv(numerator.coeffs, denominator.coeffs)
    return TransferFunction(Polynomial(r), denominator)


def generate_relaxation(n: int, alpha: float) -> TransferFunction:
    """G(s) = sum_{j=1}^n alpha^(2j) / (s + alpha^(2j))."""
    if n < 1:
        raise InputError("relaxation order must be >= 1")
    if not 0 < alpha < np.inf:
        raise InputError(f"relaxation parameter alpha must be finite and > 0, got {alpha}")
    if alpha == 1.0:
        raise InputError("degenerate relaxation system (first order): alpha = 1")
    try:
        gains = np.array([alpha ** (2 * j) for j in range(1, n + 1)])
    except OverflowError as exc:
        raise InputError(f"relaxation poles overflow at alpha = {alpha}") from exc
    return from_pole_residue(-gains, gains)


def from_pole_residue(poles: np.ndarray, residues: np.ndarray) -> TransferFunction:
    """Recombine sum_i r_i/(s - p_i) into a single coefficient-form system."""
    if len(poles) != len(residues):
        raise InputError("poles and residues must have equal length")
    if len(poles) == 0:
        raise InputError("empty pole list")
    den = np.array([1.0 + 0.0j])
    for p in poles:
        den = np.convolve(den, [1.0, -p])
    num = np.zeros(len(poles), dtype=complex)
    for i, r in enumerate(residues):
        term = np.array([r])
        for j, p in enumerate(poles):
            if j != i:
                term = np.convolve(term, [1.0, -p])
        num += term
    scale = max(np.max(np.abs(num)), np.max(np.abs(den)))
    if max(np.max(np.abs(num.imag)), np.max(np.abs(den.imag))) > TOL.conj_closure * scale:
        raise InputError(
            "pole-residue data does not describe a real system "
            "(conjugate closure violated)"
        )
    num = np.trim_zeros(num.real, "f")
    if num.size == 0:
        num = np.array([0.0])
    return TransferFunction(Polynomial(num), Polynomial(den.real))


@dataclass(frozen=True)
class ValidatedSystem:
    """A transfer function with every standing assumption checked.

    Poles are sorted by (real part, imaginary part); all downstream
    indexing (M rows, xi entries, criterion weights) follows this order.
    ``conj_perm[i]`` is the index of the pole conjugate to pole i.
    """

    tf: TransferFunction
    poles: np.ndarray
    e_at_poles: np.ndarray
    dprime_at_poles: np.ndarray
    d_at_minus_poles: np.ndarray
    conj_perm: np.ndarray
    n: int


def validate(tf: TransferFunction) -> ValidatedSystem:
    """Check stability, strict properness, pole distinctness and coprimality."""
    e, d = tf.numerator, tf.denominator
    if not (e.is_real and d.is_real):
        raise ValidationError("numerator and denominator must be real polynomials")
    if e.degree >= d.degree:
        raise NotStrictlyProperError(
            f"not strictly proper: deg num {e.degree} >= deg den {d.degree}"
        )
    if d.degree < 1:
        raise ValidationError("denominator must have degree >= 1")
    if e.is_zero:
        raise ValidationError("the numerator is identically zero: nothing to reduce")

    poles = roots(d)
    poles = poles[np.lexsort((poles.imag, poles.real))]
    n = len(poles)

    for p in poles:
        if p.real >= 0:
            raise UnstablePoleError(p)

    scale = np.max(np.abs(poles))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(poles[i] - poles[j]) < TOL.pole_sep * scale:
                raise RepeatedPoleError(poles[i], poles[j])

    e_at = np.array([eval_poly(e, p) for p in poles])
    e_scale = np.max(np.abs(e.coeffs))
    zeros = None    # the zeros of e, found for the first tiny e(pole)
    for p, v in zip(poles, e_at):
        if abs(v) >= TOL.coprime * e_scale:
            continue
        # A tiny numerator value alone is not proof of a shared factor:
        # systems with tightly clustered poles evaluate small everywhere.
        # Confirm by actual pole-zero proximity, scaled to the pole itself.
        if zeros is None:
            zeros = roots(e)
        if np.min(np.abs(zeros - p)) < TOL.cancel * abs(p):
            raise PoleZeroCancellationError(p, v)

    # real d: the pole multiset is conjugate closed; record the pairing
    conj_perm = np.empty(n, dtype=int)
    for i, p in enumerate(poles):
        k = int(np.argmin(np.abs(poles - np.conj(p))))
        if abs(poles[k] - np.conj(p)) > TOL.pole_sep * scale:
            raise ValidationError(f"pole set not closed under conjugation near {p}")
        conj_perm[i] = k

    dp = derivative(d)
    dprime_at = np.array([eval_poly(dp, p) for p in poles])
    dminus_at = np.array([eval_poly(d, -p) for p in poles])
    return ValidatedSystem(
        tf=tf,
        poles=poles,
        e_at_poles=e_at,
        dprime_at_poles=dprime_at,
        d_at_minus_poles=dminus_at,
        conj_perm=conj_perm,
        n=n,
    )


def _pairing_norm_sq(residues: np.ndarray, poles: np.ndarray) -> complex:
    """Sum_{i,j} r_i r_j / (-p_i - p_j), the residue form of the H2 inner product."""
    denom = -(poles[:, None] + poles[None, :])
    return complex(residues @ (residues / denom).sum(axis=1))


def h2_norm(sys: ValidatedSystem) -> float:
    """H2 norm of e/d by partial fractions over the (distinct) poles."""
    r = sys.e_at_poles / sys.dprime_at_poles
    sq = _pairing_norm_sq(r, sys.poles)
    if abs(sq.imag) > TOL.norm_real * max(abs(sq.real), 1.0):
        raise NumericalError(f"H2 norm came out non-real: {sq}")
    if sq.real < 0 and sq.real > -TOL.norm_floor:
        return 0.0
    return float(np.sqrt(sq.real))


def h2_distance(sys: ValidatedSystem, approx: TransferFunction,
                tol: Tolerances | None = None) -> float:
    """||e/d - b/a||_2 via the merged partial fractions of both systems.

    Merging the two residue expansions avoids expanding the difference's
    numerator, which would cancel catastrophically for close systems.
    ``tol`` is ignored: every threshold comes from the fixed table.
    """
    if approx.numerator.is_zero:
        return h2_norm(sys)
    a_poles = roots(approx.denominator)
    for p in a_poles:
        if p.real >= 0:
            raise ValidationError(f"unstable approximant: pole at {p}")
    scale = max(np.max(np.abs(sys.poles)), np.max(np.abs(a_poles)))
    for p in a_poles:
        if np.min(np.abs(sys.poles - p)) < TOL.shared_pole * scale:
            raise NumericalError(
                f"approximant shares pole {p} with the original system; "
                "the confluent residue limit is not supported"
            )
    for i in range(len(a_poles)):
        for j in range(i + 1, len(a_poles)):
            if abs(a_poles[i] - a_poles[j]) < TOL.shared_pole * scale:
                raise NumericalError("approximant has a repeated pole")
    return _merged_distance(sys, approx.numerator, approx.denominator, a_poles)


def _merged_distance(sys: ValidatedSystem, b: Polynomial, a: Polynomial,
                     a_poles: np.ndarray) -> float:
    """||e/d - b/a||_2 from the residues of both systems at the roots a_poles
    of a, which must be simple and stable (``h2_distance`` checks them)."""
    da = derivative(a)
    res = np.array([eval_poly(b, p) / eval_poly(da, p) for p in a_poles])
    sq = _pairing_norm_sq(np.concatenate([sys.e_at_poles / sys.dprime_at_poles, -res]),
                          np.concatenate([sys.poles, a_poles]))
    if abs(sq.imag) > TOL.distance_real * max(abs(sq.real), 1.0):
        raise NumericalError(f"H2 distance came out non-real: {sq}")
    return float(np.sqrt(max(sq.real, 0.0)))

"""First-order optimality conditions as a diagonal-quadratic system.

Stationarity of the squared H2 error for a monic degree-(N-1) denominator
a(s) is equivalent to x_i^2 = (M x)_i, x != 0, where x_i = atilde(-delta_i),
atilde = q0 * a, and M couples the numerator values at the poles through a
pair of Vandermonde matrices. This module builds M and maps each eigenvalue
tuple xi back to a candidate reduced model (a, b, q0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateLeadingCoefficientError, IllConditionedError
from .poly import Polynomial, is_hurwitz, reflect
from .tf import ValidatedSystem
from .tolerances import Tolerances

LS_REJECT = 1e-6  # admissibility floor for the numerator least-squares fit


@dataclass(frozen=True)
class CriticalPoint:
    """One candidate reduced model recovered from an eigenvalue tuple xi."""

    xi: np.ndarray
    a: Polynomial            # monic, degree N-1
    b: Polynomial            # degree <= N-2
    q0: complex
    criterion: complex       # phi(xi); equals squared error when real admissible
    is_real: bool
    is_hurwitz: bool
    ls_residual: float       # relative residual of b*d = e*a - q0*reflect(a)^2

    @property
    def rejection(self) -> Optional[str]:
        """Why the candidate is not admissible: "complex", "non-hurwitz" or
        "high-residual"; None for a real, stable, exactly fitted candidate."""
        if not self.is_real:
            return "complex"
        if not self.is_hurwitz:
            return "non-hurwitz"
        if self.ls_residual > LS_REJECT:
            return "high-residual"
        return None

    @property
    def is_admissible(self) -> bool:
        return self.rejection is None

    @property
    def error(self) -> float:
        """sqrt of the criterion; meaningful for real admissible candidates."""
        return float(np.sqrt(max(self.criterion.real, 0.0)))


def _vander(nodes: np.ndarray) -> np.ndarray:
    return np.vander(nodes, len(nodes), increasing=True)


def build_M(sys: ValidatedSystem, tol: Optional[Tolerances] = None) -> np.ndarray:
    """N x N coupling matrix M with M V(-d) = diag(e(d)) V(d).

    Solved column-block-wise through the transposed Vandermonde system
    (no explicit inverse); the defining relation is re-checked and an
    ill-conditioning error raised if its relative residual exceeds
    ``tol.build_m_residual``.
    """
    tol = tol or Tolerances()
    v_plus = _vander(sys.poles)
    v_minus = _vander(-sys.poles)
    rhs = sys.e_at_poles[:, None] * v_plus
    # M v_minus = rhs  <=>  v_minus^T M^T = rhs^T
    m = np.linalg.solve(v_minus.T, rhs.T).T
    resid = np.linalg.norm(m @ v_minus - rhs) / np.linalg.norm(rhs)
    if resid > tol.build_m_residual:
        raise IllConditionedError(
            f"coupling matrix residual {resid:.3e} exceeds "
            f"{tol.build_m_residual:.1e}; the Vandermonde pair is too "
            "ill-conditioned for a trustworthy answer",
            residual=float(resid),
        )
    return m


def _solve_b(
    e: Polynomial, d: Polynomial, a: Polynomial, q0: complex
) -> tuple[Polynomial, float]:
    """Least-squares b with b*d = e*a - q0*reflect(a)^2, matching all 2N-1
    coefficients; exact divisibility holds at true critical points, so the
    residual doubles as a candidate-quality diagnostic."""
    n = d.degree
    ra = reflect(a)
    rhs = np.zeros(2 * n - 1, dtype=complex)
    ea = (e * a).coeffs
    rhs[-len(ea):] += ea
    ra2 = (ra * ra).coeffs
    rhs[-len(ra2):] -= q0 * ra2
    conv = np.zeros((2 * n - 1, n - 1), dtype=complex)
    for j in range(n - 1):
        conv[j:j + n + 1, j] = d.coeffs
    b, *_ = np.linalg.lstsq(conv, rhs, rcond=None)
    res = np.linalg.norm(conv @ b - rhs) / max(np.linalg.norm(rhs), 1e-300)
    return Polynomial(b), float(res)


def recover_candidate(
    sys: ValidatedSystem,
    xi: Sequence[complex],
    tol: Optional[Tolerances] = None,
) -> CriticalPoint:
    """Map an eigenvalue tuple xi back to a candidate (a, b, q0).

    Solves V(-d) atilde = xi for the ascending coefficients of atilde,
    normalizes to a monic a with q0 the leading coefficient, and fits the
    numerator b by least squares. The criterion value is NOT filled in here
    (the selection layer owns it); it is initialized to 0.
    """
    tol = tol or Tolerances()
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    n = sys.n
    if xi.shape != (n,):
        raise ValueError("xi must have one entry per pole")
    v_minus = _vander(-sys.poles)
    at = np.linalg.solve(v_minus, xi)       # ascending coeffs of atilde
    q0 = at[-1]
    if abs(q0) <= tol.q0 * np.linalg.norm(at):
        raise DegenerateLeadingCoefficientError(
            f"leading coefficient {q0:.3e} of the recovered polynomial is "
            "numerically zero; candidate cannot be normalized to monic form"
        )
    a_desc = (at / q0)[::-1]
    # numpy divides by multiplying with 1/q0, which can leave 1 - eps here
    a_desc[0] = 1.0
    scale = 1.0 + np.max(np.abs(a_desc))
    real = bool(np.max(np.abs(a_desc.imag)) <= tol.real * scale
                and abs(q0.imag) <= tol.real * (1.0 + abs(q0)))
    if real:
        a = Polynomial(a_desc.real)
        q0_eff: complex = q0.real
        hurwitz = is_hurwitz(a, tol.hurwitz)
    else:
        a = Polynomial(a_desc)
        q0_eff = q0
        hurwitz = False
    b, ls_res = _solve_b(sys.tf.numerator, sys.tf.denominator, a, q0_eff)
    if real and np.iscomplexobj(b.coeffs):
        im = np.max(np.abs(b.coeffs.imag))
        if im <= tol.real * (1.0 + np.max(np.abs(b.coeffs))):
            b = b.real()
    return CriticalPoint(
        xi=xi,
        a=a,
        b=b,
        q0=q0_eff,
        criterion=0.0,
        is_real=real,
        is_hurwitz=hurwitz,
        ls_residual=ls_res,
    )

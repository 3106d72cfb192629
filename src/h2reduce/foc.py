"""First-order optimality conditions as a diagonal-quadratic system.

Stationarity of the squared H2 error for a monic degree-(N-1) denominator
a(s) is equivalent to x_i^2 = (M x)_i, x != 0, where x_i = atilde(-delta_i),
atilde = q0 * a, and M couples the numerator values at the poles through a
pair of Vandermonde matrices. This module builds M and maps the eigenvalue
tuples xi back to candidate reduced models (a, b, q0), all tuples of a solve
in one batch: one Vandermonde solve gives every atilde, one stacked
eigenvalue call on the companion matrices tests every real denominator for
stability, one least-squares solve against the convolution matrix of d fits
every numerator, and one row sum gives every criterion value phi.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IllConditionedError
from .poly import Polynomial
from .tf import ValidatedSystem
from .tolerances import TOL


def _rejection(is_real: bool, is_hurwitz: bool, ls_residual: float) -> Optional[str]:
    """Why a candidate is not admissible: "complex", "non-hurwitz" or
    "high-residual"; None for a real, stable, exactly fitted candidate."""
    if not is_real:
        return "complex"
    if not is_hurwitz:
        return "non-hurwitz"
    if ls_residual > TOL.ls_reject:
        return "high-residual"
    return None


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
        return _rejection(self.is_real, self.is_hurwitz, self.ls_residual)

    @property
    def is_admissible(self) -> bool:
        return self.rejection is None

    @property
    def error(self) -> float:
        """sqrt of the criterion; meaningful for real admissible candidates."""
        return float(np.sqrt(max(self.criterion.real, 0.0)))


@dataclass(frozen=True, eq=False)
class CandidateTable(Sequence):
    """The candidates of one recovery as arrays, one row per candidate, and
    as a read-only sequence of ``CriticalPoint``: item i is built from row i
    on its first read and kept, so a caller that reads only the arrays
    builds no object. A real row (``real``) holds its a and q0 with zero
    imaginary parts, and its item takes their real parts, as it takes the
    real part of b where ``b_real`` is set."""

    xi: np.ndarray           # (k, N) the tuples
    a: np.ndarray            # (k, N) monic denominators, descending
    b: np.ndarray            # (k, N - 1) numerators, descending
    q0: np.ndarray           # (k,)
    phi: np.ndarray          # (k,) complex criterion values
    real: np.ndarray         # (k,) bool
    hurwitz: np.ndarray      # (k,) bool
    b_real: np.ndarray       # (k,) bool
    ls_residual: np.ndarray  # (k,)
    poles: np.ndarray        # (k, N - 1) roots of a in a real row, NaN in the others
    _items: list = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_items", [None] * len(self.xi))

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        cp = self._items[i]
        if cp is None:
            r = self.real[i]
            cp = self._items[i] = CriticalPoint(
                xi=self.xi[i],
                a=Polynomial(self.a[i].real if r else self.a[i]),
                b=Polynomial(self.b[i].real if self.b_real[i] else self.b[i]),
                q0=self.q0[i].real if r else self.q0[i],
                criterion=complex(self.phi[i]),
                is_real=bool(r),
                is_hurwitz=bool(self.hurwitz[i]),
                ls_residual=float(self.ls_residual[i]),
            )
        return cp

    @cached_property
    def rejections(self) -> List[Optional[str]]:
        """``CriticalPoint.rejection`` of every row."""
        return [_rejection(*row) for row in zip(
            self.real.tolist(), self.hurwitz.tolist(), self.ls_residual.tolist())]


def _vander(nodes: np.ndarray) -> np.ndarray:
    return np.vander(nodes, len(nodes), increasing=True)


def build_M(sys: ValidatedSystem) -> np.ndarray:
    """N x N coupling matrix M with M V(-d) = diag(e(d)) V(d).

    Solved column-block-wise through the transposed Vandermonde system
    (no explicit inverse); the defining relation is re-checked and an
    ill-conditioning error raised if its relative residual exceeds
    ``TOL.build_m_residual``.
    """
    v_plus = _vander(sys.poles)
    v_minus = _vander(-sys.poles)
    rhs = sys.e_at_poles[:, None] * v_plus
    # M v_minus = rhs  <=>  v_minus^T M^T = rhs^T
    m = np.linalg.solve(v_minus.T, rhs.T).T
    # both norms scaled by the same power of two, which is exact, so that
    # they do not overflow on a huge input
    scale = math.ldexp(1.0, -math.frexp(np.abs(rhs).max())[1])
    resid = np.linalg.norm((m @ v_minus - rhs) * scale) / np.linalg.norm(rhs * scale)
    if resid > TOL.build_m_residual:
        raise IllConditionedError(
            f"coupling matrix residual {resid:.3e} exceeds "
            f"{TOL.build_m_residual:.1e}; the Vandermonde pair is too "
            "ill-conditioned for a trustworthy answer",
            diagnostics={"build_m_residual": float(resid)},
        )
    return m


def criterion_weights(sys: ValidatedSystem) -> np.ndarray:
    """w_i = 1 / (e(delta_i) d'(delta_i) d(-delta_i))."""
    return 1.0 / (sys.e_at_poles * sys.dprime_at_poles * sys.d_at_minus_poles)


def critical_values(sys: ValidatedSystem, xis: np.ndarray) -> np.ndarray:
    """phi(xi) = sum_i xi_i^3 w_i over the last axis of xis; the squared H2
    error at real critical points. A tuple too large to cube gives a phi that
    is not finite, quietly: ``solve_reduction`` reports it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.sum(xis**3 * criterion_weights(sys), axis=-1)


def _shifts(c: np.ndarray, rows: int) -> np.ndarray:
    """Stack of (rows, len + rows - 1) matrices, one per vector c along the
    last axis, whose row i is c shifted right by i: x @ _shifts(c, len(x))
    is the convolution of x with c."""
    pad = np.zeros(c.shape[:-1] + (rows - 1,), dtype=c.dtype)
    padded = np.concatenate([pad, c, pad], axis=-1)
    return sliding_window_view(padded, c.shape[-1] + rows - 1, axis=-1)[..., ::-1, :]


def recover_candidates(sys: ValidatedSystem, xis: np.ndarray) -> Tuple[CandidateTable, int]:
    """Map each row xi of the (k, N) array xis back to a candidate (a, b, q0).

    Solves V(-d) atilde = xi for the ascending coefficients of atilde,
    normalizes to a monic a with q0 the leading coefficient, tests each real
    a for stability by the eigenvalues of its companion matrix (the matrix
    np.roots builds; the table keeps them as the poles) and fits the
    numerator b by least squares, each step one call for all rows. A row
    whose q0 is numerically zero cannot be normalized to monic form and
    yields no candidate. The criterion of a candidate is phi(xi).

    Returns the table of the candidates, in row order, and the number of
    rows dropped for a degenerate q0.
    """
    n = sys.n
    xis = np.asarray(xis, dtype=complex)
    if xis.ndim != 2 or xis.shape[1] != n:
        raise ValueError("xis must hold one tuple per row and one entry per pole")
    at = np.linalg.solve(_vander(-sys.poles), xis.T).T    # ascending coeffs of atilde
    q0 = at[:, -1]
    keep = np.abs(q0) > TOL.q0 * np.linalg.norm(at, axis=1)
    xis, at, q0 = xis[keep], at[keep], q0[keep]
    a = (at / q0[:, None])[:, ::-1]
    # numpy divides by multiplying with 1/q0, which can leave 1 - eps here
    a[:, 0] = 1.0
    real = ((np.abs(a.imag).max(axis=1) <= TOL.real * (1.0 + np.abs(a).max(axis=1)))
            & (np.abs(q0.imag) <= TOL.real * (1.0 + np.abs(q0))))
    a[real] = a[real].real
    q0[real] = q0[real].real

    # companion matrices of the real monic denominators, as np.roots builds them
    comp = np.zeros((np.count_nonzero(real), n - 1, n - 1))
    comp[:, 0, :] = -a[real, 1:].real
    comp[:, np.arange(1, n - 1), np.arange(n - 2)] = 1.0
    poles = np.full((len(a), n - 1), np.nan, dtype=complex)
    poles[real] = np.linalg.eigvals(comp)
    hurwitz = np.all(poles.real < -TOL.hurwitz, axis=1)

    # b d = e a - q0 reflect(a)^2, matching all 2N-1 coefficients; exact
    # divisibility holds at true critical points, so the residual doubles as
    # a candidate-quality diagnostic
    e = sys.tf.numerator.coeffs
    ea = a @ _shifts(np.concatenate([np.zeros(n - len(e)), e]), n)
    ra = a * (-1.0) ** np.arange(n - 1, -1, -1)                # reflect(a)
    ra2 = (ra[:, None, :] @ _shifts(ra, n))[:, 0]
    rhs = (ea - q0[:, None] * ra2).T
    conv = _shifts(sys.tf.denominator.coeffs, n - 1).T
    b, *_ = np.linalg.lstsq(conv, rhs, rcond=None)
    ls_res = (np.linalg.norm(conv @ b - rhs, axis=0)
              / np.maximum(np.linalg.norm(rhs, axis=0), 1e-300))
    b_real = real & (np.abs(b.imag).max(axis=0)
                     <= TOL.real * (1.0 + np.abs(b).max(axis=0)))

    table = CandidateTable(xi=xis, a=a, b=b.T, q0=q0, phi=critical_values(sys, xis), real=real,
                           hurwitz=hurwitz, b_real=b_real, ls_residual=ls_res, poles=poles)
    return table, int(np.count_nonzero(~keep))

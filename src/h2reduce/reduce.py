"""End-to-end reduction-by-one pipeline and global selection.

Pipeline: coupling matrix M -> diagonal-quadratic system (mu = 0) ->
multiplication matrices -> simultaneous eigenvalue tuples -> the root
ledger (all 2^N roots distinct, exactly one of them the zero root) ->
recover a candidate model per nonzero tuple -> criterion values -> the
admissible candidate with the least real positive value, which is the
global optimum.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import (
    DefectiveEigenstructureError,
    DegenerateLeadingCoefficientError,
    NoAdmissibleSolutionError,
    NumericalError,
)
from .foc import CriticalPoint, build_M, recover_candidate
from .stetter import (
    DiagQuadSystem,
    build_critical_value_matrix,
    build_multiplication_matrices,
    common_eigen_solutions,
)
from .tf import TransferFunction, ValidatedSystem, h2_distance, h2_norm
from .tolerances import Tolerances

def criterion_weights(sys: ValidatedSystem) -> np.ndarray:
    """w_i = 1 / (e(delta_i) d'(delta_i) d(-delta_i))."""
    return 1.0 / (sys.e_at_poles * sys.dprime_at_poles * sys.d_at_minus_poles)


def critical_value(sys: ValidatedSystem, xi: Sequence[complex]) -> complex:
    """phi(xi) = sum_i xi_i^3 w_i; the squared H2 error at real critical points."""
    xi = np.atleast_1d(np.asarray(xi, dtype=complex))
    return complex(np.sum(xi**3 * criterion_weights(sys)))


@dataclass(frozen=True)
class ReductionReport:
    system_norm: float
    candidates: List[CriticalPoint]
    admissible: List[CriticalPoint]
    global_candidate: Optional[CriticalPoint]
    global_error: float
    critical_values_sorted: List[float]
    diagnostics: Dict[str, object] = field(default_factory=dict)

    @property
    def relative_error(self) -> float:
        return self.global_error / self.system_norm

    @property
    def approximant(self) -> Optional[TransferFunction]:
        if self.global_candidate is None:
            return None
        return TransferFunction(self.global_candidate.b, self.global_candidate.a)


def _is_real_positive(v: complex, tol: Tolerances) -> bool:
    return abs(v.imag) <= tol.value_real * (1.0 + abs(v)) and v.real > 0


def _critical_levels(candidates: Sequence[CriticalPoint], tol: Tolerances) -> List[float]:
    """Distinct real positive criterion values, in increasing order."""
    levels: List[float] = []
    for cp in candidates:
        if _is_real_positive(cp.criterion, tol):
            m = cp.criterion.real
            if not any(abs(m - u) <= tol.value_cluster * max(m, u) for u in levels):
                levels.append(m)
    levels.sort()
    return levels


def select_global(
    candidates: Sequence[CriticalPoint],
    tol: Optional[Tolerances] = None,
) -> Optional[CriticalPoint]:
    """The admissible candidate with the least real positive criterion value.

    Admissible candidates are real, stable critical points, where phi is the
    squared H2 error, so the least of their values is the global minimum.
    """
    tol = tol or Tolerances()
    return min(
        (cp for cp in candidates if cp.is_admissible and _is_real_positive(cp.criterion, tol)),
        key=lambda cp: cp.criterion.real,
        default=None,
    )


def solve_reduction(
    sys: ValidatedSystem,
    seed: int = 0,
    tol: Optional[Tolerances] = None,
    method: str = "enum",
) -> ReductionReport:
    """Run the whole pipeline and select the global optimum.

    ``method="enum"`` evaluates the criterion pointwise at each recovered
    tuple (default, the robust path). ``method="cvm"`` instead reads the
    values off the eigenvalues of the critical-value matrix
    A_F = sum w_i A_{X_i}^3 and raises a numerical error when they cannot be
    matched to the pointwise values — this path is known to break down first
    under ill-conditioning and exists for diagnostics and comparison.
    """
    if method not in ("enum", "cvm"):
        raise ValueError(f"unknown method {method!r}")
    tol = tol or Tolerances()
    t0 = time.perf_counter()
    diagnostics: Dict[str, object] = {"seed": seed, "method": method}

    m = build_M(sys, tol)
    mm = build_multiplication_matrices(DiagQuadSystem(m, conj=sys.conj_perm), tol)
    diagnostics["commutation_defect"] = mm.commutation_defect

    eig = common_eigen_solutions(mm, seed=seed, tol=tol)
    diagnostics["conjugation_defect"] = eig.conjugation_defect
    # the root ledger: the optimum is certified only if all 2^N roots are
    # accounted for as distinct, accepted tuples, and mu = 0 makes xi = 0 a
    # simple root, so exactly one of them may lie at zero; a second tuple
    # there is a copy of it standing in for a root never found
    xis = np.array([s.xi for s in eig.solutions]).reshape(-1, mm.n_vars)
    sizes = np.abs(xis).max(axis=1)
    at_zero = sizes <= tol.zero_solution * (1.0 + sizes.max(initial=0.0))
    if len(xis) != mm.dim or np.count_nonzero(at_zero) != 1:
        ledger = {"found": len(xis), "rejected": len(eig.rejected),
                  "merged": sum(s.multiplicity_hint - 1 for s in eig.solutions),
                  "at_zero": int(np.count_nonzero(at_zero))}
        raise DefectiveEigenstructureError(
            f"{ledger['found']} of {mm.dim} roots found "
            f"({ledger['rejected']} eigenvectors rejected, {ledger['merged']} "
            f"merged), {ledger['at_zero']} of them at the simple root xi = 0; "
            "a missing root could hide a lower critical value",
            diagnostics={**diagnostics, **ledger},
        )

    weights = criterion_weights(sys)
    candidates: List[CriticalPoint] = []
    degenerate_q0 = 0
    for xi in (x for x, z in zip(xis, at_zero) if not z):
        try:
            cp = recover_candidate(sys, xi, tol)
        except DegenerateLeadingCoefficientError:
            degenerate_q0 += 1
            continue
        candidates.append(replace(cp, criterion=complex(np.sum(xi**3 * weights))))
    diagnostics["degenerate_q0_rejections"] = degenerate_q0

    if method == "cvm":
        a_f = build_critical_value_matrix(mm, weights)
        vals = np.linalg.eigvals(a_f)
        diagnostics["cvm_eigenvalues"] = vals
        matched = []
        for cp in candidates:
            k = int(np.argmin(np.abs(vals - cp.criterion)))
            gap = abs(vals[k] - cp.criterion) / (1.0 + abs(cp.criterion))
            if gap > 1e-6:
                raise NumericalError(
                    "critical-value matrix eigenvalues do not match the "
                    f"pointwise criterion (relative gap {gap:.3e}); the "
                    "matrix path has broken down on this instance"
                )
            matched.append(replace(cp, criterion=complex(vals[k])))
        candidates = matched

    admissible = [cp for cp in candidates if cp.is_admissible]
    norm = h2_norm(sys)

    best = select_global(candidates, tol)
    cross = {}
    for idx, cp in enumerate(admissible):
        approx = TransferFunction(cp.b, cp.a)
        dist = h2_distance(sys, approx, tol)
        gap = abs(cp.criterion.real - dist**2)
        cross[idx] = {"distance": dist, "gap": gap,
                      "flagged": gap > tol.cross_check * (1.0 + cp.criterion.real)}
    diagnostics["cross_check"] = cross
    diagnostics["elapsed_s"] = time.perf_counter() - t0

    if best is None:
        raise NoAdmissibleSolutionError(
            "no admissible critical point found: every candidate was "
            "complex, non-Hurwitz, or rejected",
            diagnostics={**diagnostics,
                         "n_candidates": len(candidates),
                         "rejections": [cp.rejection for cp in candidates]},
        )
    return ReductionReport(
        system_norm=norm,
        candidates=candidates,
        admissible=admissible,
        global_candidate=best,
        global_error=best.error,
        critical_values_sorted=_critical_levels(candidates, tol),
        diagnostics=diagnostics,
    )

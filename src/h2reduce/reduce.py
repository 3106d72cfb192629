"""End-to-end reduction-by-one pipeline and global selection.

Pipeline: coupling matrix M -> diagonal-quadratic system (mu = 0) ->
a random combination T^T of its multiplication matrices, formed as they
are filled -> simultaneous eigenvalue tuples -> the root ledger (all 2^N
roots distinct, exactly one of them the zero root) -> candidate models and
criterion values for all nonzero tuples in one batch -> the admissible
candidate with the least real positive value, which is the global
optimum. The wall time of each stage goes into the report's
diagnostics as ``stage_s``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import (
    DefectiveEigenstructureError,
    InputError,
    NoAdmissibleSolutionError,
    NumericalError,
)
from .foc import CriticalPoint, build_M, criterion_weights, recover_candidates
from .stetter import (
    DiagQuadSystem,
    build_critical_value_matrix,
    combine,
    common_eigen_solutions,
)
from .tf import TransferFunction, ValidatedSystem, h2_distance, h2_norm
from .tolerances import TOL

# entries of one block of the candidates-by-eigenvalues distance matrix
_MATCH_BLOCK = 1 << 15


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


def _is_real_positive(v: complex) -> bool:
    return abs(v.imag) <= TOL.value_real * (1.0 + abs(v)) and v.real > 0


def _critical_levels(candidates: Sequence[CriticalPoint]) -> List[float]:
    """Distinct real positive criterion values, in increasing order."""
    levels: List[float] = []
    for cp in candidates:
        if _is_real_positive(cp.criterion):
            m = cp.criterion.real
            if not any(abs(m - u) <= TOL.value_cluster * max(m, u) for u in levels):
                levels.append(m)
    levels.sort()
    return levels


def select_global(candidates: Sequence[CriticalPoint]) -> Optional[CriticalPoint]:
    """The admissible candidate with the least real positive criterion value.

    Admissible candidates are real, stable critical points, where phi is the
    squared H2 error, so the least of their values is the global minimum.
    """
    return min(
        (cp for cp in candidates if cp.is_admissible and _is_real_positive(cp.criterion)),
        key=lambda cp: cp.criterion.real,
        default=None,
    )


def _match_critical_values(
    vals: np.ndarray, phi: np.ndarray, diagnostics: Dict[str, object]
) -> np.ndarray:
    """The eigenvalue of A_F nearest each pointwise value phi.

    Raises a NumericalError, carrying ``diagnostics`` and the mismatch, when
    any of them lies further than TOL.cvm_gap (relative) from its value.
    """
    rows = max(1, _MATCH_BLOCK // len(vals))
    nearest = np.empty(len(phi), dtype=np.intp)
    for i in range(0, len(phi), rows):
        nearest[i:i + rows] = np.argmin(np.abs(vals - phi[i:i + rows, None]), axis=1)
    gap = np.abs(vals[nearest] - phi) / (1.0 + np.abs(phi))
    bad = np.flatnonzero(gap > TOL.cvm_gap)
    if bad.size:
        raise NumericalError(
            "critical-value matrix eigenvalues do not match the pointwise "
            f"criterion (relative gap {gap[bad[0]]:.3e}); the matrix path has "
            "broken down on this instance",
            diagnostics={**diagnostics, "first_mismatch": int(bad[0]),
                         "worst_gap": float(gap.max()), "mismatched": int(bad.size)},
        )
    return vals[nearest]


def _lap(stage_s: Dict[str, float], name: str, start: float) -> float:
    """Record the wall time since ``start`` as stage ``name``; return now."""
    now = time.perf_counter()
    stage_s[name] = now - start
    return now


def solve_reduction(
    sys: ValidatedSystem,
    seed: int = 0,
    method: str = "enum",
) -> ReductionReport:
    """Run the whole pipeline and select the global optimum.

    ``method="enum"`` evaluates the criterion pointwise at each recovered
    tuple (default, the robust path). ``method="cvm"`` instead reads the
    values off the eigenvalues of the critical-value matrix
    A_F = sum w_i A_{X_i}^3 and raises a numerical error when they cannot be
    matched to the pointwise values — this path is known to break down first
    under ill-conditioning and exists for diagnostics and comparison.
    Every check of every stage reads the one fixed threshold table ``TOL``;
    no caller can loosen it.
    """
    if method not in ("enum", "cvm"):
        raise ValueError(f"unknown method {method!r}")
    if sys.n < 2:
        raise InputError(
            f"reduction by one needs a system of order >= 2, got order {sys.n}")
    stage_s: Dict[str, float] = {}
    diagnostics: Dict[str, object] = {"seed": seed, "method": method, "stage_s": stage_s}
    t0 = t = time.perf_counter()

    m = build_M(sys)
    t = _lap(stage_s, "build_M", t)
    # one fill gives T^T for the eigen stage, and keeps the matrices only
    # for the critical-value matrix
    comb = combine(DiagQuadSystem(m, conj=sys.conj_perm), seed=seed,
                   keep_matrices=method == "cvm")
    t = _lap(stage_s, "build_mult", t)

    eig = common_eigen_solutions(comb)
    diagnostics["conjugation_defect"] = eig.conjugation_defect
    n_vars, dim = comb.system.n_vars, comb.system.dim
    # the root ledger: the optimum is certified only if all 2^N roots are
    # accounted for as distinct, accepted tuples, and mu = 0 makes xi = 0 a
    # simple root, so exactly one of them may lie at zero; a second tuple
    # there is a copy of it standing in for a root never found
    xis = np.array([s.xi for s in eig.solutions]).reshape(-1, n_vars)
    sizes = np.abs(xis).max(axis=1)
    at_zero = sizes <= TOL.zero_solution * (1.0 + sizes.max(initial=0.0))
    if len(xis) != dim or np.count_nonzero(at_zero) != 1:
        ledger = {"found": len(xis), "rejected": len(eig.rejected),
                  "merged": sum(s.multiplicity_hint - 1 for s in eig.solutions),
                  "at_zero": int(np.count_nonzero(at_zero))}
        raise DefectiveEigenstructureError(
            f"{ledger['found']} of {dim} roots found "
            f"({ledger['rejected']} eigenvectors rejected, {ledger['merged']} "
            f"merged), {ledger['at_zero']} of them at the simple root xi = 0; "
            "a missing root could hide a lower critical value",
            diagnostics={**diagnostics, **ledger},
        )
    t = _lap(stage_s, "eigen", t)

    match = None
    if method == "cvm":
        vals = np.linalg.eigvals(
            build_critical_value_matrix(comb.matrices, criterion_weights(sys)))
        match = partial(_match_critical_values, vals, diagnostics=diagnostics)
        t = _lap(stage_s, "cvm", t)
    candidates, degenerate_q0 = recover_candidates(sys, xis[~at_zero], criterion=match)
    diagnostics["degenerate_q0_rejections"] = degenerate_q0
    if method == "cvm":
        diagnostics["cvm_eigenvalues"] = vals
    t = _lap(stage_s, "recover", t)

    admissible = [cp for cp in candidates if cp.is_admissible]
    norm = h2_norm(sys)

    best = select_global(candidates)
    cross = {}
    for idx, cp in enumerate(admissible):
        approx = TransferFunction(cp.b, cp.a)
        dist = h2_distance(sys, approx)
        gap = abs(cp.criterion.real - dist**2)
        cross[idx] = {"distance": dist, "gap": gap,
                      "flagged": gap > TOL.cross_check * (1.0 + cp.criterion.real)}
    diagnostics["cross_check"] = cross
    t = _lap(stage_s, "select", t)
    diagnostics["elapsed_s"] = t - t0

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
        critical_values_sorted=_critical_levels(candidates),
        diagnostics=diagnostics,
    )

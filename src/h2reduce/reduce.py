"""End-to-end reduction-by-one pipeline and global selection.

Pipeline: coupling matrix M -> diagonal-quadratic system x o x = M x ->
a random combination T^T of its multiplication matrices, formed as they
are filled -> simultaneous eigenvalue tuples, whose root ledger must be
complete -> candidate models and criterion values for all nonzero tuples
in one batch -> the admissible candidate with the least real positive
value, which is the global optimum. The wall time of each stage, the one
that failed included, goes into the diagnostics as ``stage_s``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from .errors import (DefectiveEigenstructureError, H2ReduceError, InputError,
                     NoAdmissibleSolutionError, NumericalError)
from .foc import CandidateTable, CriticalPoint, build_M, criterion_weights, recover_candidates
from .stetter import (DiagQuadSystem, _dedupe, build_critical_value_matrix, combine,
                      common_eigen_solutions)
from .tf import ValidatedSystem, _merged_distance, h2_norm
from .tolerances import TOL


@dataclass(frozen=True)
class ReductionReport:
    system_norm: float
    candidates: CandidateTable
    admissible: List[CriticalPoint]
    global_candidate: Optional[CriticalPoint]
    global_error: float
    critical_values_sorted: List[float]
    diagnostics: Dict[str, object] = field(default_factory=dict)

    @property
    def relative_error(self) -> float:
        return self.global_error / self.system_norm


def _rankable(phi: np.ndarray) -> np.ndarray:
    """Which phi can be ranked: finite (inf <= 1e-6 (1 + inf) would pass), real
    within TOL.value_real and positive; |phi| is libm's hypot, as in abs()."""
    return (np.isfinite(phi) & (phi.real > 0)
            & (np.abs(phi.imag) <= TOL.value_real * (1.0 + np.hypot(phi.real, phi.imag))))


def _critical_levels(levels: np.ndarray) -> List[float]:
    """Distinct values among the levels, in increasing order: the representatives
    of their greedy clustering in the order given (``_dedupe`` at TOL.value_cluster)."""
    counts = _dedupe(levels[:, None], TOL.value_cluster)
    return np.sort(levels[counts > 0]).tolist()


def _match_critical_values(vals: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The eigenvalue of A_F nearest each pointwise value phi.

    Raises a NumericalError, carrying the mismatch, when any of them lies
    further than TOL.cvm_gap (relative) from its value.
    """
    # k candidates against D > k eigenvalues: no larger than A_F itself
    nearest = np.argmin(np.abs(vals - phi[:, None]), axis=1)
    gap = np.abs(vals[nearest] - phi) / (1.0 + np.abs(phi))
    bad = np.flatnonzero(gap > TOL.cvm_gap)
    if bad.size:
        raise NumericalError(
            "critical-value matrix eigenvalues do not match the pointwise "
            f"criterion (relative gap {gap[bad[0]]:.3e}); the matrix path has "
            "broken down on this instance",
            diagnostics={"first_mismatch": int(bad[0]), "worst_gap": float(gap.max()),
                         "mismatched": int(bad.size)},
        )
    return vals[nearest].astype(complex, copy=False)


@contextmanager
def _stage(diagnostics: Dict[str, object], name: str):
    """Time the block as stage ``name`` of the run, also when it raises, and
    keep ``elapsed_s`` the sum of the stages so far."""
    stage_s = diagnostics["stage_s"]
    start = time.perf_counter()
    try:
        yield
    finally:
        stage_s[name] = time.perf_counter() - start
        diagnostics["elapsed_s"] = sum(stage_s.values())


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
    if seed < 0:
        raise InputError(f"the eigen seed must be non-negative, got {seed}")
    diagnostics: Dict[str, object] = {"seed": seed, "method": method, "stage_s": {}}
    try:
        with _stage(diagnostics, "build_M"):
            m = build_M(sys)
        with _stage(diagnostics, "build_mult"):
            # one fill gives the real form of T^T for the eigen stage, and
            # keeps the matrices only for the critical-value matrix
            comb = combine(DiagQuadSystem(m, conj=sys.conj_perm), seed=seed,
                           keep_matrices=method == "cvm")
        diagnostics["conjugation_defect"] = comb.conjugation_defect

        with _stage(diagnostics, "eigen"):
            eig = common_eigen_solutions(comb)
            if not eig.complete:
                raise DefectiveEigenstructureError(
                    "{found} of {dim} roots found ({rejected} eigenvectors rejected, {merged} "
                    "merged), {at_zero} of them at the simple root xi = 0; a missing root "
                    "could hide a lower critical value".format(dim=comb.system.dim, **eig.ledger),
                    diagnostics=eig.ledger)
        diagnostics["ledger"] = eig.ledger

        with _stage(diagnostics, "recover"):
            candidates, degenerate_q0 = recover_candidates(sys, eig.xi[~eig.at_zero])
        diagnostics["degenerate_q0_rejections"] = degenerate_q0

        if method == "cvm":
            with _stage(diagnostics, "cvm"):
                a_f = build_critical_value_matrix(comb.matrices, criterion_weights(sys))
                bad = int(np.count_nonzero(~np.isfinite(a_f)))
                if bad:
                    raise NumericalError(
                        f"{bad} entries of the critical-value matrix are not finite: "
                        "the input scale overflows it (rescale the input)",
                        diagnostics={"nonfinite_entries": bad},
                    )
                vals = np.linalg.eigvals(a_f)
                candidates = replace(candidates,
                                     phi=_match_critical_values(vals, candidates.phi))

        with _stage(diagnostics, "select"):
            # objects only for the admissible candidates; the rest stay rows
            # of the table until a caller reads them
            rows = [i for i, rejection in enumerate(candidates.rejections) if rejection is None]
            admissible = [candidates[i] for i in rows]
            phi = candidates.phi
            rankable = _rankable(phi)
            # a phi that is not finite (xi^3 overflowed), not real or not
            # positive cannot be ranked, and skipping it could hide the optimum
            unrankable = len(rows) - int(np.count_nonzero(rankable[rows]))
            if unrankable:
                raise NumericalError(
                    f"{unrankable} admissible candidates have a criterion value that is "
                    "not finite, real and positive, so it cannot be ranked (an input "
                    "scale that overflows it, or a value lost to rounding)",
                    diagnostics={"unrankable_criteria": unrankable},
                )
            norm = h2_norm(sys)
            cross = {}
            for idx, (i, cp) in enumerate(zip(rows, admissible)):
                # the roots of a from the recovery, real when all of them are
                # (as np.roots gives them), so the distance is h2_distance's
                poles = candidates.poles[i]
                if not poles.imag.any():
                    poles = poles.real
                dist = _merged_distance(sys, cp.b, cp.a, poles)
                gap = abs(cp.criterion.real - dist**2)
                cross[idx] = {"distance": dist, "gap": gap,
                              "flagged": not gap <= TOL.cross_check * (1.0 + cp.criterion.real)}
            diagnostics["cross_check"] = cross
            levels = _critical_levels(phi.real[rankable])
            if not rows:
                raise NoAdmissibleSolutionError(
                    "no admissible critical point found: every candidate was "
                    "complex, non-Hurwitz, or rejected",
                    diagnostics={"n_candidates": len(candidates), "rejections": {
                        reason: candidates.rejections.count(reason)
                        for reason in ("complex", "non-hurwitz", "high-residual")}},
                )
            # phi is the squared H2 error at real, stable critical points: the
            # least is the global minimum (argmin takes the first, as min() does)
            best = candidates[rows[int(np.argmin(phi.real[rows]))]]
    except H2ReduceError as exc:
        # the one place where the run's diagnostics enter a typed failure,
        # ahead of what the failing stage measured
        exc.diagnostics = {**diagnostics, **exc.diagnostics}
        raise
    return ReductionReport(
        system_norm=norm,
        candidates=candidates,
        admissible=admissible,
        global_candidate=best,
        global_error=best.error,
        critical_values_sorted=levels,
        diagnostics=diagnostics,
    )

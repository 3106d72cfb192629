"""Independent checks of every optimum the program returns.

A returned global candidate b/a is accepted only if
- its coefficients are real and every root of a lies in the open left half
  plane (checked here with numpy, not with the library's Hurwitz test);
- no admissible candidate of its own report has a lower critical value;
- phi, the critical value it was selected by, agrees with the squared H2
  distance of b/a to the system within `Tolerances.cross_check`;
- it satisfies the Meier-Luenberger interpolation conditions
  G(-l) = Gr(-l) and G'(-l) = Gr'(-l) at every pole l of Gr, evaluated from
  the input's own coefficients. This is the one check that shares nothing
  with phi or with h2_distance.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from h2reduce import Polynomial, TransferFunction, h2_distance
from h2reduce.errors import H2ReduceError

# Largest relative interpolation mismatch accepted. The worst-conditioned
# inputs that the program solves reliably (relaxation systems, N = 6,
# alpha = 0.5) carry mismatches near 2e-3 from round-off in the Vandermonde
# recovery; an optimum off by more than 1 % is not explained by round-off.
INTERPOLATION_TOL = 1e-2


def _value_and_slope(num: np.ndarray, den: np.ndarray, s: np.ndarray):
    n, d = np.polyval(num, s), np.polyval(den, s)
    dn, dd = np.polyval(np.polyder(num), s), np.polyval(np.polyder(den), s)
    return n / d, (dn * d - n * dd) / (d * d)


def interpolation_residual(num: Sequence[float], den: Sequence[float],
                           b: np.ndarray, a: np.ndarray) -> float:
    """Largest relative mismatch of G and Gr, and of G' and Gr', at -poles(a)."""
    s = -np.roots(a)
    g, dg = _value_and_slope(np.asarray(num, float), np.asarray(den, float), s)
    gr, dgr = _value_and_slope(b, a, s)
    r0 = np.abs(g - gr) / (np.abs(g) + np.abs(gr) + 1e-300)
    r1 = np.abs(dg - dgr) / (np.abs(dg) + np.abs(dgr) + 1e-300)
    return float(max(np.max(r0), np.max(r1)))


def check_optimum(report, sysv, num, den, tol) -> List[str]:
    """Problems found with `report.global_candidate`; empty when it passes."""
    best = report.global_candidate
    if best is None:
        return ["no global candidate in a successful report"]
    a, b = np.asarray(best.a.coeffs), np.asarray(best.b.coeffs)
    problems = []
    for name, c in (("denominator", a), ("numerator", b)):
        if not np.all(np.isfinite(c)):
            return [f"{name} has non-finite coefficients"]
        if np.max(np.abs(np.imag(c))) > tol.real * (1.0 + np.max(np.abs(c))):
            problems.append(f"{name} is not real")
    a, b = np.real(a), np.real(b)
    if np.max(np.roots(a).real) >= 0.0:
        problems.append("denominator is not Hurwitz")
        return problems
    phi = best.criterion.real
    # Critical values closer than the package's own cross-check tolerance are
    # ties: on near-exact reductions round-off alone can push phi below zero.
    floor = phi - tol.cross_check * (1.0 + phi)
    lower = [cp.criterion.real for cp in report.admissible if cp.criterion.real < floor]
    if lower:
        problems.append(f"admissible critical value {min(lower):.6e} < global {phi:.6e}")
    try:
        dist = h2_distance(sysv, TransferFunction(Polynomial(b), Polynomial(a)), tol)
    except H2ReduceError as exc:
        problems.append(f"h2_distance failed: {exc}")
    else:
        gap = abs(phi - dist ** 2)
        if gap > tol.cross_check * (1.0 + phi):
            problems.append(f"|phi - distance^2| = {gap:.3e} (phi {phi:.6e})")
    resid = interpolation_residual(num, den, b, a)
    if not resid <= INTERPOLATION_TOL:
        problems.append(f"interpolation residual {resid:.3e}")
    return problems


def check_ex1_reference(report, ref: Dict) -> List[str]:
    """Criterion 1: the paper's published answer for example 1."""
    problems = []
    errors = sorted(cp.error for cp in report.admissible)
    if len(errors) != len(ref["errors"]):
        problems.append(f"{len(errors)} admissible candidates, expected {len(ref['errors'])}")
    elif max(abs(e - r) for e, r in zip(errors, ref["errors"])) > ref["errors_tol"]:
        problems.append("error table differs from the reference")
    if abs(report.system_norm - ref["norm"]) > ref["norm_tol"]:
        problems.append(f"norm {report.system_norm:.6f}")
    if abs(report.relative_error - ref["relative_error"]) > ref["relative_error_tol"]:
        problems.append(f"relative error {report.relative_error:.6f}")
    best = report.global_candidate
    for name, got, want in (("denominator", best.a.coeffs, ref["best_a"]),
                            ("numerator", best.b.coeffs, ref["best_b"])):
        got = np.real(np.asarray(got))
        if got.shape != (len(want),) or np.max(np.abs(got - want)) > ref["coeff_tol"]:
            problems.append(f"{name} coefficients differ from the reference")
    return problems


def parse_structured(text: str) -> Dict[str, str]:
    fields = {}
    for line in text.strip().splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            fields[key] = val
    return fields


def check_structured(text: str, report) -> List[str]:
    """The structured report re-parses to the computed optimum bit for bit."""
    fields = parse_structured(text)
    best = report.global_candidate
    try:
        num = [float(t) for t in fields["global_numerator"].split()]
        den = [float(t) for t in fields["global_denominator"].split()]
        err = float(fields["global_error"])
        n_adm = int(fields["n_admissible"])
    except (KeyError, ValueError) as exc:
        return [f"structured output unreadable: {exc!r}"]
    problems = []
    if num != list(np.real(best.b.coeffs)):
        problems.append("global numerator does not re-parse bit-exactly")
    if den != list(np.real(best.a.coeffs)):
        problems.append("global denominator does not re-parse bit-exactly")
    if err != report.global_error:
        problems.append("global error does not re-parse bit-exactly")
    if n_adm != len(report.admissible):
        problems.append("admissible count differs")
    return problems

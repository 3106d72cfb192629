"""Command-line front end.

Reads a system either from a coefficient/pole-residue text file, inline
flags, or the built-in relaxation-system generator, runs the reduction
pipeline, and prints a text or machine-readable structured report.

Exit codes: 0 success, 1 malformed input, 2 no admissible critical point,
3 validation error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

import numpy as np

from .errors import H2ReduceError, InputError
from .foc import CandidateTable
from .poly import Polynomial
from .reduce import ReductionReport, solve_reduction
from .stetter import N_CAP
from .tf import (
    TransferFunction,
    from_pole_residue,
    generate_relaxation,
    strip_feedthrough,
    validate,
)

DEFAULT_CAP = 9


def _finite(values: np.ndarray, text: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise InputError(f"non-finite number in {text!r}")
    return values


def _parse_floats(text: str) -> np.ndarray:
    toks = text.replace(",", " ").split()
    if not toks:
        raise InputError("empty coefficient list")
    try:
        values = np.array([float(t) for t in toks])
    except ValueError as exc:
        raise InputError(f"bad number in {text!r}: {exc}") from exc
    return _finite(values, text)


def _parse_complex_pairs(text: str) -> np.ndarray:
    out = []
    for tok in text.split():
        parts = tok.split(",")
        if len(parts) != 2:
            raise InputError(
                f"bad complex pair {tok!r}: expected 're,im'"
            )
        try:
            out.append(complex(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise InputError(f"bad complex pair {tok!r}: {exc}") from exc
    return _finite(np.array(out), text)


def _check_order(order: int, cap: int) -> None:
    if order > cap:
        raise InputError(f"system order {order} exceeds --cap {cap}")


def parse_system_file(path: str, cap: int = N_CAP) -> TransferFunction:
    """Coefficient form (numerator/denominator, descending) or pole-residue
    form, each field once; an order above ``cap`` is rejected before the
    poles are expanded."""
    fields = {}
    try:
        with open(path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                for sep in ("=", ":"):
                    if sep in line:
                        key, _, val = line.partition(sep)
                        break
                else:
                    raise InputError(f"unparseable line in {path}: {raw.rstrip()!r}")
                key = key.strip().lower()
                if key not in ("numerator", "denominator", "poles", "residues"):
                    raise InputError(f"unknown field in {path}: {raw.rstrip()!r}")
                if key in fields:
                    raise InputError(f"repeated field in {path}: {raw.rstrip()!r}")
                fields[key] = val.strip()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

    has_coeff = "numerator" in fields or "denominator" in fields
    has_pr = "poles" in fields or "residues" in fields
    if has_coeff and has_pr:
        raise InputError("give either numerator/denominator or poles/residues, not both")
    if has_coeff:
        if "numerator" not in fields or "denominator" not in fields:
            raise InputError("coefficient form needs both 'numerator' and 'denominator'")
        tf = TransferFunction(
            Polynomial(_parse_floats(fields["numerator"])),
            Polynomial(_parse_floats(fields["denominator"])),
        )
        _check_order(tf.denominator.degree, cap)
        return tf
    if has_pr:
        if "poles" not in fields or "residues" not in fields:
            raise InputError("pole-residue form needs both 'poles' and 'residues'")
        poles = _parse_complex_pairs(fields["poles"])
        _check_order(len(poles), cap)
        return from_pole_residue(poles, _parse_complex_pairs(fields["residues"]))
    raise InputError(f"{path} contains neither coefficient nor pole-residue fields")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _candidate_rows(table: CandidateTable):
    """|xi|_inf, phi, real, hurwitz, ls_residual and status of each
    candidate, read off the table's arrays: the reports build no
    ``CriticalPoint`` for a candidate they only list."""
    return zip(np.abs(table.xi).max(axis=1).tolist(), table.phi.tolist(),
               table.real.tolist(), table.hurwitz.tolist(), table.ls_residual.tolist(),
               [rejection or "admissible" for rejection in table.rejections])


def _text_report(report: ReductionReport) -> str:
    lines = []
    lines.append(f"original H2 norm      : {report.system_norm:.6f}")
    lines.append(f"candidates found      : {len(report.candidates)}")
    lines.append(f"admissible candidates : {len(report.admissible)}")
    lines.append("")
    lines.append("candidate table (phi = criterion value):")
    lines.append("  idx  |xi|_inf      Re(phi)        Im(phi)      real hurw  ls_res    status")
    for k, (size, phi, real, hurwitz, ls_residual, status) in enumerate(
            _candidate_rows(report.candidates)):
        lines.append(
            "  %3d  %-11.4e %- 13.6e %- 12.2e %-4s %-4s %-9.2e %s"
            % (k, size, phi.real, phi.imag, "y" if real else "n",
               "y" if hurwitz else "n", ls_residual, status)
        )
    lines.append("")
    for k, cp in enumerate(report.admissible):
        lines.append(f"admissible #{k}: error = {cp.error:.6f}")
        lines.append(f"  a = {np.array2string(np.real(cp.a.coeffs), precision=6)}")
        lines.append(f"  b = {np.array2string(np.real(cp.b.coeffs), precision=6)}")
    best = report.global_candidate
    lines.append("")
    lines.append("global approximant:")
    lines.append(f"  numerator   = {np.array2string(np.real(best.b.coeffs), precision=10)}")
    lines.append(f"  denominator = {np.array2string(np.real(best.a.coeffs), precision=10)}")
    lines.append(f"  absolute error = {report.global_error:.6f}")
    lines.append(f"  relative error = {100 * report.relative_error:.4f}%")
    d = report.diagnostics
    lines.append("")
    stages = " ".join(f"{k}={1e3 * v:.2f}ms" for k, v in d.get("stage_s", {}).items())
    lines.append(
        "diagnostics: seed=%s method=%s conjugation_defect=%.2e elapsed=%.2fs stages: %s"
        % (d.get("seed"), d.get("method"), d.get("conjugation_defect", 0.0),
           d.get("elapsed_s", 0.0), stages)
    )
    return "\n".join(lines)


def _structured_report(report: ReductionReport) -> str:
    best = report.global_candidate
    lines = ["format = h2reduce-report-v1"]
    lines.append(f"system_norm = {_fmt(report.system_norm)}")
    lines.append(f"n_candidates = {len(report.candidates)}")
    lines.append(f"n_admissible = {len(report.admissible)}")
    lines.append(
        "critical_values = " + " ".join(_fmt(v) for v in report.critical_values_sorted)
    )
    for k, (_, phi, real, hurwitz, ls_residual, status) in enumerate(
            _candidate_rows(report.candidates)):
        lines.append(
            f"candidate_{k} = phi_re {_fmt(phi.real)} "
            f"phi_im {_fmt(phi.imag)} real {int(real)} "
            f"hurwitz {int(hurwitz)} ls_residual {_fmt(ls_residual)} "
            f"status {status}"
        )
    lines.append(
        "global_numerator = " + " ".join(_fmt(c) for c in np.real(best.b.coeffs))
    )
    lines.append(
        "global_denominator = " + " ".join(_fmt(c) for c in np.real(best.a.coeffs))
    )
    lines.append(f"global_error = {_fmt(report.global_error)}")
    lines.append(f"relative_error = {_fmt(report.relative_error)}")
    lines.append(f"seed = {report.diagnostics.get('seed')}")
    lines.append(f"method = {report.diagnostics.get('method')}")
    return "\n".join(lines)


def _parse_relaxation_tokens(tokens: List[str]) -> Tuple[int, float]:
    n = alpha = None
    for tok in tokens:
        key, _, val = tok.partition("=")
        key = key.strip().lower()
        try:
            if key == "n":
                n = int(val)
            elif key == "alpha":
                alpha = float(val)
            else:
                raise InputError(f"unknown relaxation parameter {key!r}")
        except ValueError as exc:
            raise InputError(f"bad relaxation token {tok!r}: {exc}") from exc
    if n is None or alpha is None:
        raise InputError("--relaxation needs both N=<int> and alpha=<float>")
    return n, alpha


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="h2reduce",
        description=(
            "Globally optimal H2 model-order reduction by one for stable "
            "SISO systems with distinct poles."
        ),
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="PATH",
                     help="system file: numerator/denominator or poles/residues")
    src.add_argument("--relaxation", nargs=2, metavar=("N=..", "alpha=.."),
                     help="generate a relaxation system, e.g. --relaxation N=5 alpha=0.78")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the random eigenvector-separating combination (default 0)")
    p.add_argument("--method", choices=["enum", "cvm"], default="enum",
                   help="criterion evaluation: pointwise enumeration (default) "
                        "or critical-value matrix")
    p.add_argument("--strip-feedthrough", action="store_true",
                   help="remove a direct feedthrough term instead of rejecting "
                        "a non-strictly-proper input")
    p.add_argument("--output", choices=["text", "structured"], default="text")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help=f"maximum system order (default {DEFAULT_CAP}, hard cap {N_CAP})")
    return p


# built once: parse_args keeps no state between calls, and building the
# parser costs more than parsing with it
_PARSER = build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; remap to the malformed-input code
        return 0 if exc.code == 0 else 1

    try:
        if not 1 <= args.cap <= N_CAP:
            raise InputError(f"--cap must be between 1 and {N_CAP}")

        if args.relaxation is not None:
            n, alpha = _parse_relaxation_tokens(args.relaxation)
            _check_order(n, args.cap)
            tf = generate_relaxation(n, alpha)
        else:
            tf = parse_system_file(args.input, args.cap)

        if args.strip_feedthrough and tf.numerator.degree >= tf.denominator.degree:
            tf = strip_feedthrough(tf.numerator, tf.denominator)

        sys_v = validate(tf)
        report = solve_reduction(sys_v, seed=args.seed, method=args.method)
    except H2ReduceError as exc:
        print(f"error ({exc.label}): {exc}" if exc.label else f"error: {exc}", file=sys.stderr)
        for key, value in exc.diagnostics.items():
            print(f"  {key}: " + str(value).replace("\n", ""), file=sys.stderr)
        return exc.exit_code

    if args.output == "structured":
        print(_structured_report(report))
    else:
        print(_text_report(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

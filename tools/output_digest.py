"""Every output bit of a fixed set of solves, as one JSON file.

    python3 tools/output_digest.py <src-dir> <out.json>
    python3 tools/output_digest.py --compare <old.json> <new.json>

``<src-dir>`` is the directory that holds the ``h2reduce`` package to run
(the ``src`` of a checkout). The summary line gives the number of runs,
their exit codes and the sha256 of the file written. Two checkouts produce
the same outputs when their files are byte-equal, so a change is compared
with its parent by

    python3 tools/output_digest.py <parent-checkout>/src parent.json
    python3 tools/output_digest.py src change.json

and the two sha256 on the summary lines (or ``cmp parent.json
change.json``). Run both in the same environment (BLAS library and thread
count), since the rounding of BLAS products can depend on it. With
``--compare`` the tool prints the exit codes of each file and every
(run, seed) whose record differs, with the top-level fields that differ; a
field that holds a dict also names its keys that only the old record has
(``-key``), that only the new one has (``+key``) or that differ (``~key``).
It exits 1 when some record differs.

At eigen seeds 0 and 1 the digest runs
- example 1 and the systems of ``perfbench.inputs.random_cycles(
  default_rng(r), 24)`` for r = 1, 2, through ``solve_reduction``;
- the cases of ``perfbench.inputs.relaxation_cases`` with the form shifts
  0, 1 and 2, through ``cli.main`` (their argv asks for structured output).

Each run records its exit code, the bytes of the global numerator and
denominator, the criterion value phi of every candidate in hex, a hash of
every field of every candidate, and the diagnostics that do not measure
time, of a typed failure or of a report (seed, method, conjugation defect,
ledger, degenerate q0 rejections and the cross-check). A run of
``cli.main`` also records its standard output and its standard error, less
the lines ``stage_s:`` and ``elapsed_s:`` of a failure, which are timings.
Only ``perfbench/inputs.py`` is read from the benchmark.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
# timings differ from run to run
UNTIMED = ("stage_s", "elapsed_s")


def _plain(value):
    """A JSON value that pins ``value`` bit for bit."""
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "shape": list(value.shape),
                "sha256": hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real).hex(), float(value.imag).hex()]
    return repr(value)


def _candidate_bytes(cp) -> bytes:
    """Every field of a candidate, with the types of its numbers."""
    fields = (cp.xi, cp.a.coeffs, cp.b.coeffs, np.asarray(cp.q0), np.asarray(cp.criterion),
              np.array([cp.is_real, cp.is_hurwitz]), np.asarray(cp.ls_residual))
    kinds = f"{type(cp.q0).__name__} {type(cp.criterion).__name__} {type(cp.ls_residual).__name__}"
    return b"".join(f.dtype.str.encode() + f.tobytes() for f in fields) + kinds.encode()


def _untimed(diagnostics: dict):
    return _plain({k: v for k, v in diagnostics.items() if k not in UNTIMED})


def _report_fields(report) -> dict:
    best = report.global_candidate
    return {
        "global_a": np.asarray(best.a.coeffs).tobytes().hex(),
        "global_b": np.asarray(best.b.coeffs).tobytes().hex(),
        "phi": [_plain(cp.criterion) for cp in report.candidates],
        "candidates_sha256": hashlib.sha256(
            b"".join(_candidate_bytes(cp) for cp in report.candidates)).hexdigest(),
        "admissible": [i for i, cp in enumerate(report.candidates) if cp.is_admissible],
        "critical_values": _plain(report.critical_values_sorted),
        "diagnostics": _untimed(report.diagnostics),
    }


def _error_fields(code: int, exc: Exception) -> dict:
    diag = getattr(exc, "diagnostics", {})
    return {"exit": code, "error": type(exc).__name__,
            "diagnostics": _untimed(diag)}


def library_run(h2, case, seed: int) -> dict:
    from h2reduce.errors import (
        H2ReduceError, InputError, NoAdmissibleSolutionError, ValidationError)

    tf = h2.TransferFunction(h2.Polynomial(list(case.num)), h2.Polynomial(list(case.den)))
    try:
        report = h2.solve_reduction(h2.validate(tf), seed=seed, method=case.method)
    except H2ReduceError as exc:
        # the exit codes of cli.main
        code = next(c for cls, c in ((InputError, 1), (NoAdmissibleSolutionError, 2),
                                     (ValidationError, 3), (H2ReduceError, 4))
                    if isinstance(exc, cls))
        return _error_fields(code, exc)
    except Exception as exc:  # an untyped failure is an output too
        return {"exit": -1, "error": repr(exc)}
    return {"exit": 0, **_report_fields(report)}


def cli_run(cli, case, seed: int) -> dict:
    reports = []
    original = cli.solve_reduction

    def capture(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    out, err = io.StringIO(), io.StringIO()
    cli.solve_reduction = capture
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(case.argv) + ["--seed", str(seed)])
    except Exception as exc:  # cli.main is documented never to raise
        return {"exit": -1, "error": repr(exc)}
    finally:
        cli.solve_reduction = original
    stderr = [line for line in err.getvalue().splitlines(keepends=True)
              if line.strip().partition(":")[0] not in UNTIMED]
    record = {"exit": code, "stdout": out.getvalue(), "stderr": "".join(stderr)}
    if code == 0:
        record.update(_report_fields(reports[-1]))
    return record


def _exit_codes(records) -> dict:
    return dict(sorted(Counter(rec["exit"] for rec in records).items()))


def _differing(old: dict, new: dict) -> list:
    """The top-level fields where two records differ."""
    fields = []
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key), new.get(key)
        if a == b:
            continue
        if isinstance(a, dict) and isinstance(b, dict):
            keys = ([f"-{k}" for k in sorted(a.keys() - b.keys())]
                    + [f"+{k}" for k in sorted(b.keys() - a.keys())]
                    + [f"~{k}" for k in sorted(a.keys() & b.keys()) if a[k] != b[k]])
            key = f"{key} ({' '.join(keys)})"
        fields.append(key)
    return fields


def compare(old_path: Path, new_path: Path) -> int:
    runs = []
    for path in (old_path, new_path):
        records = json.loads(path.read_text())
        print(f"{path}: {len(records)} runs, exit codes {_exit_codes(records)}")
        runs.append({(rec["run"], rec["seed"]): rec for rec in records})
    old, new = runs
    differ = 0
    for run, seed in sorted(old.keys() | new.keys()):
        a, b = old.get((run, seed)), new.get((run, seed))
        if a == b:
            continue
        differ += 1
        if a is None or b is None:
            fields = ["only in the " + ("new" if a is None else "old") + " file"]
        else:
            fields = _differing(a, b)
        exits = "/".join(str(rec["exit"]) for rec in (a, b) if rec is not None)
        print(f"{run} seed {seed} (exit {exits}): {', '.join(fields)}")
    print(f"{differ} of {len(old.keys() | new.keys())} records differ")
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 2:
        print(__doc__.split("\n\n", 2)[1], file=sys.stderr)
        return 2
    src, dest = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT / "perfbench"))
    h2 = importlib.import_module("h2reduce")
    if not Path(h2.__file__).resolve().is_relative_to(src):
        print(f"h2reduce was imported from {h2.__file__}, not from {src}", file=sys.stderr)
        return 2
    cli = importlib.import_module("h2reduce.cli")
    inputs = importlib.import_module("inputs")

    records = []
    library = [("ex1", inputs.ex1_case())]
    for r in (1, 2):
        cycles = inputs.random_cycles(np.random.default_rng(r), 24)
        library += [(f"rng{r}-cycle{c}-{case.label}", case)
                    for c, cycle in enumerate(cycles) for case in cycle]
    with tempfile.TemporaryDirectory() as work:
        relax = [case for shift in range(3)
                 for case in inputs.relaxation_cases(Path(work), shift)]
        for seed in SEEDS:
            for name, case in library:
                records.append({"run": name, "seed": seed, **library_run(h2, case, seed)})
            for case in relax:
                records.append({"run": f"{case.label}-{case.form}", "seed": seed,
                                **cli_run(cli, case, seed)})
    text = (json.dumps(records, indent=1, sort_keys=True) + "\n").encode()
    dest.write_bytes(text)
    print(f"{len(records)} runs, exit codes {_exit_codes(records)} -> {dest} "
          f"sha256 {hashlib.sha256(text).hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

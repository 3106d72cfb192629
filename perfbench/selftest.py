"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs one N=3 random system through the library path and one relaxation
system through `cli.main`, untraced and traced, and checks that
- every metric named in BENCHMARK.json is emitted, with the unit it names;
- the answer checks pass the real optima and reject tampered ones.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import shutil
import sys

import run

run.pin_blas_threads()
sys.path.insert(0, str(run.ROOT / "src"))

import numpy as np  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from h2reduce import Polynomial  # noqa: E402


def tampered(report, factor=1.05):
    """The same report with the global numerator scaled by `factor`."""
    best = report.global_candidate
    bad = dataclasses.replace(best, b=Polynomial(np.asarray(best.b.coeffs) * factor))
    return dataclasses.replace(report, global_candidate=bad)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    def emitted(metrics, declared, kind):
        for m in declared:
            got = metrics.get(m["name"])
            expect(got is not None and got[1] == m["unit"],
                   f"{kind}: {m['name']} emitted in {m['unit']}")

    num, den = inputs.random_real_pole_system(np.random.default_rng(3), 3)
    lib_case = inputs.Case("toy-n3", tuple(num), tuple(den), frozenset({0}))
    workdir = run.OUT / f"selftest-{os.getpid()}"
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, workdir, ignore_errors=True)
        cli_wl = workloads.Workload("cli-relax", np.random.default_rng(0), workdir, stack)
        cli_case = next(c for c in cli_wl.cycles[0]
                        if c.label == "n4-a0.60-enum")
        cli_wl.cycles, cli_wl.min_solves = [[cli_case]], 1
        lib_wl = workloads.Workload("random-mixed", np.random.default_rng(0), workdir, stack)
        lib_wl.cycles, lib_wl.min_solves = [[lib_case]], 1

        for wl in (lib_wl, cli_wl):
            plain = workloads.run_untraced(wl, 0.0)
            traced = workloads.run_traced(wl, 0.0)
            expect(plain["outcomes"][0].verified,
                   f"{wl.name}: toy solve verified ({plain['outcomes'][0].problems})")
            expect(traced["mismatches"] == 0, f"{wl.name}: traced answer bit-identical")
            emitted(workloads.end_to_end_metrics(plain, 0.5, 50.0), spec["end_to_end"],
                    f"{wl.name} end-to-end")
            emitted(workloads.per_layer_metrics(traced), spec["per_layer"],
                    f"{wl.name} per-layer")

            out = wl.solve(wl.cycles[0][0], 0)
            wl.assess(out)
            bad = tampered(out.report)
            sysv = wl.system(out.case)
            problems = check.check_optimum(bad, sysv, out.case.num, out.case.den,
                                           workloads.TOL)
            expect(any("interpolation" in p for p in problems),
                   f"{wl.name}: interpolation check rejects a 5% perturbed numerator")
            if out.case.argv is not None:
                expect(bool(check.check_structured(out.stdout, bad)),
                       f"{wl.name}: re-parse check rejects the perturbed numerator")
                line = next(t for t in out.stdout.splitlines()
                            if t.startswith("global_numerator"))
                key, _, coeffs = line.partition(" = ")
                first, *rest = coeffs.split()
                nudged = " ".join([repr(float(first) * (1 + 1e-12))] + rest)
                edited = out.stdout.replace(line, f"{key} = {nudged}")
                expect(bool(check.check_structured(edited, out.report)),
                       f"{wl.name}: re-parse check rejects a numerator off by 1e-12")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

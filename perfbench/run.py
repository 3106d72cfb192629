"""Benchmark of h2reduce: one workload per run, closed loop, one solve at a time.

    python3 perfbench/run.py --workload ex1-n9 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from `src/`.
Workloads: ex1-n9, random-mixed, cli-relax (see perfbench/README.md).
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones, measured untraced; with `--trace 1` they are the
per-layer ones, from a run that solves every input once plain and once
traced. A record of each run (environment, metrics and, when traced, every
span) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7


def pin_blas_threads() -> None:
    """One BLAS thread per CPU this process may run on; must precede numpy."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy actually loaded."""
    with contextlib.suppress(OSError):
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(libs):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up (import, inputs, warm-up solve) and exit; "
                        "the benchmark times this in fresh interpreters")
    return p.parse_args(argv)


def time_setup(workload: str, seed: int) -> float:
    """Median wall time of a full set-up in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=120)
        samples.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy as np
        import h2reduce
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(h2reduce.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: h2reduce was imported from {h2reduce.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    with contextlib.ExitStack() as stack:
        stack.callback(shutil.rmtree, workdir, ignore_errors=True)
        wl = workloads.Workload(args.workload, rng, workdir, stack)
        wl.warm_up()
        if args.setup_probe:
            return 0
        if args.trace:
            result = workloads.run_traced(wl, args.seconds)
        else:
            result = workloads.run_untraced(wl, args.seconds)

    outcomes = result["outcomes"]
    mismatches = result.get("mismatches", 0)
    if args.trace:
        metrics = workloads.per_layer_metrics(result)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = workloads.end_to_end_metrics(result, time_setup(args.workload, args.seed),
                                               peak_mb)
        wall = workloads.timings(result, reference=False)
    env = environment()
    failed = sum(o.failed for o in outcomes) + mismatches
    correct = mismatches == 0 and not any(o.wrong and not o.case.known_wrong
                                          for o in outcomes)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(outcomes)} solves")
    print("environment " + json.dumps(env))
    codes = {}
    for o in outcomes:
        codes[o.code] = codes.get(o.code, 0) + 1
    print("exit codes " + json.dumps({str(k): v for k, v in sorted(codes.items())}))
    for o in outcomes:
        if o.failed or o.wrong:
            print(f"  {o.case.label} ({o.case.form}) seed {o.seed}: exit {o.code} "
                  f"(expected {sorted(o.case.expected)}) {'; '.join(o.problems)}"
                  f"{' [known defect]' if o.case.known_wrong and not o.failed else ''}")
            if o.code == -1:
                print("    " + o.error.strip().replace("\n", "\n    "))
    if mismatches:
        print(f"  {mismatches} traced solves differ from their untraced twin")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    if not args.trace:
        print("solve timings in wall seconds: "
              + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": len(outcomes), "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "wall_clock": None if args.trace else wall,
        "solve_fields": ["class", "form", "seed", "exit", "wall_s", "scale", "problems"],
        "solves": [[o.case.label, o.case.form, o.seed, o.code, o.seconds, o.scale, o.problems]
                   for o in outcomes],
    }
    if args.trace:
        record["span_fields"] = ["name", "start", "end", "parent", "solve", "error"]
        record["spans"] = result["tracer"].dump()
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

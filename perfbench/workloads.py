"""The three workloads, their closed loops and the metrics they report.

Each workload runs one solve at a time in this process: the next solve
starts when the previous one has returned. Solves are grouped in cycles that
sweep the workload's whole input mix, and a run always ends on a cycle
boundary, so every run measures the same mix.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

from h2reduce import Polynomial, Tolerances, TransferFunction, validate
from h2reduce.errors import (
    H2ReduceError,
    InputError,
    NoAdmissibleSolutionError,
    ValidationError,
)

import check
import inputs
import speed
from inputs import Case
from spans import ROOT, Tracer

WORKLOADS = ("ex1-n9", "random-mixed", "cli-relax")
TOL = Tolerances()
RANDOM_CYCLES = 24        # 288 systems; later cycles reuse them
MIN_SOLVES = {"random-mixed": 100}

# The three module bindings a solve goes through. They are looked up at call
# time, so the spans that `Tracer.installed()` puts in their place are seen.
_cli = importlib.import_module("h2reduce.cli")
_tf = importlib.import_module("h2reduce.tf")
_reduce = importlib.import_module("h2reduce.reduce")


@dataclass
class Outcome:
    case: Case
    seed: int
    code: int                 # exit code as cli.main reports it; -1: untyped exception
    seconds: float            # wall seconds
    report: object = None     # ReductionReport when code == 0
    stdout: str = ""
    error: str = ""
    problems: List[str] = field(default_factory=list)
    scale: float = 1.0        # wall to reference seconds (speed.py)

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale

    @property
    def verified(self) -> bool:
        return self.code == 0 and not self.problems

    @property
    def wrong(self) -> bool:
        return self.code == 0 and bool(self.problems)

    def release(self) -> None:
        """Drop the report and output once they have been checked."""
        self.report, self.stdout = None, ""

    @property
    def failed(self) -> bool:
        """The solve did not end as pinned for its input."""
        return (self.code not in self.case.expected
                or (self.wrong and not self.case.known_wrong))


def solve_library(case: Case, seed: int) -> Outcome:
    tf = TransferFunction(Polynomial(list(case.num)), Polynomial(list(case.den)))
    report, error = None, ""
    t0 = perf_counter()
    try:
        report = _reduce.solve_reduction(_tf.validate(tf), seed=seed, method=case.method)
        code = 0
    except InputError:
        code = 1
    except NoAdmissibleSolutionError:
        code = 2
    except ValidationError:
        code = 3
    except H2ReduceError:
        code = 4
    except Exception:  # an untyped failure is a result to record, not to stop on
        code, error = -1, traceback.format_exc()
    return Outcome(case, seed, code, perf_counter() - t0, report, error=error)


class ReportCapture:
    """Keeps the report behind each `cli.main` call for the re-parse check."""

    def __init__(self):
        self.last = None

    @contextlib.contextmanager
    def installed(self):
        original = _cli.solve_reduction

        def capture(*args, **kwargs):
            self.last = original(*args, **kwargs)
            return self.last

        _cli.solve_reduction = capture
        try:
            yield self
        finally:
            _cli.solve_reduction = original


def make_solve_cli(capture: ReportCapture) -> Callable[[Case, int], Outcome]:
    def solve_cli(case: Case, seed: int) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        capture.last = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _cli.main(list(case.argv) + ["--seed", str(seed)])
        except Exception:  # cli.main is documented never to raise
            code = -1
            err.write(traceback.format_exc())
        seconds = perf_counter() - t0
        return Outcome(case, seed, code, seconds,
                       capture.last if code == 0 else None,
                       stdout=out.getvalue(), error=err.getvalue())
    return solve_cli


class Workload:
    """Inputs and the solve function of one workload, built at set-up."""

    def __init__(self, name: str, rng: np.random.Generator, workdir: Path,
                 stack: contextlib.ExitStack):
        self.name = name
        self.rng = rng
        self.min_solves = MIN_SOLVES.get(name, 1)
        self._cycle = 0
        if name == "ex1-n9":
            self.solve = solve_library
            self.cycles = [[inputs.ex1_case()]]
        elif name == "random-mixed":
            self.solve = solve_library
            self.cycles = inputs.random_cycles(rng, RANDOM_CYCLES)
        elif name == "cli-relax":
            workdir.mkdir(parents=True, exist_ok=True)
            capture = stack.enter_context(ReportCapture().installed())
            self.solve = make_solve_cli(capture)
            self.cycles = [inputs.relaxation_cases(workdir, shift) for shift in range(3)]
        else:
            raise ValueError(f"unknown workload {name!r}")
        self._systems: Dict[tuple, object] = {}

    def warm_up(self):
        """One toy solve through the workload's entry point."""
        num, den = inputs.relaxation_coefficients(3, 0.6)
        argv = ("--relaxation", "N=3", "alpha=0.60", "--output", "structured")
        case = Case("warm-up", tuple(num), tuple(den), frozenset({0}), argv=argv)
        out = self.solve(case, 0)
        if out.code != 0:
            raise RuntimeError(f"warm-up solve ended with exit {out.code}: {out.error}")

    def next_cycle(self) -> List[Case]:
        cycle = list(self.cycles[self._cycle % len(self.cycles)])
        self._cycle += 1
        if self.name == "cli-relax":
            self.rng.shuffle(cycle)
        return cycle

    def eigen_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def system(self, case: Case):
        """The validated reference system the checks compare against."""
        key = (case.num, case.den)
        if key not in self._systems:
            self._systems[key] = validate(
                TransferFunction(Polynomial(list(case.num)), Polynomial(list(case.den))))
        return self._systems[key]

    def assess(self, out: Outcome) -> None:
        """Fill `out.problems` for an exit-0 outcome."""
        if out.code != 0:
            return
        try:
            sysv = self.system(out.case)
        except H2ReduceError as exc:
            out.problems = [f"reference system rejected: {exc}"]
            return
        out.problems = check.check_optimum(out.report, sysv, out.case.num, out.case.den, TOL)
        if self.name == "ex1-n9":
            out.problems += check.check_ex1_reference(out.report, inputs.EX1_REFERENCE)
        if out.case.argv is not None:
            out.problems += check.check_structured(out.stdout, out.report)


def run_untraced(wl: Workload, seconds: float) -> Dict:
    """Whole cycles until `seconds` of solving and the workload's minimum
    number of solves are reached. The speed kernel runs between every two
    solves and scales the solve between them. Each cycle is checked after it
    ends; the checks are not timed and the bulky results are dropped once
    checked, so memory does not grow with the run."""
    outcomes: List[Outcome] = []
    busy = busy_ref = 0.0
    before = speed.calibrate(speed.FIRST_CALIBRATION_S)
    while busy < seconds or len(outcomes) < wl.min_solves:
        cycle = []
        for case in wl.next_cycle():
            out = wl.solve(case, wl.eigen_seed())
            after = speed.calibrate(speed.CALIBRATION_SHARE * out.seconds)
            out.scale = speed.scale(before, after)
            before = after
            busy += out.seconds
            busy_ref += out.ref_seconds
            cycle.append(out)
        for out in cycle:
            wl.assess(out)
            out.release()
        outcomes += cycle
    return {"outcomes": outcomes, "busy": busy, "busy_ref": busy_ref}


def run_traced(wl: Workload, seconds: float) -> Dict:
    """Solve each input twice with the same eigen seed, once plain and once
    traced, alternating which goes first; the two answers must agree bit for
    bit."""
    tracer = Tracer()
    plain: List[Outcome] = []
    traced: List[Outcome] = []
    mismatches = 0
    busy = 0.0
    while busy < seconds or len(traced) < wl.min_solves:
        t0 = perf_counter()
        for case in wl.next_cycle():
            seed = wl.eigen_seed()
            traced_first = len(plain) % 2 == 1
            if not traced_first:
                p = wl.solve(case, seed)
            with tracer.installed():
                t = tracer.solve(wl.solve, case, seed)
            if traced_first:
                p = wl.solve(case, seed)
            mismatches += not _same_answer(p, t)
            for out in (p, t):
                wl.assess(out)
                out.release()
            plain.append(p)
            traced.append(t)
        busy += perf_counter() - t0
    return {"outcomes": plain + traced, "plain": plain, "traced": traced,
            "tracer": tracer, "mismatches": mismatches}


def _same_answer(a: Outcome, b: Outcome) -> bool:
    if a.code != b.code or a.stdout != b.stdout:
        return False
    if a.code != 0:
        return True
    ga, gb = a.report.global_candidate, b.report.global_candidate
    return (np.array_equal(ga.a.coeffs, gb.a.coeffs)
            and np.array_equal(ga.b.coeffs, gb.b.coeffs)
            and ga.criterion == gb.criterion)


def _quantile(values: List[float], q: int) -> float:
    """q-th percentile (q in 1..99), interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def class_median(outcomes: List[Outcome], attr: str = "ref_seconds") -> float:
    """Median over input classes of each class's median solve time.

    A mix such as random-mixed is half fast classes (N <= 5) and half slow
    ones, so the plain median of all solves falls in the gap between the two
    and jumps with every draw; the median of class medians moves less. On
    random-mixed the class is the order N alone: the median then rests on the
    N = 5 and N = 6 solves of both pole families, not on one family's each.
    """
    by_class: Dict[str, List[float]] = {}
    for o in outcomes:
        key = o.case.timing_class or o.case.label
        by_class.setdefault(key, []).append(getattr(o, attr))
    return statistics.median(statistics.median(v) for v in by_class.values())


def timings(result: Dict, reference: bool = True) -> Dict[str, float]:
    """Throughput and latency, in reference seconds (speed.py) or in wall
    seconds."""
    outs: List[Outcome] = result["outcomes"]
    attr = "ref_seconds" if reference else "seconds"
    busy = result["busy_ref"] if reference else result["busy"]
    return {
        "solves_per_s": len(outs) / busy,
        "solve_s_p50": class_median(outs, attr),
        "solve_s_p90": _quantile([getattr(o, attr) for o in outs], 90),
    }


def end_to_end_metrics(result: Dict, setup_s: float, peak_rss_mb: float) -> Dict[str, tuple]:
    """The solve timings are in reference seconds; `setup_s` is in wall
    seconds, since it is mostly interpreter start-up and imports, which the
    speed kernel does not track."""
    outs: List[Outcome] = result["outcomes"]
    t = timings(result)
    return {
        "setup_s": (setup_s, "s"),
        "solves_per_s": (t["solves_per_s"], "1/s"),
        "solve_s_p50": (t["solve_s_p50"], "s"),
        "solve_s_p90": (t["solve_s_p90"], "s"),
        "verified_rate": (sum(o.verified for o in outs) / len(outs), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


# Metric name -> the spans whose self time it sums, per solve.
LAYER_TIMES = (
    ("tf.validate_s", ("tf.validate",)),
    ("foc.build_M_s", ("foc.build_M",)),
    ("stetter.build_mult_s", ("stetter.build_mult", "stetter.build_mult.dq")),
    ("stetter.eigen_s", ("stetter.eigen",)),
    ("stetter.cvm_s", ("stetter.cvm",)),
    ("foc.recover_candidate_s", ("foc.recover_candidate",)),
    ("reduce.select_global_s", ("reduce.select_global",)),
    ("tf.h2_distance_s", ("tf.h2_distance",)),
    ("reduce.self_s", ("reduce.solve_reduction",)),
    ("cli.self_s", ("cli.main",)),
)


def build_mult_gflop(n: int) -> float:
    """Operations of build_multiplication_matrices, from N and D = 2^N.

    N(N-1)/2 commutators of two complex D x D products each, plus N squares
    for the annihilation check (8 real flops per complex multiply-add), plus
    the fill sweep and the tensordot terms of order N^2 D^2.
    """
    d = 1 << n
    return (8.0 * n * n * d ** 3 + 12.0 * n * n * d * d) / 1e9


def matrices_mb(n: int) -> float:
    """Bytes of the N complex D x D multiplication matrices."""
    return n * (1 << n) ** 2 * 16 / 1e6


def ledger(spans) -> Dict[str, float]:
    """Root ledger of one traced solve, from the values its spans returned."""
    row = dict.fromkeys(("accepted", "rejected", "merged", "lost", "degenerate_q0",
                         "gflop", "mb"), 0.0)
    n = None
    for s in spans:
        if s.name == "tf.validate" and s.error is None:
            n = s.value.n
        elif s.name == "stetter.eigen" and s.error is None:
            row["accepted"] = len(s.value.solutions)
            row["rejected"] = len(s.value.rejected)
            row["merged"] = sum(x.multiplicity_hint - 1 for x in s.value.solutions)
        elif s.name == "stetter.build_mult" and s.error is None and n is not None:
            row["gflop"] = build_mult_gflop(n)
            row["mb"] = matrices_mb(n)
    for s in spans:
        if s.name != "reduce.solve_reduction" or n is None:
            continue
        if s.error is None:
            cand = len(s.value.candidates)
            degenerate = s.value.diagnostics.get("degenerate_q0_rejections", 0)
        else:
            diag = getattr(s.value, "diagnostics", {})
            if "n_candidates" not in diag:
                continue
            cand, degenerate = diag["n_candidates"], diag.get("degenerate_q0_rejections", 0)
        row["degenerate_q0"] = degenerate
        row["lost"] = (1 << n) - 1 - cand - degenerate
    return row


def per_layer_metrics(result: Dict) -> Dict[str, tuple]:
    tracer: Tracer = result["tracer"]
    traced: List[Outcome] = result["traced"]
    plain: List[Outcome] = result["plain"]
    n = len(traced)
    selfs = tracer.self_times()
    m: Dict[str, tuple] = {}
    for metric, names in LAYER_TIMES:
        m[metric] = (sum(selfs.get(name, 0.0) for name in names) / n, "s")
    counts = {"foc.recover_candidate": 0, "tf.h2_distance": 0}
    rejects = 0
    for s in tracer.spans:
        if s.name in counts:
            counts[s.name] += 1
        if s.name == "foc.build_M" and s.error is not None:
            rejects += 1
    m["foc.recover_candidate_calls"] = (counts["foc.recover_candidate"] / n, "count/solve")
    m["tf.h2_distance_calls"] = (counts["tf.h2_distance"] / n, "count/solve")
    m["foc.build_M_rejects"] = (rejects / n, "count/solve")

    rows = [ledger(spans) for sid, spans in sorted(tracer.by_solve().items())]
    for key, metric, unit in (("accepted", "stetter.eig_accepted", "count/solve"),
                              ("rejected", "stetter.eig_rejected", "count/solve"),
                              ("merged", "stetter.dedupe_merged", "count/solve"),
                              ("lost", "stetter.roots_lost", "count/solve"),
                              ("degenerate_q0", "foc.degenerate_q0", "count/solve"),
                              ("gflop", "stetter.build_mult_gflop_computed", "GFLOP/solve"),
                              ("mb", "stetter.matrices_mb_computed", "MB/solve")):
        m[metric] = (sum(r[key] for r in rows) / n, unit)
    for code in (0, 2, 3, 4):
        m[f"outcome.exit_{code}"] = (sum(o.code == code for o in traced) / n, "ratio")
    m["check.wrong_answers"] = (sum(o.wrong for o in result["outcomes"]), "count")

    root_total = sum(s.end - s.start for s in tracer.spans if s.name == ROOT)
    layers_total = sum(v for k, v in selfs.items() if k != ROOT)
    m["trace.layer_coverage"] = (layers_total / root_total, "ratio")
    m["trace.overhead_ratio"] = (sum(o.seconds for o in traced) / sum(o.seconds for o in plain),
                                 "ratio")
    return m

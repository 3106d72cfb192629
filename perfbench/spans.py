"""Spans around the pipeline's layer boundaries, recorded from outside.

`Tracer.installed()` replaces the names the pipeline modules import from one
another (for example `h2reduce.reduce.common_eigen_solutions`) with wrappers
that record a span, so the spans cover the real `solve_reduction` and
`cli.main` calls rather than a re-composition of the pipeline. Spans are kept
in memory; self time is a span's duration minus that of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional

# (module, attribute, span name). The library's dqideal layer only builds the
# DiagQuadSystem on the production path; that call gets a span of its own
# that the stetter.build_mult metric folds in. A name missing from its
# module is not wrapped, so a refactor that drops one moves its time into the
# caller's self time instead of breaking the benchmark.
PATCHES = (
    ("h2reduce.cli", "main", "cli.main"),
    ("h2reduce.cli", "validate", "tf.validate"),
    ("h2reduce.cli", "solve_reduction", "reduce.solve_reduction"),
    ("h2reduce.tf", "validate", "tf.validate"),
    ("h2reduce.reduce", "solve_reduction", "reduce.solve_reduction"),
    ("h2reduce.reduce", "build_M", "foc.build_M"),
    ("h2reduce.reduce", "DiagQuadSystem", "stetter.build_mult.dq"),
    ("h2reduce.reduce", "build_multiplication_matrices", "stetter.build_mult"),
    ("h2reduce.reduce", "common_eigen_solutions", "stetter.eigen"),
    ("h2reduce.reduce", "build_critical_value_matrix", "stetter.cvm"),
    ("h2reduce.reduce", "recover_candidate", "foc.recover_candidate"),
    ("h2reduce.reduce", "select_global", "reduce.select_global"),
    ("h2reduce.reduce", "h2_distance", "tf.h2_distance"),
)

ROOT = "bench.solve"
# Spans whose return value (or exception) the ledger reads afterwards.
KEEP_VALUE = {"tf.validate", "stetter.eigen", "reduce.solve_reduction"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int           # index of the parent span, -1 for a root
    solve: int            # id of the solve the span belongs to
    error: Optional[str] = None
    value: Any = None     # return value or exception, for KEEP_VALUE spans


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._solve = -1

    def call(self, name: str, fn, *args, **kwargs):
        span = Span(name, perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self._solve)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            if name in KEEP_VALUE:
                span.value = exc
            raise
        else:
            if name in KEEP_VALUE:
                span.value = out
            return out
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def solve(self, fn, *args, **kwargs):
        """Run one solve as a root span with a fresh solve id."""
        self._solve += 1
        return self.call(ROOT, fn, *args, **kwargs)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod_name, attr, span_name in PATCHES:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(span_name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: Dict[str, float] = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s.name] += (s.end - s.start) - c
        return dict(out)

    def by_solve(self) -> Dict[int, List[Span]]:
        out: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            out[s.solve].append(s)
        return dict(out)

    def dump(self) -> List[list]:
        return [[s.name, s.start, s.end, s.parent, s.solve, s.error] for s in self.spans]

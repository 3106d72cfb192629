"""Seeded inputs of the three workloads.

Every input is a `Case`: a transfer function given by its own numerator and
denominator (descending coefficients), how the program receives it, and the
exit codes the benchmark accepts for it. The recipes live here rather than
being imported from the test suite, so that a change to the tests can never
change what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

# Example 1 of the paper: a 9th-order system, D = 2^9 = 512.
EX1_NUM = [8.4800, -2.5942, 153.5350, 38.8803, 599.3205,
           196.3752, 315.3021, 6.4558, 9.4478e-5]
EX1_DEN = [1, 2.1179, 16.1278, 25.6052, 62.7884,
           79.1895, 42.6617, 32.5279, 0.2514, 2.2495e-6]

# Criterion 1 of the acceptance suite: the published answer for example 1
# and the tolerances it is held to.
EX1_REFERENCE = {
    "errors": [0.0344, 0.8703, 0.8707, 1.6463, 1.6466, 1.6536, 1.6538, 1.6650],
    "errors_tol": 5e-3,
    "norm": 8.8261,
    "norm_tol": 1e-3,
    "relative_error": 0.0039,
    "relative_error_tol": 2e-4,
    "best_b": [8.4799, -2.5955, 153.5327, 38.8546, 599.3039, 196.2798, 315.2701, 6.4351],
    "best_a": [1.0, 2.1176, 16.1275, 25.6013, 62.7850, 79.1756, 42.6527, 32.5215, 0.2499],
    "coeff_tol": 5e-3,
}

TYPED_FAILURE = frozenset({2, 4})


@dataclass(frozen=True)
class Case:
    """One input. `argv` is set for inputs that go through the CLI.

    `label` names the input's class in the workload's mix; `form` says how a
    CLI input is given. `timing_class`, when set, is the coarser class whose
    median solve time counts once in `solve_s_p50` (default: `label`).
    `expected` holds the exit codes that count as the program behaving as
    pinned. `known_wrong` marks inputs whose outcome depends on the eigen
    seed. On some of them (N = 7 with alpha >= 0.7; N = 6 with alpha = 0.5
    or 0.85) exit 0 has been seen to return an optimum that fails the
    cross-check or the interpolation check. A wrong answer on such an input
    is counted, but it is not a new defect.
    """

    label: str
    num: Tuple[float, ...]
    den: Tuple[float, ...]
    expected: FrozenSet[int]
    argv: Optional[Tuple[str, ...]] = None
    method: str = "enum"
    form: str = "library"
    known_wrong: bool = False
    timing_class: Optional[str] = None

    @property
    def order(self) -> int:
        return len(self.den) - 1


def _poly_from_poles(poles) -> np.ndarray:
    den = np.array([1.0 + 0j])
    for p in poles:
        den = np.convolve(den, [1.0, -p])
    return den.real


def random_real_pole_system(rng: np.random.Generator, n: int, lo=-6.0, hi=-0.5,
                            sep=0.3):
    """Real poles spread over [lo, hi], pairwise at least `sep` apart.

    The default spread is the one that makes every N >= 6 instance end in
    "no admissible critical point" at the time this benchmark was written.
    """
    while True:
        poles = np.sort(rng.uniform(lo, hi, size=n))
        if n == 1 or np.min(np.diff(poles)) >= sep:
            break
    num = rng.uniform(-2.0, 2.0, size=n)
    while abs(num[0]) < 0.1:
        num = rng.uniform(-2.0, 2.0, size=n)
    return num, _poly_from_poles(poles)


def random_complex_pole_system(rng: np.random.Generator, n: int):
    """Stable real system whose poles are partly complex-conjugate pairs."""
    while True:
        poles = []
        while len(poles) < n:
            if len(poles) + 1 < n and rng.random() < 0.5:
                re, im = rng.uniform(-3.0, -0.3), rng.uniform(0.2, 2.0)
                poles += [complex(re, im), complex(re, -im)]
            else:
                poles.append(complex(rng.uniform(-3.0, -0.3), 0.0))
        poles = np.array(poles)
        gaps = np.abs(poles[:, None] - poles[None, :])[np.triu_indices(n, 1)]
        if gaps.size == 0 or np.min(gaps) > 0.1:
            break
    num = rng.uniform(-2.0, 2.0, size=n)
    while abs(num[0]) < 0.1:
        num = rng.uniform(-2.0, 2.0, size=n)
    return num, _poly_from_poles(poles)


def ex1_case() -> Case:
    return Case("ex1", tuple(EX1_NUM), tuple(map(float, EX1_DEN)), frozenset({0}))


RANDOM_ORDERS = range(3, 9)
RANDOM_FAMILIES = ("real", "complex")


def random_cycles(rng: np.random.Generator, n_cycles: int) -> List[List[Case]]:
    """`n_cycles` strata sweeps: each holds one fresh system per (N, family).

    Sweeping every stratum once per cycle keeps the mix of orders and pole
    families identical from seed to seed, so the share of solves that end in
    a verified optimum varies only with the systems drawn, not with how many
    of each order happened to be drawn. Typed failures (exit 2 or 4) are
    accepted outcomes: they are what this workload exists to count.
    """
    cycles = []
    for _ in range(n_cycles):
        cycle = []
        for n in RANDOM_ORDERS:
            for family in RANDOM_FAMILIES:
                make = random_real_pole_system if family == "real" else random_complex_pole_system
                num, den = make(rng, n)
                cycle.append(Case(f"{family}-n{n}", tuple(num), tuple(den),
                                  frozenset({0, 2, 4}), timing_class=f"n{n}"))
        rng.shuffle(cycle)
        cycles.append(cycle)
    return cycles


# Relaxation systems G(s) = sum_j g_j / (s + g_j), g_j = alpha^(2j).
RELAX_ORDERS = range(4, 8)
RELAX_ALPHAS = tuple(round(0.20 + 0.05 * k, 2) for k in range(14))   # 0.20 .. 0.85
RELAX_FORMS = ("relaxation", "coefficients", "pole-residue")
RELAX_METHODS = ("enum", "cvm")

# Exit codes of `h2reduce --output structured` per (N, alpha, method),
# observed at the commit that introduced this benchmark over 16 eigen seeds
# and all three input forms, and over the benchmark's own proving runs.
# TYPED_FAILURE: always exit 2 or 4 (a fix that stops hiding lost roots may
# turn a 2 into a 4). MIXED: the exit code depends on the eigen seed.
_MIXED = frozenset({0, 2, 4})
_FAIL_BELOW = {  # (N, method) -> smallest alpha that succeeds
    (4, "enum"): 0.25, (4, "cvm"): 0.25,
    (5, "enum"): 0.35, (5, "cvm"): 0.35,
    (6, "enum"): 0.50, (6, "cvm"): 0.50,
}
_EXCEPTIONS = {
    (4, 0.85, "cvm"): TYPED_FAILURE,
    (5, 0.75, "cvm"): TYPED_FAILURE,
    (5, 0.80, "cvm"): TYPED_FAILURE,
    (5, 0.85, "cvm"): TYPED_FAILURE,
    (6, 0.70, "cvm"): TYPED_FAILURE,
    (6, 0.75, "cvm"): TYPED_FAILURE,
    (6, 0.80, "cvm"): TYPED_FAILURE,
    (6, 0.85, "cvm"): TYPED_FAILURE,
    (5, 0.85, "enum"): _MIXED,
    (6, 0.75, "enum"): _MIXED,
    (6, 0.80, "enum"): _MIXED,
    (6, 0.85, "enum"): _MIXED,
    (7, 0.70, "enum"): _MIXED,
    (7, 0.75, "enum"): _MIXED,
    (7, 0.80, "enum"): _MIXED,
    (7, 0.85, "enum"): _MIXED,
}


# Inputs pinned to exit 0 on which exit 0 has also been seen to return a
# wrong optimum. `h2reduce --relaxation N=6 alpha=0.50 --method enum --seed
# 823036213` reports phi = 1.29e-6 for an approximant whose squared H2 error
# is 4.4e-6 larger, with an interpolation residual of 4e-2 (1 admissible
# candidate of 63); 40 other eigen seeds returned the optimum.
_WRONG_SEEN = frozenset({(6, 0.50, "enum")})


def relax_expected(n: int, alpha: float, method: str) -> FrozenSet[int]:
    if (n, alpha, method) in _EXCEPTIONS:
        return _EXCEPTIONS[(n, alpha, method)]
    if n == 7:
        # alpha = 0.2 puts poles 0.2^12 and 0.2^14 closer than the
        # pole-separation tolerance: a validation error, exit 3.
        return frozenset({3}) if alpha == 0.20 else TYPED_FAILURE
    return frozenset({0}) if alpha >= _FAIL_BELOW[(n, method)] else TYPED_FAILURE


def relaxation_poles(n: int, alpha: float) -> np.ndarray:
    return np.array([alpha ** (2 * j) for j in range(1, n + 1)])


def relaxation_coefficients(n: int, alpha: float):
    g = relaxation_poles(n, alpha)
    den = np.poly(-g)
    num = sum(g[j] * np.poly(-np.delete(g, j)) for j in range(n))
    return np.trim_zeros(num, "f"), den


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def relaxation_cases(workdir: Path, form_shift: int = 0) -> List[Case]:
    """One case per (N, alpha, method); the input form rotates with the case
    index and `form_shift`, so every form is used and each cycle holds the
    same mix of N, alpha and method.

    Coefficient files are written from the library's own generator output,
    printed with 17 significant digits, so they parse back to the same
    system; pole-residue files state the poles -g_j and residues g_j.
    """
    from h2reduce.cli import generate_relaxation

    cases = []
    k = 0
    for n in RELAX_ORDERS:
        for alpha in RELAX_ALPHAS:
            num, den = relaxation_coefficients(n, alpha)
            for method in RELAX_METHODS:
                form = RELAX_FORMS[(k + form_shift) % len(RELAX_FORMS)]
                k += 1
                tag = f"n{n}-a{alpha:.2f}"
                if form == "relaxation":
                    source = ("--relaxation", f"N={n}", f"alpha={alpha:.2f}")
                else:
                    path = workdir / f"{tag}-{form}.txt"
                    if form == "coefficients":
                        tf = generate_relaxation(n, alpha)
                        text = ("numerator = " + " ".join(map(_fmt, tf.numerator.coeffs))
                                + "\ndenominator = "
                                + " ".join(map(_fmt, tf.denominator.coeffs)) + "\n")
                    else:
                        g = relaxation_poles(n, alpha)
                        text = ("poles = " + " ".join(f"{_fmt(-x)},0" for x in g)
                                + "\nresidues = " + " ".join(f"{_fmt(x)},0" for x in g)
                                + "\n")
                    if not path.exists():
                        path.write_text(text)
                    source = ("--input", str(path))
                cases.append(Case(
                    f"{tag}-{method}", tuple(num), tuple(den),
                    relax_expected(n, alpha, method),
                    argv=source + ("--method", method, "--output", "structured"),
                    method=method,
                    form=form,
                    known_wrong=(relax_expected(n, alpha, method) == _MIXED
                                 or (n, alpha, method) in _WRONG_SEEN),
                ))
    return cases

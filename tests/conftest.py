import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from h2reduce import Polynomial, TransferFunction, validate


# Pole draws before random_real_pole_system gives up. The suite's callers
# need at most 121 (N = 8 on [-6, -0.5]); N = 8 on the default [-3, -0.5]
# accepts so rarely that one call ran for a minute.
MAX_POLE_DRAWS = 10_000


def random_real_pole_system(rng: np.random.Generator, n: int,
                            lo=-3.0, hi=-0.5, sep=0.3) -> TransferFunction:
    """Random stable system with well-separated real poles in [lo, hi].

    Redraws the poles until they lie ``sep`` apart, at most MAX_POLE_DRAWS
    times; then raises ValueError.
    """
    for _ in range(MAX_POLE_DRAWS):
        poles = rng.uniform(lo, hi, size=n)
        poles.sort()
        if n == 1 or np.min(np.diff(poles)) >= sep:
            break
    else:
        raise ValueError(
            f"no {n} poles in [{lo}, {hi}] at least {sep} apart after "
            f"{MAX_POLE_DRAWS} draws; widen lo")
    den = np.array([1.0])
    for p in poles:
        den = np.convolve(den, [1.0, -p])
    num = rng.uniform(-2.0, 2.0, size=n)
    while abs(num[0]) < 0.1:
        num = rng.uniform(-2.0, 2.0, size=n)
    return TransferFunction(Polynomial(num), Polynomial(den))


def random_stable_system(rng: np.random.Generator, n: int) -> TransferFunction:
    """Random stable real system of order n, possibly with complex pole pairs."""
    while True:
        poles = []
        k = 0
        while k < n:
            if k + 1 < n and rng.random() < 0.5:
                re = rng.uniform(-3.0, -0.3)
                im = rng.uniform(0.2, 2.0)
                poles += [re + 1j * im, re - 1j * im]
                k += 2
            else:
                poles.append(rng.uniform(-3.0, -0.3) + 0j)
                k += 1
        poles = np.array(poles)
        ok = all(
            abs(poles[i] - poles[j]) > 0.1
            for i in range(n) for j in range(i + 1, n)
        )
        if ok:
            break
    den = np.array([1.0 + 0j])
    for p in poles:
        den = np.convolve(den, [1.0, -p])
    den = den.real
    num = rng.uniform(-2.0, 2.0, size=n)
    while abs(num[0]) < 0.1:
        num = rng.uniform(-2.0, 2.0, size=n)
    return TransferFunction(Polynomial(num), Polynomial(den))


EX1_NUM = [8.4800, -2.5942, 153.5350, 38.8803, 599.3205,
           196.3752, 315.3021, 6.4558, 9.4478e-5]
EX1_DEN = [1, 2.1179, 16.1278, 25.6052, 62.7884,
           79.1895, 42.6617, 32.5279, 0.2514, 2.2495e-6]


@pytest.fixture(scope="session")
def example1_system():
    return validate(TransferFunction(Polynomial(EX1_NUM), Polynomial(EX1_DEN)))


@pytest.fixture(scope="session")
def example1_report(example1_system):
    from h2reduce import solve_reduction
    return solve_reduction(example1_system)

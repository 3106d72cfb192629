"""Univariate polynomial arithmetic on dense coefficient vectors.

Coefficients are stored in DESCENDING degree order (index 0 is the leading
coefficient), matching the usual engineering transfer-function convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def _trim(coeffs: np.ndarray) -> np.ndarray:
    """Strip leading zero coefficients, keeping at least one entry."""
    if coeffs[0] != 0:    # every monic polynomial; a view, like the slices below
        return coeffs[:]
    nz = np.flatnonzero(coeffs)
    if nz.size == 0:
        return coeffs[-1:]
    return coeffs[nz[0]:]


@dataclass(frozen=True)
class Polynomial:
    """Immutable dense polynomial; ``coeffs[0]`` is the leading coefficient."""

    coeffs: np.ndarray = field()

    def __init__(self, coeffs: Sequence[complex]):
        arr = np.atleast_1d(np.asarray(coeffs))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        if not np.iscomplexobj(arr):
            arr = arr.astype(float)
        arr = _trim(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.coeffs) or bool(
            np.all(self.coeffs.imag == 0)
        )

    def monic(self) -> "Polynomial":
        return Polynomial(self.coeffs / self.coeffs[0])

    def scale(self, c: complex) -> "Polynomial":
        return Polynomial(c * self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)})"


def eval_poly(p: Polynomial, s: complex) -> complex:
    """Evaluate p at s by Horner recurrence."""
    acc = 0.0 + 0.0j if np.iscomplexobj(p.coeffs) or isinstance(s, complex) else 0.0
    for c in p.coeffs:
        acc = acc * s + c
    return acc


def derivative(p: Polynomial) -> Polynomial:
    if p.degree == 0:
        return Polynomial([0.0])
    return Polynomial(np.polyder(p.coeffs))


def roots(p: Polynomial) -> np.ndarray:
    """All roots with multiplicity, via the balanced companion matrix."""
    if p.degree < 1 or p.is_zero:
        raise ValueError("no roots defined for constant or zero polynomial")
    return np.roots(p.coeffs)


"""Self-tests of the projected global-minimum oracle, which criterion 4 and
the complex-pole global check rest on."""

import numpy as np
import pytest

from conftest import random_stable_system
from oracles import (
    _paired_distance_sq,
    _residues,
    projected_global_minimum,
    projection,
    residue_distance_sq,
)


def _norm_sq(num, den):
    poles = np.roots(den)
    res = _residues(num, den, poles)
    return _paired_distance_sq(poles, res, poles[:0], res[:0])


@pytest.mark.parametrize("num, den", [
    ([2.0], [1.0, 1.5]),                 # order 1
    ([1.0, -0.5], [1.0, 3.0, 2.0]),      # poles -1, -2
    ([0.5, 2.0], [1.0, 1.0, 4.25]),      # poles -0.5 +- 2j
])
def test_reduction_to_own_order_is_exact(num, den):
    best = projected_global_minimum(num, den, len(den) - 1, np.random.default_rng(0))
    assert best <= 1e-12 * _norm_sq(num, den)


@pytest.mark.parametrize("order", [1, 2])
def test_closed_form_is_the_projected_distance(order):
    rng = np.random.default_rng(3)
    tf = random_stable_system(rng, 3)
    num, den = tf.numerator.coeffs, tf.denominator.coeffs
    poles = np.roots(den)
    res = _residues(num, den, poles)
    a = rng.uniform(0.5, 3.0, size=order)
    b, removed = projection(poles, res, a)
    a_desc = np.concatenate([[1.0], a[::-1]])
    closed = _norm_sq(num, den) - removed
    assert abs(closed - residue_distance_sq(num, den, b[::-1], a_desc)) <= 1e-12 * closed
    # a perturbed numerator over the same denominator is farther from G
    other = b + rng.normal(scale=0.1, size=order)
    assert residue_distance_sq(num, den, other[::-1], a_desc) > closed


def test_optimum_off_the_grid_raises():
    with pytest.raises(ValueError, match="edge"):
        projected_global_minimum([1.0], [1.0, 1e-7], 1, np.random.default_rng(0))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2reduce import Polynomial, derivative, eval_poly, roots
from oracles import is_hurwitz, reflect
from h2reduce.tolerances import TOL

coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=8
)


class TestPolynomial:
    def test_trims_leading_zeros(self):
        p = Polynomial([0.0, 0.0, 1.0, 2.0])
        assert p.degree == 1
        assert list(p.coeffs) == [1.0, 2.0]

    def test_trim_cases(self):
        # a nonzero leading coefficient keeps every entry, and the caller's
        # array stays writeable; leading zeros go; all zeros keep one entry
        for c in (np.array([1.0, 0.0, -2.0]), np.array([2j, 0.0, 1.0])):
            p = Polynomial(c)
            assert p.coeffs.tobytes() == c.tobytes() and p.degree == 2
            assert c.flags.writeable
        assert Polynomial(np.array([0j, 3.0, 0.0])).coeffs.tolist() == [3.0, 0.0]
        assert Polynomial(np.zeros(3, dtype=complex)).coeffs.tolist() == [0j]

    def test_zero_polynomial(self):
        assert Polynomial([0.0, 0.0]).is_zero
        assert not Polynomial([1.0]).is_zero

    def test_immutable(self):
        p = Polynomial([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0

    def test_monic(self):
        p = Polynomial([2.0, 4.0, 6.0]).monic()
        assert np.allclose(p.coeffs, [1.0, 2.0, 3.0])

    def test_is_real(self):
        assert Polynomial([1.0, 2.0]).is_real
        assert not Polynomial([1.0 + 1j, 2.0]).is_real
        assert Polynomial(np.array([1.0, 2.0], dtype=complex)).is_real


class TestEvalAndCalculus:
    @given(coeff_lists, st.floats(min_value=-3, max_value=3, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_eval_matches_polyval(self, coeffs, s):
        p = Polynomial(coeffs)
        assert eval_poly(p, s) == pytest.approx(np.polyval(p.coeffs, s), abs=1e-8, rel=1e-8)

    def test_derivative(self):
        p = Polynomial([3.0, 2.0, 1.0])  # 3s^2 + 2s + 1
        assert np.allclose(derivative(p).coeffs, [6.0, 2.0])
        assert derivative(Polynomial([5.0])).is_zero

    def test_reflect_flips_odd_degrees(self):
        # s^3 + 2s^2 + 3s + 4 -> -s^3 + 2s^2 - 3s + 4
        p = reflect(Polynomial([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(p.coeffs, [-1.0, 2.0, -3.0, 4.0])

    @given(coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_reflect_involution(self, coeffs):
        p = Polynomial(coeffs)
        assert np.allclose(reflect(reflect(p)).coeffs, p.coeffs)

    def test_reflect_evaluation_identity(self):
        p = Polynomial([1.0, -2.0, 0.5, 3.0])
        for s in [0.3, -1.7, 2.2j]:
            assert eval_poly(reflect(p), s) == pytest.approx(eval_poly(p, -s))


class TestRoots:
    def test_known_roots(self):
        r = np.sort_complex(roots(Polynomial([1.0, 3.0, 2.0])))
        assert np.allclose(r, [-2.0, -1.0])

    def test_constant_raises(self):
        with pytest.raises(ValueError):
            roots(Polynomial([3.0]))
        with pytest.raises(ValueError):
            roots(Polynomial([0.0]))

    def test_root_residuals_small(self):
        p = Polynomial([1.0, 0.0, -4.0, 1.0, 6.0])
        residuals = [abs(eval_poly(p, r)) / np.linalg.norm(p.coeffs) for r in roots(p)]
        assert np.all(np.array(residuals) < 1e-10)


class TestHurwitz:
    def test_stable(self):
        assert is_hurwitz(Polynomial([1.0, 3.0, 2.0]))

    def test_unstable(self):
        assert not is_hurwitz(Polynomial([1.0, -3.0, 2.0]))

    def test_marginal_root_at_origin(self):
        assert not is_hurwitz(Polynomial([1.0, 1.0, 0.0]))

    def test_margin_tolerance(self):
        # a root must lie left of -TOL.hurwitz, not merely in the open half-plane
        assert TOL.hurwitz == 1e-9
        assert not is_hurwitz(Polynomial([1.0, 1e-12]))  # root at -1e-12
        assert is_hurwitz(Polynomial([1.0, 1e-8]))       # root at -1e-8

    def test_complex_rejected(self):
        with pytest.raises(ValueError):
            is_hurwitz(Polynomial([1.0 + 1j, 1.0]))

    def test_constant_vacuous(self):
        assert is_hurwitz(Polynomial([7.0]))

import numpy as np
import pytest

from conftest import random_stable_system
from oracles import quad_h2_norm
from h2reduce import (
    NotStrictlyProperError,
    PoleZeroCancellationError,
    Polynomial,
    RepeatedPoleError,
    TransferFunction,
    UnstablePoleError,
    ValidationError,
    h2_distance,
    h2_norm,
    strip_feedthrough,
    validate,
)
from h2reduce.tolerances import TOL


class TestTransferFunction:
    def test_monic_normalization(self):
        tf = TransferFunction(Polynomial([2.0]), Polynomial([4.0, 8.0]))
        assert np.allclose(tf.denominator.coeffs, [1.0, 2.0])
        assert np.allclose(tf.numerator.coeffs, [0.5])

    def test_strip_feedthrough(self):
        # (s^2 + 3s + 3)/(s^2 + 3s + 2) = 1 + 1/(s^2 + 3s + 2)
        tf = strip_feedthrough(Polynomial([1.0, 3.0, 3.0]), Polynomial([1.0, 3.0, 2.0]))
        assert np.allclose(tf.numerator.coeffs, [1.0])


class TestValidate:
    def test_first_order(self):
        sys = validate(TransferFunction(Polynomial([1.0]), Polynomial([1.0, 1.0])))
        assert sys.n == 1
        assert np.allclose(sys.poles, [-1.0])
        assert np.allclose(sys.e_at_poles, [1.0])
        assert np.allclose(sys.dprime_at_poles, [1.0])
        assert np.allclose(sys.d_at_minus_poles, [2.0])

    def test_not_strictly_proper(self):
        with pytest.raises(NotStrictlyProperError):
            validate(TransferFunction(Polynomial([1.0, 0.0]), Polynomial([1.0, 1.0])))

    def test_unstable(self):
        with pytest.raises(UnstablePoleError):
            validate(TransferFunction(Polynomial([1.0]), Polynomial([1.0, -1.0])))

    def test_repeated_pole(self):
        with pytest.raises(RepeatedPoleError):
            validate(TransferFunction(Polynomial([1.0]), Polynomial([1.0, 2.0, 1.0])))

    def test_pole_zero_cancellation(self):
        num = Polynomial(np.convolve([1.0, 1.0], [1.0]))
        den = Polynomial(np.convolve([1.0, 1.0], [1.0, 2.0]))
        with pytest.raises(PoleZeroCancellationError):
            validate(TransferFunction(num, den))

    def test_small_value_without_cancellation(self):
        # e = (s + 1)^6 - 1e-12 is about 1e-12 at the pole -1, under the
        # coprime floor of its coefficient scale 20, yet its zeros lie 0.01
        # from -1: no zero cancels the pole, and the system validates
        num = np.poly(np.full(6, -1.0))
        num[-1] -= 1e-12
        den = np.poly(-np.arange(1.0, 8.0))
        sys = validate(TransferFunction(Polynomial(num), Polynomial(den)))
        assert abs(sys.e_at_poles[-1]) < TOL.coprime * np.abs(num).max()
        assert abs(sys.poles[-1] + 1.0) < 1e-12

    def test_complex_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            validate(TransferFunction(Polynomial([1.0 + 1j]), Polynomial([1.0, 1.0])))

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        tf = random_stable_system(rng, 4)
        s1 = validate(tf)
        s2 = validate(s1.tf)
        assert np.array_equal(s1.poles, s2.poles)
        assert np.array_equal(s1.e_at_poles, s2.e_at_poles)

    def test_pole_ordering(self):
        rng = np.random.default_rng(5)
        sys = validate(random_stable_system(rng, 5))
        keys = [(p.real, p.imag) for p in sys.poles]
        assert keys == sorted(keys)

    def test_conjugate_permutation(self):
        sys = validate(TransferFunction(
            Polynomial([1.0]), Polynomial([1.0, 2.0, 2.0])))  # poles -1 +- i
        assert sorted(sys.conj_perm) == [0, 1]
        for i in range(sys.n):
            assert sys.poles[sys.conj_perm[i]] == pytest.approx(np.conj(sys.poles[i]))


class TestH2Norm:
    def test_first_order_closed_form(self):
        sys = validate(TransferFunction(Polynomial([1.0]), Polynomial([1.0, 1.0])))
        assert h2_norm(sys) == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_gain_scaling(self):
        s1 = validate(TransferFunction(Polynomial([1.0]), Polynomial([1.0, 1.0])))
        s3 = validate(TransferFunction(Polynomial([3.0]), Polynomial([1.0, 1.0])))
        assert h2_norm(s3) == pytest.approx(3 * h2_norm(s1), rel=1e-12)

    def test_against_quadrature(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            tf = random_stable_system(rng, int(rng.integers(1, 7)))
            sys = validate(tf)
            ref = quad_h2_norm(tf.numerator.coeffs, tf.denominator.coeffs)
            assert h2_norm(sys) == pytest.approx(ref, rel=1e-6)


class TestH2Distance:
    def test_distance_to_near_copy(self):
        # identical systems share poles, so perturb the copy slightly
        tf = TransferFunction(Polynomial([1.0]), Polynomial([1.0, 1.0]))
        sys = validate(tf)
        eps = 1e-7
        close = TransferFunction(Polynomial([1.0]), Polynomial([1.0, 1.0 + eps]))
        assert h2_distance(sys, close) < 1e-6

    def test_distance_to_zero_is_norm(self):
        rng = np.random.default_rng(7)
        tf = random_stable_system(rng, 3)
        sys = validate(tf)
        zero = TransferFunction(Polynomial([0.0]), Polynomial([1.0, 1.0]))
        assert h2_distance(sys, zero) == pytest.approx(h2_norm(sys), rel=1e-12)

    def test_unstable_approximant_rejected(self):
        sys = validate(TransferFunction(Polynomial([1.0]), Polynomial([1.0, 1.0])))
        bad = TransferFunction(Polynomial([1.0]), Polynomial([1.0, -2.0]))
        with pytest.raises(ValidationError):
            h2_distance(sys, bad)

    def test_inner_product_expansion(self):
        # ||H1 - H2||^2 = ||H1||^2 - 2<H1,H2> + ||H2||^2
        rng = np.random.default_rng(19)
        tf1 = random_stable_system(rng, 4)
        tf2 = random_stable_system(rng, 3)
        s1, s2 = validate(tf1), validate(tf2)
        d = h2_distance(s1, tf2)
        n1, n2 = h2_norm(s1), h2_norm(s2)
        r1 = s1.e_at_poles / s1.dprime_at_poles
        r2 = s2.e_at_poles / s2.dprime_at_poles
        cross = np.real(sum(
            r1[i] * r2[j] / (-s1.poles[i] - s2.poles[j])
            for i in range(s1.n) for j in range(s2.n)
        ))
        assert d**2 == pytest.approx(n1**2 - 2 * cross + n2**2, rel=1e-8, abs=1e-10)

    def test_against_quadrature(self):
        rng = np.random.default_rng(23)
        tf1 = random_stable_system(rng, 4)
        tf2 = random_stable_system(rng, 2)
        sys = validate(tf1)
        d = h2_distance(sys, tf2)

        from scipy.integrate import quad
        def integrand(w):
            h1, h2 = (np.polyval(tf.numerator.coeffs, 1j * w)
                      / np.polyval(tf.denominator.coeffs, 1j * w) for tf in (tf1, tf2))
            return abs(h1 - h2) ** 2
        val, _ = quad(integrand, 0, np.inf, limit=500)
        assert d == pytest.approx(np.sqrt(val / np.pi), rel=1e-6)

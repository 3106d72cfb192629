"""The diagonal-quadratic ideal: the DiagQuadSystem that carries it, and the
normal-form reference in oracles.py that the multiplication matrices are
checked against."""

import numpy as np
import pytest

from oracles import (
    basis_conj, expand, generator, kept_matrices, monomial_normal_form, normal_form)
from h2reduce import BasisSizeError, DiagQuadSystem


def seeded_system(rng, n):
    """A DiagQuadSystem with M uniform on [-2, 2]. The n uniforms drawn
    after M are dropped, so that a test's later draws from ``rng`` stay
    those its seed has always given."""
    m = rng.uniform(-2, 2, size=(n, n))
    rng.uniform(-2, 2, size=n)
    return DiagQuadSystem(m)


def random_sparse_poly(rng, n_vars, n_terms=6, max_exp=3):
    terms = {}
    for _ in range(n_terms):
        alpha = tuple(int(e) for e in rng.integers(0, max_exp + 1, size=n_vars))
        terms[alpha] = rng.uniform(-2, 2)
    return terms


class TestDiagQuadSystem:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            DiagQuadSystem(np.ones((2, 3)))

    def test_cap(self):
        with pytest.raises(BasisSizeError):
            DiagQuadSystem(np.eye(15))

    def test_default_conj_identity(self):
        sys = DiagQuadSystem(np.eye(3))
        assert sys.dim == 8
        assert np.array_equal(sys.conj, [0, 1, 2])
        assert np.array_equal(basis_conj(sys), np.arange(8))

    def test_conj_accepted(self):
        sys = DiagQuadSystem(np.eye(3), conj=[1, 0, 2])
        assert np.array_equal(sys.conj, [1, 0, 2])
        # bits 0 and 1 swap: x0 <-> x1, x0 x2 <-> x1 x2
        assert np.array_equal(basis_conj(sys), [0, 2, 1, 3, 4, 6, 5, 7])

    @pytest.mark.parametrize("conj", [
        [1, 2, 0],          # a permutation, but of order 3
        [0, 0, 2],          # not a permutation
        [0, 1],             # wrong length
        [0, 1, 3],          # out of range
        [-1, 1, 2],         # negative index
        [1.0, 0.0, 2.0],    # not integers
    ])
    def test_conj_must_be_involutive_permutation(self, conj):
        with pytest.raises(ValueError):
            DiagQuadSystem(np.eye(3), conj=conj)

    def test_generator(self):
        sys = DiagQuadSystem([[2.0, 3.0], [0.0, 5.0]])
        g0 = generator(sys, 0)
        assert g0[(2, 0)] == 1.0
        assert g0[(1, 0)] == -2.0
        assert g0[(0, 1)] == -3.0
        assert (0, 0) not in g0     # no constant term


class TestNormalForm:
    def test_square_free_passthrough(self):
        sys = DiagQuadSystem(np.array([[0.5, 1.0], [2.0, -1.0]]))
        nf = normal_form({(1, 1): 3.0, (0, 0): -2.0}, sys)
        assert nf[3] == 3.0 and nf[0] == -2.0

    def test_single_substitution(self):
        # x0^2 -> 0.5 x0
        sys = DiagQuadSystem(np.array([[0.5, 0.0], [0.0, 0.0]]))
        nf = normal_form({(2, 0): 1.0}, sys)
        assert nf[0] == 0.0
        assert nf[1] == pytest.approx(0.5)

    def test_value_preserved_at_solutions(self):
        # the normal form must agree with f on the solution variety
        rng = np.random.default_rng(2)
        m = rng.uniform(-2, 2, size=(2, 2))
        sys = DiagQuadSystem(m)
        from oracles import elimination_solutions_n2
        f = random_sparse_poly(rng, 2)
        nf = normal_form(f, sys)
        for x in elimination_solutions_n2(m):
            fx = sum(c * x[0] ** a[0] * x[1] ** a[1] for a, c in f.items())
            basis_vals = np.array([1, x[0], x[1], x[0] * x[1]])
            assert nf @ basis_vals == pytest.approx(fx, rel=1e-8, abs=1e-8)

    def test_confluence(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            sys = seeded_system(rng, n)
            f = random_sparse_poly(rng, n)
            a = normal_form(f, sys, strategy="max_degree")
            b = normal_form(f, sys, strategy="min_index")
            assert np.max(np.abs(a - b)) <= 1e-12 * (1 + np.max(np.abs(a)))

    def test_linearity(self):
        rng = np.random.default_rng(8)
        n = 3
        sys = DiagQuadSystem(rng.uniform(-2, 2, size=(n, n)))
        f, g = random_sparse_poly(rng, n), random_sparse_poly(rng, n)
        c = 1.7
        fg = {a: f.get(a, 0.0) + c * g.get(a, 0.0) for a in f.keys() | g.keys()}
        lhs = normal_form(fg, sys)
        rhs = normal_form(f, sys) + c * normal_form(g, sys)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(rhs)))

    def test_memoised_monomials(self):
        # the memoised reduction of single monomials is normal_form's, to
        # rounding: every x_i times a basis monomial, and monomials of
        # higher degree whose rewrites share their intermediate monomials
        rng = np.random.default_rng(17)
        for n in (2, 3, 4):
            sys = seeded_system(rng, n)
            nf = monomial_normal_form(sys)
            alphas = [tuple(int(e) for e in rng.integers(0, 4, size=n)) for _ in range(10)]
            alphas += [tuple(((b >> k) & 1) + (k == i) for k in range(n))
                       for i in range(n) for b in range(1 << n)]
            for alpha in alphas:
                want = normal_form({alpha: 1.0}, sys)
                assert np.max(np.abs(nf(alpha) - want)) <= 1e-12 * (1 + np.max(np.abs(want)))

    def test_generators_reduce_to_zero(self):
        rng = np.random.default_rng(13)
        n = 4
        sys = seeded_system(rng, n)
        for i in range(n):
            assert np.max(np.abs(normal_form(generator(sys, i), sys))) < 1e-12


class TestMultiplyByVariable:
    """A_{X_i} multiplies a normal form by x_i inside the quotient ring."""

    def test_matches_normal_form(self):
        rng = np.random.default_rng(21)
        n = 3
        sys = seeded_system(rng, n)
        mats = expand(kept_matrices(sys))
        f = random_sparse_poly(rng, n)
        nf = normal_form(f, sys)
        for i in range(n):
            shifted = {tuple(e + (k == i) for k, e in enumerate(a)): c
                       for a, c in f.items()}
            assert np.allclose(mats[i] @ nf, normal_form(shifted, sys),
                               atol=1e-12)

    def test_basis_vector_shift(self):
        mm = kept_matrices(DiagQuadSystem(np.zeros((2, 2))))
        out = expand(mm)[1][:, 0]
        assert out[2] == 1.0 and np.sum(np.abs(out)) == 1.0

import numpy as np
import pytest

from conftest import random_stable_system
from oracles import (
    annihilation_defect,
    dense_commutation_defect,
    elimination_solutions_n2,
    evaluate_poly_at_matrices,
    generator,
    loop_dedupe,
    match_solution_sets,
    normal_form,
    reference_multiplication_matrices,
)
from h2reduce import (
    ConjugationDefectError,
    DiagQuadSystem,
    build_M,
    build_critical_value_matrix,
    build_multiplication_matrices,
    common_eigen_solutions,
    validate,
)
from h2reduce.stetter import (
    MERGE, EigenSolution, _combination_weights, _commutation_defect,
    _commutator_norm, _dedupe, _evaluation_rows, _real_form)


def random_system(rng, n, with_mu=False):
    mu = rng.uniform(-2, 2, size=n) if with_mu else None
    return DiagQuadSystem(rng.uniform(-2, 2, size=(n, n)), mu=mu)


class TestBuildMultiplicationMatrices:
    def test_n1(self):
        # single variable: quotient basis {1, x}, x*1 = x, x*x = m x + mu
        sys = DiagQuadSystem([[1.5]], mu=[2.0])
        mm = build_multiplication_matrices(sys)
        a = mm.matrices[0]
        assert np.allclose(a, [[0.0, 2.0], [1.0, 1.5]])

    def test_columns_are_variable_products(self):
        # column beta of A_i is the normal form of x_i * (basis monomial beta)
        rng = np.random.default_rng(6)
        sys = random_system(rng, 3, with_mu=True)
        mm = build_multiplication_matrices(sys)
        for i in range(3):
            for beta in range(8):
                product = tuple(((beta >> k) & 1) + (k == i) for k in range(3))
                ref = normal_form({product: 1.0}, sys)
                assert np.allclose(mm.matrices[i][:, beta], ref, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_fill_matches_column_sweep(self, n):
        # the level-by-level fill does the column sweep's arithmetic in the
        # same order, so the matrices agree bit for bit; zeros in M exercise
        # the skipped terms, complex M and mu both signs of every part. N = 9
        # is where numpy's multiply loops first round differently for a
        # Python complex and a numpy scalar
        rng = np.random.default_rng(50 + n)
        m = rng.uniform(-2, 2, size=(n, n)) + 1j * rng.uniform(-2, 2, size=(n, n))
        m[rng.random((n, n)) < 0.3] = 0.0
        m[0, n - 1] = 0.0
        for mu in (None, rng.uniform(-2, 2, size=n) - 1j * rng.uniform(0, 1, size=n)):
            sys = DiagQuadSystem(m, mu=mu)
            got = build_multiplication_matrices(sys).matrices
            ref = reference_multiplication_matrices(sys)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_commutation_defect_matches_dense(self, n):
        # perturb only the columns with bit i of each A_i, as rounding in the
        # fill would; the unit columns stay exact, which the block formula
        # relies on
        rng = np.random.default_rng(60 + n)
        sys = random_system(rng, n, with_mu=True)
        mats = np.array(build_multiplication_matrices(sys).matrices)
        idx = np.arange(sys.dim)
        for i in range(n):
            cols = idx[idx & (1 << i) != 0]
            mats[i][:, cols] += 1e-6 * rng.standard_normal((sys.dim, cols.size))
        got, ref = _commutation_defect(mats), dense_commutation_defect(mats)
        assert ref > 1e-9
        assert abs(got - ref) <= 1e-10 * ref
        # pair by pair too, so an error off the maximising pair shows
        work = np.empty((4, sys.dim, sys.dim // 2), dtype=complex)
        for j in range(n):
            for i in range(j):
                got = _commutator_norm(mats[i], mats[j], i, j, work)
                ref = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i])
                assert abs(got - ref) <= 1e-10 * ref

    def test_commutation(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            mm = build_multiplication_matrices(random_system(rng, n, with_mu=True))
            assert mm.commutation_defect <= 1e-10

    def test_generator_annihilation(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            sys = random_system(rng, n, with_mu=True)
            mm = build_multiplication_matrices(sys)
            assert annihilation_defect(mm) <= 1e-10
            # same check through the generic evaluator
            for i in range(n):
                g = evaluate_poly_at_matrices(generator(sys, i), mm)
                assert np.linalg.norm(g) <= 1e-9 * max(
                    1.0, np.linalg.norm(mm.matrices[i]) ** 2)


class TestCommonEigenSolutions:
    def test_n2_matches_elimination(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.uniform(-2, 2, size=(2, 2))
            if abs(m[0, 1]) < 0.1:
                continue
            mm = build_multiplication_matrices(DiagQuadSystem(m))
            sols = common_eigen_solutions(mm).solutions
            got = [s.xi for s in sols]
            ref = elimination_solutions_n2(m)
            # dedupe oracle list the same way (double roots at zero)
            uniq = []
            for x in ref:
                if not any(np.max(np.abs(x - u)) <= 1e-5 * (1 + np.max(np.abs(u)))
                           for u in uniq):
                    uniq.append(x)
            assert match_solution_sets(got, uniq, 1e-6)

    def test_solutions_satisfy_equations(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            sys = random_system(rng, n, with_mu=True)
            mm = build_multiplication_matrices(sys)
            for s in common_eigen_solutions(mm).solutions:
                x = s.xi
                resid = np.abs(x**2 - sys.m @ x - sys.mu)
                assert np.max(resid) <= 1e-6 * (1 + np.max(np.abs(x)) ** 2)

    def test_count_bound_homogeneous(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            mm = build_multiplication_matrices(random_system(rng, n))
            sols = common_eigen_solutions(mm).solutions
            nonzero = [s for s in sols
                       if np.linalg.norm(s.xi, np.inf) > 1e-9 *
                       (1 + max(np.linalg.norm(t.xi, np.inf) for t in sols))]
            assert len(nonzero) <= (1 << n) - 1

    def test_conjugate_closure_real_system(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            sys = random_system(rng, n)
            mm = build_multiplication_matrices(sys)
            sols = [s.xi for s in common_eigen_solutions(mm).solutions]
            for x in sols:
                gap = min(np.max(np.abs(np.conj(x) - y)) for y in sols)
                assert gap <= 1e-5 * (1 + np.max(np.abs(x)))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(31)
        sys = random_system(rng, 4)
        mm = build_multiplication_matrices(sys)
        a = common_eigen_solutions(mm, seed=7)
        b = common_eigen_solutions(mm, seed=7)
        assert len(a.solutions) == len(b.solutions)
        for x, y in zip(a.solutions, b.solutions):
            assert np.array_equal(x.xi, y.xi)


def pole_matrices(sys):
    """Multiplication matrices of a validated system, with its pole
    conjugation declared as the solve does."""
    return build_multiplication_matrices(DiagQuadSystem(build_M(sys), conj=sys.conj_perm))


@pytest.fixture(scope="module")
def example1_matrices(example1_system):
    return pole_matrices(example1_system)


@pytest.fixture(scope="module")
def pairs6_matrices():
    # N = 6 with two complex pole pairs
    sys = validate(random_stable_system(np.random.default_rng(8), 6))
    assert np.count_nonzero(sys.conj_perm != np.arange(6)) == 4
    return pole_matrices(sys)


class TestRealForm:
    """T^T against the real matrix R = U^H T^T U built from the conjugation."""

    @staticmethod
    def dense_u(partner):
        dim = len(partner)
        u = np.zeros((dim, dim), dtype=complex)
        h = np.sqrt(0.5)
        for k, l in enumerate(partner):
            if k == l:
                u[k, k] = 1.0
            elif k < l:
                u[[k, l], k] = h
                u[[k, l], l] = 1j * h, -1j * h
        return u

    @pytest.mark.parametrize("matrices", ["example1_matrices", "pairs6_matrices"])
    def test_similar_to_transpose(self, matrices, request):
        mm = request.getfixturevalue(matrices)
        partner = mm.system.basis_conj()
        assert np.any(partner != np.arange(mm.dim))
        t = np.tensordot(_combination_weights(mm.system.conj, 0), mm.matrices, axes=1)
        r, defect = _real_form(t.T.copy(), partner)
        assert r.dtype == np.float64 and defect <= 1e-12
        u = self.dense_u(partner)
        assert np.allclose(u.conj().T @ u, np.eye(mm.dim), rtol=0, atol=1e-15)
        dense = u.conj().T @ t.T @ u
        scale = np.abs(r).max()
        assert np.abs(dense.real - r).max() <= 1e-13 * scale
        assert np.abs(dense.imag).max() <= 1e-12 * scale
        # the same spectrum as T^T, paired one to one
        got, ref = np.linalg.eigvals(r), np.linalg.eigvals(t.T)
        near = np.abs(got[:, None] - ref[None, :]).argmin(axis=1)
        assert np.array_equal(np.sort(near), np.arange(mm.dim))
        assert np.abs(got - ref[near]).max() <= 1e-9 * np.abs(ref).max()
        # rows 0 and 2^i of U w without forming U
        _, w = np.linalg.eig(r)
        rows = np.concatenate(([0], 1 << np.arange(mm.n_vars)))
        assert np.allclose(_evaluation_rows(w, rows, partner), (u @ w)[rows],
                           rtol=0, atol=1e-15)

    def test_weights_keep_the_real_draw(self):
        for seed in range(5):
            g = np.random.default_rng(seed).standard_normal(4)
            c = _combination_weights(np.arange(4), seed)
            assert np.array_equal(c.real, g) and not np.any(c.imag)
            # a pair 1 <-> 3: c_1 = g_1 + i g_3, c_3 its conjugate
            c = _combination_weights(np.array([0, 3, 2, 1]), seed)
            assert np.array_equal(c, [g[0], g[1] + 1j * g[3], g[2], g[1] - 1j * g[3]])

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_undeclared_conjugation_raises(self, n):
        # complex pole pairs, declared with the identity conjugation: the
        # combination has no real form, and no root may come out
        rng = np.random.default_rng(100 + n)
        while True:
            sys = validate(random_stable_system(rng, n))
            if np.any(sys.conj_perm != np.arange(n)):
                break
        mm = build_multiplication_matrices(DiagQuadSystem(build_M(sys)))
        with pytest.raises(ConjugationDefectError) as exc:
            common_eigen_solutions(mm)
        assert exc.value.diagnostics["conjugation_defect"] > 1e-10
        assert common_eigen_solutions(pole_matrices(sys)).conjugation_defect <= 1e-12


class TestEigenKernelsAgainstLoops:
    """The read-off against the normal-form oracle, and the array dedupe
    against the one-tuple-at-a-time loop in oracles.py."""

    @staticmethod
    def assert_roots_of_quotient(sys, xis):
        """At a root xi, the normal form of x_i * b_beta evaluates to
        xi_i * b_beta(xi) for every i and every basis monomial b_beta."""
        n, dim = sys.n_vars, sys.dim
        bits = (np.arange(dim)[:, None] >> np.arange(n)) & 1
        xis = np.array(xis)
        basis = np.prod(np.where(bits == 1, xis[:, None, :], 1.0), axis=2)
        for i in range(n):
            nf = np.array([
                normal_form({tuple(int(e) + (k == i) for k, e in enumerate(bits[b])): 1.0}, sys)
                for b in range(dim)])
            want = xis[:, i:i + 1] * basis
            scale = np.abs(basis) @ np.abs(nf).T + np.abs(want)
            err = np.abs(basis @ nf.T - want) / np.maximum(scale, 1e-300)
            assert np.max(err) <= 1e-10

    def test_readoff_example1(self, example1_matrices):
        eig = common_eigen_solutions(example1_matrices)
        # all 2^9 roots, each accepted and none merged with another
        assert len(eig.solutions) == 512 and not eig.rejected
        assert all(s.multiplicity_hint == 1 for s in eig.solutions)
        self.assert_roots_of_quotient(
            example1_matrices.system, [s.xi for s in eig.solutions])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_readoff_random(self, n):
        rng = np.random.default_rng(40 + n)
        sys = random_system(rng, n, with_mu=True)
        eig = common_eigen_solutions(build_multiplication_matrices(sys))
        assert len(eig.solutions) == 1 << n and not eig.rejected
        self.assert_roots_of_quotient(sys, [s.xi for s in eig.solutions])

    @staticmethod
    def dedupe_cases():
        cl = MERGE
        a = np.array([1.0, 0.5j])
        c = np.array([2.0, -1.0 + 1.0j])          # ||c||_inf = 2
        step = np.array([0.75 * cl * 2.0, 0.0])   # c ~ c+step ~ c+2 step, c !~ c+2 step
        xis = [
            a, a.copy(),                           # exact duplicate
            a + [0.0, 0.9 * cl],                   # just inside
            a + [0.0, 1.1 * cl],                   # just outside
            c, c + step, c + 2 * step,             # chain: greedy order decides
            np.zeros(2), np.zeros(2),              # the zero tuple
            np.array([-3.0, 4.0j]),
        ]
        return [EigenSolution(xi=x, residual=1e-16 * k, multiplicity_hint=1)
                for k, x in enumerate(xis)]

    @staticmethod
    def assert_same_dedupe(sols):
        got, ref = _dedupe(sols), loop_dedupe(sols, MERGE)
        assert [s.multiplicity_hint for s in got] == [s.multiplicity_hint for s in ref]
        for g, r in zip(got, ref):
            assert g.xi is r.xi and g.residual == r.residual
        return got

    def test_dedupe_synthetic(self):
        sols = self.dedupe_cases()
        assert [s.multiplicity_hint for s in self.assert_same_dedupe(sols)] == [
            3, 1, 2, 1, 2, 1]
        # starting the chain from its middle merges all three; the middle
        # after both ends joins the first end
        for order, hints in (([5, 4, 6], [3]), ([4, 6, 5], [2, 1])):
            got = self.assert_same_dedupe([sols[k] for k in order])
            assert [s.multiplicity_hint for s in got] == hints
        rng = np.random.default_rng(2)
        for _ in range(20):
            self.assert_same_dedupe([sols[k] for k in rng.permutation(len(sols))])

    def test_dedupe_empty(self):
        assert _dedupe([]) == loop_dedupe([], MERGE) == []


class TestEvaluatePolyAtMatrices:
    def test_scalar_consistency(self):
        # f evaluated at the matrices has f(solution) among its eigenvalues
        rng = np.random.default_rng(12)
        m = rng.uniform(-2, 2, size=(2, 2))
        sys = DiagQuadSystem(m)
        mm = build_multiplication_matrices(sys)
        fa = evaluate_poly_at_matrices({(2, 1): 1.0, (1, 0): -0.5, (0, 0): 0.3}, mm)
        eigs = np.linalg.eigvals(fa)
        for x in elimination_solutions_n2(m):
            fx = x[0] ** 2 * x[1] - 0.5 * x[0] + 0.3
            assert np.min(np.abs(eigs - fx)) <= 1e-6 * (1 + abs(fx))

    def test_variable_count_mismatch(self):
        mm = build_multiplication_matrices(DiagQuadSystem(np.eye(2)))
        with pytest.raises(ValueError):
            evaluate_poly_at_matrices({(1,): 1.0}, mm)


class TestCriticalValueMatrix:
    def test_eigenvalues_are_cubic_values(self):
        rng = np.random.default_rng(25)
        m = rng.uniform(-2, 2, size=(2, 2))
        mm = build_multiplication_matrices(DiagQuadSystem(m))
        w = rng.uniform(-1, 1, size=2)
        eigs = np.linalg.eigvals(build_critical_value_matrix(mm, w))
        for x in elimination_solutions_n2(m):
            val = w[0] * x[0] ** 3 + w[1] * x[1] ** 3
            assert np.min(np.abs(eigs - val)) <= 1e-6 * (1 + abs(val))

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_real_pole_system, random_stable_system
from oracles import (
    annihilation_defect,
    basis_conj,
    combination_transpose,
    dense_commutation_defect,
    elimination_solutions_n2,
    evaluate_poly_at_matrices,
    expand,
    generator,
    kept_matrices,
    loop_dedupe,
    loop_polish,
    loop_residual,
    match_solution_sets,
    monomial_normal_form,
    normal_form,
    real_form,
    reference_multiplication_matrices,
)
from h2reduce import (
    ConjugationDefectError,
    DiagQuadSystem,
    MultiplicationMatrices,
    NumericalError,
    Polynomial,
    TransferFunction,
    build_M,
    build_critical_value_matrix,
    combine,
    common_eigen_solutions,
    generate_relaxation,
    validate,
)
from h2reduce import stetter
from h2reduce.foc import criterion_weights
from h2reduce.stetter import (
    EigenSolution, _combination_weights, _dedupe, _evaluation_rows,
    _norms, _polish, _read_off, _residual)
from h2reduce.tolerances import TOL


def random_system(rng, n, with_mu=False):
    """A DiagQuadSystem with M uniform on [-2, 2]. ``with_mu`` first draws n
    uniforms and drops them, so that the tests that pass it keep the inputs
    their seeds have always given."""
    if with_mu:
        rng.uniform(-2, 2, size=n)
    return DiagQuadSystem(rng.uniform(-2, 2, size=(n, n)))


def pole_pair_system(rng, n):
    """Random stable real system of order n with n // 2 complex pole pairs."""
    pairs = rng.uniform(-3.0, -0.3, n // 2) + 1j * rng.uniform(0.2, 2.0, n // 2)
    poles = np.concatenate([pairs, pairs.conj(), rng.uniform(-3.0, -0.3, n % 2)])
    return TransferFunction(Polynomial(rng.uniform(0.5, 2.0, n)),
                            Polynomial(np.poly(poles).real))


class TestBuildMultiplicationMatrices:
    def test_n1(self):
        # single variable: quotient basis {1, x}, x*1 = x, x*x = m x
        sys = DiagQuadSystem([[1.5]])
        a = expand(kept_matrices(sys))[0]
        assert np.array_equal(a, [[0.0, 0.0], [1.0, 1.5]])

    @pytest.mark.parametrize("family,n", [("real", n) for n in range(1, 10)]
                             + [("pairs", n) for n in range(2, 10)] + [("example1", 9)])
    def test_zero_root_is_structural(self, family, n, request):
        # x o x = M x has no constant term, so no substitution reaches the
        # constant monomial: row 0 of every A_{X_i} is exactly zero, and so
        # is column 0 of R, which makes e_0 an exact eigenvector of R for
        # xi = 0, the one root at zero that the root ledger demands
        rng = np.random.default_rng(90 + n)
        if family == "real":
            sys = random_system(rng, n)
        elif family == "pairs":
            sys = pole_system(validate(pole_pair_system(rng, n)))
            assert np.any(sys.conj != np.arange(n))
        else:
            sys = pole_system(request.getfixturevalue("example1_system"))
        mm = kept_matrices(sys)
        for i in range(n):
            assert not mm.matrix(i)[0].any()
        for seed in (0, 1):
            assert not combine(sys, seed).real_form[:, 0].any()

    def test_columns_are_variable_products(self):
        # column beta of A_i is the normal form of x_i * (basis monomial beta)
        rng = np.random.default_rng(6)
        sys = random_system(rng, 3, with_mu=True)
        mats = expand(kept_matrices(sys))
        for i in range(3):
            for beta in range(8):
                product = tuple(((beta >> k) & 1) + (k == i) for k in range(3))
                ref = normal_form({product: 1.0}, sys)
                assert np.allclose(mats[i][:, beta], ref, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_fill_matches_column_sweep(self, n):
        # the fill takes BLAS products, which sum in their own order, so it
        # agrees with the column sweep to rounding; zeros in M exercise the
        # skipped terms, complex M both signs of every part. The real parts
        # of the same draws build a float64 stack, held to the sweep of the
        # same system
        rng = np.random.default_rng(50 + n)
        m = rng.uniform(-2, 2, size=(n, n)) + 1j * rng.uniform(-2, 2, size=(n, n))
        m[rng.random((n, n)) < 0.3] = 0.0
        m[0, n - 1] = 0.0
        for real in (False, True):
            sys = DiagQuadSystem(m.real if real else m)
            got = expand(kept_matrices(sys))
            ref = reference_multiplication_matrices(sys)
            # at N = 1 the draw zeroes M's one entry, so the system is real
            assert got.dtype == (np.float64 if real or n == 1 else np.complex128)
            for g, r in zip(got, ref):
                assert np.abs(g - r).max() <= 1e-14 * np.abs(r).max()

    @staticmethod
    def traced_peak(build, real):
        """The result of ``build`` on a seeded N = 9 system, real or complex,
        and the tracemalloc peak of the call."""
        rng = np.random.default_rng(70)
        m = rng.uniform(-2, 2, size=(9, 9))
        sys = DiagQuadSystem(m if real else m + 1j * rng.uniform(-2, 2, size=(9, 9)))
        tracemalloc.start()
        try:
            out = build(sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out, peak

    @pytest.mark.parametrize("real", [False, True])
    def test_build_memory_bound(self, real):
        # only the blocks and T^T are stored, and the fill's temporaries are
        # bounded by its row blocks: the dense (N, D, D) stack alone would
        # exceed the bound at N = 9, as would a whole degree level at once
        comb, peak = self.traced_peak(lambda sys: combine(sys, keep_matrices=True), real)
        mm, held = comb.matrices, comb.matrices.rows.nbytes + comb.real_form.nbytes
        assert mm.rows.dtype == (np.float64 if real else np.complex128)
        assert mm.rows.shape == (9 * 256, 512)
        assert peak <= held + 4 * 2**20
        assert 9 * 512 * 512 * mm.rows.itemsize > held + 4 * 2**20

    @pytest.mark.parametrize("real", [False, True])
    def test_combination_memory_bound(self, real):
        # R is formed as the fill runs, from two adjacent degree levels at
        # a time, so forming it takes less memory than the blocks of the
        # same system alone; summing it from the blocks would need both
        comb, peak = self.traced_peak(combine, real)
        assert comb.matrices is None
        assert comb.real_form.dtype == np.float64
        assert peak < kept_matrices(comb.system).rows.nbytes

    @pytest.mark.parametrize("family", ["real", "complex", "pairs"])
    @pytest.mark.parametrize("n", range(2, 10))
    def test_combination_matches_dense(self, family, n):
        # R formed level by level as the fill runs, streamed or with the
        # matrices kept, equals the real form of the sum over whole blocks
        # (oracles.py), with the same conjugation defect, and agrees with
        # the real form of the combination of the expanded matrices, which
        # sums in another order. A real system without pairs has R = T^T
        rng = np.random.default_rng(80 + n)
        if family == "pairs":
            sys = pole_system(validate(pole_pair_system(rng, n)))
        else:
            m = rng.uniform(-2, 2, size=(n, n))
            if family == "complex":
                m = m + 1j * rng.uniform(-2, 2, size=(n, n))
            sys = DiagQuadSystem(m)
        mm = kept_matrices(sys)
        mats = expand(mm)
        partner = basis_conj(sys)
        for seed in (0, 1):
            c = _combination_weights(sys.conj, seed)
            if family != "pairs":
                c = c.real
            want = np.tensordot(c, mats, axes=1).T
            t = combination_transpose(mm, c)
            assert t.dtype == want.dtype == (np.float64 if family == "real" else np.complex128)
            oracle, defect = real_form(t, partner)
            want, _ = real_form(want, partner)
            if family == "real":
                assert oracle is t and defect == 0.0
            kept = combine(sys, seed, keep_matrices=True)
            assert kept.matrices.rows.tobytes() == mm.rows.tobytes()
            for got in (combine(sys, seed), kept):
                r = got.real_form
                assert r.dtype == oracle.dtype == want.dtype == np.float64
                assert r.tobytes() == oracle.tobytes()
                assert float(got.conjugation_defect).hex() == float(defect).hex()
                assert got.nonfinite_entries == 0
                assert np.abs(r - want).max() <= 1e-14 * np.abs(want).max()

    def test_commutation(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            mm = kept_matrices(random_system(rng, n, with_mu=True))
            assert dense_commutation_defect(expand(mm)) <= 1e-10

    def test_generator_annihilation(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            sys = random_system(rng, n, with_mu=True)
            mm = kept_matrices(sys)
            assert annihilation_defect(mm) <= 1e-10
            # same check through the generic evaluator
            for i in range(n):
                g = evaluate_poly_at_matrices(generator(sys, i), mm)
                assert np.linalg.norm(g) <= 1e-9 * max(
                    1.0, np.linalg.norm(mm.matrix(i)) ** 2)


class TestCommonEigenSolutions:
    def test_n2_matches_elimination(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.uniform(-2, 2, size=(2, 2))
            if abs(m[0, 1]) < 0.1:
                continue
            sols = common_eigen_solutions(combine(DiagQuadSystem(m))).solutions
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
            for s in common_eigen_solutions(combine(sys)).solutions:
                x = s.xi
                resid = np.abs(x**2 - sys.m @ x)
                assert np.max(resid) <= 1e-6 * (1 + np.max(np.abs(x)) ** 2)

    def test_count_bound_homogeneous(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            sols = common_eigen_solutions(combine(random_system(rng, n))).solutions
            nonzero = [s for s in sols
                       if np.linalg.norm(s.xi, np.inf) > 1e-9 *
                       (1 + max(np.linalg.norm(t.xi, np.inf) for t in sols))]
            assert len(nonzero) <= (1 << n) - 1

    def test_conjugate_closure_real_system(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            sys = random_system(rng, n)
            sols = [s.xi for s in common_eigen_solutions(combine(sys)).solutions]
            for x in sols:
                gap = min(np.max(np.abs(np.conj(x) - y)) for y in sols)
                assert gap <= 1e-5 * (1 + np.max(np.abs(x)))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(31)
        comb = combine(random_system(rng, 4), seed=7)
        a = common_eigen_solutions(comb)
        b = common_eigen_solutions(comb)
        assert len(a.solutions) == len(b.solutions)
        for x, y in zip(a.solutions, b.solutions):
            assert np.array_equal(x.xi, y.xi)


def pole_system(sys):
    """The diagonal-quadratic system of a validated system, with its pole
    conjugation declared as the solve does."""
    return DiagQuadSystem(build_M(sys), conj=sys.conj_perm)


def pole_matrices(sys):
    """Multiplication matrices of a validated system, as in ``pole_system``."""
    return kept_matrices(pole_system(sys))


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
    """T^T against the real matrix R = U^H T^T U built from the conjugation:
    the oracle ``real_form`` against the dense product, and the R that the
    fill forms against the oracle."""

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
        partner = basis_conj(mm.system)
        assert np.any(partner != np.arange(mm.dim))
        c = _combination_weights(mm.system.conj, 0)
        t = np.tensordot(c, expand(mm), axes=1)
        r, defect = real_form(t.T.copy(), partner)
        assert r.dtype == np.float64 and defect <= 1e-12
        # the fill's R is the oracle's of the same T^T, bit for bit
        comb = combine(mm.system, 0)
        oracle, oracle_defect = real_form(combination_transpose(mm, c), partner)
        assert comb.real_form.tobytes() == oracle.tobytes()
        assert comb.conjugation_defect == oracle_defect and comb.nonfinite_entries == 0
        assert np.abs(comb.real_form - r).max() <= 1e-13 * np.abs(r).max()
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
        assert np.allclose(_evaluation_rows(w, rows, partner[rows]), (u @ w)[rows],
                           rtol=0, atol=1e-15)

    @pytest.mark.parametrize("family", ["real", "pairs"])
    def test_real_stack_matches_complex(self, family):
        # real poles give a float64 T^T with no pairs to mix, which the fill
        # takes as R; the same T^T cast to complex takes the complex path of
        # the oracle real_form. Complex poles give a complex128 T^T whose
        # pairs mix, in the fill as in the oracle
        tf = (generate_relaxation(5, 0.6) if family == "real"
              else pole_pair_system(np.random.default_rng(5), 5))
        sys = pole_system(validate(tf))
        comb = combine(sys)
        c = _combination_weights(sys.conj, 0)
        t = combination_transpose(kept_matrices(sys), c.real if family == "real" else c)
        assert t.dtype == (np.float64 if family == "real" else np.complex128)
        r, defect = real_form(t.astype(complex), basis_conj(sys))
        assert comb.real_form.tobytes() == r.tobytes()
        assert comb.conjugation_defect == defect
        if family == "real":
            assert defect == 0.0
        else:
            assert 0.0 < defect <= 1e-12
        eigs = [common_eigen_solutions(x) for x in
                (comb, comb._replace(real_form=r, conjugation_defect=defect))]
        for eig in eigs:
            assert len(eig.solutions) == 32 and not eig.rejected
            assert all(s.multiplicity_hint == 1 for s in eig.solutions)
        got, ref = ([s.xi for s in eig.solutions] for eig in eigs)
        assert match_solution_sets(got, ref, 1e-10)

    @pytest.mark.parametrize("n", [4, 6])
    def test_overflow_raises_before_defect(self, n):
        # a numerator scaled by 1e150 takes M to 1e150-1e154, and the fill
        # overflows. The count of entries that are not finite is the one
        # over the oracle T^T, before the mixing turns them into NaN in R,
        # and the error is the plain NumericalError, ahead of the defect
        # test; a RuntimeWarning of the fill would fail the test
        tf = pole_pair_system(np.random.default_rng(5), n)
        sys = pole_system(validate(TransferFunction(
            Polynomial(tf.numerator.coeffs * 1e150), tf.denominator)))
        comb = combine(sys)
        with np.errstate(over="ignore", invalid="ignore"):
            t = combination_transpose(kept_matrices(sys), _combination_weights(sys.conj, 0))
        bad = int(np.count_nonzero(~np.isfinite(t)))
        assert 0 < bad < t.size and comb.nonfinite_entries == bad
        # the defect of such an R means nothing (NaN here)
        assert not comb.conjugation_defect <= TOL.conjugation
        with pytest.raises(NumericalError) as exc:
            common_eigen_solutions(comb)
        assert type(exc.value) is NumericalError
        assert exc.value.diagnostics == {"nonfinite_entries": bad,
                                         "max_abs_m": float(np.abs(sys.m).max())}

    def test_eigen_stage_memory_bound(self, example1_matrices):
        # the eigen stage reads R as the fill left it, with no complex T^T
        # and no copy: it allocates eig's complex eigenvectors, 16 D^2
        # bytes, and little else
        comb = combine(example1_matrices.system)
        tracemalloc.start()
        try:
            common_eigen_solutions(comb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 512**2 + 2**20

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
        undeclared = DiagQuadSystem(build_M(sys))
        with pytest.raises(ConjugationDefectError) as exc:
            common_eigen_solutions(combine(undeclared))
        assert exc.value.diagnostics["conjugation_defect"] > 1e-10
        # the defect is the oracle's, bit for bit: no pairs to mix, and the
        # imaginary part of T^T against its real part
        c = _combination_weights(undeclared.conj, 0).real
        _, defect = real_form(combination_transpose(kept_matrices(undeclared), c),
                              basis_conj(undeclared))
        assert float(exc.value.diagnostics["conjugation_defect"]).hex() == float(defect).hex()
        declared = combine(pole_system(sys))
        common_eigen_solutions(declared)
        assert declared.conjugation_defect <= 1e-12


class TestEigenKernelsAgainstLoops:
    """The read-off against the normal-form oracle, and the batched polish,
    residual and dedupe against the one-root-at-a-time loops in oracles.py."""

    @staticmethod
    def assert_roots_of_quotient(sys, xis):
        """At a root xi, the normal form of x_i * b_beta evaluates to
        xi_i * b_beta(xi) for every i and every basis monomial b_beta."""
        n, dim = sys.n_vars, sys.dim
        bits = (np.arange(dim)[:, None] >> np.arange(n)) & 1
        xis = np.array(xis)
        basis = np.prod(np.where(bits == 1, xis[:, None, :], 1.0), axis=2)
        nf_of = monomial_normal_form(sys)
        for i in range(n):
            nf = np.array([nf_of(tuple(int(e) + (k == i) for k, e in enumerate(bits[b])))
                           for b in range(dim)])
            want = xis[:, i:i + 1] * basis
            scale = np.abs(basis) @ np.abs(nf).T + np.abs(want)
            err = np.abs(basis @ nf.T - want) / np.maximum(scale, 1e-300)
            assert np.max(err) <= 1e-10

    def test_readoff_example1(self, example1_matrices):
        eig = common_eigen_solutions(combine(example1_matrices.system))
        # all 2^9 roots, each accepted and none merged with another
        assert len(eig.solutions) == 512 and not eig.rejected
        assert all(s.multiplicity_hint == 1 for s in eig.solutions)
        self.assert_roots_of_quotient(
            example1_matrices.system, [s.xi for s in eig.solutions])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_readoff_random(self, n):
        rng = np.random.default_rng(40 + n)
        sys = random_system(rng, n, with_mu=True)
        eig = common_eigen_solutions(combine(sys))
        assert len(eig.solutions) == 1 << n and not eig.rejected
        self.assert_roots_of_quotient(sys, [s.xi for s in eig.solutions])

    @staticmethod
    def assert_polish_matches_loops(sys, starts):
        """_polish and _residual on the columns of starts equal, byte for
        byte, loop_polish and loop_residual on a contiguous copy of each
        column, and F at each root is the F that loop_residual computes."""
        got, f = _polish(starts, sys)
        loops = [loop_polish(starts[:, c].copy(), sys) for c in range(starts.shape[1])]
        assert got.tobytes() == np.array(loops).reshape(got.shape).tobytes()
        want_f = [x * x - sys.m @ x for x in loops]
        assert f.tobytes() == np.array(want_f).reshape(f.shape).tobytes()
        m_norm = np.linalg.norm(sys.m, np.inf)
        want = np.array([loop_residual(x, sys, m_norm) for x in loops])
        assert _residual(got, f, m_norm).tobytes() == want.tobytes()
        return got

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_polish_matches_loop_example1(self, example1_matrices):
        q = _read_off(combine(example1_matrices.system, 0))
        self.assert_polish_matches_loops(example1_matrices.system, q)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family,n", [("real", n) for n in range(1, 9)]
                             + [("pairs", n) for n in range(2, 9)])
    def test_polish_matches_loop(self, family, n):
        rng = np.random.default_rng(60 + n)
        tf = (random_real_pole_system(rng, n, lo=-6.0) if family == "real"
              else pole_pair_system(rng, n))
        sys = pole_system(validate(tf))
        for seed in (0, 1):
            q = _read_off(combine(sys, seed))
            assert np.isfinite(q).all()
            self.assert_polish_matches_loops(sys, q)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("dense", [False, True])
    def test_polish_singular_and_overflowing_starts(self, dense):
        """Row 0 of M is m_00 e_0, so 2 x_0 = m_00 makes the Jacobian exactly
        singular at the start, and 1e200 overflows F; either way the loop
        returns the start as it is, and so must the batch that holds them.
        M is diagonal, or dense and in Fortran order: at N = 6 BLAS then
        rounds M x for a strided x differently than for a contiguous one."""
        rng = np.random.default_rng(4)
        m = np.diag([3.0, -5.0, 7.0, 2.0, -4.0, 6.0])
        if dense:
            m[1:] += rng.standard_normal((5, 6))
            m = np.asfortranarray(m)
        sys = DiagQuadSystem(m)
        starts = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        starts[0, 1::2] = 1.5                      # 2 * 1.5 = m_00
        got = self.assert_polish_matches_loops(sys, starts)
        assert got[1::2].tobytes() == starts[:, 1::2].T.tobytes()
        starts[:, 2] = [1e200, 1.0, 2.0, 3.0, 4.0, 5.0]
        with np.errstate(over="ignore", invalid="ignore"):
            got = self.assert_polish_matches_loops(sys, starts)
        assert got[2].tobytes() == starts[:, 2].tobytes()

    @pytest.mark.parametrize("family", ["real", "pairs"])
    def test_polish_independent_of_layout(self, family):
        """Roots that no Newton step improves come back as they are, with
        the same F, whether the starts are in C or in Fortran order. M is in
        Fortran order, as build_M returns it: BLAS then rounds M x for a
        strided x differently than for a contiguous one."""
        rng = np.random.default_rng(66)
        tf = (random_real_pole_system(rng, 6, lo=-6.0) if family == "real"
              else pole_pair_system(rng, 6))
        v = validate(tf)
        sys = DiagQuadSystem(np.asfortranarray(build_M(v)), conj=v.conj_perm)
        roots, _ = _polish(_read_off(combine(sys, 0)), sys)
        # polish again until no step improves any root
        for _ in range(8):
            again, _ = _polish(np.asfortranarray(roots.T), sys)
            if again.tobytes() == roots.tobytes():
                break
            roots = again
        else:
            pytest.fail("the polished roots did not settle")
        (x_c, f_c), (x_f, f_f) = (_polish(order(roots.T), sys)
                                  for order in (np.ascontiguousarray, np.asfortranarray))
        assert x_c.tobytes() == x_f.tobytes() == roots.tobytes()
        assert f_c.tobytes() == f_f.tobytes()

    def test_row_norms_match_linalg_norm(self):
        rng = np.random.default_rng(6)
        z = ((rng.standard_normal((500, 7)) + 1j * rng.standard_normal((500, 7)))
             * np.exp(rng.uniform(-20, 20, (500, 7))))
        want = np.array([np.linalg.norm(r) for r in z])
        assert _norms(z).tobytes() == want.tobytes()

    @staticmethod
    def dedupe_cases():
        cl = TOL.merge
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
        counts = _dedupe(np.array([s.xi for s in sols]).reshape(len(sols), -1), TOL.merge)
        got = [replace(s, multiplicity_hint=int(c)) for s, c in zip(sols, counts) if c]
        ref = loop_dedupe(sols, TOL.merge)
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
        assert _dedupe(np.zeros((0, 2), dtype=complex), TOL.merge).size == 0
        assert loop_dedupe([], TOL.merge) == []

    def test_dedupe_random_sets(self, monkeypatch):
        """300 sets: N = 1..9, roots at scales 1e-12 to 1e5, some conjugated
        (same norm, distinct), copies moved by up to 3 TOL.merge of their norm,
        and one zero root each. Also with blocks of 3 candidate pairs, so the
        sets span many blocks."""
        rng = np.random.default_rng(13)
        sets, n_copies = [], 0
        for _ in range(300):
            n, k, c = (int(v) for v in rng.integers(1, [10, 9, 12]))
            base = ((rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))
                    * 10.0 ** rng.uniform(-12, 5, (k, 1)))
            copies = base[rng.integers(0, k, c)]
            n_copies += c
            u = rng.uniform(-1, 1, copies.shape) + 1j * rng.uniform(-1, 1, copies.shape)
            copies += (u / np.abs(u).max(axis=1, keepdims=True)
                       * rng.uniform(0, 3, (c, 1)) * TOL.merge
                       * np.abs(copies).max(axis=1, keepdims=True))
            xis = np.concatenate([base, base[:k // 2].conj(), copies, np.zeros((1, n))])
            sets.append([EigenSolution(xi=x, residual=float(i), multiplicity_hint=1)
                         for i, x in enumerate(xis[rng.permutation(len(xis))])])
        merged = sum(len(sols) - len(self.assert_same_dedupe(sols)) for sols in sets)
        # the copies land on both sides of TOL.merge
        assert 0.2 * n_copies < merged < 0.8 * n_copies
        monkeypatch.setattr(stetter, "_PAIR_BLOCK", 3)
        for sols in sets:
            self.assert_same_dedupe(sols)


class TestEigenSolutionArrays:
    """The array fields of an EigenSolutionSet against its object views."""

    @staticmethod
    def assert_views_match(eig, dim):
        sols, rejected = eig.solutions, eig.rejected
        assert len(sols) == len(eig.xi) == len(eig.residual) == len(eig.multiplicity_hint)
        assert len(rejected) == len(eig.rejected_xi) == len(eig.rejected_residual)
        for s, x, r, c in zip(sols, eig.xi, eig.residual, eig.multiplicity_hint):
            assert s.xi.tobytes() == x.tobytes()
            assert type(s.residual) is float and s.residual == r <= TOL.eig_residual
            assert type(s.multiplicity_hint) is int and s.multiplicity_hint == c >= 1
        for s, x, r in zip(rejected, eig.rejected_xi, eig.rejected_residual):
            assert s.xi.tobytes() == x.tobytes()
            assert type(s.residual) is float and s.residual.hex() == float(r).hex()
            assert not s.residual <= TOL.eig_residual and s.multiplicity_hint == 1
        # every eigenvector is a root, a copy merged into one, or a rejection
        assert sum(s.multiplicity_hint for s in sols) + len(rejected) == dim

    def test_example1(self, example1_matrices):
        eig = common_eigen_solutions(combine(example1_matrices.system))
        assert len(eig.xi) == 512 and len(eig.rejected_xi) == 0
        self.assert_views_match(eig, 512)

    def test_short_ledger(self):
        # the seed-7 N = 6 system of test_lost_roots_fail_loudly (exit 4): at
        # eigen seed 2 the read-off rejects 2 eigenvectors and merges 7
        sys = pole_system(validate(random_real_pole_system(
            np.random.default_rng(7), 6, lo=-6, hi=-0.5)))
        eig = common_eigen_solutions(combine(sys, seed=2))
        assert len(eig.rejected_xi) > 0 and np.any(eig.multiplicity_hint > 1)
        self.assert_views_match(eig, 64)

    @pytest.mark.parametrize("rng, n, seed, complete", [
        (None, 9, 0, True),     # example 1
        (7, 6, 2, False),       # roots rejected and merged
        (8, 5, 0, False),       # 32 distinct tuples, three of them at zero
    ], ids=["example1", "short", "two-at-zero"])
    def test_ledger(self, example1_matrices, rng, n, seed, complete):
        sys = example1_matrices.system if rng is None else pole_system(validate(
            random_real_pole_system(np.random.default_rng(rng), n, lo=-6, hi=-0.5)))
        eig = common_eigen_solutions(combine(sys, seed=seed))
        ledger = eig.ledger
        assert list(ledger) == ["found", "rejected", "merged", "at_zero"]
        assert all(type(v) is int for v in ledger.values())
        assert ledger["found"] + ledger["rejected"] + ledger["merged"] == 2**n
        assert eig.at_zero.dtype == bool and eig.at_zero.shape == (ledger["found"],)
        sizes = np.abs(eig.xi).max(axis=1)
        assert sizes[eig.at_zero].max(initial=0.0) <= TOL.zero_solution * (1 + sizes.max())
        assert sizes[~eig.at_zero].min() > TOL.zero_solution * (1 + sizes.max())
        assert eig.complete is complete
        assert complete == (ledger["found"] == 2**n and ledger["at_zero"] == 1)
        if rng == 8:
            assert ledger["found"] == 2**n and ledger["at_zero"] == 3


class TestEvaluatePolyAtMatrices:
    def test_scalar_consistency(self):
        # f evaluated at the matrices has f(solution) among its eigenvalues
        rng = np.random.default_rng(12)
        m = rng.uniform(-2, 2, size=(2, 2))
        sys = DiagQuadSystem(m)
        mm = kept_matrices(sys)
        fa = evaluate_poly_at_matrices({(2, 1): 1.0, (1, 0): -0.5, (0, 0): 0.3}, mm)
        eigs = np.linalg.eigvals(fa)
        for x in elimination_solutions_n2(m):
            fx = x[0] ** 2 * x[1] - 0.5 * x[0] + 0.3
            assert np.min(np.abs(eigs - fx)) <= 1e-6 * (1 + abs(fx))

    def test_variable_count_mismatch(self):
        mm = kept_matrices(DiagQuadSystem(np.eye(2)))
        with pytest.raises(ValueError):
            evaluate_poly_at_matrices({(1,): 1.0}, mm)


class TestCriticalValueMatrix:
    def test_eigenvalues_are_cubic_values(self):
        rng = np.random.default_rng(25)
        m = rng.uniform(-2, 2, size=(2, 2))
        mm = kept_matrices(DiagQuadSystem(m))
        w = rng.uniform(-1, 1, size=2)
        eigs = np.linalg.eigvals(build_critical_value_matrix(mm, w))
        for x in elimination_solutions_n2(m):
            val = w[0] * x[0] ** 3 + w[1] * x[1] ** 3
            assert np.min(np.abs(eigs - val)) <= 1e-6 * (1 + abs(val))

    @pytest.mark.parametrize("n,alpha", [(4, 0.5), (4, 0.8), (5, 0.6), (6, 0.6)])
    def test_relaxation_matrix_is_real(self, n, alpha):
        # real poles: real weights and real blocks keep A_F float64; its
        # eigenvalues are those that complex blocks give, to rounding. At
        # larger alpha the spectrum of A_F is ill-conditioned, and the two
        # eig paths drift apart by up to 6e-9 of its scale at N = 6, 7
        sys = validate(generate_relaxation(n, alpha))
        mm = pole_matrices(sys)
        w = criterion_weights(sys)
        a_f = build_critical_value_matrix(mm, w)
        assert a_f.dtype == np.float64
        ref_f = build_critical_value_matrix(
            MultiplicationMatrices(mm.system, mm.rows.astype(complex)), w)
        assert ref_f.dtype == np.complex128
        # every eigenvalue of each lies next to one of the other; values at
        # near-equal roots cluster, so they are not paired one to one
        got, ref = np.linalg.eigvals(a_f), np.linalg.eigvals(ref_f)
        gap = np.abs(got[:, None] - ref[None, :])
        assert max(gap.min(axis=0).max(), gap.min(axis=1).max()) <= 1e-10 * np.abs(ref).max()

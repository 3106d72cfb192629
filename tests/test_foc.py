import numpy as np
import pytest

from conftest import random_real_pole_system, random_stable_system
from oracles import elimination_solutions_n2, foc_residual, loop_recover
from h2reduce import (
    CriticalPoint,
    DegenerateLeadingCoefficientError,
    DiagQuadSystem,
    IllConditionedError,
    Polynomial,
    TransferFunction,
    build_M,
    combine,
    common_eigen_solutions,
    eval_poly,
    generate_relaxation,
    recover_candidate,
    recover_candidates,
    solve_reduction,
    validate,
)
from h2reduce.tolerances import TOL


def two_pole_system():
    # poles -1, -2; numerator s+3
    return validate(TransferFunction(Polynomial([1.0, 3.0]), Polynomial([1.0, 3.0, 2.0])))


class TestBuildM:
    def test_scalar_case(self):
        sys = validate(TransferFunction(Polynomial([4.0]), Polynomial([1.0, 1.0])))
        m = build_M(sys)
        assert m.shape == (1, 1)
        assert m[0, 0] == pytest.approx(4.0)

    def test_hand_checked_2x2(self):
        m = build_M(two_pole_system())
        # poles sorted (-2, -1): rows follow that order
        p = two_pole_system().poles
        # reorder reference [[6,-4],[4,-3]] (stated for pole order (-1,-2))
        ref = np.array([[6.0, -4.0], [4.0, -3.0]])
        idx = [int(np.argmin(np.abs(p - t))) for t in (-1.0, -2.0)]
        reordered = ref[np.ix_(np.argsort(idx), np.argsort(idx))]
        assert np.allclose(m, reordered, atol=1e-10)

    def test_defining_relation(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            sys = validate(random_stable_system(rng, int(rng.integers(2, 6))))
            m = build_M(sys)
            v_plus = np.vander(sys.poles, sys.n, increasing=True)
            v_minus = np.vander(-sys.poles, sys.n, increasing=True)
            lhs = m @ v_minus
            rhs = sys.e_at_poles[:, None] * v_plus
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            sys = validate(random_stable_system(rng, 5))
            m = build_M(sys)
            p = sys.conj_perm
            assert np.allclose(np.conj(m)[np.ix_(p, p)], m, atol=1e-8)

    def test_ill_conditioned_vandermonde_pair_raises(self):
        # relaxation poles alpha^(2j) crowd towards 0 as alpha shrinks; at
        # N = 6, alpha = 0.30 the defining relation holds only to ~1.9e-6
        with pytest.raises(IllConditionedError) as exc:
            build_M(validate(generate_relaxation(6, 0.30)))
        resid = exc.value.diagnostics["build_m_residual"]
        assert resid > TOL.build_m_residual
        assert resid == pytest.approx(1.9e-6, rel=0.1)


class TestRecoverCandidate:
    def test_round_trip_from_known_a(self):
        sys = two_pole_system()
        a = Polynomial([1.0, 1.3])       # monic, Hurwitz
        q0 = 0.8
        xi = np.array([q0 * eval_poly(a, -p) for p in sys.poles])
        cp = recover_candidate(sys, xi)
        assert np.allclose(cp.a.coeffs, a.coeffs, atol=1e-8)
        assert cp.q0 == pytest.approx(q0, abs=1e-8)
        assert cp.is_real and cp.is_hurwitz

    def test_scaling_absorbed_by_q0(self):
        sys = two_pole_system()
        xi = np.array([0.3, -1.1])
        c1 = recover_candidate(sys, xi)
        c2 = recover_candidate(sys, 2.0 * xi)
        assert np.allclose(c1.a.coeffs, c2.a.coeffs, atol=1e-10)
        assert c2.q0 == pytest.approx(2.0 * c1.q0)

    def test_degenerate_q0_rejected(self):
        sys = two_pole_system()
        # xi built from an atilde with vanishing leading coefficient
        v_minus = np.vander(-sys.poles, sys.n, increasing=True)
        xi = v_minus @ np.array([1.0, 0.0])
        with pytest.raises(DegenerateLeadingCoefficientError):
            recover_candidate(sys, xi)

    def test_denominator_exactly_monic(self):
        # dividing by this q0 leaves 1 - eps as the leading coefficient
        sys = two_pole_system()
        a = Polynomial([1.0, 1.3])
        q0 = 0.18212704632184262 - 7.514334470008722e-09j
        xi = np.array([q0 * eval_poly(a, -p) for p in sys.poles])
        assert recover_candidate(sys, xi).a.coeffs[0] == 1.0

    def test_non_hurwitz_flagged(self):
        sys = two_pole_system()
        a = Polynomial([1.0, -0.5])  # root at +0.5
        xi = np.array([eval_poly(a, -p) for p in sys.poles])
        cp = recover_candidate(sys, xi)
        assert cp.is_real and not cp.is_hurwitz


class TestFocResidual:
    def test_exact_critical_points(self):
        # every elimination-oracle solution satisfies the defining equation
        sys = two_pole_system()
        m = build_M(sys)
        for xi in elimination_solutions_n2(m):
            if np.max(np.abs(xi)) < 1e-8:
                continue
            cp = recover_candidate(sys, xi)
            assert foc_residual(sys, cp) <= 1e-10
            assert cp.ls_residual <= 1e-10

    def test_generic_triple_fails(self):
        sys = two_pole_system()
        cp = CriticalPoint(
            xi=np.array([1.0, 1.0]),
            a=Polynomial([1.0, 0.7]),
            b=Polynomial([0.9]),
            q0=1.1,
            criterion=0.0,
            is_real=True,
            is_hurwitz=True,
            ls_residual=0.0,
        )
        assert foc_residual(sys, cp) > 1e-3

    def test_defining_relations_hold_at_recovered_points(self):
        # x_i^2 = (M x)_i within 1e-6 relative at each recovered candidate
        from h2reduce import DiagQuadSystem, combine, common_eigen_solutions
        rng = np.random.default_rng(77)
        sys = validate(random_stable_system(rng, 4))
        m = build_M(sys)
        for s in common_eigen_solutions(combine(DiagQuadSystem(m, conj=sys.conj_perm))).solutions:
            x = s.xi
            if np.max(np.abs(x)) < 1e-9:
                continue
            resid = np.abs(x**2 - m @ x)
            assert np.max(resid) <= 1e-6 * (1 + np.max(np.abs(x)) ** 2)


def nonzero_roots(sys):
    """The eigen stage's nonzero tuples of sys, as a (k, N) array."""
    comb = combine(DiagQuadSystem(build_M(sys), conj=sys.conj_perm))
    xis = np.array([s.xi for s in common_eigen_solutions(comb).solutions])
    return xis[np.abs(xis).max(axis=1) > 1e-9 * (1.0 + np.abs(xis).max())]


def assert_matches_loop(sys, xis):
    """recover_candidates against the one-tuple-at-a-time oracle: a, q0, phi
    and the flags bit-identical, b within 1e-13 relative, ls_residual within
    1e-14 absolute, the same degenerate count and the same order."""
    got, degenerate = recover_candidates(sys, xis)
    want, degenerate_ref = loop_recover(sys, xis)
    assert degenerate == degenerate_ref
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.xi.tobytes() == w.xi.tobytes()
        assert g.a.coeffs.dtype == w.a.coeffs.dtype
        assert g.a.coeffs.tobytes() == w.a.coeffs.tobytes()
        assert type(g.q0) is type(w.q0) and np.asarray(g.q0).tobytes() == np.asarray(w.q0).tobytes()
        assert np.asarray(g.criterion).tobytes() == np.asarray(w.criterion).tobytes()
        assert (g.is_real, g.is_hurwitz) == (w.is_real, w.is_hurwitz)
        assert g.b.coeffs.dtype == w.b.coeffs.dtype and g.b.coeffs.shape == w.b.coeffs.shape
        assert np.max(np.abs(g.b.coeffs - w.b.coeffs)) <= 1e-13 * np.max(np.abs(w.b.coeffs))
        assert abs(g.ls_residual - w.ls_residual) <= 1e-14
    return got, degenerate


class TestRecoverCandidates:
    def test_example1_matches_loop(self, example1_report, example1_system):
        xis = np.array([cp.xi for cp in example1_report.candidates])
        assert xis.shape == (511, 9)
        assert_matches_loop(example1_system, xis)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_random_systems_match_loop(self, n):
        rng = np.random.default_rng(300 + n)
        for tf in (random_stable_system(rng, n),
                   random_real_pole_system(rng, n, lo=-6.0, hi=-0.5)):
            sys = validate(tf)
            assert_matches_loop(sys, nonzero_roots(sys))
            assert_matches_loop(sys, rng.standard_normal((12, n))
                                + 1j * rng.standard_normal((12, n)))

    def test_mixed_batch(self):
        sys = validate(random_real_pole_system(np.random.default_rng(15), 4))
        best = solve_reduction(sys).global_candidate

        def tuple_of(roots, q0=0.7):
            a = Polynomial(np.poly(roots))
            return np.array([q0 * eval_poly(a, -p) for p in sys.poles])

        xis = np.array([
            tuple_of([-1.0, -2.0, -3.0]),                        # fitted badly
            np.vander(-sys.poles, 4, increasing=True) @ [1.0, 0.5, 0.0, 0.0],  # q0 = 0
            tuple_of([0.5, -1.0, -2.0]),                         # unstable
            best.xi,
            np.random.default_rng(1).standard_normal(4) + 1j,    # complex
        ])
        got, degenerate = assert_matches_loop(sys, xis)
        assert degenerate == 1
        assert [cp.rejection for cp in got] == ["high-residual", "non-hurwitz", None, "complex"]
        assert got[2].criterion == best.criterion

    def test_degree_one_denominator(self):
        sys = two_pole_system()
        got, _ = assert_matches_loop(sys, nonzero_roots(sys))
        assert len(got) == 3 and all(cp.a.degree == 1 for cp in got)

    def test_no_tuples(self):
        sys = two_pole_system()
        assert recover_candidates(sys, np.zeros((0, 2))) == ([], 0)
        assert_matches_loop(sys, np.zeros((0, 2)))

    def test_lapack_calls_do_not_grow_with_the_batch(self, monkeypatch):
        calls = {}

        def counted(mod, name):
            fn = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(mod, name, wrapper)

        for name in ("solve", "lstsq", "eigvals", "eig"):
            counted(np.linalg, name)
        counted(np, "roots")
        sys = validate(random_real_pole_system(np.random.default_rng(15), 4))
        rng = np.random.default_rng(2)
        counts = []
        for k in (3, 60):
            calls.clear()
            recover_candidates(sys, rng.standard_normal((k, 4)))
            counts.append(dict(calls))
        assert counts[0] == counts[1] == {"solve": 1, "lstsq": 1, "eigvals": 1}

import inspect
from math import comb

import numpy as np
import pytest

from conftest import random_real_pole_system, random_stable_system
from h2reduce import (
    ConjugationDefectError,
    CriticalPoint,
    DefectiveEigenstructureError,
    DiagQuadSystem,
    InputError,
    NoAdmissibleSolutionError,
    NumericalError,
    Polynomial,
    TransferFunction,
    build_M,
    build_critical_value_matrix,
    build_multiplication_matrices,
    common_eigen_solutions,
    generate_relaxation,
    h2_distance,
    recover_candidates,
    select_global,
    solve_reduction,
    validate,
)
from dataclasses import replace

import h2reduce.foc as foc_mod
import h2reduce.reduce as reduce_mod
import h2reduce.stetter as stetter
from h2reduce.foc import critical_values, criterion_weights
from h2reduce.tolerances import TOL


def make_candidate(phi, real=True, hurwitz=True):
    """Synthetic candidate for exercising the selection in isolation."""
    return CriticalPoint(
        xi=np.array([1.0 + 0j]),
        a=Polynomial([1.0, 1.0]),
        b=Polynomial([1.0]),
        q0=1.0,
        criterion=complex(phi),
        is_real=real,
        is_hurwitz=hurwitz,
        ls_residual=0.0,
    )


class TestCriticalValue:
    def test_zero(self):
        sys = validate(TransferFunction(Polynomial([1.0, 3.0]),
                                        Polynomial([1.0, 3.0, 2.0])))
        assert critical_values(sys, np.zeros(2)) == 0.0

    def test_conjugate_pairing(self):
        # conjugate-permuted tuples give conjugate values
        sys = validate(TransferFunction(Polynomial([1.0, 0.5, 1.0]),
                                        Polynomial([1.0, 2.5, 3.0, 2.0])))
        rng = np.random.default_rng(1)
        xi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        xi_conj = np.conj(xi)[sys.conj_perm]
        assert critical_values(sys, xi_conj) == pytest.approx(
            np.conj(critical_values(sys, xi)), rel=1e-10)

    def test_equals_squared_distance_at_critical_points(self):
        rng = np.random.default_rng(6)
        sys = validate(random_real_pole_system(rng, 3))
        rep = solve_reduction(sys)
        for cp in rep.admissible:
            d = h2_distance(sys, TransferFunction(cp.b, cp.a))
            assert cp.criterion.real == pytest.approx(
                d**2, abs=1e-6 * (1 + cp.criterion.real))


class TestSelectGlobal:
    def test_single_admissible_wins(self):
        cands = [
            make_candidate(0.1, real=False),
            make_candidate(0.5),
            make_candidate(0.2 + 0.3j, real=False),
        ]
        assert select_global(cands) is cands[1]

    def test_walk_skips_inadmissible_levels(self):
        cands = [
            make_candidate(0.05, real=False),           # complex, smallest
            make_candidate(0.10, hurwitz=False),        # real non-Hurwitz
            make_candidate(0.20),                        # first admissible
            make_candidate(0.90),
        ]
        assert select_global(cands).criterion.real == pytest.approx(0.20)

    def test_increasing_order(self):
        cands = [make_candidate(0.9), make_candidate(0.3), make_candidate(0.6)]
        assert select_global(cands).criterion.real == pytest.approx(0.3)

    def test_empty(self):
        assert select_global([make_candidate(0.4, real=False)]) is None


class TestSolveReduction:
    def test_global_dominates_admissible(self):
        rng = np.random.default_rng(15)
        for _ in range(3):
            sys = validate(random_real_pole_system(rng, 4))
            rep = solve_reduction(sys)
            assert all(rep.global_error <= cp.error + 1e-12 for cp in rep.admissible)
            assert rep.global_candidate.is_admissible

    def test_lost_roots_fail_loudly(self):
        # cond M = 7.0e9: the read-off finds 55 to 64 distinct roots of 64 at
        # eigen seeds 0-5, with merged or rejected eigenvectors or extra
        # copies of xi = 0, so every seed tried ends in exit 4. A solve that
        # went on without the lost roots could miss the optimum phi =
        # 7.9009e-8, so it must end in a numerical error, never in "no
        # admissible point" or a higher phi
        sys = validate(random_real_pole_system(
            np.random.default_rng(7), 6, lo=-6, hi=-0.5))
        for seed in range(6):
            try:
                rep = solve_reduction(sys, seed=seed)
            except NumericalError:
                continue
            assert rep.global_candidate.criterion.real == pytest.approx(7.9009e-8, rel=1e-3)

    def test_defective_error_carries_its_ledger(self):
        sys = validate(random_real_pole_system(
            np.random.default_rng(7), 6, lo=-6, hi=-0.5))
        with pytest.raises(DefectiveEigenstructureError) as exc:
            solve_reduction(sys, seed=1, method="cvm")
        d = exc.value.diagnostics
        assert d["seed"] == 1 and d["method"] == "cvm"
        # every eigenvector is a root found, a rejection or a merged copy
        assert d["found"] + d["rejected"] + d["merged"] == 2**6
        assert d["found"] != 2**6 or d["at_zero"] != 1
        assert d["conjugation_defect"] == 0.0       # real poles: T is real
        assert "n_candidates" not in d

    @pytest.mark.parametrize("method", ["enum", "cvm"])
    @pytest.mark.parametrize("size", [1e-12, 1e-6, 1e-1])
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_defective_build_never_exits_0(self, monkeypatch, n, size, method):
        # matrices that do not commute, as a faulty fill would leave them:
        # each degree level the fill builds gets a real random perturbation
        # of the given size relative to that level (Frobenius), which flows
        # into the levels above it, into T^T and, for cvm, into the kept
        # matrices. The poles are real, so the identity conjugation leaves R
        # real and the conjugation check cannot fire; the root ledger must
        # stop the solve unless the optimum survives
        sys = validate(generate_relaxation(n, 0.8))
        phi = solve_reduction(sys).global_candidate.criterion.real
        build = stetter._next_level
        rng = np.random.default_rng(n)
        built = []

        def defective(*args):
            rows = build(*args)
            e = rng.standard_normal(rows.shape)
            rows += (size * np.linalg.norm(rows) / np.linalg.norm(e)) * e
            built.append(len(rows))
            return rows

        monkeypatch.setattr(stetter, "_next_level", defective)
        try:
            rep = solve_reduction(sys, method=method)
        except NumericalError as exc:
            assert not isinstance(exc, ConjugationDefectError)
            rep = None
        # the solve ran the one fill, and every level above 0 went through it
        assert built == [lv * comb(n, lv) for lv in range(1, n + 1)]
        if rep is not None:
            assert rep.global_candidate.criterion.real == pytest.approx(phi, rel=1e-8)

    def test_extra_zero_tuples_fail_loudly(self):
        # cond M = 5.6e8: at eigen seeds 1 and 5 the read-off returns 32
        # distinct tuples, two of them at the simple root xi = 0, one copy
        # standing in for a root never found; at seed 0 it finds 31 of 32.
        # The ledger stops those solves (exit 4). Seed 2 finds all 32 and
        # exits 0 with phi = 7.64e-8, and on every exit 0 each of the 31
        # nonzero roots yields a candidate or a degenerate q0
        sys = validate(random_real_pole_system(
            np.random.default_rng(8), 5, lo=-6, hi=-0.5))
        for seed in range(6):
            try:
                rep = solve_reduction(sys, seed=seed)
            except NumericalError:
                continue
            assert (len(rep.candidates)
                    + rep.diagnostics["degenerate_q0_rejections"]) == 2**5 - 1

    def test_count_bound(self):
        rng = np.random.default_rng(16)
        sys = validate(random_stable_system(rng, 5))
        rep = solve_reduction(sys)
        assert len(rep.candidates) + rep.diagnostics["degenerate_q0_rejections"] == 2**5 - 1

    def test_determinism(self):
        rng = np.random.default_rng(18)
        tf = random_stable_system(rng, 4)
        r1 = solve_reduction(validate(tf), seed=3)
        r2 = solve_reduction(validate(tf), seed=3)
        assert len(r1.candidates) == len(r2.candidates)
        for a, b in zip(r1.candidates, r2.candidates):
            assert np.array_equal(a.xi, b.xi)
        assert np.array_equal(r1.global_candidate.a.coeffs,
                              r2.global_candidate.a.coeffs)
        assert r1.critical_values_sorted == r2.critical_values_sorted

    def test_relative_error_uses_system_norm(self):
        rng = np.random.default_rng(20)
        sys = validate(random_real_pole_system(rng, 3))
        rep = solve_reduction(sys)
        assert rep.relative_error == pytest.approx(
            rep.global_error / rep.system_norm)

    def test_cvm_agrees_with_enum_when_well_conditioned(self):
        rng = np.random.default_rng(22)
        sys = validate(random_real_pole_system(rng, 3))
        r_enum = solve_reduction(sys, method="enum")
        r_cvm = solve_reduction(sys, method="cvm")
        assert r_cvm.global_error == pytest.approx(r_enum.global_error, rel=1e-6)

    def test_no_admissible_raises_with_diagnostics(self, monkeypatch):
        # realness tolerance of zero rejects every candidate of a system
        # whose recovered coefficients carry float-level imaginary noise
        tf = TransferFunction(Polynomial([1.0, 0.5, 1.0]),
                              Polynomial([1.0, 2.5, 3.0, 2.0]))
        monkeypatch.setattr(foc_mod, "TOL", replace(TOL, real=0.0))
        with pytest.raises(NoAdmissibleSolutionError) as exc:
            solve_reduction(validate(tf))
        assert "rejections" in exc.value.diagnostics

    def test_unknown_method(self):
        rng = np.random.default_rng(34)
        sys = validate(random_real_pole_system(rng, 2))
        with pytest.raises(ValueError):
            solve_reduction(sys, method="nope")

    def test_report_fields_populated(self):
        rng = np.random.default_rng(35)
        sys = validate(random_real_pole_system(rng, 3))
        rep = solve_reduction(sys, seed=5)
        assert rep.system_norm > 0
        assert rep.global_candidate in rep.admissible
        assert rep.critical_values_sorted == sorted(rep.critical_values_sorted)
        assert rep.diagnostics["seed"] == 5
        assert len(rep.candidates) + rep.diagnostics["degenerate_q0_rejections"] == 2**3 - 1
        assert rep.approximant.denominator.degree == 2

    def test_first_order_input_rejected_before_build(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("build_M reached")
        monkeypatch.setattr(reduce_mod, "build_M", no_build)
        sys = validate(TransferFunction(Polynomial([4.0]), Polynomial([1.0, 1.0])))
        with pytest.raises(InputError, match="order >= 2"):
            solve_reduction(sys)

    @pytest.mark.parametrize("method", ["enum", "cvm"])
    def test_stage_timings(self, method):
        sys = validate(random_real_pole_system(np.random.default_rng(35), 3))
        d = solve_reduction(sys, method=method).diagnostics
        stages = ["build_M", "build_mult", "eigen", "recover", "select"]
        if method == "cvm":
            stages.insert(3, "cvm")
        assert list(d["stage_s"]) == stages
        assert all(v >= 0 for v in d["stage_s"].values())
        assert sum(d["stage_s"].values()) == pytest.approx(d["elapsed_s"], rel=1e-9)

    def test_cvm_mismatch_carries_diagnostics(self):
        # a generic N = 4 system: A_F's eigenvalues drift from the pointwise
        # values. The candidates are those of the enum solve, in its order
        sys = validate(random_real_pole_system(np.random.default_rng(0), 4))
        with pytest.raises(NumericalError) as exc:
            solve_reduction(sys, seed=2, method="cvm")
        d = exc.value.diagnostics
        assert d["seed"] == 2 and d["method"] == "cvm"
        phi = np.array([cp.criterion for cp in solve_reduction(sys, seed=2).candidates])
        mm = build_multiplication_matrices(DiagQuadSystem(build_M(sys)))
        vals = np.linalg.eigvals(build_critical_value_matrix(mm, criterion_weights(sys)))
        gap = np.abs(vals[None, :] - phi[:, None]).min(axis=1) / (1.0 + np.abs(phi))
        bad = np.flatnonzero(gap > TOL.cvm_gap)
        assert bad.size > 0
        assert d["first_mismatch"] == bad[0]
        assert d["mismatched"] == bad.size
        assert d["worst_gap"] == pytest.approx(gap.max(), rel=1e-12)
        assert f"relative gap {gap[bad[0]]:.3e}" in str(exc.value)

    def test_cvm_match_works_in_blocks(self, monkeypatch):
        sys = validate(random_real_pole_system(np.random.default_rng(22), 3))
        whole = solve_reduction(sys, method="cvm")
        monkeypatch.setattr(reduce_mod, "_MATCH_BLOCK", 1)
        blocked = solve_reduction(sys, method="cvm")
        assert [cp.criterion for cp in blocked.candidates] == [
            cp.criterion for cp in whole.candidates]


@pytest.mark.parametrize("func", [validate, build_M, recover_candidates,
                                  common_eigen_solutions, select_global, solve_reduction],
                         ids=lambda f: f.__name__)
def test_thresholds_are_not_parameters(func):
    # the library's counterpart of the command line's fixed thresholds: no
    # caller can loosen the table a certificate rests on
    assert "tol" not in inspect.signature(func).parameters

import inspect
import runpy
from math import comb
from pathlib import Path

import numpy as np
import pytest

from conftest import random_real_pole_system, random_stable_system
from oracles import kept_matrices, loop_critical_levels
from h2reduce import (
    CandidateTable,
    ConjugationDefectError,
    DefectiveEigenstructureError,
    DiagQuadSystem,
    InputError,
    NoAdmissibleSolutionError,
    NumericalError,
    Polynomial,
    TransferFunction,
    build_M,
    build_critical_value_matrix,
    combine,
    common_eigen_solutions,
    generate_relaxation,
    h2_distance,
    recover_candidates,
    solve_reduction,
    validate,
)
from dataclasses import replace

import h2reduce.foc as foc_mod
import h2reduce.reduce as reduce_mod
import h2reduce.stetter as stetter
import h2reduce.tf as tf_mod
from h2reduce.errors import H2ReduceError
from h2reduce.foc import critical_values, criterion_weights
from h2reduce.tolerances import TOL


def crafted_table(phi, real=None, hurwitz=None, ls_residual=None) -> CandidateTable:
    """Candidates of the order-3 system ``select_system()`` with the given
    criterion values and admissibility flags (all admissible by default);
    every row holds the same stable a = (s + 0.5)(s + 0.7) and b = s + 1."""
    k = len(phi)
    ones = np.ones(k, dtype=bool)
    return CandidateTable(
        xi=np.ones((k, 3), dtype=complex), a=np.tile([1.0, 1.2, 0.35 + 0j], (k, 1)),
        b=np.tile([1.0, 1.0 + 0j], (k, 1)), q0=np.ones(k, dtype=complex),
        phi=np.array(phi, dtype=complex),
        real=ones if real is None else np.array(real), b_real=ones,
        hurwitz=ones if hurwitz is None else np.array(hurwitz),
        ls_residual=np.zeros(k) if ls_residual is None else np.array(ls_residual),
        poles=np.tile([-0.5, -0.7 + 0j], (k, 1)))


def select_system():
    return validate(TransferFunction(Polynomial([1.0, 4.0]), Polynomial([1.0, 6.0, 11.0, 6.0])))


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
    """The select stage of ``solve_reduction`` on a crafted candidate table."""

    @staticmethod
    def solve(monkeypatch, table):
        monkeypatch.setattr(reduce_mod, "recover_candidates", lambda sys, xis: (table, 0))
        return solve_reduction(select_system())

    def test_single_admissible_wins(self, monkeypatch):
        table = crafted_table([0.1, 0.5, 0.2 + 0.3j], real=[False, True, False])
        rep = self.solve(monkeypatch, table)
        assert rep.global_candidate is table[1]
        assert rep.admissible == [table[1]]

    def test_walk_skips_inadmissible_levels(self, monkeypatch):
        # complex and smallest, real non-Hurwitz, the first admissible, another
        table = crafted_table([0.05, 0.10, 0.20, 0.90], real=[False, True, True, True],
                              hurwitz=[True, False, True, True])
        rep = self.solve(monkeypatch, table)
        assert rep.global_candidate is table[2]
        assert rep.global_error == np.sqrt(0.20)
        # the levels count every rankable phi, admissible or not
        assert rep.critical_values_sorted == [0.05, 0.10, 0.20, 0.90]

    def test_increasing_order(self, monkeypatch):
        # the first of two equal least values wins, as min() takes it
        table = crafted_table([0.9, 0.3, 0.6, 0.3])
        rep = self.solve(monkeypatch, table)
        assert rep.global_candidate is table[1]
        assert rep.admissible == list(table)

    def test_unrankable_admissible_phi_raises(self, monkeypatch):
        # only the admissible phi = 0 counts: the negative complex row is
        # no candidate to rank
        table = crafted_table([-0.1, 0.0, 0.5], real=[False, True, True])
        with pytest.raises(NumericalError, match="cannot be ranked") as exc:
            self.solve(monkeypatch, table)
        assert exc.value.diagnostics["unrankable_criteria"] == 1

    def test_empty(self, monkeypatch):
        table = crafted_table([0.4, 0.2, 0.3, 0.1], real=[False, True, True, False],
                              hurwitz=[True, False, True, True], ls_residual=[0, 0, 1, 0])
        with pytest.raises(NoAdmissibleSolutionError) as exc:
            self.solve(monkeypatch, table)
        d = exc.value.diagnostics
        assert d["n_candidates"] == 4
        assert d["rejections"] == {"complex": 2, "non-hurwitz": 1, "high-residual": 1}
        assert list(d["rejections"]) == ["complex", "non-hurwitz", "high-residual"]


def perfbench_inputs() -> dict:
    """The names of the benchmark's seeded inputs, ``perfbench/inputs.py``."""
    return runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"))


class TestCriticalLevels:
    """``_critical_levels``, the greedy clustering of the real positive phi by
    ``_dedupe``, against the pairwise loop it replaced."""

    @staticmethod
    def levels(phi):
        """The levels of phi as the select stage takes them: its rankable
        values, through the one mask of the solve."""
        phi = np.asarray(phi, dtype=complex)
        return reduce_mod._critical_levels(phi.real[reduce_mod._rankable(phi)])

    def assert_same_levels(self, phi):
        got = self.levels(phi)
        assert got == loop_critical_levels(np.asarray(phi, dtype=complex))
        assert all(type(v) is float for v in got)
        return got

    def test_chain(self):
        # a ~ b ~ c but a !~ c: greedy keeps a and c, unless b comes first
        tol = TOL.value_cluster
        a = 2.0
        b = a * (1.0 + 0.75 * tol)
        c = b * (1.0 + 0.75 * tol)
        assert self.assert_same_levels([a, b, c]) == [a, c]
        assert self.assert_same_levels([c, b, a]) == [a, c]
        assert self.assert_same_levels([b, a, c]) == [b]
        assert self.assert_same_levels([a, c, b, a, c]) == [a, c]

    def test_near_ties(self):
        # m a few ulps either side of |m - u| = tol max(m, u), after u and
        # before it
        tol = TOL.value_cluster
        merged = []
        for u in (3.0, 7e-9, 5e4):
            for edge in (u / (1.0 - tol), u * (1.0 - tol)):
                for k in range(-4, 5):
                    m = edge + k * np.spacing(edge)
                    merged.append(len(self.assert_same_levels([u, m])) == 1)
                    self.assert_same_levels([m, u])
        assert any(merged) and not all(merged)

    def test_negative_complex_and_empty(self):
        assert self.assert_same_levels([]) == []
        assert self.assert_same_levels([-1.0, 0.0, -0.0, 2.0j, 1.0 + 1e-3j, -5.0 + 1e-9j]) == []
        # an imaginary part within TOL.value_real counts as real
        assert self.assert_same_levels([1.0 + 0.5e-6j, 1.0 + 3e-6j, -1.0, 5.0, 1.0]) == [1.0, 5.0]

    def test_nonfinite_phi_is_no_level(self):
        # an overflowed phi neither swallows the finite levels nor reaches
        # the clustering, whose subtraction would warn
        phi = np.array([1, np.inf, 2, np.inf + np.inf * 1j, complex(np.inf, np.inf)])
        assert self.levels(phi) == [1.0, 2.0]

    def test_random_clusters(self):
        tol = TOL.value_cluster
        rng = np.random.default_rng(3)
        for _ in range(100):
            base = 10.0 ** rng.uniform(-12, 3, 5) * rng.choice([-1.0, 1.0], 5)
            phi = (base[rng.integers(0, 5, 30)] * (1.0 + rng.uniform(-3, 3, 30) * tol)
                   + 1j * rng.choice([0.0, 1e-7, 1e-5], 30))
            self.assert_same_levels(phi)

    def test_pipeline_values(self, example1_system):
        """The phi of every root of example 1 and of four random-mixed
        cycles, at eigen seeds 0-2, short ledgers included."""
        cycles = perfbench_inputs()["random_cycles"](np.random.default_rng(1), 4)
        systems = [example1_system] + [
            validate(TransferFunction(Polynomial(list(case.num)), Polynomial(list(case.den))))
            for cycle in cycles for case in cycle]
        compared = 0
        for sysv in systems:
            for seed in range(3):
                try:
                    eig = common_eigen_solutions(combine(
                        DiagQuadSystem(build_M(sysv), conj=sysv.conj_perm), seed))
                except H2ReduceError:
                    continue
                self.assert_same_levels(critical_values(sysv, eig.xi))
                compared += 1
        assert compared >= 100


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
        # the error holds the items of the eigen layer's ledger, and beyond
        # them only what the run measured
        eig = common_eigen_solutions(combine(
            DiagQuadSystem(build_M(sys), conj=sys.conj_perm), seed=1))
        assert not eig.complete
        assert {k: d[k] for k in eig.ledger} == eig.ledger
        assert set(d) - set(eig.ledger) == {
            "seed", "method", "stage_s", "conjugation_defect", "elapsed_s"}

    def test_report_carries_the_ledger(self, example1_report):
        # example 1 and the complex N = 5 system of the first random-mixed
        # cycle, both exit 0 at eigen seed 0
        case = next(c for c in perfbench_inputs()["random_cycles"](
            np.random.default_rng(1), 1)[0] if c.label == "complex-n5")
        mixed = solve_reduction(validate(TransferFunction(
            Polynomial(list(case.num)), Polynomial(list(case.den)))))
        for rep, n in ((example1_report, 9), (mixed, 5)):
            ledger = rep.diagnostics["ledger"]
            assert ledger["found"] == 2**n and ledger["at_zero"] == 1
            assert ledger["found"] + ledger["merged"] + ledger["rejected"] == 2**n

    @pytest.mark.parametrize("tf, seed, method, stage", [
        (generate_relaxation(6, 0.40), 0, "enum", "build_M"),
        (random_real_pole_system(np.random.default_rng(7), 6, lo=-6, hi=-0.5), 1, "cvm",
         "eigen"),
    ], ids=["build_M", "ledger"])
    def test_failure_times_the_stage_that_raised(self, tf, seed, method, stage):
        with pytest.raises(NumericalError) as exc:
            solve_reduction(validate(tf), seed=seed, method=method)
        d = exc.value.diagnostics
        stages = ["build_M", "build_mult", "eigen"]
        assert list(d["stage_s"]) == stages[:stages.index(stage) + 1]
        assert all(v >= 0 for v in d["stage_s"].values())
        assert sum(d["stage_s"].values()) == pytest.approx(d["elapsed_s"], rel=1e-9)

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
        # cond M = 5.6e8: at eigen seeds 0 and 2 the read-off returns 32
        # distinct tuples, three of them at the simple root xi = 0, copies
        # standing in for roots never found; at seeds 1, 3 and 4 it finds 30
        # or 31 of 32. The ledger stops those solves (exit 4). Seed 5 finds
        # all 32 and exits 0 with phi = 7.64e-8, and on every exit 0 each of
        # the 31 nonzero roots yields a candidate or a degenerate q0
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
        d = exc.value.diagnostics
        # rejections are counted by reason, and every candidate has one
        assert list(d["rejections"]) == ["complex", "non-hurwitz", "high-residual"]
        assert sum(d["rejections"].values()) == d["n_candidates"] > 0
        # exit 2 comes after the eigen stage: the error carries the ledger,
        # and its stage times end at select and sum to elapsed_s
        assert d["ledger"] == {"found": 8, "rejected": 0, "merged": 0, "at_zero": 1}
        assert list(d["stage_s"]) == ["build_M", "build_mult", "eigen", "recover", "select"]
        assert sum(d["stage_s"].values()) == pytest.approx(d["elapsed_s"], rel=1e-9)

    def test_unrankable_criterion_is_numerical(self):
        # the enum solve ranks its one admissible candidate at phi = 1.97e-10;
        # cvm puts the nearest eigenvalue of A_F there, about 0, which no
        # ranking can place. That is a numerical failure, not exit 2
        sys = validate(generate_relaxation(4, 0.85))
        phi = [cp.criterion for cp in solve_reduction(sys).admissible]
        assert len(phi) == 1 and 0 < phi[0].real < 1e-9
        with pytest.raises(NumericalError, match="cannot be ranked") as exc:
            solve_reduction(sys, method="cvm")
        d = exc.value.diagnostics
        assert d["unrankable_criteria"] == 1
        assert d["ledger"] == {"found": 16, "rejected": 0, "merged": 0, "at_zero": 1}
        assert d["degenerate_q0_rejections"] == 0
        assert list(d["stage_s"])[-2:] == ["cvm", "select"]

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
        assert rep.global_candidate.a.degree == 2

    def test_first_order_input_rejected_before_build(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("build_M reached")
        monkeypatch.setattr(reduce_mod, "build_M", no_build)
        sys = validate(TransferFunction(Polynomial([4.0]), Polynomial([1.0, 1.0])))
        with pytest.raises(InputError, match="order >= 2"):
            solve_reduction(sys)

    def test_negative_seed_rejected_before_build(self, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("build_M reached")
        monkeypatch.setattr(reduce_mod, "build_M", no_build)
        sys = validate(random_real_pole_system(np.random.default_rng(35), 3))
        with pytest.raises(InputError, match="seed"):
            solve_reduction(sys, seed=-1)

    @pytest.mark.parametrize("method", ["enum", "cvm"])
    def test_stage_timings(self, method):
        sys = validate(random_real_pole_system(np.random.default_rng(35), 3))
        d = solve_reduction(sys, method=method).diagnostics
        stages = ["build_M", "build_mult", "eigen", "recover", "select"]
        if method == "cvm":
            stages.insert(4, "cvm")
        assert list(d["stage_s"]) == stages
        assert all(v >= 0 for v in d["stage_s"].values())
        assert sum(d["stage_s"].values()) == pytest.approx(d["elapsed_s"], rel=1e-9)

    def test_cross_check_is_h2_distance(self, example1_system, example1_report):
        # the cross-check reads the recovery's roots of each admissible a,
        # real ones as float64 as np.roots returns them; its distances are
        # h2_distance's bit for bit, for real-pole and complex-pair
        # approximants alike
        solves = [(example1_system, example1_report)]
        rng = np.random.default_rng(3)
        for n in (4, 5, 6, 4, 5):
            sys = validate(random_stable_system(rng, n))
            solves.append((sys, solve_reduction(sys)))
        kinds = set()
        for sys, rep in solves:
            cross = rep.diagnostics["cross_check"]
            assert len(cross) == len(rep.admissible)
            for idx, cp in enumerate(rep.admissible):
                kinds.add(bool(np.iscomplexobj(np.roots(cp.a.coeffs))))
                dist = h2_distance(sys, TransferFunction(cp.b, cp.a))
                assert cross[idx]["distance"].hex() == dist.hex()
        assert kinds == {False, True}

    @pytest.mark.parametrize("method", ["enum", "cvm"])
    def test_solve_finds_no_root(self, monkeypatch, method):
        sys = validate(random_stable_system(np.random.default_rng(3), 4))

        def no_roots(*args):
            raise AssertionError("a root finder was called")

        monkeypatch.setattr(tf_mod, "roots", no_roots)
        monkeypatch.setattr(np, "roots", no_roots)
        rep = solve_reduction(sys, method=method)
        assert len(rep.diagnostics["cross_check"]) == len(rep.admissible) > 0

    def test_cvm_mismatch_carries_diagnostics(self):
        # a generic N = 4 system: A_F's eigenvalues drift from the pointwise
        # values. The candidates are those of the enum solve, in its order
        sys = validate(random_real_pole_system(np.random.default_rng(0), 4))
        with pytest.raises(NumericalError) as exc:
            solve_reduction(sys, seed=2, method="cvm")
        d = exc.value.diagnostics
        assert d["seed"] == 2 and d["method"] == "cvm"
        phi = np.array([cp.criterion for cp in solve_reduction(sys, seed=2).candidates])
        mm = kept_matrices(DiagQuadSystem(build_M(sys)))
        vals = np.linalg.eigvals(build_critical_value_matrix(mm, criterion_weights(sys)))
        gap = np.abs(vals[None, :] - phi[:, None]).min(axis=1) / (1.0 + np.abs(phi))
        bad = np.flatnonzero(gap > TOL.cvm_gap)
        assert bad.size > 0
        assert d["first_mismatch"] == bad[0]
        assert d["mismatched"] == bad.size
        assert d["worst_gap"] == pytest.approx(gap.max(), rel=1e-12)
        assert f"relative gap {gap[bad[0]]:.3e}" in str(exc.value)


@pytest.mark.parametrize("func", [validate, build_M, recover_candidates,
                                  common_eigen_solutions, solve_reduction],
                         ids=lambda f: f.__name__)
def test_thresholds_are_not_parameters(func):
    # the library's counterpart of the command line's fixed thresholds: no
    # caller can loosen the table a certificate rests on
    assert "tol" not in inspect.signature(func).parameters

"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
"CRITERION k: PASS/FAIL" line (run with -s or read captured output) before
asserting, so the scoreboard is visible even when a criterion fails.
"""

import numpy as np
import pytest

from conftest import random_real_pole_system, random_stable_system
from oracles import (
    annihilation_defect,
    dense_commutation_defect,
    elimination_solutions_n2,
    elimination_solutions_n3,
    expand,
    kept_matrices,
    match_solution_sets,
    monomial_normal_form,
    normal_form,
    projected_global_minimum,
    quad_h2_norm,
    residue_distance_sq,
)
from h2reduce import (
    DiagQuadSystem,
    H2ReduceError,
    Polynomial,
    TransferFunction,
    build_M,
    build_critical_value_matrix,
    combine,
    common_eigen_solutions,
    generate_relaxation,
    h2_distance,
    h2_norm,
    solve_reduction,
    validate,
)
from h2reduce.cli import main as cli_main
from h2reduce.reduce import criterion_weights

EX1_ERRORS = [0.0344, 0.8703, 0.8707, 1.6463, 1.6466, 1.6536, 1.6538, 1.6650]
EX1_BEST_B = [8.4799, -2.5955, 153.5327, 38.8546, 599.3039, 196.2798, 315.2701, 6.4351]
EX1_BEST_A = [1.0, 2.1176, 16.1275, 25.6013, 62.7850, 79.1756, 42.6527, 32.5215, 0.2499]
EX2_BEST_B = [1.4240, 1.0946, 0.2371, 0.0134]
EX2_BEST_A = [1.0, 1.1781, 0.4457, 0.0627, 0.0028]


def scoreboard(k, checks):
    """Print the one-line verdict; return overall pass flag and detail."""
    failed = [name for name, ok in checks if not ok]
    ok = not failed
    line = f"CRITERION {k}: {'PASS' if ok else 'FAIL'}"
    if failed:
        line += f"  (failed: {', '.join(failed)})"
    print(line)
    return ok, line


def test_criterion_1_ninth_order_benchmark(example1_report):
    rep = example1_report
    errors = sorted(cp.error for cp in rep.admissible)
    best = rep.global_candidate
    checks = [
        ("eight admissible", len(rep.admissible) == 8),
        ("error table", len(errors) == 8 and all(
            abs(e - r) <= 5e-3 for e, r in zip(errors, EX1_ERRORS))),
        ("norm 8.8261", abs(rep.system_norm - 8.8261) <= 1e-3),
        ("relative error 0.39%", abs(rep.relative_error - 0.0039) <= 2e-4),
        ("denominator coefficients", np.max(np.abs(
            best.a.coeffs - np.array(EX1_BEST_A))) <= 5e-3),
        ("numerator coefficients", np.max(np.abs(
            best.b.coeffs - np.array(EX1_BEST_B))) <= 5e-3),
        ("runtime < 120 s", rep.diagnostics["elapsed_s"] < 120.0),
    ]
    ok, line = scoreboard(1, checks)
    assert ok, line


def _oracle_distances(tf, num, den):
    """||G - N/D||_2 by residue pairing and by quadrature of the difference."""
    gn, gd = tf.numerator.coeffs, tf.denominator.coeffs
    by_residues = np.sqrt(residue_distance_sq(gn, gd, num, den))
    by_quadrature = quad_h2_norm(
        np.polysub(np.polymul(gn, den), np.polymul(num, gd)), np.polymul(gd, den))
    return by_residues, by_quadrature


# Certified optimum of the alpha = 0.78, N = 5 relaxation benchmark. Three
# routes independent of the pipeline agree on it to 1e-7 relative: residue
# pairing (oracles.residue_distance_sq) 2.52059e-5, quadrature of G - G_r
# (oracles.quad_h2_norm) 2.52059e-5, and a Lyapunov solve on a state-space
# realisation of G - G_r 2.52061e-5. A local descent on the approximant's
# coefficients started from the published approximant finds nothing lower.
EX2_OPTIMAL_ERROR = 2.5206e-5


def test_criterion_2_relaxation_benchmark():
    import time
    t0 = time.perf_counter()
    tf = generate_relaxation(5, 0.78)
    rep = solve_reduction(validate(tf))
    elapsed = time.perf_counter() - t0
    best = rep.global_candidate
    approx_poles = np.roots(best.a.coeffs)
    residues = np.array([
        np.polyval(best.b.coeffs, p) / np.polyval(np.polyder(best.a.coeffs), p)
        for p in approx_poles
    ])
    # The reference prints 0.0334 (1.96 %) for this benchmark, but that is
    # the distance of its printed approximant EX2_BEST_A/B, not of the
    # optimum: the oracles put the printed approximant ~1300x further from G.
    # Those figures stay under test as properties of the printed approximant;
    # the reported error is checked against independent distances, relatively,
    # since the library's own cross-check is absolute and blind at phi ~ 1e-9.
    by_residues, by_quadrature = _oracle_distances(tf, best.b.coeffs, best.a.coeffs)
    published, _ = _oracle_distances(tf, EX2_BEST_B, EX2_BEST_A)
    checks = [
        ("exactly one admissible", len(rep.admissible) == 1),
        ("error matches residue and quadrature oracles",
         abs(rep.global_error - by_residues) <= 1e-3 * by_residues
         and abs(rep.global_error - by_quadrature) <= 1e-3 * by_quadrature),
        ("absolute error 2.5206e-5",
         abs(rep.global_error - EX2_OPTIMAL_ERROR) <= 1e-3 * EX2_OPTIMAL_ERROR),
        ("norm 1.6980", abs(rep.system_norm - 1.6980) <= 1e-3),
        ("relative error 1.4845e-5",
         abs(rep.relative_error - 1.4845e-5) <= 1e-3 * 1.4845e-5),
        ("published approximant: error 0.0334, 1.96%",
         abs(published - 0.0334) <= 1e-3
         and abs(published / rep.system_norm - 0.0196) <= 5e-4),
        # below the published approximant by more than its 1e-3 quoting band
        ("optimum beats published approximant",
         rep.global_error < published - 1e-3),
        # The printed coefficients belong to that non-optimal approximant, so
        # these check closeness, not identity: b_1 is off by 4.88e-3.
        ("denominator coefficients", np.max(np.abs(
            best.a.coeffs - np.array(EX2_BEST_A))) <= 5e-3),
        ("numerator coefficients", np.max(np.abs(
            best.b.coeffs - np.array(EX2_BEST_B))) <= 5e-3),
        ("approximant is a relaxation system",
         np.max(np.abs(approx_poles.imag)) < 1e-9
         and np.all(approx_poles.real < 0)
         and np.max(np.abs(residues.imag)) < 1e-9
         and np.all(residues.real > 0)),
        ("runtime < 10 s", elapsed < 10.0),
    ]
    ok, line = scoreboard(2, checks)
    assert ok, line


def test_criterion_3_relaxation_success_band():
    checks = []
    for alpha in (0.40, 0.50, 0.60, 0.70, 0.79):
        code = cli_main(["--relaxation", "N=5", f"alpha={alpha}"])
        checks.append((f"alpha={alpha} succeeds", code == 0))
    for alpha in (0.10, 0.20, 0.30):
        code = cli_main(["--relaxation", "N=5", f"alpha={alpha}"])
        checks.append((f"alpha={alpha} fails typed", code in (2, 4)))
    ok, line = scoreboard(3, checks)
    assert ok, line


def _dedupe_oracle(sols):
    big = max(np.max(np.abs(x)) for x in sols)
    nz = [x for x in sols if np.max(np.abs(x)) > 1e-9 * (1 + big)]
    uniq = []
    for x in nz:
        if not any(np.max(np.abs(x - u)) <= 1e-5 * (1 + np.max(np.abs(u)))
                   for u in uniq):
            uniq.append(x)
    return uniq


def test_criterion_4_small_n_oracle_equivalence():
    rng = np.random.default_rng(2024)
    set_mismatches = 0
    global_mismatches = 0
    pipeline_failures = 0
    for n, count, oracle in ((2, 50, elimination_solutions_n2),
                             (3, 20, elimination_solutions_n3)):
        for _ in range(count):
            tf = random_real_pole_system(rng, n)
            sysv = validate(tf)
            try:
                rep = solve_reduction(sysv)
            except H2ReduceError:
                pipeline_failures += 1
                continue
            got = [cp.xi for cp in rep.candidates]
            ref = _dedupe_oracle(oracle(build_M(sysv)))
            if not match_solution_sets(got, ref, 1e-6):
                set_mismatches += 1
            best = projected_global_minimum(
                tf.numerator.coeffs, tf.denominator.coeffs, n - 1, rng)
            if abs(rep.global_candidate.criterion.real - best) > 1e-6 * best:
                global_mismatches += 1
    checks = [
        ("no pipeline failures", pipeline_failures == 0),
        ("candidate sets match elimination oracle", set_mismatches == 0),
        ("global matches projected search", global_mismatches == 0),
    ]
    ok, line = scoreboard(4, checks)
    assert ok, line


@pytest.mark.parametrize("seed", [7, 8])
def test_global_optimum_on_complex_pole_systems(seed):
    # Criterion 4's elimination oracles take a real M only, so the global
    # optimum of systems with complex poles is checked here, on its own.
    rng = np.random.default_rng(seed)
    with_complex = 0
    for n in (2, 3):
        for _ in range(20):
            tf = random_stable_system(rng, n)
            sysv = validate(tf)
            with_complex += bool(np.any(sysv.poles.imag != 0))
            phi = solve_reduction(sysv).global_candidate.criterion.real
            best = projected_global_minimum(
                tf.numerator.coeffs, tf.denominator.coeffs, n - 1, rng)
            assert abs(phi - best) <= 1e-5 * best, (n, phi, best)
    assert with_complex > 0


def test_criterion_5_algebraic_invariants():
    rng = np.random.default_rng(99)
    worst_comm = worst_ann = worst_nf = 0.0
    count_violations = 0
    conj_violations = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        sys = DiagQuadSystem(rng.uniform(-2, 2, size=(n, n)))
        mm = kept_matrices(sys)
        worst_comm = max(worst_comm, dense_commutation_defect(expand(mm)))
        worst_ann = max(worst_ann, annihilation_defect(mm))

        # normal-form confluence of the two rewrite orders of the reference
        # in oracles.py, and linearity of its memoised monomial form, whose
        # f + 1.5 g is held to the reference's f plus 1.5 times its own g
        def rand_poly():
            terms = {}
            for _ in range(5):
                alpha = tuple(int(e) for e in rng.integers(0, 4, size=n))
                terms[alpha] = rng.uniform(-2, 2)
            return terms
        f, g = rand_poly(), rand_poly()
        nf_a = normal_form(f, sys, strategy="max_degree")
        nf_b = normal_form(f, sys, strategy="min_index")
        scale = 1 + np.max(np.abs(nf_a))
        worst_nf = max(worst_nf, np.max(np.abs(nf_a - nf_b)) / scale)
        nf = monomial_normal_form(sys)
        fg = {a: f.get(a, 0.0) + 1.5 * g.get(a, 0.0) for a in f.keys() | g.keys()}
        lin = sum(c * nf(a) for a, c in fg.items())
        ref = nf_a + 1.5 * sum(c * nf(a) for a, c in g.items())
        worst_nf = max(worst_nf, np.max(np.abs(lin - ref)) / (1 + np.max(np.abs(ref))))

        sols = [s.xi for s in common_eigen_solutions(combine(sys, seed=0)).solutions]
        big = max(np.max(np.abs(x)) for x in sols)
        nonzero = [x for x in sols if np.max(np.abs(x)) > 1e-9 * (1 + big)]
        if len(nonzero) > 2**n - 1:
            count_violations += 1
        # the distance of each root's conjugate to the nearest root
        xs = np.array(sols)
        gap = np.abs(np.conj(xs)[:, None] - xs[None]).max(axis=2).min(axis=1)
        conj_violations += int(np.count_nonzero(gap > 1e-5 * (1 + np.abs(xs).max(axis=1))))
    checks = [
        ("commutation defect <= 1e-10", worst_comm <= 1e-10),
        ("generator annihilation <= 1e-10", worst_ann <= 1e-10),
        ("normal-form confluence/linearity <= 1e-12", worst_nf <= 1e-12),
        ("count bound 2^N - 1", count_violations == 0),
        ("conjugate closure", conj_violations == 0),
    ]
    ok, line = scoreboard(5, checks)
    assert ok, line


def test_criterion_6_norm_quadrature_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 7))
        tf = random_stable_system(rng, n)
        sysv = validate(tf)
        ref = quad_h2_norm(tf.numerator.coeffs, tf.denominator.coeffs)
        worst = max(worst, abs(h2_norm(sysv) - ref) / ref)
    ok, line = scoreboard(6, [("residue norm vs quadrature <= 1e-6", worst <= 1e-6)])
    assert ok, line


def test_criterion_7_critical_value_matrix():
    # well-conditioned instances: A_F eigenvalues contain every pointwise value
    # "Well-conditioned" matters: A_F entries grow like ||M||^(3N), so a
    # generic N >= 4 system drowns its eigenvalues in round-off (the very
    # breakdown the stress case below demonstrates). Random systems up to
    # N=3 and the relaxation family up to N=5 keep A_F numerically sane.
    rng = np.random.default_rng(55)
    containment_ok = True
    systems = [random_real_pole_system(rng, n) for n in (2, 2, 3, 3, 3)]
    systems += [generate_relaxation(n, a)
                for n, a in ((2, 0.6), (3, 0.6), (4, 0.6), (5, 0.6), (5, 0.7))]
    for tf in systems:
        sysv = validate(tf)
        mm = kept_matrices(DiagQuadSystem(build_M(sysv)))
        rep = solve_reduction(sysv)
        eigs = np.linalg.eigvals(
            build_critical_value_matrix(mm, criterion_weights(sysv)))
        for cp in rep.candidates:
            gap = np.min(np.abs(eigs - cp.criterion)) / (1 + abs(cp.criterion))
            if gap > 1e-6:
                containment_ok = False

    # stress case: two nearly equal poles; the enumeration path must still
    # match the exact elimination answer, the matrix path may fail loudly
    stress = validate(generate_relaxation(2, 0.999))
    rep = solve_reduction(stress, method="enum")
    ref_sols = _dedupe_oracle(elimination_solutions_n2(build_M(stress)))
    ref_phi = sorted(
        v.real for v in
        (np.sum(x**3 * criterion_weights(stress)) for x in ref_sols)
        if abs(v.imag) <= 1e-6 * (1 + abs(v)) and v.real > 0
    )
    enum_ok = ref_phi and abs(rep.global_candidate.criterion.real - ref_phi[0]) \
        <= 1e-6 * (1 + ref_phi[0])

    cvm_ok = True
    try:
        rep_cvm = solve_reduction(stress, method="cvm")
    except H2ReduceError:
        pass  # a typed failure is the documented acceptable outcome
    else:
        gap = abs(rep_cvm.global_error - rep.global_error)
        cvm_ok = gap <= 1e-6 * (1 + rep.global_error)

    checks = [
        ("A_F contains pointwise values", containment_ok),
        ("stress case: enumeration matches exact answer", bool(enum_ok)),
        ("stress case: matrix path fails loudly or agrees", cvm_ok),
    ]
    ok, line = scoreboard(7, checks)
    assert ok, line


def test_criterion_8_criterion_equals_squared_distance(example1_report):
    rng = np.random.default_rng(13)
    from conftest import EX1_DEN, EX1_NUM
    systems = [
        (validate(TransferFunction(Polynomial(EX1_NUM), Polynomial(EX1_DEN))),
         example1_report)
    ]
    for alpha in (0.40, 0.50, 0.60, 0.70, 0.79):
        sysv = validate(generate_relaxation(5, alpha))
        systems.append((sysv, solve_reduction(sysv)))
    for n, count in ((2, 10), (3, 5)):
        for _ in range(count):
            sysv = validate(random_real_pole_system(rng, n))
            systems.append((sysv, solve_reduction(sysv)))
    worst = 0.0
    n_checked = 0
    for sysv, rep in systems:
        for cp in rep.admissible:
            d = h2_distance(sysv, TransferFunction(cp.b, cp.a))
            gap = abs(cp.criterion.real - d**2) / (1 + cp.criterion.real)
            worst = max(worst, gap)
            n_checked += 1
    checks = [
        ("admissible candidates present", n_checked > 0),
        ("|phi - distance^2| <= 1e-6 relative", worst <= 1e-6),
    ]
    ok, line = scoreboard(8, checks)
    assert ok, line

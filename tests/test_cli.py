import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import h2reduce
from h2reduce import InputError, Tolerances, h2_norm, validate
from h2reduce.cli import (
    from_pole_residue,
    generate_relaxation,
    main,
    parse_system_file,
)
from oracles import residue_distance_sq


class TestGenerateRelaxation:
    def test_single_term(self):
        tf = generate_relaxation(1, 2.0)
        assert np.allclose(tf.numerator.coeffs, [4.0])
        assert np.allclose(tf.denominator.coeffs, [1.0, 4.0])

    def test_two_terms(self):
        tf = generate_relaxation(2, 2.0)
        assert np.allclose(tf.numerator.coeffs, [20.0, 128.0])
        assert np.allclose(tf.denominator.coeffs, [1.0, 20.0, 64.0])

    def test_poles_are_powers(self):
        tf = generate_relaxation(4, 0.7)
        poles = np.sort(np.roots(tf.denominator.coeffs))
        expected = np.sort([-0.7 ** (2 * j) for j in range(1, 5)])
        assert np.allclose(poles, expected, rtol=1e-10)

    def test_degenerate_alpha(self):
        with pytest.raises(InputError):
            generate_relaxation(3, 1.0)
        with pytest.raises(InputError):
            generate_relaxation(3, -0.5)
        with pytest.raises(InputError):
            generate_relaxation(0, 0.5)

    def test_paper_scale_norm(self):
        sys = validate(generate_relaxation(5, 0.78))
        assert h2_norm(sys) == pytest.approx(1.6980, abs=1e-3)


class TestInputParsing:
    def test_coefficient_file(self, tmp_path):
        f = tmp_path / "sys.txt"
        f.write_text("# a comment\nnumerator = 1 3\ndenominator: 1, 3, 2\n")
        tf = parse_system_file(str(f))
        assert np.allclose(tf.numerator.coeffs, [1.0, 3.0])
        assert np.allclose(tf.denominator.coeffs, [1.0, 3.0, 2.0])

    def test_pole_residue_file(self, tmp_path):
        f = tmp_path / "sys.txt"
        f.write_text("poles = -1,0 -2,0\nresidues = 2,0 -1,0\n")
        tf = parse_system_file(str(f))
        # 2/(s+1) - 1/(s+2) = (s+3)/((s+1)(s+2))
        assert np.allclose(tf.numerator.coeffs, [1.0, 3.0])
        assert np.allclose(tf.denominator.coeffs, [1.0, 3.0, 2.0])

    def test_conjugate_pole_residue(self):
        tf = from_pole_residue(
            np.array([-1 + 1j, -1 - 1j]),
            np.array([0.5 - 0.25j, 0.5 + 0.25j]),
        )
        assert tf.numerator.is_real and tf.denominator.is_real

    def test_non_conjugate_rejected(self):
        with pytest.raises(InputError):
            from_pole_residue(np.array([-1 + 1j]), np.array([1.0 + 0j]))

    def test_mixed_forms_rejected(self, tmp_path):
        f = tmp_path / "sys.txt"
        f.write_text("numerator = 1\ndenominator = 1 1\npoles = -1,0\nresidues = 1,0\n")
        with pytest.raises(InputError):
            parse_system_file(str(f))

    def test_missing_file(self):
        with pytest.raises(InputError):
            parse_system_file("/nonexistent/path.txt")

    def test_garbage_line(self, tmp_path):
        f = tmp_path / "sys.txt"
        f.write_text("this is not a key value line\n")
        with pytest.raises(InputError):
            parse_system_file(str(f))

    @pytest.mark.parametrize("text, line", [
        ("numerator = 1 3\ndenominator = 1 3 2\nnumerator = 5 7\n", "repeated field"),
        ("numerator = 1 3\ndenominator = 1 3 2\ngain = 7\n", "unknown field"),
    ], ids=["repeated", "unknown"])
    def test_each_known_field_once(self, tmp_path, text, line):
        # a second numerator line would replace the first, an unknown one
        # would be ignored: either way the file is not the system it states
        f = tmp_path / "sys.txt"
        f.write_text(text)
        with pytest.raises(InputError, match=line) as exc:
            parse_system_file(str(f))
        assert repr(text.splitlines()[-1]) in str(exc.value)


def write_system(tmp_path, name, num, den):
    f = tmp_path / name
    f.write_text(
        "numerator = " + " ".join(map(str, num)) + "\n"
        "denominator = " + " ".join(map(str, den)) + "\n"
    )
    return str(f)


class TestMainExitCodes:
    def test_success(self, tmp_path, capsys):
        path = write_system(tmp_path, "ok.txt", [1, 3], [1, 3, 2])
        assert main(["--input", path]) == 0
        out = capsys.readouterr().out
        assert "global approximant" in out
        assert "relative error" in out

    def test_malformed_input(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("numerator = one two\ndenominator = 1 1\n")
        assert main(["--input", str(f)]) == 1

    def test_validation_exit(self, tmp_path):
        path = write_system(tmp_path, "rep.txt", [1], [1, 2, 1])  # double pole
        assert main(["--input", path]) == 3

    def test_unstable_exit(self, tmp_path):
        path = write_system(tmp_path, "unst.txt", [1], [1, -1])
        assert main(["--input", path]) == 3

    def test_relaxation_failure_band(self, capsys):
        code = main(["--relaxation", "N=5", "alpha=0.20"])
        assert code in (2, 4)

    def test_relaxation_success(self):
        assert main(["--relaxation", "N=5", "alpha=0.60"]) == 0

    def test_bad_relaxation_tokens(self):
        assert main(["--relaxation", "N=5", "beta=0.5"]) == 1
        assert main(["--relaxation", "N=x", "alpha=0.5"]) == 1

    def test_cap(self, tmp_path):
        path = write_system(tmp_path, "big.txt", [1], [1, 3, 2])
        assert main(["--input", path, "--cap", "1"]) == 1
        assert main(["--input", path, "--cap", "99"]) == 1

    def test_strip_feedthrough_flag(self, tmp_path):
        path = write_system(tmp_path, "ft.txt", [1, 3, 3], [1, 3, 2])
        assert main(["--input", path]) == 3            # rejected by default
        assert main(["--input", path, "--strip-feedthrough"]) == 0

    def test_numerical_exit_prints_diagnostics(self, tmp_path, capsys, monkeypatch):
        # a complex-pole system whose conjugation is not declared: the eigen
        # stage finds no real form, and the solve ends in exit 4, not roots
        import h2reduce.reduce as reduce_mod
        declared = reduce_mod.DiagQuadSystem
        monkeypatch.setattr(reduce_mod, "DiagQuadSystem",
                            lambda m, conj=None: declared(m))
        path = write_system(tmp_path, "pair.txt", [1, 0.5, 1], [1, 2.5, 3, 2])
        assert main(["--input", path]) == 4
        err = capsys.readouterr().err
        assert "conjugation defect" in err
        assert "  conjugation_defect: " in err

    def test_defective_exit_prints_ledger(self, tmp_path, capsys):
        # the seed-7 N = 6 real-pole system loses roots at every eigen seed
        from conftest import random_real_pole_system
        tf = random_real_pole_system(np.random.default_rng(7), 6, lo=-6, hi=-0.5)
        path = write_system(tmp_path, "lost.txt", [repr(float(c)) for c in tf.numerator.coeffs],
                            [repr(float(c)) for c in tf.denominator.coeffs])
        assert main(["--input", path, "--seed", "1"]) == 4
        err = capsys.readouterr().err
        for key in ("seed", "method", "found", "rejected", "merged", "at_zero",
                    "conjugation_defect"):
            assert f"  {key}: " in err

    def test_overflowing_input_exits_4(self, tmp_path, capsys):
        # a finite input whose scale overflows the multiplication matrices:
        # a typed numerical error before eig, not a LinAlgError traceback
        path = write_system(tmp_path, "huge.txt", ["1e300"], [1, 3, 2])
        assert main(["--input", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error (numerical): ") and "not finite" in err
        assert "  nonfinite_entries: " in err and "  max_abs_m: " in err
        assert "Traceback" not in err

    # _norms squares the ~1e150 entries of the Newton iterates
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_nonfinite_criterion_exits_4(self, tmp_path, capsys):
        # xi^3 overflows at this scale, and the one admissible candidate's
        # phi is nan: a value that cannot be ranked, not "no admissible
        # critical point"
        path = write_system(tmp_path, "big.txt", ["1e150"], [1, 3, 2])
        assert main(["--input", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error (numerical): ") and "not finite" in err
        assert "  unrankable_criteria: 1\n" in err
        assert "Traceback" not in err

    # _norms squares the ~1e85 entries of the Newton iterates
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_cvm_overflow_exits_4(self, tmp_path, capsys):
        # A_F = sum w_i A_{X_i}^3 overflows from this scale up (1e70 still
        # solves): a typed numerical error before eigvals, not a LinAlgError
        # traceback. The enum solve of the same input needs no A_F
        path = write_system(tmp_path, "big.txt", ["1e85"], [1, 3, 2])
        assert main(["--input", path, "--method", "cvm"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error (numerical): ") and "critical-value matrix" in err
        assert "  nonfinite_entries: " in err and "  method: cvm\n" in err
        assert "Traceback" not in err
        assert main(["--input", path]) == 0

    def test_zero_numerator_exits_3(self, tmp_path, capsys):
        path = write_system(tmp_path, "zero.txt", [0], [1, 3, 2])
        assert main(["--input", path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error (validation): ") and "numerator" in err

    def test_negative_seed_exits_1(self, capsys):
        assert main(["--relaxation", "N=4", "alpha=0.5", "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (input): ") and "seed" in err
        assert "Traceback" not in err

    def test_cap_precedes_expansion(self, tmp_path, capsys, monkeypatch):
        # an oversized order is rejected as parsed, before the O(N^3)
        # expansion of its poles
        import h2reduce.cli as cli_mod

        def no_expansion(*args):
            raise AssertionError("the poles were expanded")

        monkeypatch.setattr(cli_mod, "generate_relaxation", no_expansion)
        monkeypatch.setattr(cli_mod, "from_pole_residue", no_expansion)
        f = tmp_path / "big.txt"
        f.write_text("poles = " + " ".join(f"{-1 - k},0" for k in range(1000))
                     + "\nresidues = " + " ".join(["1,0"] * 1000) + "\n")
        for argv in (["--relaxation", "N=1000", "alpha=0.99"],
                     ["--relaxation", "N=4000", "alpha=0.99", "--cap", "14"],
                     ["--input", str(f)]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error (input): system order ") and "exceeds --cap" in err

    def test_no_admissible_exit_prints_the_run(self, tmp_path, capsys, monkeypatch):
        # a realness tolerance of zero rejects every candidate after the
        # eigen stage: exit 2 prints the run's diagnostics with its ledger
        import h2reduce.foc as foc_mod
        from dataclasses import replace
        monkeypatch.setattr(foc_mod, "TOL", replace(foc_mod.TOL, real=0.0))
        path = write_system(tmp_path, "pair.txt", [1, 0.5, 1], [1, 2.5, 3, 2])
        assert main(["--input", path, "--seed", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (no admissible critical point): ")
        for line in ("  seed: 3\n", "  ledger: {", "  stage_s: {", "  n_candidates: ",
                     "  rejections: {"):
            assert line in err
        # the rejections are counts by reason, one for each candidate
        fields = dict(line.strip().split(": ", 1) for line in err.splitlines()[1:])
        counts = ast.literal_eval(fields["rejections"])
        assert list(counts) == ["complex", "non-hurwitz", "high-residual"]
        assert sum(counts.values()) == int(fields["n_candidates"]) > 0

    def test_first_order_input_exits_1(self, capsys):
        assert main(["--relaxation", "N=1", "alpha=0.5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (input): ") and "order >= 2" in err
        assert "Traceback" not in err

    def test_cvm_mismatch_prints_diagnostics(self, tmp_path, capsys):
        # a generic N = 4 system: A_F's eigenvalues drift from the pointwise
        # criterion values, and the matrix path stops with exit 4
        from conftest import random_real_pole_system
        tf = random_real_pole_system(np.random.default_rng(0), 4)
        path = write_system(tmp_path, "cvm.txt", [repr(float(c)) for c in tf.numerator.coeffs],
                            [repr(float(c)) for c in tf.denominator.coeffs])
        assert main(["--input", path, "--method", "cvm", "--seed", "2"]) == 4
        err = capsys.readouterr().err
        assert "do not match the pointwise criterion" in err
        for key in ("seed", "method", "first_mismatch", "worst_gap", "mismatched"):
            assert f"  {key}: " in err
        assert "  seed: 2\n" in err and "  method: cvm\n" in err

    def test_cvm_failure_prints_no_eigenvalues(self, capsys):
        # relaxation (4, 0.85) passes the cvm match and then fails the
        # ranking: the report names what failed, not A_F's spectrum
        assert main(["--relaxation", "N=4", "alpha=0.85", "--method", "cvm"]) == 4
        err = capsys.readouterr().err
        assert "cannot be ranked" in err and "  unrankable_criteria: 1\n" in err
        assert "cvm_eigenvalues" not in err

    def test_text_report_prints_stage_timings(self, capsys):
        assert main(["--relaxation", "N=4", "alpha=0.5", "--method", "cvm"]) == 0
        line = [x for x in capsys.readouterr().out.splitlines()
                if x.startswith("diagnostics:")][0]
        stages = line.split("stages: ")[1].split()
        assert [x.split("=")[0] for x in stages] == [
            "build_M", "build_mult", "eigen", "recover", "cvm", "select"]
        assert all(x.endswith("ms") for x in stages)

    def test_unknown_flag(self):
        assert main(["--frobnicate"]) == 1

    @pytest.mark.parametrize("flag", [
        ["--profile", "loose"],
        ["--profile", "strict"],
        ["--tol-real", "1e-5"],
        ["--tol-hurwitz", "1e-8"],
        ["--tol-eig", "1e-6"],
    ])
    def test_thresholds_are_not_options(self, flag):
        # a certificate rests on one fixed set of thresholds
        assert main(["--relaxation", "N=4", "alpha=0.5"] + flag) == 1

    @pytest.mark.parametrize("text", [
        "numerator = 1\ndenominator = 1 nan\n",
        "numerator = 1 inf\ndenominator = 1 3 2\n",
        "numerator = 1\ndenominator = 1 1e999\n",
        "poles = -1,0 -inf,0\nresidues = 1,0 1,0\n",
        "poles = -1,0 -2,0\nresidues = 1,0 nan,0\n",
        "numerator = 1\ndenominator = 0\n",
        "numerator = 1\ndenominator = 0 0 0\n",
        "numerator =\ndenominator = 1 2\n",
        "numerator = 1 3\ndenominator = 1 3 2\nnumerator = 5 7\n",
        "numerator = 1 3\ndenominator = 1 3 2\ngain = 7\n",
        "alpha=nan", "alpha=inf", "alpha=-inf", "alpha=1e200",
    ])
    def test_malformed_numbers_exit_1(self, tmp_path, capsys, text):
        # non-finite, missing or overflowing numbers, a zero denominator, and
        # a file field given twice or not known
        if text.startswith("alpha="):
            argv = ["--relaxation", "N=4", text]
        else:
            f = tmp_path / "sys.txt"
            f.write_text(text)
            argv = ["--input", str(f)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error (input): ") and "Traceback" not in err

    def test_ill_conditioned_exit_prints_residual(self, capsys):
        # at N = 6, alpha = 0.30 the coupling matrix meets its defining
        # relation only to ~1.9e-6, so build_M stops the solve
        assert main(["--relaxation", "N=6", "alpha=0.30"]) == 4
        err = capsys.readouterr().err
        assert "too ill-conditioned" in err
        assert "  build_m_residual: " in err


    @pytest.mark.parametrize("argv, expect", [
        (["--relaxation", "N=6", "alpha=0.40", "--method", "cvm", "--seed", "1"],
         "too ill-conditioned"),
        (["--relaxation", "N=5", "alpha=0.9", "--seed", "1"], "32 of 32 roots found"),
        (None, "conjugation defect"),
        (["--relaxation", "N=6", "alpha=0.8", "--method", "cvm", "--seed", "2"],
         "do not match the pointwise criterion"),
    ], ids=["build_M", "ledger", "conjugation", "cvm"])
    def test_every_numerical_exit_prints_the_run(self, tmp_path, capsys, monkeypatch,
                                                 argv, expect):
        # whichever stage fails, the report names the seed, the method and
        # the stage times of the run
        if argv is None:
            # complex poles whose conjugation the solve is not told
            import h2reduce.reduce as reduce_mod
            declared = reduce_mod.DiagQuadSystem
            monkeypatch.setattr(reduce_mod, "DiagQuadSystem",
                                lambda m, conj=None: declared(m))
            argv = ["--input", write_system(tmp_path, "pair.txt", [1, 0.5, 1], [1, 2.5, 3, 2]),
                    "--seed", "1"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error (numerical): ") and expect in err
        seed = argv[argv.index("--seed") + 1]
        method = "cvm" if "cvm" in argv else "enum"
        assert f"\n  seed: {seed}\n" in err and f"\n  method: {method}\n" in err
        assert "\n  stage_s: {" in err


class TestStructuredOutput:
    def parse(self, text):
        out = {}
        for line in text.strip().splitlines():
            key, _, val = line.partition(" = ")
            out[key] = val
        return out

    def test_round_trip_bit_exact(self, tmp_path, capsys):
        path = write_system(tmp_path, "ok.txt", [1, 3], [1, 3, 2])
        assert main(["--input", path, "--output", "structured"]) == 0
        fields = self.parse(capsys.readouterr().out)

        from h2reduce import Polynomial, TransferFunction, solve_reduction
        sys = validate(TransferFunction(Polynomial([1.0, 3.0]),
                                        Polynomial([1.0, 3.0, 2.0])))
        rep = solve_reduction(sys)
        num = [float(t) for t in fields["global_numerator"].split()]
        den = [float(t) for t in fields["global_denominator"].split()]
        assert num == list(rep.global_candidate.b.coeffs)
        assert den == list(rep.global_candidate.a.coeffs)
        assert float(fields["global_error"]) == rep.global_error

    def test_near_exact_optimum_matches_distance(self, capsys):
        # phi ~ 1.3e-6: an approximant recovered from an inaccurate root once
        # reported phi 1.57e-6 below its own squared H2 distance
        argv = ["--relaxation", "N=6", "alpha=0.50", "--method", "cvm",
                "--seed", "12", "--output", "structured"]
        assert main(argv) == 0
        fields = self.parse(capsys.readouterr().out)
        num = [float(t) for t in fields["global_numerator"].split()]
        den = [float(t) for t in fields["global_denominator"].split()]
        phi = float(fields["global_error"]) ** 2
        tf = generate_relaxation(6, 0.50)
        dist_sq = residue_distance_sq(tf.numerator.coeffs, tf.denominator.coeffs, num, den)
        assert abs(phi - dist_sq) <= Tolerances().cross_check * (1.0 + phi)

    def test_self_describing(self, tmp_path, capsys):
        path = write_system(tmp_path, "ok.txt", [1, 3], [1, 3, 2])
        main(["--input", path, "--output", "structured"])
        out = capsys.readouterr().out
        for key in ("format", "system_norm", "n_admissible",
                    "global_numerator", "relative_error", "seed"):
            assert key in out


class TestInputFormEquivalence:
    def test_coefficient_vs_pole_residue(self, tmp_path, capsys):
        # same 3rd-order system in both forms
        num, den = [1.0, 0.5, 1.0], [1.0, 2.5, 3.0, 2.0]
        f1 = write_system(tmp_path, "coef.txt", num, den)
        poles = np.roots(den)
        residues = [np.polyval(num, p) / np.polyval(np.polyder(np.array(den)), p)
                    for p in poles]
        f2 = tmp_path / "pr.txt"
        f2.write_text(
            "poles = " + " ".join(f"{p.real},{p.imag}" for p in poles) + "\n"
            "residues = " + " ".join(f"{r.real},{r.imag}" for r in residues) + "\n"
        )
        assert main(["--input", f1, "--output", "structured"]) == 0
        e1 = float(dict(
            line.partition(" = ")[::2] for line in
            capsys.readouterr().out.strip().splitlines())["global_error"])
        assert main(["--input", str(f2), "--output", "structured"]) == 0
        e2 = float(dict(
            line.partition(" = ")[::2] for line in
            capsys.readouterr().out.strip().splitlines())["global_error"])
        assert e2 == pytest.approx(e1, rel=1e-6)


class TestParserReuse:
    def test_calls_see_only_their_own_flags(self, capsys):
        # one parser serves every call in a process: no flag of one call,
        # nor its default, may carry over to the next
        assert main(["--relaxation", "N=4", "alpha=0.5", "--seed", "3", "--method", "cvm",
                     "--output", "structured", "--cap", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "seed = 3" in out and "method = cvm" in out
        assert main(["--relaxation", "N=6", "alpha=0.5"]) == 0
        out = capsys.readouterr().out
        assert "seed=0 method=enum" in out and "format = " not in out
        assert main(["--relaxation", "N=4", "alpha=0.5", "--output", "structured"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "seed = 0" in out and "method = enum" in out


class TestLibraryImport:
    def test_import_leaves_cli_unloaded(self):
        # the library must not depend on its command-line front end
        src = str(Path(h2reduce.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, h2reduce; print('h2reduce.cli' in sys.modules, 'argparse' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["False", "False"]

    def test_solve_without_scipy(self):
        # scipy is a test dependency only: the library and the CLI solve with
        # every import of it failing
        src = str(Path(h2reduce.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from h2reduce import generate_relaxation, solve_reduction, validate\n"
                "from h2reduce.cli import main\n"
                "rep = solve_reduction(validate(generate_relaxation(3, 0.5)))\n"
                "print(rep.global_error > 0, main(['--relaxation', 'N=3', 'alpha=0.5',"
                " '--method', 'cvm', '--output', 'structured']))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split()[-2:] == ["True", "0"]

    def test_benchmark_surface(self):
        # what the benchmark under perfbench/ calls of the package, checked
        # without importing it: a name lost here breaks every benchmark run
        from h2reduce import (
            DiagQuadSystem, Polynomial, TransferFunction, build_M, combine,
            common_eigen_solutions, h2_distance, solve_reduction)
        from h2reduce.cli import generate_relaxation as cli_relaxation
        from h2reduce.errors import (
            H2ReduceError, InputError, NoAdmissibleSolutionError, ValidationError)

        assert issubclass(InputError, H2ReduceError)
        assert issubclass(NoAdmissibleSolutionError, H2ReduceError)
        assert issubclass(ValidationError, H2ReduceError)
        # the module attributes that its trace spans wrap and the solve
        # calls. A span whose attribute is gone is skipped, and its time
        # lands in its caller's self time: no benchmark run breaks on it
        for module, names in (
                ("h2reduce.cli", ("main", "validate", "solve_reduction")),
                ("h2reduce.tf", ("validate",)),
                ("h2reduce.reduce", ("solve_reduction", "build_M", "DiagQuadSystem",
                                     "common_eigen_solutions", "build_critical_value_matrix"))):
            mod = importlib.import_module(module)
            assert all(callable(getattr(mod, name)) for name in names)
        tol = Tolerances()
        assert tol.real > 0 and tol.cross_check > 0
        sysv = validate(cli_relaxation(4, 0.5))
        rep = solve_reduction(sysv, seed=1, method="cvm")
        best = rep.global_candidate
        assert any(cp is best for cp in rep.admissible)
        phi = best.criterion.real
        tf = TransferFunction(Polynomial(best.b.coeffs), Polynomial(best.a.coeffs))
        assert abs(phi - h2_distance(sysv, tf, tol) ** 2) <= tol.cross_check * (1.0 + phi)
        assert rep.global_error == best.error and rep.system_norm > 0
        assert rep.relative_error == rep.global_error / rep.system_norm
        assert rep.diagnostics["degenerate_q0_rejections"] == 0
        eig = common_eigen_solutions(combine(DiagQuadSystem(build_M(sysv)), seed=1))
        assert len(eig.rejected) == 0
        assert sum(s.multiplicity_hint for s in eig.solutions) == 16

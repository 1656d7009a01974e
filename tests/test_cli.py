import json

import numpy as np
import pytest

from simpow import cli
from simpow.cli import main
from simpow.matrixcore import RANK_TOL, VERIFY_TOL, matrix_to_json
from simpow.similarity import JordanSpec, matrix_from_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def intro_spec_file(tmp_path, intro_spec):
    path = tmp_path / "intro_spec.json"
    path.write_text(json.dumps(intro_spec.to_json()))
    return str(path)


@pytest.fixture
def nondiag_files(tmp_path, nondiag_fixture):
    a, b, _, _, _ = nondiag_fixture
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    a_path.write_text(json.dumps(matrix_to_json(a)))
    b_path.write_text(json.dumps(matrix_to_json(b)))
    return str(a_path), str(b_path)


class TestAnalyze:
    def test_intro_spec_35(self, capsys, intro_spec_file):
        code, report = run_json(capsys, "analyze", intro_spec_file, "-p", "3", "-q", "5")
        assert code == 0
        assert report["power_spectra_equal"] is True
        assert report["verdict"]["similar"] is False
        assert report["verdict"]["failure_reason"] == "jordan-structure-mismatch-in-orbit"

    def test_intro_spec_37(self, capsys, intro_spec_file):
        code, report = run_json(capsys, "analyze", intro_spec_file, "-p", "3", "-q", "7")
        assert code == 0
        assert report["verdict"]["similar"] is True

    def test_identity_spec(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps([{"eigenvalue": "0/1", "blocks": [1, 1, 1, 1]}]))
        code, report = run_json(capsys, "analyze", str(path), "-p", "2", "-q", "3")
        assert code == 0
        assert report["verdict"]["similar"] is True

    def test_matrix_input(self, capsys, tmp_path, nondiag_fixture):
        a, _, _, _, _ = nondiag_fixture
        path = tmp_path / "a.json"
        path.write_text(json.dumps(matrix_to_json(a)))
        code, report = run_json(capsys, "analyze", str(path), "-p", "2", "-q", "3")
        assert code == 0
        assert report["verdict"]["similar"] is True

    def test_matrix_past_order_bound(self, capsys, tmp_path):
        # for (3, 7) at n = 8 the lcm of |7^t - 3^t| passes 2^63
        spec = JordanSpec.from_json([
            {"eigenvalue": "0/1", "blocks": [2, 1]},
            {"eigenvalue": "1/4", "blocks": [3]},
            {"eigenvalue": "zero", "blocks": [2]},
        ])
        path = tmp_path / "a.json"
        path.write_text(json.dumps(matrix_to_json(matrix_from_spec(spec, conjugate_seed=8))))
        code, report = run_json(capsys, "analyze", str(path), "-p", "3", "-q", "7")
        assert code == 0
        assert JordanSpec.from_json(report["spec"]) == spec
        assert report["verdict"]["similar"] is True

    def test_inadmissible_root_certificate(self, capsys, tmp_path):
        # i and -i are roots of unity, but of order 4, which divides no
        # |3^t - 2^t|, t <= 2: recovery keeps them complex
        spec = JordanSpec.from_json([
            {"eigenvalue": "1/4", "blocks": [1]},
            {"eigenvalue": "3/4", "blocks": [1]},
        ])
        path = tmp_path / "a.json"
        path.write_text(json.dumps(matrix_to_json(matrix_from_spec(spec, conjugate_seed=1))))
        code, report = run_json(capsys, "analyze", str(path), "-p", "2", "-q", "3")
        assert code == 0
        verdict = report["verdict"]
        assert verdict["similar"] is False
        assert verdict["failure_reason"] == "non-root-of-unity-eigenvalue"
        assert "not a root of unity" not in verdict["certificate"]
        assert "matches no admissible root of unity" in verdict["certificate"]
        assert "|q^t - p^t| for some t <= 2, (p,q) = (2,3)" in verdict["certificate"]

    def test_complex_spec_at_an_admissible_root(self, capsys, tmp_path):
        # i and -i written as [re, im] are the admissible roots 1/4 and 3/4
        # of (1, 5), order 4 = 5 - 1: the same report as the angles give
        reports = []
        for name, eigenvalues in (("complex", ([0.0, 1.0], [0.0, -1.0])), ("angles", ("1/4", "3/4"))):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps([{"eigenvalue": ev, "blocks": [1]} for ev in eigenvalues]))
            code, report = run_json(capsys, "analyze", str(path), "-p", "1", "-q", "5")
            assert code == 0
            del report["inputs"]["path"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["verdict"]["similar"] is True

    def test_complex_spec_off_the_root(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([
            {"eigenvalue": [0.0, 1.001], "blocks": [1]},
            {"eigenvalue": [0.0, -1.0], "blocks": [1]},
        ]))
        code, report = run_json(capsys, "analyze", str(path), "-p", "1", "-q", "5")
        assert code == 0
        assert report["spec"][0]["eigenvalue"] == [0.0, 1.001]
        assert report["spec"][1]["eigenvalue"] == "3/4"
        assert report["verdict"]["failure_reason"] == "non-root-of-unity-eigenvalue"

    @pytest.mark.parametrize("twin", [[1e-12, 1.0], "1/4"])
    def test_complex_spec_entries_on_one_root(self, capsys, tmp_path, twin):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([
            {"eigenvalue": [0.0, 1.0], "blocks": [1]},
            {"eigenvalue": twin, "blocks": [2]},
        ]))
        code, report = run_json(capsys, "analyze", str(path), "-p", "1", "-q", "5")
        assert code == 1
        assert report["error"].startswith("bad spec file")

    def test_unrecoverable_matrix(self, capsys, tmp_path):
        # eigenvalues 1.5e-6 apart: too close to split, too far apart to certify merged
        path = tmp_path / "a.json"
        path.write_text(json.dumps(matrix_to_json(np.diag([1.0, 1.0 + 1.5e-6]))))
        code, report = run_json(capsys, "analyze", str(path), "-p", "2", "-q", "3")
        assert code == 1
        assert report["error"].startswith("cannot recover structure")

    def test_swaps_exponents_for_singular(self, capsys, intro_spec_file):
        code, report = run_json(capsys, "analyze", intro_spec_file, "-p", "7", "-q", "3")
        assert code == 0
        assert report["normalized"] == {"p": 3, "q": 7, "swapped": True}
        assert report["verdict"]["similar"] is True

    def test_singular_negative_exponent_fails(self, capsys, intro_spec_file):
        code, report = run_json(capsys, "analyze", intro_spec_file, "-p", "-3", "-q", "5")
        assert code == 1
        assert "error" in report

    def test_find_b(self, capsys, intro_spec_file):
        code, report = run_json(
            capsys, "analyze", intro_spec_file, "-p", "3", "-q", "7", "--find-b"
        )
        assert code == 0
        assert report["conjugator"]["b"] is not None
        assert report["conjugator"]["residual"] < 1e-8

    def test_missing_file(self, capsys, tmp_path):
        code, report = run_json(capsys, "analyze", str(tmp_path / "nope.json"), "-p", "2", "-q", "3")
        assert code == 1
        assert "error" in report


class TestEmptyInput:
    SHAPE = ["-r", "2", "--rp", "-1", "-s", "1", "--sp", "1", "--eps", "1"]

    @pytest.mark.parametrize("content,argvs", [
        ({"rows": 0, "cols": 0, "data": []}, ["analyze", "solve-b", "verify", "word2 verify"]),
        ([], ["analyze", "solve-b"]),
    ])
    def test_empty_input_is_an_operational_error(self, capsys, tmp_path, content, argvs):
        path = str(tmp_path / "empty.json")
        (tmp_path / "empty.json").write_text(json.dumps(content))
        full = {
            "analyze": ["analyze", path, "-p", "2", "-q", "3"],
            "solve-b": ["solve-b", path, "-p", "2", "-q", "3"],
            "verify": ["verify", path, path, "-p", "2", "-q", "3"],
            "word2 verify": ["word2", "verify", path, path, *self.SHAPE],
        }
        for command in argvs:
            code, report = run_json(capsys, *full[command])
            assert code == 1
            assert report["command"] == command
            assert "is empty" in report["error"]


class TestMalformedInput:
    """A bad matrix file gets one error from every command that reads it."""

    @pytest.mark.parametrize("block", [1.5, 2.0, True, "2"], ids=["1.5", "2.0", "true", "string"])
    def test_non_integer_block_size_is_a_bad_spec_file(self, capsys, tmp_path, block):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([
            {"eigenvalue": "1/3", "blocks": [block]}, {"eigenvalue": "2/3", "blocks": [1]},
        ]))
        for argv in (
            ["analyze", str(path), "-p", "2", "-q", "3"],
            ["analyze", str(path), "-p", "2", "-q", "3", "--find-b"],
            ["solve-b", str(path), "-p", "2", "-q", "3"],
        ):
            code, report = run_json(capsys, *argv)
            assert code == 1
            assert report["error"].startswith(f"bad spec file {path}: block sizes must be integers")

    SHAPE = TestEmptyInput.SHAPE

    @pytest.fixture
    def files(self, tmp_path):
        paths = {}
        for name, rows, cols in [("wide", 2, 3), ("a3", 3, 3), ("b2", 2, 2)]:
            paths[name] = str(tmp_path / f"{name}.json")
            m = np.arange(rows * cols, dtype=float).reshape(rows, cols) + 4 * np.eye(rows, cols)
            (tmp_path / f"{name}.json").write_text(json.dumps(matrix_to_json(m)))
        return paths

    def test_non_square_matrix_is_a_bad_matrix_file(self, capsys, files):
        wide, square = files["wide"], files["a3"]
        for argv in (
            ["analyze", wide, "-p", "2", "-q", "3"],
            ["solve-b", wide, "-p", "2", "-q", "3"],
            ["verify", square, wide, "-p", "2", "-q", "3"],
            ["word2", "verify", wide, square, *self.SHAPE],
        ):
            code, report = run_json(capsys, *argv)
            assert code == 1
            assert report["error"] == f"bad matrix file {wide}: shape (2, 3) is not square"

    def test_a_and_b_of_different_sizes(self, capsys, files):
        a, b = files["a3"], files["b2"]
        for argv in (
            ["verify", a, b, "-p", "2", "-q", "3"],
            ["word2", "verify", a, b, *self.SHAPE],
        ):
            code, report = run_json(capsys, *argv)
            assert code == 1
            assert report["error"] == "A is 3x3 but B is 2x2"


class TestGenerate:
    def test_lists_valid_k1(self, capsys):
        code, report = run_json(capsys, "generate", "-n", "2", "-p", "2", "-q", "3")
        assert code == 0
        assert report["valid_k1"] == [1, 2, 3, 4]

    def test_builds_instance(self, capsys):
        code, report = run_json(capsys, "generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "1")
        assert code == 0
        assert report["instance"]["k_seq"] == [1, 4]
        assert report["residual"] < 1e-10

    def test_scale_flag(self, capsys):
        code, report = run_json(
            capsys, "generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "1", "--scale", "2,5j"
        )
        assert code == 0
        assert report["residual"] < 1e-10

    def test_invalid_k1(self, capsys):
        code, report = run_json(capsys, "generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "0")
        assert code == 1
        assert "excluded" in report["error"]

    @pytest.mark.parametrize("k1", [[], ["--k1", "1"]], ids=["list", "instance"])
    def test_huge_modulus_is_an_operational_error(self, capsys, k1):
        code, report = run_json(capsys, "generate", "-n", "25", "-p", "2", "-q", "3", *k1)
        assert code == 1
        assert report["error"].startswith("modulus Q = 847255055011 exceeds")


class TestNilpotent:
    def test_block2(self, capsys):
        code, report = run_json(
            capsys, "nilpotent", "--lam", "0/1", "--blocks", "2", "-p", "2", "-q", "3"
        )
        assert code == 0
        assert report["alpha_exact"] == ["3/2"]
        assert report["power_residual"] < 1e-12

    def test_block3(self, capsys):
        code, report = run_json(
            capsys, "nilpotent", "--lam", "0/1", "--blocks", "3", "-p", "2", "-q", "3"
        )
        assert code == 0
        assert report["alpha_exact"] == ["3/2", "3/8"]
        assert report["conjugation_residual"] < 1e-12

    @pytest.mark.parametrize("lam,p,q", [("1/2", 1, 3), ("0/1", -1, 2), ("1/3", 2, 5)])
    def test_conjugation_residual_is_relative_and_inverse_free(self, capsys, lam, p, q):
        # B0 at d = 24 has condition numbers of 1e11 to 1e14; the reported
        # residual max|N B0 - B0 M| / max|B0| stays at rounding level regardless
        code, report = run_json(
            capsys, "nilpotent", "--lam", lam, "--blocks", "24,3", "-p", str(p), "-q", str(q)
        )
        assert code == 0
        assert report["conjugation_residual"] < 1e-14

    def test_hypothesis_violation(self, capsys):
        code, report = run_json(
            capsys, "nilpotent", "--lam", "1/3", "--blocks", "2", "-p", "2", "-q", "3"
        )
        assert code == 1
        assert "error" in report


class TestSolveB:
    def test_nondiag_matrix(self, capsys, nondiag_files):
        a_path, _ = nondiag_files
        code, report = run_json(capsys, "solve-b", a_path, "-p", "2", "-q", "3")
        assert code == 0
        assert report["conjugator"]["residual"] < 1e-9
        assert report["polynomial_in_a_q"] is not None


class TestVerify:
    def test_nondiag_pair(self, capsys, nondiag_files):
        a_path, b_path = nondiag_files
        code, report = run_json(capsys, "verify", a_path, b_path, "-p", "2", "-q", "3")
        assert code == 0
        assert report["residual"] < 1e-10
        assert report["c_commutes_with_a"] is True

    def test_non_solution(self, capsys, nondiag_files):
        a_path, b_path = nondiag_files
        code, report = run_json(capsys, "verify", a_path, b_path, "-p", "2", "-q", "5")
        assert code == 0
        assert report["residual"] > 1e-3


class TestWord2:
    def test_classify_impossible(self, capsys):
        code, report = run_json(
            capsys, "word2", "classify", "-r", "2", "--rp", "1", "-s", "3", "--sp", "1", "--eps", "1"
        )
        assert code == 0
        assert report["classification"]["families"] == []
        assert "r-r'" in report["classification"]["empty_reason"]

    def test_classify_worked_shape(self, capsys):
        code, report = run_json(
            capsys, "word2", "classify", "-r", "3", "--rp", "1", "-s", "3", "--sp", "1",
            "--eps", "-1",
        )
        assert code == 0
        families = report["classification"]["families"]
        assert len(families) == 1
        assert families[0]["alpha"] == -1
        assert set(families[0]["u"]) == {"1/4", "3/4"}

    @pytest.mark.parametrize("max_report", ["0", "-1"])
    def test_classify_max_report_below_one_is_an_operational_error(self, capsys, max_report):
        # a cap below one pair would drop every family and pass for "empty"
        code, report = run_json(
            capsys, "word2", "classify", "-r", "3", "--rp", "1", "-s", "3", "--sp", "1",
            "--eps", "-1", "--max-report", max_report,
        )
        assert code == 1
        assert "max_report must be >= 1" in report["error"]
        assert "classification" not in report

    def test_error_reports_name_the_subcommand(self, capsys, nondiag_files):
        # as the success reports do: "word2 classify", not "word2"
        shape = ["-r", "3", "--rp", "1", "-s", "3", "--sp", "1", "--eps", "-1"]
        a_path, _ = nondiag_files
        for argv in (
            ["word2", "classify", *shape, "--max-report", "0"],
            ["word2", "construct", *shape, "--u", "1/2", "--rho", "1/4", "--v", "1"],
            ["word2", "verify", a_path, a_path + ".missing", *shape],
        ):
            code, report = run_json(capsys, *argv)
            assert code == 1
            assert report["command"] == " ".join(argv[:2])

    def test_classify_max_report_one(self, capsys):
        code, report = run_json(
            capsys, "word2", "classify", "-r", "3", "--rp", "1", "-s", "3", "--sp", "1",
            "--eps", "-1", "--max-report", "1",
        )
        assert code == 0
        [family] = report["classification"]["families"]
        assert family["alpha"] == -1 and len(family["pairs"]) == 1 and family["truncated"]

    def test_construct_worked_example(self, capsys):
        code, report = run_json(
            capsys, "word2", "construct", "-r", "3", "--rp", "1", "-s", "3", "--sp", "1",
            "--eps", "-1", "--u", "1/4", "--rho", "1/4", "--v", "1",
        )
        assert code == 0
        assert report["sigma"][0] == pytest.approx(2.0, abs=1e-12)
        assert report["residual"] < 1e-12
        assert report["simultaneously_triangularizable"] is False

    def test_construct_inadmissible(self, capsys):
        code, report = run_json(
            capsys, "word2", "construct", "-r", "3", "--rp", "1", "-s", "3", "--sp", "1",
            "--eps", "-1", "--u", "1/2", "--rho", "1/4", "--v", "1",
        )
        assert code == 1
        assert "error" in report

    def test_verify_mismatched_shape_large_residual(self, capsys, nondiag_files):
        a_path, b_path = nondiag_files
        code, report = run_json(
            capsys, "word2", "verify", a_path, b_path, "-r", "2", "--rp", "-1", "-s", "1",
            "--sp", "1", "--eps", "1",
        )
        assert code == 0
        assert report["residual"] > 1e-3


def reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


class TestErrorBoundary:
    """Every request that cannot be answered ends in one strict-JSON error
    report with exit 1: no traceback, and no NaN or Infinity in a report."""

    SHAPE = ["-r", "2", "--rp", "1", "-s", "2", "--sp", "1", "--eps", "1"]
    COMMUTATOR = ["-r", "1", "--rp", "-1", "-s", "1", "--sp", "-1", "--eps", "1"]
    CONSTRUCT = [
        "word2", "construct", "-r", "3", "--rp", "1", "-s", "3", "--sp", "1",
        "--eps", "-1", "--u", "1/4", "--rho", "1/4",
    ]
    POWER = "the matrix power with exponent {} overflows"
    RESIDUAL = "the conjugacy residual max|X B - B Y| / max|B| overflows"
    FAMILIES = {
        # A^2 overflows
        "solve-b overflow": (["solve-b", "{big}", "-p", "2", "-q", "3"], POWER.format(2)),
        "analyze --find-b overflow": (
            ["analyze", "{big}", "-p", "2", "-q", "3", "--find-b"], POWER.format(2)
        ),
        "verify overflow": (["verify", "{big}", "{big}", "-p", "2", "-q", "3"], POWER.format(2)),
        "word2 verify overflow": (["word2", "verify", "{big}", "{big}", *SHAPE], POWER.format(2)),
        # the inverse of 1e-300*I squared overflows
        "solve-b negative power": (["solve-b", "{tiny}", "-p", "-2", "-q", "3"], POWER.format(-2)),
        # C = B^-1 A B overflows inside matrix_to_json; A^2 = A^3 = 0
        "verify c overflow": (
            ["verify", "{nil}", "{shear}", "-p", "2", "-q", "3"],
            "matrix contains non-finite entries",
        ),
        # A^2 and A^3 are finite, the residual is not
        "verify residual overflow": (
            ["verify", "{e100}", "{e100}", "-p", "2", "-q", "3"], RESIDUAL
        ),
        # A^2 B = 4e308
        "verify residual overflow, huge b": (
            ["verify", "{d23}", "{huge}", "-p", "2", "-q", "3"], RESIDUAL
        ),
        # every power is finite, the word A^2 B^2 A B is not
        "word2 verify word overflow": (
            ["word2", "verify", "{e100}", "{e100}", *SHAPE], "the word A^2 B^2 A^1 B^1 overflows"
        ),
        # the word A B A^-1 B^-1 is finite, the ST test's float arithmetic is not
        "word2 verify st overflow": (
            ["word2", "verify", "{e100}", "{e100}", *COMMUTATOR],
            "the ST test overflows: det(AB - BA) or (|A|_F |B|_F)^2 is not finite",
        ),
        "construct --v nan": ([*CONSTRUCT, "--v", "nan"], "bad --v 'nan'"),
        "construct --v inf": ([*CONSTRUCT, "--v", "inf"], "bad --v 'inf'"),
    }

    @pytest.fixture
    def files(self, tmp_path):
        matrices = {
            "big": [[1e200, 2e200], [2e200, 1e200]],
            "tiny": np.diag([1e-300, 1e-300]),
            "d23": np.diag([2.0, 3.0]),
            "huge": np.diag([1e308, 1e308]),
            "e100": np.diag([1e100, 1e100]),
            "nil": [[0.0, 1e300], [0.0, 0.0]],
            "shear": [[1.0, 0.0], [2e4, 1.0]],
        }
        paths = {}
        for name, m in matrices.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(matrix_to_json(np.array(m, dtype=complex))))
        return paths

    # a numpy warning would be raised, not printed, and fail the request
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_strict_json_error_line(self, capsys, files, family):
        argv, message = self.FAMILIES[family]
        argv = [arg.format(**files) for arg in argv]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 1
        report = json.loads(lines[0], parse_constant=reject_constant)
        assert set(report) == {"command", "error", "tool_version"}
        assert report["command"] == " ".join(argv[:2] if argv[0] == "word2" else argv[:1])
        assert report["error"] == message

    @pytest.mark.parametrize("v", ["nan", "inf", "-inf", "1+nanj"])
    def test_non_finite_v_is_a_bad_v(self, capsys, v):
        code, report = run_json(capsys, *self.CONSTRUCT, f"--v={v}")
        assert code == 1
        assert report["error"] == f"bad --v {v!r}"


class TestReportDiscipline:
    def test_byte_identical_reports(self, capsys, intro_spec_file):
        _, first = run(capsys, "analyze", intro_spec_file, "-p", "3", "-q", "7", "--find-b")
        _, second = run(capsys, "analyze", intro_spec_file, "-p", "3", "-q", "7", "--find-b")
        assert first == second

    def test_tolerances_echoed(self, capsys, intro_spec_file, nondiag_files):
        # the checker under bench/ reads verify_tol from every report
        commands = set()
        for argv in TestParserReuse.argv_sequence(intro_spec_file, *nondiag_files):
            code, report = run_json(capsys, *argv)
            if code == 0:
                commands.add(report["command"])
                assert report["tolerances"] == {"rank_tol": RANK_TOL, "verify_tol": VERIFY_TOL}
        assert len(commands) == 8

    @pytest.mark.parametrize("flag", [["--rank-tol", "1e-8"], ["--verify-tol", "1e-7"], ["--pretty"]])
    def test_removed_flags_are_rejected(self, capsys, intro_spec_file, nondiag_files, flag):
        for argv in TestParserReuse.argv_sequence(intro_spec_file, *nondiag_files):
            with pytest.raises(SystemExit):
                main([*argv, *flag])
        assert capsys.readouterr().out == ""

    def test_seed_only_where_b_is_drawn(self, capsys, intro_spec_file, nondiag_files):
        # analyze --find-b and solve-b draw B from the kernel; nothing else
        # takes a seed or echoes one
        for argv in TestParserReuse.argv_sequence(intro_spec_file, *nondiag_files):
            draws = argv[0] in ("analyze", "solve-b")
            _, report = run_json(capsys, *argv)
            assert ("seed" in report) == draws
            if not draws:
                with pytest.raises(SystemExit):
                    main([*argv, "--seed", "1"])
        assert capsys.readouterr().out == ""

    def test_seed_changes_conjugator_deterministically(self, capsys, intro_spec_file, nondiag_files):
        a_path, _ = nondiag_files
        for argv in (
            ["analyze", intro_spec_file, "-p", "3", "-q", "7", "--find-b"],
            ["solve-b", a_path, "-p", "2", "-q", "3"],
        ):
            _, r1 = run_json(capsys, *argv, "--seed", "1")
            _, again = run_json(capsys, *argv, "--seed", "1")
            _, r2 = run_json(capsys, *argv, "--seed", "2")
            assert r1["conjugator"]["b"] is not None
            assert r1["conjugator"]["b"] == again["conjugator"]["b"]
            assert r2["conjugator"]["b"] is not None
            assert r1["conjugator"]["b"] != r2["conjugator"]["b"]

    def test_negative_seed_is_an_error_report(self, capsys, intro_spec_file, nondiag_files):
        # numpy's generator rejects a negative seed with a traceback
        a_path, _ = nondiag_files
        for argv in (
            ["analyze", a_path, "-p", "2", "-q", "3", "--find-b", "--seed", "-1"],
            ["analyze", intro_spec_file, "-p", "3", "-q", "7", "--seed", "-1"],
            ["solve-b", a_path, "-p", "2", "-q", "3", "--seed", "-5"],
        ):
            code, report = run_json(capsys, *argv)
            assert code == 1
            assert report["command"] == argv[0]
            assert "--seed must be >= 0" in report["error"]


class TestParserReuse:
    """main() builds its parser once; reusing it must not change any output."""

    @staticmethod
    def argv_sequence(spec_path, a_path, b_path):
        shape = ["-r", "3", "--rp", "1", "-s", "3", "--sp", "1", "--eps", "-1"]
        return [
            ["analyze", spec_path, "-p", "3", "-q", "7", "--find-b", "--seed", "2"],
            ["analyze", spec_path, "-p", "3", "-q", "5"],
            ["generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "1", "--scale", "2,5j"],
            ["generate", "-n", "2", "-p", "2", "-q", "3"],
            ["generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "0"],
            ["nilpotent", "--lam", "0/1", "--blocks", "3", "-p", "2", "-q", "3"],
            ["nilpotent", "--lam", "1/3", "--blocks", "4,2", "-p", "2", "-q", "5"],
            ["solve-b", a_path, "-p", "2", "-q", "3"],
            ["verify", a_path, b_path, "-p", "2", "-q", "3"],
            ["word2", "classify", *shape, "--max-report", "3"],
            ["word2", "classify", *shape],
            ["word2", "construct", *shape, "--u", "1/4", "--rho", "1/4", "--v", "1"],
            ["word2", "verify", a_path, b_path, "-r", "2", "--rp", "-1", "-s", "1", "--sp", "1",
             "--eps", "1"],
        ]

    def test_same_bytes_as_a_fresh_parser(self, capsys, intro_spec_file, nondiag_files):
        argvs = self.argv_sequence(intro_spec_file, *nondiag_files)
        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        reused = [run(capsys, *argv) for argv in argvs]
        assert reused == fresh
        assert {code for code, _ in fresh} == {0, 1}

    def test_bad_argv_still_exits(self, capsys, intro_spec_file):
        _, before = run(capsys, "analyze", intro_spec_file, "-p", "3", "-q", "7")
        bad = (["analyze"], ["no-such-command"], ["word2"], ["generate", "-n", "x", "-p", "2", "-q", "3"])
        for argv in bad:
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        _, after = run(capsys, "analyze", intro_spec_file, "-p", "3", "-q", "7")
        assert after == before

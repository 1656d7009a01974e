import argparse
import cmath
import collections
import contextlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from simpow import RANK_TOL, VERIFY_TOL, cli, similarity, spectra
from simpow.cli import main, matrix_from_json
from simpow.matrixcore import (
    conjugacy_residual,
    mat_int_pow,
    matrix_to_json,
)
from simpow.scalar import ExponentPair
from simpow.similarity import JordanSpec, matrix_from_spec
from simpow.solvers import intertwiner_dimension
from simpow.spectra import SpectrumMultiset
from test_similarity import integer_conjugate, integer_corpus

SRC = Path(__file__).resolve().parents[1] / "src"


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
def pair2_files(tmp_path):
    """A 2x2 solution of A^3 B^3 A B = -I (u = rho = i, v = 1, sigma = 2), as matrix files."""
    paths = []
    for name, m in (("a2", [[1j, 1.0], [0.0, -1j]]), ("b2", [[1j, 0.0], [2.0, -1j]])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(matrix_to_json(np.array(m, dtype=complex))))
        paths.append(str(path))
    return paths


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

    def test_complex_zero_is_zero(self, capsys, tmp_path):
        # [0.0, 0.0] is read as the eigenvalue 0, whose blocks split in a
        # power: the same report as "zero"; a spec holding both forms holds
        # 0 twice
        reports = []
        for name, zero in (("complex", [0.0, 0.0]), ("zero", "zero")):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps([{"eigenvalue": zero, "blocks": [2]}]))
            code, report = run_json(capsys, "analyze", str(path), "-p", "2", "-q", "3", "--find-b")
            assert code == 0
            del report["inputs"]["path"]
            reports.append(report)
        assert reports[0] == reports[1]
        assert reports[0]["spec"] == [{"eigenvalue": "zero", "blocks": [2]}]
        assert reports[0]["verdict"]["similar"] is True
        assert reports[0]["conjugator"]["kernel_dimension"] == 4
        path = tmp_path / "both.json"
        path.write_text(json.dumps([{"eigenvalue": [0.0, 0.0], "blocks": [2]},
                                    {"eigenvalue": "zero", "blocks": [1]}]))
        code, report = run_json(capsys, "analyze", str(path), "-p", "2", "-q", "3")
        assert code == 1
        assert report["error"] == f"bad spec file {path}: eigenvalues must be pairwise distinct"

    @pytest.mark.parametrize("command", [["analyze"], ["analyze", "--find-b"], ["solve-b"]])
    def test_unrecoverable_matrix(self, capsys, tmp_path, command):
        # eigenvalues 1.5e-6 apart: too close to split, too far apart to
        # certify merged; solve-b builds no B from a structure it cannot certify
        path = tmp_path / "a.json"
        path.write_text(json.dumps(matrix_to_json(np.diag([1.0, 1.0 + 1.5e-6]))))
        code, report = run_json(capsys, command[0], str(path), "-p", "2", "-q", "3", *command[1:])
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

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize(
        "content, error",
        [
            ({"rows": 1, "cols": 1, "data": [[NAN, 0.0]]}, "matrix contains non-finite entries"),
            ({"rows": 2, "cols": 2, "data": [[1.0, 0.0], [0.0, -INF], [0.0, 0.0], [1.0, 0.0]]},
             "matrix contains non-finite entries"),
            ([{"eigenvalue": [NAN, 0.0], "blocks": [1]}], "eigenvalue [nan, 0.0] is not finite"),
            ([{"eigenvalue": "1/3", "blocks": [1]}, {"eigenvalue": [0.0, INF], "blocks": [1]}],
             "eigenvalue [0.0, inf] is not finite"),
        ],
        ids=["matrix nan", "matrix -inf", "spec nan", "spec inf"],
    )
    def test_non_finite_input_is_a_bad_file(self, capsys, tmp_path, files, content, error):
        # json writes and reads NaN and Infinity; the loader refuses them, once
        path = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text(json.dumps(content))
        kind = "matrix" if isinstance(content, dict) else "spec"
        for argv in (
            ["analyze", path, "-p", "2", "-q", "3"],
            ["analyze", path, "-p", "2", "-q", "3", "--find-b"],
            ["solve-b", path, "-p", "2", "-q", "3"],
            ["verify", path, files["b2"], "-p", "2", "-q", "3"],
            ["word2", "verify", files["b2"], path, *self.SHAPE],
        ):
            code = main(argv)
            lines = capsys.readouterr().out.splitlines()
            assert code == 1
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == f"bad {kind} file {path}: {error}"

    @pytest.mark.parametrize(
        "header, error",
        [
            ({"rows": True, "cols": True}, "rows true is not an integer"),
            ({"rows": 1, "cols": False}, "cols false is not an integer"),
            ({"rows": 1.0, "cols": 1}, "rows 1.0 is not an integer"),
            ({"rows": "1", "cols": 1}, 'rows "1" is not an integer'),
            ({"rows": None, "cols": 1}, "rows null is not an integer"),
        ],
        ids=["bools", "bool cols", "float", "string", "null"],
    )
    def test_a_header_size_that_is_no_int_is_a_bad_matrix_file(
        self, capsys, tmp_path, files, header, error
    ):
        # a bool is an int subclass: true x true with one entry was a 1x1 matrix
        path = str(tmp_path / "bad.json")
        (tmp_path / "bad.json").write_text(json.dumps({**header, "data": [[2, 0]]}))
        for argv in (
            ["analyze", path, "-p", "2", "-q", "3"],
            ["solve-b", path, "-p", "2", "-q", "3"],
            ["verify", path, files["b2"], "-p", "2", "-q", "3"],
            ["word2", "verify", files["b2"], path, *self.SHAPE],
        ):
            code, report = run_json(capsys, *argv)
            assert code == 1
            assert report["error"] == f"bad matrix file {path}: {error}"

    @pytest.mark.parametrize("ev", [[1, 0, 7], [1], []], ids=["three parts", "one part", "empty"])
    def test_an_eigenvalue_of_other_than_two_parts_is_a_bad_spec_file(self, capsys, tmp_path, ev):
        # [1, 0, 7] was read as 1 + 0i, its third part dropped
        path = str(tmp_path / "spec.json")
        (tmp_path / "spec.json").write_text(json.dumps([
            {"eigenvalue": ev, "blocks": [1]}, {"eigenvalue": "1/3", "blocks": [1]},
        ]))
        for argv in (
            ["analyze", path, "-p", "2", "-q", "3"],
            ["analyze", path, "-p", "2", "-q", "3", "--find-b"],
            ["solve-b", path, "-p", "2", "-q", "3"],
        ):
            code, report = run_json(capsys, *argv)
            assert code == 1
            assert report["error"] == f"bad spec file {path}: eigenvalue {ev} is not [re, im]"

    def test_a_and_b_of_different_sizes(self, capsys, files):
        a, b = files["a3"], files["b2"]
        for argv in (
            ["verify", a, b, "-p", "2", "-q", "3"],
            ["word2", "verify", a, b, *self.SHAPE],
        ):
            code, report = run_json(capsys, *argv)
            assert code == 1
            assert report["error"] == "A is 3x3 but B is 2x2"


def simpow_process(*argv, cwd=None, **kwargs):
    """simpow run as a command in a fresh process, one BLAS thread."""
    return subprocess.Popen(
        [sys.executable, "-m", "simpow.cli", *argv], cwd=cwd, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
        **kwargs,
    )


class TestUnreadableInput:
    """Each file that cannot be read, and a stdout that closes, ends in one
    error line or in silence: never in a traceback."""

    @staticmethod
    def error_line(path):
        proc = simpow_process("analyze", str(path), "-p", "2", "-q", "3")
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (1, b"")
        lines = out.decode().splitlines()
        assert len(lines) == 1
        return json.loads(lines[0])["error"]

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert self.error_line(path).startswith(f"cannot read {path}: maximum recursion depth")

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'[{"eigenvalue": "1/3", "blocks": [1]}] \xff')
        assert self.error_line(path).startswith(f"cannot read {path}: 'utf-8' codec can't decode")

    def test_negative_size(self, tmp_path):
        # refused by its sign, not as "expected 1 entries, got 0"
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"rows": -1, "cols": -1, "data": []}))
        assert self.error_line(path) == f"bad matrix file {path}: rows -1 is negative"

    def test_closed_stdout_exits_quietly(self):
        # the report, about 100 kB, outgrows the pipe, whose reader stops after 10 bytes
        proc = simpow_process("generate", "-n", "14", "-p", "1", "-q", "2")
        assert proc.stdout.read(10) == b'{"command"'
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=120) == 1


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

    @pytest.mark.parametrize("scale", ["nan,1", "inf,1", "-inf,1", "1,1+nanj"])
    def test_non_finite_scale_is_a_bad_scale(self, capsys, scale):
        code, report = run_json(
            capsys, "generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "1", f"--scale={scale}"
        )
        assert code == 1
        assert report["error"] == f"bad --scale {scale!r}"

    @pytest.mark.parametrize("scale", ["", ","])
    def test_empty_scale_list_is_refused(self, capsys, scale):
        # an empty --scale is a list of no entries, not the flag left out
        code, report = run_json(
            capsys, "generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "1", f"--scale={scale}"
        )
        assert code == 1
        assert report["error"] == "need 2 scale entries, got 0"

    @pytest.mark.parametrize("n, scale", [("2", "nan,1"), ("25", "1")])
    def test_scale_without_k1_is_refused_first(self, capsys, n, scale):
        # --scale is read only with --k1, so without it the request is
        # refused before anything is computed: n = 25 would meet the
        # modulus cap
        code, out = run(capsys, "generate", "-n", n, "-p", "2", "-q", "3", f"--scale={scale}")
        assert code == 1
        assert len(out.splitlines()) == 1
        assert json.loads(out)["error"] == "--scale needs --k1"

    def test_n_below_one(self, capsys):
        code, out = run(capsys, "generate", "-n", "0", "-p", "2", "-q", "3")
        assert code == 1
        assert len(out.splitlines()) == 1
        assert json.loads(out)["error"] == "n must be >= 1, got 0"

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

    def test_size_refused_before_it_is_solved(self):
        # n = 3000 is refused by the cap of every matrix built from a spec,
        # before the solver allocates: uncapped, --blocks 1000 took 10.7 s
        # and 747 MB, and --blocks 3000 under a 1.5 GiB address-space limit
        # ended in a MemoryError traceback
        limit = 3 * 2**29
        proc = subprocess.run(
            [sys.executable, "-m", "simpow.cli", "nilpotent", "--lam", "0/1", "--blocks", "3000",
             "-p", "2", "-q", "3"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 1, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numeric recovery supports n <= 64"


class TestSnapRadius:
    """cli._exact_roots snaps a spec file's [re, im] eigenvalue to an
    admissible root within RANK_TOL * (|z| + 1) of it: at half that
    distance it is snapped, at twice it is not."""

    @pytest.mark.parametrize("direction", [1, 1j], ids=["radial", "angular"])
    @pytest.mark.parametrize("factor, snapped", [(0.5, True), (2.0, False)])
    def test_edge(self, capsys, tmp_path, direction, factor, snapped):
        # 1/5 has order 5 = |3^2 - 2^2|, so it is admissible at n = 2; |z| + 1 = 2 up to 1e-9
        root = cmath.exp(2j * math.pi / 5)
        z = root * (1 + factor * RANK_TOL * 2 * direction)
        path = tmp_path / "edge.json"
        path.write_text(json.dumps([
            {"eigenvalue": [z.real, z.imag], "blocks": [1]}, {"eigenvalue": "0/1", "blocks": [1]},
        ]))
        code, report = run_json(capsys, "analyze", str(path), "-p", "2", "-q", "3")
        assert code == 0
        expected = "1/5" if snapped else [z.real, z.imag]
        assert report["spec"][0]["eigenvalue"] == expected


class TestSolveB:
    def test_nondiag_matrix(self, capsys, nondiag_files):
        a_path, _ = nondiag_files
        code, report = run_json(capsys, "solve-b", a_path, "-p", "2", "-q", "3")
        assert code == 0
        assert report["conjugator"]["residual"] < 1e-9
        assert report["polynomial_in_a_q"] is not None

    def test_ill_conditioned_integer_matrix(self, capsys, tmp_path):
        # companion(Phi_7) under 35 integer operations: ||A||_2 = 2.5e6, so the
        # finest clustering radius 1e-6 ||A||_2 = 2.5 passes the 0.87 gap
        # between primitive 7th roots and the one cluster certifies at no
        # point; the exact count is 6, and solve-b answers it or refuses as
        # analyze does
        a, _ = integer_conjugate([(7, 1)], 35, seed=1)
        path = tmp_path / "a.json"
        path.write_text(json.dumps(matrix_to_json(a)))
        code, report = run_json(capsys, "solve-b", str(path), "-p", "2", "-q", "3")
        assert code == 1 or report["conjugator"]["kernel_dimension"] == 6
        if code == 1:
            assert report["error"].startswith("cannot recover structure: ")

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


class TestOneSplitPerRequest:
    """Recovery and the conjugator share one eigenvalue ladder: a request
    takes at most one eig(A), a matrix too large to recover takes none, and
    so does a spec file, whose structure is known."""

    @pytest.fixture
    def eig_sizes(self, monkeypatch):
        sizes, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda m: sizes.append(len(m)) or eig(m))
        return sizes

    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["analyze", "{a}", "-p", "2", "-q", "3", "--find-b"], 1),
            (["analyze", "{a}", "-p", "2", "-q", "3"], 1),
            (["solve-b", "{a}", "-p", "2", "-q", "3"], 1),
            (["analyze", "{spec}", "-p", "3", "-q", "7", "--find-b"], 0),
            (["solve-b", "{spec}", "-p", "3", "-q", "7"], 0),
            (["analyze", "{spec}", "-p", "3", "-q", "7"], 0),
        ],
    )
    def test_one_eig_per_request(
        self, capsys, eig_sizes, nondiag_files, intro_spec_file, argv, calls
    ):
        argv = [arg.format(a=nondiag_files[0], spec=intro_spec_file) for arg in argv]
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert len(eig_sizes) == calls
        if "--find-b" in argv or argv[0] == "solve-b":
            assert report["conjugator"]["residual"] < 1e-9

    def test_size_refused_before_the_split(self, capsys, eig_sizes, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(65))))
        code, report = run_json(capsys, "analyze", str(path), "-p", "2", "-q", "3", "--find-b")
        assert code == 1
        assert report["error"] == "cannot recover structure: numeric recovery supports n <= 64"
        assert eig_sizes == []

    @pytest.mark.parametrize("command", [["analyze", "--find-b"], ["solve-b"]])
    @pytest.mark.parametrize("kind", ["matrix", "spec"])
    def test_every_split_refuses_n_past_64(self, capsys, eig_sizes, tmp_path, command, kind):
        # the cap sits in eigenspace_splits, which every command that splits A
        # passes through; without it solve-b on 2 I at n = 65 ran for 116 s
        # and peaked at 1.95 GB
        content = (
            matrix_to_json(2.0 * np.eye(65)) if kind == "matrix"
            else [{"eigenvalue": "0/1", "blocks": [64, 1]}]
        )
        path = tmp_path / "big.json"
        path.write_text(json.dumps(content))
        code, report = run_json(capsys, command[0], str(path), "-p", "2", "-q", "3", *command[1:])
        assert code == 1
        assert report["error"].endswith("numeric recovery supports n <= 64")
        assert eig_sizes == []

    @pytest.mark.parametrize(
        "command",
        [
            ["analyze", "{spec}", "-p", "2", "-q", "3", "--find-b"],
            ["solve-b", "{spec}", "-p", "2", "-q", "3"],
            ["verify", "{spec}", "{spec}", "-p", "2", "-q", "3"],
            ["word2", "verify", "{spec}", "{spec}", "-r", "1", "--rp", "1", "-s", "1", "--sp", "1",
             "--eps", "1"],
        ],
    )
    def test_spec_refused_before_it_is_built(self, tmp_path, command):
        # n = 20000 would take 2.98 GiB per complex matrix; under a 2 GiB
        # address-space limit building it ended in a MemoryError traceback,
        # in verify and word2 verify too: every spec becomes a matrix
        # through the one capped step
        path = tmp_path / "huge.json"
        path.write_text(json.dumps([{"eigenvalue": "0/1", "blocks": [20000]}]))
        limit = 2 * 2**30
        proc = subprocess.run(
            [sys.executable, "-m", "simpow.cli", *(arg.format(spec=path) for arg in command)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 1, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numeric recovery supports n <= 64"

    def test_spec_verdict_at_any_size(self, capsys, eig_sizes, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps([{"eigenvalue": "0/1", "blocks": [64, 1]}]))
        code, report = run_json(capsys, "analyze", str(path), "-p", "2", "-q", "3")
        assert code == 0
        assert report["verdict"]["similar"] is True
        assert eig_sizes == []


N40_SPEC = [{"eigenvalue": "0/1", "blocks": [3] * 12}] + [
    {"eigenvalue": f"{k}/65", "blocks": [1]} for k in (1, 34, 51, 44)
]


class TestSpecConjugatorReports:
    """A spec file's conjugator comes from the closed form, with its
    kernel dimension counted from the spec: deterministic, and present for
    every similar spec."""

    @pytest.mark.parametrize("command", [["analyze", "--find-b"], ["solve-b"]])
    def test_n40_spec(self, capsys, tmp_path, command):
        # twelve 3-blocks at 1 and the 4-cycle {1, 34, 51, 44}/65 under (2, 3):
        # 12 * 12 * 3 + 4 = 436 dimensions; through the kernel SVD this took 2.5 s
        path = tmp_path / "n40.json"
        path.write_text(json.dumps(N40_SPEC))
        code, report = run_json(capsys, command[0], str(path), "-p", "2", "-q", "3", *command[1:])
        assert code == 0
        assert report["conjugator"]["kernel_dimension"] == 436
        assert report["conjugator"]["b"]["rows"] == 40
        assert report["conjugator"]["residual"] < 1e-12

    @pytest.mark.parametrize("size", [11, 13, 16])
    @pytest.mark.parametrize("command", [["analyze", "--find-b"], ["solve-b"]])
    def test_single_blocks_the_draw_missed(self, capsys, tmp_path, size, command):
        # one draw from the kernel found no invertible B for these similar specs
        path = tmp_path / "block.json"
        path.write_text(json.dumps([{"eigenvalue": "0/1", "blocks": [size]}]))
        code, report = run_json(capsys, command[0], str(path), "-p", "2", "-q", "3", *command[1:])
        assert code == 0
        assert report["conjugator"]["kernel_dimension"] == size
        assert report["conjugator"]["b"] is not None
        assert report["conjugator"]["residual"] < 1e-12

    @pytest.mark.parametrize("pair", [("3", "7"), ("3", "5")])
    def test_b_exactly_when_similar(self, capsys, intro_spec_file, pair):
        p, q = pair
        _, analyzed = run_json(capsys, "analyze", intro_spec_file, "-p", p, "-q", q, "--find-b")
        _, solved = run_json(capsys, "solve-b", intro_spec_file, "-p", p, "-q", q)
        similar = analyzed["verdict"]["similar"]
        assert similar == (pair == ("3", "7"))
        for report in (analyzed, solved):
            assert (report["conjugator"]["b"] is not None) == similar
            assert (report["conjugator"]["residual"] is not None) == similar

    def test_singular_pair_with_p_above_q(self, capsys, tmp_path):
        # analyze judges the normalized (2, 3), but both commands report the
        # B of (3, 2) as typed: the blocks at 0 vanish in both powers, and on
        # the 2-block at 1 the B of (2, 3) is this B's inverse (corner entry
        # 1.5 against 0.667)
        path = tmp_path / "singular.json"
        path.write_text(json.dumps([{"eigenvalue": "zero", "blocks": [2, 1]},
                                    {"eigenvalue": "0/1", "blocks": [2]}]))
        _, analyzed = run_json(capsys, "analyze", str(path), "-p", "3", "-q", "2", "--find-b")
        _, solved = run_json(capsys, "solve-b", str(path), "-p", "3", "-q", "2")
        assert analyzed["normalized"]["swapped"] is True
        assert analyzed["conjugator"]["kernel_dimension"] == solved["conjugator"]["kernel_dimension"]
        assert solved["conjugator"]["residual"] < 1e-12
        assert analyzed["conjugator"] == solved["conjugator"]

    @pytest.mark.parametrize("blocks", [[64], [30, 30]])
    @pytest.mark.parametrize("pair", [(2, 3), (1, 3), (-1, 2), (3, 5), (2, 5), (1, 2), (3, -2)])
    def test_b_passes_the_matrix_file_bound(self, capsys, tmp_path, blocks, pair):
        # a spec file's B meets the bound a matrix file's B is refused at,
        # VERIFY_TOL (||A^p||_F + ||A^q||_F), with decades to spare, at the
        # largest blocks the n <= 64 cap allows
        spec = [{"eigenvalue": "0/1", "blocks": blocks}]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        p, q = pair
        code, report = run_json(capsys, "analyze", str(path), "-p", str(p), "-q", str(q), "--find-b")
        assert code == 0
        assert report["conjugator"]["b"] is not None
        a = matrix_from_spec(JordanSpec.from_json(spec))
        bound = VERIFY_TOL * (np.linalg.norm(mat_int_pow(a, p)) + np.linalg.norm(mat_int_pow(a, q)))
        assert report["conjugator"]["residual"] <= 1e-6 * bound

    @pytest.mark.parametrize("factor, kept", [(0.5, True), (2.0, False)])
    def test_b_refused_at_verify_tol(self, factor, kept):
        # A^p + delta E_00 is missed by B by delta max|B_0j| / max|B|, against
        # the bound 1e-9 (||A^p + delta E_00||_F + ||A^q||_F): delta puts the
        # residual at factor times it, with the documented VERIFY_TOL = 1e-9,
        # not read from the constant, so that a changed tolerance moves the
        # edge past it
        from simpow.solvers import spec_conjugator

        spec = JordanSpec.from_json(
            [{"eigenvalue": "1/5", "blocks": [2]}, {"eigenvalue": "4/5", "blocks": [2]}]
        )
        pq = ExponentPair(2, 3)
        a = matrix_from_spec(spec)
        a_p, a_q = mat_int_pow(a, pq.p), mat_int_pow(a, pq.q)
        b = spec_conjugator(spec, pq)
        norms = np.linalg.norm(a_p) + np.linalg.norm(a_q)
        a_p[0, 0] += factor * 1e-9 * norms * np.max(np.abs(b)) / np.max(np.abs(b[0]))
        if kept:
            out = cli._solve_conjugator(spec, pq, True, (a_p, a_q))
            bound = 1e-9 * (np.linalg.norm(a_p) + np.linalg.norm(a_q))
            assert out["residual"] == pytest.approx(factor * bound, rel=1e-3)
        else:
            with pytest.raises(ValueError, match="its B misses A\\^p B = B A\\^q"):
                cli._solve_conjugator(spec, pq, True, (a_p, a_q))

    def test_solve_b_snaps_a_written_root(self, capsys, tmp_path):
        # solve-b reads [re, im] as analyze does, so the file written with
        # floats describes the matrix of the one written with "1/5"
        z = complex(np.cos(2 * np.pi / 5), np.sin(2 * np.pi / 5))
        written = [{"eigenvalue": [z.real, z.imag], "blocks": [2]}, {"eigenvalue": "4/5", "blocks": [2]}]
        exact = [{"eigenvalue": "1/5", "blocks": [2]}, {"eigenvalue": "4/5", "blocks": [2]}]
        reports = []
        for name, spec in (("written.json", written), ("exact.json", exact)):
            path = tmp_path / name
            path.write_text(json.dumps(spec))
            code, report = run_json(capsys, "solve-b", str(path), "-p", "2", "-q", "3")
            assert code == 0
            reports.append({k: v for k, v in report.items() if k != "inputs"})
        assert reports[0] == reports[1]
        assert reports[0]["conjugator"]["b"] is not None


class TestOneAnswerPerRequest:
    """analyze --find-b and solve-b run one route: on the same file and
    pair they report the same conjugator or the same error, and its B
    solves A^p B = B A^q for the pair as typed."""

    INPUTS = {
        "singular-spec": [{"eigenvalue": "zero", "blocks": [2, 1]}, {"eigenvalue": "0/1", "blocks": [2]}],
        "diag(0,1,i)": np.diag([0, 1, 1j]),
        "1e-300*I": 1e-300 * np.eye(2),
        "1e200": np.array([[1e200, 2e200], [2e200, 1e200]]),
    }

    @pytest.mark.parametrize(
        "name, p, q",
        [
            ("intro", 7, 3), ("intro", -3, 5), ("singular-spec", 3, 2), ("diag(0,1,i)", -2, 3),
            ("diag(0,1,i)", 3, 2), ("1e-300*I", -2, 3), ("1e200", 2, 3),
        ],
    )
    def test_same_conjugator_or_error(self, capsys, tmp_path, intro_spec, name, p, q):
        content = intro_spec.to_json() if name == "intro" else self.INPUTS[name]
        if isinstance(content, list):
            a = matrix_from_spec(JordanSpec.from_json(content))
        else:
            a, content = content, matrix_to_json(content)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        argv = [str(path), "-p", str(p), "-q", str(q)]
        code, analyzed = run_json(capsys, "analyze", *argv, "--find-b")
        solved_code, solved = run_json(capsys, "solve-b", *argv)
        assert code == solved_code
        if code == 1:
            assert analyzed["error"] == solved["error"]
            return
        assert analyzed["conjugator"] == solved["conjugator"]
        if solved["conjugator"]["b"] is not None:
            b = np.asarray(matrix_from_json(solved["conjugator"]["b"]))
            a_p, a_q = mat_int_pow(a, p), mat_int_pow(a, q)
            residual = np.max(np.abs(a_p @ b - b @ a_q)) / np.max(np.abs(b))
            assert residual <= VERIFY_TOL * (np.linalg.norm(a_p) + np.linalg.norm(a_q))


class TestMatrixConjugator:
    """A matrix file's kernel_dimension is the count of the spec that
    recovery certifies, and its B is that spec's closed form carried to A's
    basis by the Jordan chains of the certificate: no n^2 x n^2 operator
    and no draw."""

    def test_integer_corpus_agrees_with_analyze(self, capsys, tmp_path):
        # 240 integer matrices (seeds 1000-1239, n <= 20) under (2, 3), many
        # of them ill-conditioned: every exit-0 solve-b reports the count of
        # the spec analyze reports, and a B within the bound it refuses at
        answered = refused = 0
        for seed in range(1000, 1240):
            a, _ = integer_corpus(seed)
            path = tmp_path / f"{seed}.json"
            path.write_text(json.dumps(matrix_to_json(a)))
            code, report = run_json(capsys, "solve-b", str(path), "-p", "2", "-q", "3")
            if code == 1:
                assert report["error"].startswith("cannot recover structure: "), seed
                refused += 1
                continue
            _, analyzed = run_json(capsys, "analyze", str(path), "-p", "2", "-q", "3")
            # a borderline split may go either way in a second eig
            if "error" in analyzed:
                continue
            spec = JordanSpec.from_json(analyzed["spec"])
            conjugator = report["conjugator"]
            assert conjugator["kernel_dimension"] == intertwiner_dimension(spec, ExponentPair(2, 3)), seed
            assert (conjugator["b"] is not None) == analyzed["verdict"]["similar"], seed
            if conjugator["b"] is not None:
                b = np.asarray(matrix_from_json(conjugator["b"]))
                a2, a3 = mat_int_pow(a, 2), mat_int_pow(a, 3)
                bound = VERIFY_TOL * (np.linalg.norm(a2) + np.linalg.norm(a3))
                assert conjugacy_residual(b, a2, a3) <= bound, seed
            answered += 1
        assert answered >= 200 and refused <= 30

    @pytest.mark.parametrize(
        "blocks, dimension, limit_ms",
        [((4, 3, 2, 1) * 4, 480, 50), ((4, 3, 2, 1) * 6 + (4,), 1204, 250)],
        ids=["n40", "n64"],
    )
    def test_single_eigenvalue(self, capsys, tmp_path, blocks, dimension, limit_ms):
        # one cluster at 1, whose chains take the nested kernels of A - 1
        # that recovery certified: no n^2 x n^2 operator, whose SVD at
        # n = 40 took seconds
        spec = JordanSpec.from_json([{"eigenvalue": "0/1", "blocks": list(blocks)}])
        path = tmp_path / "a.json"
        path.write_text(json.dumps(matrix_to_json(matrix_from_spec(spec, conjugate_seed=3))))
        argv = ["solve-b", str(path), "-p", "2", "-q", "3"]
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            code, report = run_json(capsys, *argv)
            elapsed.append(time.perf_counter() - start)
        assert code == 0
        assert report["conjugator"]["kernel_dimension"] == dimension
        assert report["conjugator"]["residual"] <= 1e-12
        assert min(elapsed) * 1e3 < limit_ms


class TestOneWalkPerRequest:
    """The spectrum of a spec is sorted once per analyze, and the successor
    action on it is walked once: successor() runs once per distinct nonzero
    eigenvalue of a coprime spectrum and never for one that is not."""

    @pytest.mark.parametrize(
        "spec, p, q, successors",
        [
            ("intro", 3, 7, 2),  # similar, with a nilpotent part
            ("intro", 3, 5, 2),  # jordan-structure-mismatch-in-orbit
            ([{"eigenvalue": "1/5", "blocks": [2]}, {"eigenvalue": "4/5", "blocks": [1]}], 2, 3, 2),
            ([{"eigenvalue": "1/3", "blocks": [1]}, {"eigenvalue": "1/5", "blocks": [1]}], 2, 3, 0),
        ],
    )
    def test_one_sort_one_walk(
        self, capsys, monkeypatch, tmp_path, intro_spec_file, spec, p, q, successors
    ):
        path = intro_spec_file
        if spec != "intro":
            path = str(tmp_path / "spec.json")
            Path(path).write_text(json.dumps(spec))
        sorts, walked = [], []
        post_init, successor = SpectrumMultiset.__post_init__, spectra.successor
        monkeypatch.setattr(
            SpectrumMultiset, "__post_init__", lambda u: sorts.append(u) or post_init(u)
        )
        monkeypatch.setattr(
            spectra, "successor", lambda lam, pq: walked.append(lam) or successor(lam, pq)
        )
        code, report = run_json(capsys, "analyze", path, "-p", str(p), "-q", str(q))
        assert code == 0
        assert len(sorts) == 1
        assert len(walked) == successors == len(set(walked))


class TestOneVerdictPerRequest:
    """analyze --find-b and solve-b judge the pair once per request, on the
    pair analyze normalizes to, and the conjugator reads that verdict."""

    @pytest.mark.parametrize("command", [["analyze", "--find-b"], ["solve-b"]])
    @pytest.mark.parametrize(
        "kind, p, q",
        [("spec", 3, 7), ("spec", 3, 5), ("spec", 7, 3), ("matrix", 2, 3)],
        ids=["similar", "not-similar", "singular-p-above-q", "matrix"],
    )
    def test_one_verdict(
        self, capsys, monkeypatch, intro_spec_file, nondiag_files, command, kind, p, q
    ):
        judged, judge = [], similarity.powers_similar_general
        monkeypatch.setattr(
            similarity, "powers_similar_general",
            lambda *args: judged.append(args[1]) or judge(*args),
        )
        path = intro_spec_file if kind == "spec" else nondiag_files[0]
        code, report = run_json(capsys, command[0], path, "-p", str(p), "-q", str(q), *command[1:])
        assert code == 0
        assert judged == [ExponentPair(min(p, q), max(p, q))]


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

    def test_construct_subnormal_v(self, capsys):
        # sigma = 2 / v overflows: the report cannot hold B
        code, report = run_json(
            capsys, "word2", "construct", "-r", "3", "--rp", "1", "-s", "3", "--sp", "1",
            "--eps", "-1", "--u", "1/4", "--rho", "1/4", "--v", "1e-320",
        )
        assert code == 1
        assert report["error"] == "matrix contains non-finite entries"

    def test_construct_inadmissible(self, capsys):
        code, report = run_json(
            capsys, "word2", "construct", "-r", "3", "--rp", "1", "-s", "3", "--sp", "1",
            "--eps", "-1", "--u", "1/2", "--rho", "1/4", "--v", "1",
        )
        assert code == 1
        assert "error" in report

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["construct", "-r", "3", "--rp", "1", "-s", "3", "--sp", "1", "--eps", "-1",
              "--u", "1/3", "--rho", "1/4", "--v", "1"], "u^(r-r') = 2/3 is not +-1"),
            (["classify", "-r", "3", "--rp", "1", "-s", "4", "--sp", "2", "--eps", "1"],
             "s=4 and s'=2 must be coprime"),
        ],
        ids=["u-off-its-branch", "s-not-coprime"],
    )
    def test_refusals(self, capsys, argv, error):
        code, report = run_json(capsys, "word2", *argv)
        assert code == 1
        assert report["error"] == error

    def test_verify_larger_matrices_refused(self, capsys, nondiag_files):
        # word2 is the paper's 2x2 equation: a 4x4 pair gets one error report
        a_path, b_path = nondiag_files
        code, report = run_json(
            capsys, "word2", "verify", a_path, b_path, "-r", "2", "--rp", "-1", "-s", "1",
            "--sp", "1", "--eps", "1",
        )
        assert code == 1
        assert report["error"] == "the word equation is for 2x2 matrices, got 4x4"


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

    def test_st_test_of_huge_commuting_matrices(self, capsys, files):
        # the word A B A^-1 B^-1 is I; det(AB - BA) = 0, while the unscaled
        # bound VERIFY_TOL (|A|_F |B|_F)^2 would overflow
        argv = ["word2", "verify", str(files["e100"]), str(files["e100"]), *self.COMMUTATOR]
        code, report = run_json(capsys, *argv)
        assert code == 0
        assert report["residual"] == 0.0
        assert report["simultaneously_triangularizable"] is True

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

    def test_tolerances_echoed(self, capsys, intro_spec_file, nondiag_files, pair2_files):
        # the checker under bench/ reads verify_tol from every report
        commands = set()
        for argv in TestParserReuse.argv_sequence(intro_spec_file, *nondiag_files, *pair2_files):
            code, report = run_json(capsys, *argv)
            if code == 0:
                commands.add(report["command"])
                assert report["tolerances"] == {"rank_tol": RANK_TOL, "verify_tol": VERIFY_TOL}
        assert len(commands) == 8

    @pytest.mark.parametrize("flag", [["--rank-tol", "1e-8"], ["--verify-tol", "1e-7"], ["--pretty"]])
    def test_removed_flags_are_rejected(
        self, capsys, intro_spec_file, nondiag_files, pair2_files, flag
    ):
        for argv in TestParserReuse.argv_sequence(intro_spec_file, *nondiag_files, *pair2_files):
            with pytest.raises(SystemExit):
                main([*argv, *flag])
        assert capsys.readouterr().out == ""

    def test_seed_only_where_b_is_drawn(self, capsys, intro_spec_file, nondiag_files, pair2_files):
        # analyze and solve-b accept --seed and echo it, although B is now
        # deterministic; nothing else takes a seed or echoes one
        for argv in TestParserReuse.argv_sequence(intro_spec_file, *nondiag_files, *pair2_files):
            draws = argv[0] in ("analyze", "solve-b")
            _, report = run_json(capsys, *argv)
            assert ("seed" in report) == draws
            if not draws:
                with pytest.raises(SystemExit):
                    main([*argv, "--seed", "1"])
        assert capsys.readouterr().out == ""

    def test_seed_leaves_the_conjugator_unchanged(self, capsys, intro_spec_file, nondiag_files):
        # B is a closed form, for a matrix file in the basis of its Jordan
        # chains: no seed draws anything, and every seed gives the same report
        a_path, _ = nondiag_files
        for argv in (
            ["analyze", a_path, "-p", "2", "-q", "3", "--find-b"],
            ["solve-b", a_path, "-p", "2", "-q", "3"],
            ["analyze", intro_spec_file, "-p", "3", "-q", "7", "--find-b"],
            ["solve-b", intro_spec_file, "-p", "3", "-q", "7"],
        ):
            reports = [run_json(capsys, *argv, "--seed", seed)[1] for seed in ("0", "1", "2", "977")]
            assert [report.pop("seed") for report in reports] == [0, 1, 2, 977]
            assert reports[0]["conjugator"]["b"] is not None
            assert all(report == reports[0] for report in reports)

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


# argv drawn from cli._GRAMMAR: well-formed, or broken by one rule under
# which the table declines the argv and the full parser reads it
DECLINE_RULES = (
    "unknown", "help", "attached", "repeated", "dashdash", "dash positional", "dash value",
    "switch =", "type", "choices", "missing", "positional count",
)
INT_VALUES = ["0", "3", "-5", "-1", "12", "007", "1_0", " 4", "-20"]
STR_VALUES = ["1/4", "0/1", "2,5j", "", "x y", "3", "a=b"]
POSITIONAL_VALUES = ["a.json", "spec.json", "", "x y", "3", "word2", "=", "a=b"]


def draw_argv(rng, rule=None):
    """A random argv of one command path, broken by rule when one is given."""
    paths = [path for path, (_, func, arguments) in cli._GRAMMAR.items() if func and (
        rule not in ("dash positional", "switch =", "choices")
        or any({"dash positional": name[0] != "-", "switch =": "action" in keywords,
                "choices": "choices" in keywords}[rule] for name, keywords in arguments)
    )]
    path = rng.choice(paths)
    arguments = cli._GRAMMAR[path][2]
    positionals = [rng.choice(POSITIONAL_VALUES) for name, _ in arguments if name[0] != "-"]
    groups, valued, ints = [], [], []  # each option's tokens; [flag, value] groups, int ones
    for name, keywords in arguments:
        if name[0] != "-" or not keywords.get("required") and rng.random() < 0.5:
            continue
        if "action" in keywords:
            groups.append([name])
            continue
        choices = [str(c) for c in keywords.get("choices", ())]
        value = rng.choice(choices or (INT_VALUES if keywords.get("type") is int else STR_VALUES))
        if rule == "choices" and choices:
            value = rng.choice(["0", "2", "-2", "10"])
        if name[:2] == "--" and rng.random() < 0.3:
            groups.append([f"{name}={value}"])
        else:
            valued.append(len(groups))
            if keywords.get("type") is int:
                ints.append(len(groups))
            groups.append([name, value])
    long_flags = [group for group in groups if group[0][:2] == "--"]
    if rule == "unknown" and long_flags and rng.random() < 0.5:  # an abbreviation
        group = rng.choice(long_flags)
        flag, eq, value = group[0].partition("=")
        group[0] = flag[:-1] + eq + value
    elif rule == "unknown":
        groups.append([rng.choice(["--bogus", "-x", "--find", "--max", "--se", "--r", "--s", "-P"])])
    elif rule == "help":
        groups.append([rng.choice(["-h", "--help"])])
    elif rule == "attached":
        group = groups[rng.choice([i for i in valued if groups[i][0][:2] != "--"])]
        group[:] = [group[0] + rng.choice(["", "="]) + group[1]]
    elif rule == "repeated":
        group = rng.choice(groups)
        groups.append(group[:1] + [rng.choice(INT_VALUES)] * (len(group) - 1))
    elif rule == "dashdash":
        groups.append(["--"])
    elif rule == "dash positional":
        positionals[rng.randrange(len(positionals))] = rng.choice(["-x", "-1", "-", "-a.json"])
    elif rule == "dash value":
        groups[rng.choice(valued)][1] = rng.choice(["-x", "-1.5", "-", "--p", "-1 2", "-p", "-٣"])
    elif rule == "switch =":
        groups.append(["--find-b=" + rng.choice(["", "1", "x"])])
    elif rule == "type":
        if not ints:  # a command whose drawn int options all went in --flag=value form
            return draw_argv(rng, rule)
        groups[rng.choice(ints)][1] = rng.choice(["x", "1.5", "", "1e3", "0x1"])
    elif rule == "missing":
        required = [name for name, keywords in arguments if keywords.get("required")]
        dropped = rng.choice(required)
        groups = [g for g in groups if g[0].partition("=")[0] != dropped]
    elif rule == "positional count":
        if positionals and rng.random() < 0.5:
            positionals.pop(rng.randrange(len(positionals)))
        else:
            positionals.insert(rng.randrange(len(positionals) + 1), "extra.json")
    rng.shuffle(groups)
    places = sorted(rng.randrange(len(groups) + 1) for _ in positionals)
    for at, value in reversed(list(zip(places, positionals))):  # keeps their order
        groups.insert(at, [value])
    return [*path, *(token for group in groups for token in group)]


class TestParserReuse:
    """main() reads a well-formed argv by the grammar table, without
    argparse, and hands every other argv to the full parser: neither may
    change any output."""

    @staticmethod
    def argv_sequence(spec_path, a_path, b_path, a2_path, b2_path):
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
            ["word2", "verify", a2_path, b2_path, *shape],
        ]

    def test_same_bytes_as_a_fresh_parser(
        self, capsys, intro_spec_file, nondiag_files, pair2_files
    ):
        # no parser or state is kept between requests: a second pass of the
        # sequence in the same process answers with the same bytes
        argvs = self.argv_sequence(intro_spec_file, *nondiag_files, *pair2_files)
        first = [run(capsys, *argv) for argv in argvs]
        second = [run(capsys, *argv) for argv in argvs]
        assert second == first
        assert {code for code, _ in first} == {0, 1}

    @staticmethod
    def exiting_argv(spec_path):
        """argv that argparse ends with SystemExit: bad ones (exit 2) and help (exit 0)."""
        shape = ["-r", "3", "--rp", "1", "-s", "3", "--sp", "1", "--eps", "-1"]
        return [
            ["word2", "classify", *shape, "--no-such-flag", "1"],
            ["word2", "classify", *shape[:-1], "0"],
            ["nilpotent", "--lam", "0/1", "-p", "2", "-q", "3"],
            ["generate", "-n", "x", "-p", "2", "-q", "3"],
            ["generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "1", "--scale=1,2", "extra"],
            ["analyze"],
            ["word2"],
            ["no-such-command"],
            [],
            ["-h"],
            ["analyze", spec_path, "-p", "3", "-q", "7", "-h"],
            ["word2", "construct", "-h"],
            ["word2", "-h"],
        ]

    def test_bad_argv_still_exits(self, capsys, intro_spec_file):
        _, before = run(capsys, "analyze", intro_spec_file, "-p", "3", "-q", "7")
        bad = (["analyze"], ["no-such-command"], ["word2"], ["generate", "-n", "x", "-p", "2", "-q", "3"])
        for argv in bad:
            with pytest.raises(SystemExit):
                main(argv)
        capsys.readouterr()
        _, after = run(capsys, "analyze", intro_spec_file, "-p", "3", "-q", "7")
        assert after == before

    def test_same_namespace_as_the_full_parser(self, intro_spec_file, nondiag_files, pair2_files):
        # a command's own parser reads its arguments as the full parser
        # does, abbreviations and negative values included
        reference = cli.build_parser()
        argvs = self.argv_sequence(intro_spec_file, *nondiag_files, *pair2_files) + [
            ["analyze", intro_spec_file, "-p", "3", "-q", "7", "--find"],
            ["word2", "classify", "-r", "3", "--rp", "1", "-s", "-5", "--sp", "-7", "--eps", "1",
             "--max", "2"],
        ]
        for argv in argvs:
            assert vars(cli._parse_args(argv)) == vars(reference.parse_args(argv)), argv

    def test_same_exit_and_messages_as_the_full_parser(self, capsys, monkeypatch, intro_spec_file):
        # through main's argv and through sys.argv, as the console script parses
        reference = cli.build_parser()
        for argv in self.exiting_argv(intro_spec_file):
            outcomes = []
            for parse, parse_argv in (
                (reference.parse_args, argv),
                (cli._parse_args, argv),
                (cli._parse_args, None),
            ):
                monkeypatch.setattr(sys, "argv", ["simpow", *argv])
                with pytest.raises(SystemExit) as exit_info:
                    parse(parse_argv)
                outcomes.append((exit_info.value.code, *capsys.readouterr()))
            assert outcomes[1] == outcomes[2] == outcomes[0], argv
            assert outcomes[0][0] == (0 if "-h" in argv else 2)

    def test_table_reads_as_argparse_does(self, capsys, monkeypatch):
        # 2400 drawn argv, 40% well-formed and the rest broken by one rule
        # each: a well-formed argv is read by the table into argparse's
        # namespace, a broken one is declined and ends as the full parser
        # ends it; build_parser is counted, and shared to keep this fast
        reference = cli.build_parser()
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or reference)
        rng = random.Random(2029)
        seen = collections.Counter()
        for i in range(2400):
            rule = None if i % 5 < 2 else DECLINE_RULES[i % len(DECLINE_RULES)]
            argv = draw_argv(rng, rule)
            outcomes = []
            for parse in (reference.parse_args, cli._parse_args):
                built.clear()
                try:
                    outcomes.append(("namespace", vars(parse(argv))))
                except SystemExit as exc:
                    outcomes.append((exc.code, *capsys.readouterr()))
            assert outcomes[1] == outcomes[0], argv
            assert built == ([] if rule is None else [1]), (rule, argv)
            seen[rule, outcomes[0][0] == "namespace"] += 1
        assert {rule for rule, _ in seen} == {None, *DECLINE_RULES}
        assert seen[None, True] == 960
        assert seen["unknown", True] and seen["unknown", False]  # abbreviations and errors

    def test_one_parse_per_request(
        self, capsys, monkeypatch, intro_spec_file, nondiag_files, pair2_files
    ):
        # a well-formed argv is read by the grammar table, with no argparse
        # parse at all; a declined one makes exactly the full parser's parses
        calls = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counted(parser, *args, **kwargs):
            calls.append(parser.prog)
            return parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        for argv in self.argv_sequence(intro_spec_file, *nondiag_files, *pair2_files):
            calls.clear()
            run(capsys, *argv)
            assert calls == [], argv
        declined = self.exiting_argv(intro_spec_file) + [
            ["analyze", intro_spec_file, "-p", "3", "-q", "7", "--find"],
            ["word2", "classify", "-r", "3", "--rp", "1", "-s", "-5", "--sp", "-7", "--eps", "1",
             "--max", "2"],
        ]
        for argv in declined:
            counts = []
            for parse in (cli.build_parser().parse_args, cli._parse_args):
                calls.clear()
                with contextlib.suppress(SystemExit):
                    parse(argv)
                counts.append(list(calls))
            capsys.readouterr()
            assert counts[1] == counts[0] != [], argv


class TestBenchTracer:
    """bench/tracer.py wraps every public simpow function from outside and
    its hooks read some of their arguments and results (spec_from_matrix's
    spec, classify's families).  Run traced, every command must answer as
    it does untraced, or a signature change would show only when the
    benchmark runs."""

    def test_every_command_answers_the_same_traced(
        self, capsys, monkeypatch, intro_spec_file, nondiag_files, pair2_files
    ):
        monkeypatch.syspath_prepend(str(SRC.parent / "bench"))
        from tracer import Tracer

        a_path, _ = nondiag_files
        argvs = TestParserReuse.argv_sequence(intro_spec_file, *nondiag_files, *pair2_files) + [
            ["analyze", a_path, "-p", "2", "-q", "3", "--find-b"],
            ["analyze", a_path, "-p", "2", "-q", "3"],
            ["solve-b", intro_spec_file, "-p", "3", "-q", "7"],
            ["verify", intro_spec_file, intro_spec_file, "-p", "3", "-q", "7"],
        ]
        untraced = [run(capsys, *argv) for argv in argvs]
        tracer = Tracer()
        tracer.install()
        try:
            traced = []
            for argv in argvs:
                code = cli.main(argv)  # the wrapped main
                traced.append((code, capsys.readouterr().out))
        finally:
            tracer.uninstall()
        assert traced == untraced
        assert {code for code, _ in traced} == {0, 1}
        for name in ("cli.main", "solvers.polynomial_witness",
                     "solvers.enumerate_valid_k1", "equation2x2.classify",
                     "similarity.spec_from_matrix", "solvers.spec_conjugator",
                     "equation2x2.verify_word", "equation2x2.construct_solution",
                     "equation2x2.is_simultaneously_triangularizable",
                     "matrixcore.mat_int_pow", "similarity.powers_similar_general"):
            assert tracer.calls[name][0] > 0, name
        assert cli.main is main

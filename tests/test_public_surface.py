"""Every public function, class, method, class-level and module-level name
of simpow is used by the program.

A public name must be referred to somewhere other than its own
definition: in the package itself (the CLI included) or in the benchmark
under bench/.  Tests do not count, so API that only its own tests reach
fails here; imports and assignments do not count either, so a name
imported or assigned and never read fails too.  bench/ is a client of
the package, so there only what it takes from simpow counts: attribute
accesses and names imported from simpow, not a local variable that
shares a public name.
"""

import ast
import cmath
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from simpow import cli

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "simpow").glob("*.py"))
CLIENTS = sorted((ROOT / "bench").glob("*.py"))


def assigned_names(node: ast.stmt):
    """The public plain names an Assign or AnnAssign statement binds."""
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
            if isinstance(target, ast.Name) and not target.id.startswith("_"):
                yield target.id


def public_definitions(tree: ast.Module):
    """(qualified name, bare name) of the public top-level functions,
    classes and assigned names, and of the public methods and class-level
    assigned names (fields, enum members, class attributes) of those
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{node.name}.{member.name}", member.name
                    for name in assigned_names(member):
                        yield f"{node.name}.{name}", name
        for name in assigned_names(node):
            yield name, name


def referenced_names(tree: ast.Module, client: bool = False) -> set[str]:
    """Every name an attribute access uses and, in the package, every name
    a variable read uses; definitions, assignments and imports bind names
    without using them.  In a client, a variable read counts only through
    its import: the names imported from simpow count instead."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif client:
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "simpow":
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
    return names


def test_every_public_name_is_used():
    used = set()
    for path in SOURCES + CLIENTS:
        used |= referenced_names(ast.parse(path.read_text(), str(path)), path in CLIENTS)
    unused = [
        f"{path.name}: {qualified}"
        for path in SOURCES
        for qualified, name in public_definitions(ast.parse(path.read_text(), str(path)))
        if name not in used
    ]
    assert not unused, f"public API that nothing in src/simpow or bench/ uses: {unused}"



# the exact commands and their error reports, run in a fresh process that
# must load neither numpy nor, since each argv is well-formed, argparse;
# "{...}" names a spec or matrix file written by spec_files
SHAPE = ["-r", "3", "--rp", "1", "-s", "3", "--sp", "1", "--eps", "-1"]
EXACT_ARGVS = {
    "import simpow.cli": None,
    "classify empty": ["word2", "classify", "-r", "2", "--rp", "1", "-s", "3", "--sp", "1",
                       "--eps", "1"],
    "classify continuum": ["word2", "classify", "-r", "1", "--rp", "1", "-s", "3", "--sp", "1",
                           "--eps", "1"],
    "classify enumerated": ["word2", "classify", "-r", "-403", "--rp", "1", "-s", "297",
                            "--sp", "-8", "--eps", "1"],
    "classify truncated": ["word2", "classify", "-r", "3", "--rp", "1", "-s", "3", "--sp", "1",
                           "--eps", "-1", "--max-report", "1"],
    "generate": ["generate", "-n", "6", "-p", "2", "-q", "3"],
    "generate --k1": ["generate", "-n", "6", "-p", "2", "-q", "3", "--k1", "5"],
    "generate --k1 complex --scale": ["generate", "-n", "3", "-p", "3", "-q", "5", "--k1", "2",
                                      "--scale=-1.5+0.25j,2j,1e300-1e-300j"],
    "generate --k1 negative exponent": ["generate", "-n", "5", "-p", "2", "-q", "-5", "--k1", "7"],
    "error generate excluded k1": ["generate", "-n", "4", "-p", "1", "-q", "2", "--k1", "5"],
    "error generate scale count": ["generate", "-n", "3", "-p", "2", "-q", "3", "--k1", "1",
                                   "--scale=1,2"],
    "error generate empty scale": ["generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "1",
                                   "--scale="],
    "error generate zero scale": ["generate", "-n", "3", "-p", "2", "-q", "3", "--k1", "1",
                                  "--scale=1,0j,2"],
    "analyze zero entry": ["analyze", "{zero}", "-p", "3", "-q", "7"],
    "analyze [re, im] eigenvalue": ["analyze", "{complex}", "-p", "2", "-q", "3"],
    "error --max-report 0": ["word2", "classify", "-r", "3", "--rp", "1", "-s", "3", "--sp", "1",
                             "--eps", "-1", "--max-report", "0"],
    "error generate -n 0": ["generate", "-n", "0", "-p", "2", "-q", "3"],
    "error --scale nan": ["generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "1",
                          "--scale=nan,1"],
    "error unreadable spec": ["analyze", "{missing}", "-p", "2", "-q", "3"],
    "word2 construct": ["word2", "construct", *SHAPE, "--u", "1/4", "--rho", "1/4", "--v", "1"],
    "word2 verify 2x2": ["word2", "verify", "{a}", "{b}", *SHAPE],
    "error word2 verify 3x3": ["word2", "verify", "{i3}", "{i3}", *SHAPE],
    "word2 verify 2x2 spec": ["word2", "verify", "{spec2}", "{b}", *SHAPE],
    "error word2 verify 3x3 spec": ["word2", "verify", "{spec3}", "{spec3}", *SHAPE],
    "error word2 verify singular": ["word2", "verify", "{singular}", "{b}", "-r", "2", "--rp", "-1",
                                    "-s", "1", "--sp", "1", "--eps", "1"],
    "error word2 verify word overflow": ["word2", "verify", "{e100}", "{e100}", "-r", "2",
                                         "--rp", "1", "-s", "2", "--sp", "1", "--eps", "1"],
    "error word2 construct --v 1e-320": ["word2", "construct", *SHAPE, "--u", "1/4", "--rho",
                                         "1/4", "--v", "1e-320"],
}

# runs cli.main on its arguments (none: only the import), then reports on
# the last line of stderr whether numpy and argparse were loaded
CHILD = """
import sys
from simpow import cli
try:
    code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print("numpy" in sys.modules, "argparse" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


@pytest.fixture
def spec_files(tmp_path):
    fifth = cmath.exp(2j * cmath.pi / 5)  # snaps to the root 1/5; 2 snaps to nothing
    specs = {
        "zero": [
            {"eigenvalue": "1/4", "blocks": [1, 1]},
            {"eigenvalue": "3/4", "blocks": [2]},
            {"eigenvalue": "zero", "blocks": [3]},
        ],
        "complex": [
            {"eigenvalue": [fifth.real, fifth.imag], "blocks": [1]},
            {"eigenvalue": [2.0, 0.0], "blocks": [2]},
        ],
        # word2 verify builds the first without numpy and refuses the second
        "spec2": [{"eigenvalue": [0.0, 1.0], "blocks": [1]}, {"eigenvalue": "3/4", "blocks": [1]}],
        "spec3": [{"eigenvalue": f"{k}/3", "blocks": [1]} for k in range(3)],
    }
    # the 2x2 solution u = rho = i, v = 1, sigma = 2 of SHAPE, a singular
    # matrix and one whose word with B = A overflows where no power does;
    # the 3x3 identity, which word2 refuses
    specs["i3"] = {"rows": 3, "cols": 3, "data": [[float(i % 4 == 0), 0.0] for i in range(9)]}
    matrices = {
        "a": [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, -1.0]],
        "b": [[0.0, 1.0], [0.0, 0.0], [2.0, 0.0], [0.0, -1.0]],
        "singular": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        "e100": [[1e100, 0.0], [0.0, 0.0], [0.0, 0.0], [1e100, 0.0]],
    }
    specs |= {name: {"rows": 2, "cols": 2, "data": data} for name, data in matrices.items()}
    paths = {"missing": str(tmp_path / "missing.json")}
    for name, spec in specs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(spec))
    return paths


def run_child(capsys, spec_files, argv, loaded):
    """Runs argv in a fresh process, which must have loaded exactly
    loaded of numpy and argparse, and answer with the exit code, stdout
    and stderr argv has in this one, where both are loaded."""
    argv = [arg.format(**spec_files) for arg in argv or []]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env=env, capture_output=True, text=True
    )
    *messages, flags = child.stderr.splitlines(keepends=True)
    assert flags.split() == [str(name in loaded) for name in ("numpy", "argparse")], child.stderr
    try:
        code = cli.main(argv) if argv else 0
    except SystemExit as exc:
        code = exc.code
    assert (child.returncode, child.stdout, "".join(messages)) == (code, *capsys.readouterr())


@pytest.mark.parametrize("argv", EXACT_ARGVS.values(), ids=EXACT_ARGVS.keys())
def test_numpy_free_modules_do_not_load_numpy(capsys, spec_files, argv):
    # the exact commands answer in a process without numpy or argparse
    run_child(capsys, spec_files, argv, loaded=())


NUMERIC_ARGVS = {
    "analyze --find-b": ["analyze", "{a}", "-p", "2", "-q", "3", "--find-b"],
    "solve-b": ["solve-b", "{zero}", "-p", "3", "-q", "7", "--seed=4"],
    "verify": ["verify", "{a}", "{b}", "-p", "-1", "-q", "2"],
    "nilpotent": ["nilpotent", "--lam", "1/3", "--blocks", "4,2", "-p", "2", "-q", "5"],
}


@pytest.mark.parametrize("argv", NUMERIC_ARGVS.values(), ids=NUMERIC_ARGVS.keys())
def test_well_formed_argv_loads_no_argparse(capsys, spec_files, argv):
    # the grammar table reads a numeric command's argv too
    run_child(capsys, spec_files, argv, loaded=("numpy",))


def test_declined_argv_goes_through_argparse(capsys, spec_files):
    # --find is argparse's abbreviation of --find-b, which the table declines
    run_child(capsys, spec_files, NUMERIC_ARGVS["analyze --find-b"][:-1] + ["--find"],
              loaded=("numpy", "argparse"))
    run_child(capsys, spec_files, ["word2", "verify", "{a}"], loaded=("argparse",))


def imported_names(tree: ast.Module):
    """The dotted names of every module an import statement names, and of
    every name imported from one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_equation2x2_imports_neither_numpy_nor_matrixcore():
    # word2 takes 2x2 matrices only, and its 2x2 kernel needs no arrays
    path = ROOT / "src" / "simpow" / "equation2x2.py"
    parts = {part for name in imported_names(ast.parse(path.read_text())) for part in name.split(".")}
    assert "scalar" in parts
    assert not parts & {"numpy", "matrixcore"}

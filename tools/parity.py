"""Byte parity of two source trees on the benchmark's request lists.

    python tools/parity.py PARENT_TREE CHANGE_TREE [--seeds 1-5]

The inputs of the numeric, exact and word2 workloads are built once per
seed, with PARENT_TREE's bench/workloads.build, in a temporary directory.
Every request and probe argv of them then runs through each tree's
simpow.cli.main, in one process per tree, with one BLAS thread and no
bytecode written, and so do two fixed lists: DECLINED, argv that the
CLI's grammar table leaves to argparse (help, bad and abbreviated flags),
so that parity covers argparse's messages and exit codes too; and SPECS,
solve-b and analyze --find-b of spec files, whose conjugator and
polynomial witness no bench workload runs.  Exit code, stdout and stderr
are compared per argv.  The tool prints every argv that differs, with the
top-level keys that differ where both stdouts are JSON objects, then the
number of bench, spec-file and declined argv compared and one count per
set of differing keys, and exits 1 on any difference.  It reads bench/
and src/ of the trees and writes nothing in either.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

WORKLOADS = ("numeric", "exact", "word2")
SHAPE = ["-r", "3", "--rp", "1", "-s", "3", "--sp", "1", "--eps", "-1"]
PQ = ["-p", "3", "-q", "7"]
# run in a directory holding spec.json, a.json and b.json: argv that
# argparse ends with SystemExit (exit 2, or 0 for help), then one or more
# per rule by which the grammar table declines an argv, some of which
# argparse reads and the command then answers
DECLINED = [
    ["word2", "classify", *SHAPE, "--no-such-flag", "1"],
    ["word2", "classify", *SHAPE[:-1], "0"],
    ["nilpotent", "--lam", "0/1", "-p", "2", "-q", "3"],
    ["generate", "-n", "x", "-p", "2", "-q", "3"],
    ["generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "1", "--scale=1,2", "extra"],
    ["analyze"], ["word2"], ["no-such-command"], [], ["-h"],
    ["analyze", "spec.json", *PQ, "-h"], ["word2", "construct", "-h"], ["word2", "-h"],
    # an unknown flag, and abbreviations
    ["analyze", "spec.json", *PQ, "--bogus"],
    ["analyze", "spec.json", *PQ, "--find"],
    ["word2", "classify", *SHAPE, "--max", "2"],
    ["word2", "construct", *SHAPE, "--u", "1/4", "--rh", "1/4", "--v", "1"],
    # -h and --help of every command
    *([*path, "-h"] for path in (["analyze"], ["generate"], ["nilpotent"], ["solve-b"],
                                 ["verify"], ["word2", "classify"], ["word2", "verify"])),
    ["verify", "a.json", "--help", "b.json", "-p", "2", "-q", "3"],
    # a short flag's value attached
    ["generate", "-n2", "-p", "2", "-q", "3"],
    ["generate", "-n=2", "-p", "2", "-q", "3"],
    # a repeated flag
    ["generate", "-n", "2", "-p", "2", "-q", "3", "-n", "3"],
    ["word2", "verify", "a.json", "b.json", *SHAPE, "--eps", "1"],
    # --
    ["analyze", *PQ, "--", "spec.json"],
    # a positional or a separate value that starts with -
    ["analyze", "-x.json", *PQ],
    ["analyze", "-1", *PQ],
    ["word2", "construct", *SHAPE, "--u", "1/4", "--rho", "-1/4", "--v", "1"],
    ["word2", "construct", *SHAPE, "--u", "1/4", "--rho", "1/4", "--v", "-1.5"],
    ["solve-b", "spec.json", *PQ, "--seed", "-"],
    # = on a switch
    ["analyze", "spec.json", *PQ, "--find-b=1"],
    ["analyze", "spec.json", *PQ, "--find-b="],
    # a value its type or its choices refuse
    ["generate", "-n", "2", "-p", "2.5", "-q", "3"],
    ["solve-b", "spec.json", *PQ, "--seed="],
    ["word2", "verify", "a.json", "b.json", *SHAPE[:-1], "2"],
    # a required flag missing
    ["verify", "a.json", "b.json", "-p", "2"],
    # too few or too many positionals
    ["verify", "a.json", "-p", "2", "-q", "3"],
    ["solve-b", "spec.json", "a.json", *PQ],
]
# run in a directory holding INPUTS: a whole successor cycle of four 65th
# roots under (2, 3), and one eigenvalue 1 with blocks [8], [4, 3, 2, 1]
# and [17]
SPECS = [
    [command, name, "-p", p, "-q", q, *flag]
    for name in ("cycle4.json", "one8.json", "one4321.json", "one17.json")
    for p, q in (("2", "3"), ("3", "5"))
    for command, *flag in (("solve-b",), ("analyze", "--find-b"))
]
INPUTS = {
    "spec.json": [{"eigenvalue": "1/3", "blocks": [2, 1]}, {"eigenvalue": "zero", "blocks": [1]}],
    "a.json": {"rows": 2, "cols": 2, "data": [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [0.0, -1.0]]},
    "b.json": {"rows": 2, "cols": 2, "data": [[0.0, 1.0], [0.0, 0.0], [2.0, 0.0], [0.0, -1.0]]},
    "cycle4.json": [{"eigenvalue": f"{k}/65", "blocks": [2, 1]} for k in (1, 34, 51, 44)],
    **{f"one{''.join(map(str, blocks))}.json": [{"eigenvalue": "0/1", "blocks": blocks}]
       for blocks in ([8], [4, 3, 2, 1], [17])},
}
FIXED = {"declined": DECLINED, "specs": SPECS}  # each list by the directory it runs in


def _env(tree: Path, *dirs: str) -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
        PYTHONPATH=os.pathsep.join([str(tree / d) for d in dirs] + [str(Path(__file__).parent)]),
    )
    return env


def _child(tree: Path, call: str, *args: str) -> None:
    """Runs `call` of this module in a fresh process on tree's sources."""
    dirs = ("src", "bench") if call == "build" else ("src",)
    code = f"import sys, parity; parity.{call}(*sys.argv[1:])"
    subprocess.run([sys.executable, "-c", code, *args], env=_env(tree, *dirs), check=True)


def _imported_from(tree: str) -> None:
    import simpow

    expected = Path(tree).resolve() / "src" / "simpow"
    if Path(simpow.__file__).resolve().parent != expected:
        raise SystemExit(f"imported simpow from {simpow.__file__}, not from {expected}")


def build(tree: str, workdir: str, seeds: str, jobs_path: str) -> None:
    """Writes the inputs of every workload and seed under workdir, and the
    list of [directory, argv] to run to jobs_path, FIXED's last."""
    import workloads

    _imported_from(tree)
    jobs = []
    for workload in WORKLOADS:
        for seed in json.loads(seeds):
            cwd = os.path.join(workdir, f"{workload}-{seed}")
            os.mkdir(cwd)
            plan = workloads.build(workload, seed, cwd)
            jobs += [[cwd, request["argv"]] for request in plan["requests"] + plan["probe"]]
    for kind, argvs in FIXED.items():
        cwd = os.path.join(workdir, kind)
        os.mkdir(cwd)
        for name, data in INPUTS.items():
            Path(cwd, name).write_text(json.dumps(data))
        jobs += [[cwd, argv] for argv in argvs]
    Path(jobs_path).write_text(json.dumps(jobs))


def run(tree: str, jobs_path: str, out_path: str) -> None:
    """Writes [exit code, stdout, stderr] of every job to out_path."""
    from simpow import cli

    _imported_from(tree)
    results = []
    for cwd, argv in json.loads(Path(jobs_path).read_text()):
        os.chdir(cwd)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a result to compare, without its paths
                rc = 70
                err.write("".join(traceback.format_exception_only(type(exc), exc)))
        results.append([rc, out.getvalue(), err.getvalue()])
    Path(out_path).write_text(json.dumps(results))


def _excerpt(text: str, other: str) -> str:
    """text around its first character that differs from other."""
    at = next((i for i, (x, y) in enumerate(zip(text, other)) if x != y), min(len(text), len(other)))
    return repr(text[max(0, at - 40) : at + 80])


def _differing_keys(out: str, other: str) -> str | None:
    """The top-level keys whose values differ in bytes (-0.0 is not 0.0),
    where both stdouts are JSON objects; None where they are not."""
    try:
        objects = json.loads(out), json.loads(other)
    except ValueError:
        return None
    if not all(isinstance(obj, dict) for obj in objects):
        return None
    old, new = ({key: json.dumps(value) for key, value in obj.items()} for obj in objects)
    return ", ".join(sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key)))


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree whose bench/ builds the inputs")
    parser.add_argument("change", type=Path, help="source tree compared with it")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-5"), help="a seed or a range a-b")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="simpow-parity-") as tmp:
        jobs_path = os.path.join(tmp, "jobs.json")
        _child(args.parent, "build", str(args.parent), tmp, json.dumps(args.seeds), jobs_path)
        results = []
        for name, tree in (("parent", args.parent), ("change", args.change)):
            out_path = os.path.join(tmp, f"{name}.json")
            _child(tree, "run", str(tree), jobs_path, out_path)
            results.append(json.loads(Path(out_path).read_text()))
        jobs = json.loads(Path(jobs_path).read_text())
    kinds = collections.Counter()  # how each differing argv differs -> its count
    differing = collections.Counter()  # "bench" or a FIXED key -> its differing argv
    for (cwd, argv), before, after in zip(jobs, *results):
        if before != after:
            directory = os.path.basename(cwd)
            differing[directory if directory in FIXED else "bench"] += 1
            keys = _differing_keys(before[1], after[1])
            kind = "stdout not two JSON objects"
            if keys is not None:
                kind = f"differing keys: {keys or 'none'}"
            kinds[kind] += 1
            print(f"differs: {os.path.basename(cwd)} {' '.join(argv)}")
            print(f"  {kind}")
            for label, (rc, out, err), other in (("parent", before, after), ("change", after, before)):
                print(f"  {label}: exit {rc}, stdout {_excerpt(out, other[1])}, "
                      f"stderr {_excerpt(err, other[2])}")
    bench = len(jobs) - len(DECLINED) - len(SPECS)
    print(f"{bench} bench argv compared, {differing['bench']} differ; "
          f"{len(SPECS)} spec-file argv compared, {differing['specs']} differ; "
          f"{len(DECLINED)} declined argv compared, {differing['declined']} differ")
    for kind, count in sorted(kinds.items()):
        print(f"  {count} argv, {kind}")
    return 1 if kinds else 0


if __name__ == "__main__":
    sys.exit(main())

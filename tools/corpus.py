"""ROADMAP item 1's table: analyze on the integer corpus against its construction.

    python tools/corpus.py [TREE] [--seeds 1000-1239]

The inputs are this checkout's tests/test_similarity.integer_corpus, seeds
1000-1239 by default, each written as a matrix file, and the truth is each
input's construction: its spec and that spec's exact verdict.  TREE's
simpow.cli.main (this checkout's by default) answers them in one fresh
process with one BLAS thread: analyze under (2,3), (-1,2), (3,5) and (2,5)
per input, then per input solve-b under (2,3) and analyze right after it,
the order of tests/test_cli.py::TestMatrixConjugator::
test_integer_corpus_agrees_with_analyze.  Per pair the tool prints how many
inputs are right, refused (exit 1) and wrong: exit 0 with a verdict other
than the truth's, or with a spec of exact eigenvalues only that differs
from the construction's.  Then it lists the inputs whose analyze refused
right after a solve-b that answered: those that test skips.  It writes
nothing in TREE and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = ((2, 3), (-1, 2), (3, 5), (2, 5))


def run(jobs_path: str, out_path: str) -> None:
    """Writes [exit code, stdout] of every argv of jobs_path to out_path, in order."""
    from simpow import cli

    results = []
    for argv in json.loads(Path(jobs_path).read_text()):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        results.append([rc, out.getvalue()])
    Path(out_path).write_text(json.dumps(results))


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, nargs="?", default=ROOT, help="source tree to run")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1000-1239"),
                        help="a seed or a range a-b")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from simpow.matrixcore import matrix_to_json
    from simpow.scalar import ExponentPair
    from simpow.similarity import JordanSpec, powers_similar_general
    from test_similarity import integer_corpus

    with tempfile.TemporaryDirectory(prefix="simpow-corpus-") as tmp:
        truth, jobs = {}, []
        for seed in args.seeds:
            a, spec = integer_corpus(seed)
            path = os.path.join(tmp, f"{seed}.json")
            Path(path).write_text(json.dumps(matrix_to_json(a)))
            truth[seed] = spec
            jobs += [["analyze", path, "-p", str(p), "-q", str(q)] for p, q in PAIRS]
        for seed in args.seeds:
            path = os.path.join(tmp, f"{seed}.json")
            jobs += [[command, path, "-p", "2", "-q", "3"] for command in ("solve-b", "analyze")]
        jobs_path, out_path = os.path.join(tmp, "jobs.json"), os.path.join(tmp, "out.json")
        Path(jobs_path).write_text(json.dumps(jobs))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([str(args.tree / "src"), str(ROOT / "tools")]))
        code = "import sys, corpus; corpus.run(*sys.argv[1:])"
        subprocess.run([sys.executable, "-c", code, jobs_path, out_path], env=env, check=True)
        results = json.loads(Path(out_path).read_text())
    print(f"analyze of {len(args.seeds)} integer-corpus inputs, tree {args.tree}")
    print("| pair   | right | refused | wrong |")
    print("|--------|------:|--------:|------:|")
    for k, (p, q) in enumerate(PAIRS):
        counts = dict.fromkeys(("right", "refused", "wrong"), 0)
        for i, seed in enumerate(args.seeds):
            rc, out = results[i * len(PAIRS) + k]
            if rc != 0:
                counts["refused"] += 1
                continue
            report = json.loads(out)
            spec = JordanSpec.from_json(report["spec"])
            exact = all(not isinstance(e.eigenvalue, complex) for e in spec.entries)
            similar = powers_similar_general(truth[seed], ExponentPair(p, q)).similar
            wrong = report["verdict"]["similar"] != similar or (exact and spec != truth[seed])
            counts["wrong" if wrong else "right"] += 1
        label = f"({p},{q})"
        print(f"| {label:6s} | {counts['right']:5d} | {counts['refused']:7d} | {counts['wrong']:5d} |")
    pairs = results[len(args.seeds) * len(PAIRS):]
    skipped = [seed for seed, (solved, analyzed) in zip(args.seeds, zip(pairs[::2], pairs[1::2]))
               if solved[0] == 0 and analyzed[0] != 0]
    print(f"solve-b then analyze under (2,3): {len(skipped)} analyze refused after an "
          f"answered solve-b (seeds {skipped})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end emitting machine-readable JSON reports.

Subcommands: analyze, generate, nilpotent, solve-b, verify, and
word2 {classify, construct, verify}.  Exit code 0 means the analysis
completed (a negative mathematical verdict is still a success).

Every failed request (a bad file, a bad flag value, a violated
precondition, or a power or word that overflows) prints one JSON error
report {"command", "error", "tool_version"} and exits 1.  main is the only
place that makes that report: it catches the ValueError (every simpow
error and numpy's LinAlgError are one) or ArithmeticError that a command
or the serialization of its report raises.  Reports are strict JSON, with
no NaN or Infinity.

The command-line grammar is one table, _GRAMMAR.  A well-formed command
line is read by that table alone and never imports argparse; every other
(help, an unknown or abbreviated flag, a bad value) goes through the full
argparse parser built from the same table, with its unchanged messages:
help exits 0, a command line it cannot parse exits 2 with its usage.
"""

from __future__ import annotations

import cmath
import contextlib
import json
import math
import os
import sys
import types
from typing import TYPE_CHECKING

from . import MAX_RECOVERY_N, RANK_TOL, VERIFY_TOL, __version__
from .equation2x2 import (
    DEFAULT_MAX_REPORT,
    WordShape,
    _require_2x2,
    classify,
    construct_solution,
    is_simultaneously_triangularizable,
    verify_word,
)
from .scalar import ExponentPair, RootOfUnity, _admissible_roots, rou_pow, rou_to_complex

# Imported above: only the layers that word2 classify loads anyway.
# similarity, spectra, solvers and matrixcore (with numpy) are imported by
# the code that uses them, so a cold start loads what its command needs.
if TYPE_CHECKING:
    import argparse
    from collections.abc import Sequence

    import numpy as np

    from .similarity import JordanSpec
    from .solvers import CycleInstance


@contextlib.contextmanager
def _numeric():
    """numpy's error state for the array arithmetic of a request: a
    decorator on the numeric commands and a context around the numeric
    parts of the route of analyze and solve-b.  An overflow surfaces as
    the error report, named by the check that meets the non-finite value,
    so numpy's warnings would only repeat it.  numpy is imported here, so
    the commands that never enter it (word2, which takes 2x2 matrices only,
    generate, analyze of a spec without --find-b) never load it."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        yield


def _check_finite(entries: list[complex]):
    if not all(map(cmath.isfinite, entries)):
        raise ValueError("matrix contains non-finite entries")


def matrix_from_json(data: dict) -> tuple[tuple[complex, ...], ...]:
    """The rows of a matrix JSON object as tuples of complex; a ValueError
    for a wrong entry count or a non-finite entry."""
    rows, cols = data["rows"], data["cols"]
    for name, size in (("rows", rows), ("cols", cols)):
        if size < 0:
            raise ValueError(f"{name} {size} is negative")
    entries = [complex(re, im) for re, im in data["data"]]
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    _check_finite(entries)
    return tuple(tuple(entries[i * cols : (i + 1) * cols]) for i in range(rows))


def _rows_to_json(m: Sequence[Sequence[complex]]) -> dict:
    """matrixcore.matrix_to_json of a matrix given as rows of complex, without numpy."""
    entries = [z for row in m for z in row]
    _check_finite(entries)
    return {"rows": len(m), "cols": len(m[0]), "data": [[z.real, z.imag] for z in entries]}


def _load_matrix_or_spec(path: str):
    """Returns (matrix or None, spec or None) from a JSON input file, a
    matrix as rows of complex (matrix_from_json), read without numpy.

    The one place an input file is checked: a matrix must be square,
    non-empty and finite, a spec non-empty with finite [re, im]
    eigenvalues.  Nothing that reads the result checks it again.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    # ValueError: bad JSON or bad UTF-8; RecursionError: JSON nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if isinstance(data, dict) and "rows" in data:
        try:
            matrix = matrix_from_json(data)
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"bad matrix file {path}: {exc}") from exc
        shape = (len(matrix), len(matrix[0]) if matrix else 0)
        if 0 in shape:
            raise ValueError(f"bad matrix file {path}: the matrix is empty")
        if shape[0] != shape[1]:
            raise ValueError(f"bad matrix file {path}: shape {shape} is not square")
        return matrix, None
    if isinstance(data, list):
        from .similarity import JordanSpec

        try:
            spec = JordanSpec.from_json(data)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            raise ValueError(f"bad spec file {path}: {exc}") from exc
        if not spec.entries:
            raise ValueError(f"bad spec file {path}: the spec is empty")
        for ev in (e.eigenvalue for e in spec.entries):
            if isinstance(ev, complex) and not cmath.isfinite(ev):
                pair = [ev.real, ev.imag]
                raise ValueError(f"bad spec file {path}: eigenvalue {pair} is not finite")
        return None, spec
    raise ValueError(f"{path}: expected a matrix object or a spec list")


def _capped(spec: JordanSpec) -> JordanSpec:
    """spec, refused past MAX_RECOVERY_N before any matrix is built from it."""
    if spec.n > MAX_RECOVERY_N:
        raise ValueError(f"numeric recovery supports n <= {MAX_RECOVERY_N}")
    return spec


def _spec_matrix(spec: JordanSpec) -> np.ndarray:
    """The matrix of a spec, capped: analyze --find-b, solve-b, verify and
    nilpotent of its one eigenvalue build it here."""
    from .similarity import matrix_from_spec

    return matrix_from_spec(_capped(spec))


def _spec_rows(spec: JordanSpec) -> list[list[complex]]:
    """word2 verify's matrix of a 2x2 spec as rows of complex, without
    numpy (as in _cycle_report); any other size is refused first."""
    from .similarity import _jordan_matrix

    _require_2x2(spec.n)
    return _entry_rows(2, _jordan_matrix(spec, lambda n: {}))


def _load_pair(path_a: str, path_b: str, build) -> tuple:
    """Two input files' matrices, a matrix file's rows of complex; a spec
    file's is build(spec), once no spec is past the cap and the sizes match."""
    pair = [(m, s if m else _capped(s)) for m, s in map(_load_matrix_or_spec, (path_a, path_b))]
    n_a, n_b = (len(m) if m else s.n for m, s in pair)
    if n_a != n_b:
        raise ValueError(f"A is {n_a}x{n_a} but B is {n_b}x{n_b}")
    return tuple(m or build(s) for m, s in pair)


def _base_report(command: str) -> dict:
    return {
        "command": command,
        "tool_version": __version__,
        "tolerances": {"rank_tol": RANK_TOL, "verify_tol": VERIFY_TOL},
    }


def _exact_roots(spec: JordanSpec, pq: ExponentPair, path: str) -> JordanSpec:
    """The spec with each complex eigenvalue replaced by the first admissible
    root of unity within RANK_TOL * (|z| + 1) of it: the rank cut that
    certifies a 1x1 block [z] at that root in spec_from_matrix."""
    from .similarity import JordanEntry, JordanSpec

    entries = []
    for entry in spec.entries:
        ev = entry.eigenvalue
        if isinstance(ev, complex):
            root = next(_admissible_roots(ev, pq, spec.n, RANK_TOL * (abs(ev) + 1.0)), None)
            if root is not None:
                entry = JordanEntry(root, entry.blocks)
        entries.append(entry)
    try:
        return JordanSpec(tuple(entries))
    except ValueError as exc:
        raise ValueError(f"bad spec file {path}: {exc}") from exc


def _parse_rou(text: str, label: str) -> RootOfUnity:
    try:
        return RootOfUnity.from_str(text)
    except ValueError as exc:
        raise ValueError(f"bad {label} {text!r}: expected 'k/m'") from exc


def _parse_complex_list(text: str, label: str) -> list[complex]:
    try:
        values = [complex(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise ValueError(f"bad {label} {text!r}: expected comma-separated complex numbers") from exc
    if not all(map(cmath.isfinite, values)):
        raise ValueError(f"bad {label} {text!r}")
    return values


def _route(args, find_b: bool) -> tuple:
    """The one route of analyze and solve-b from an input file to the verdict
    and, when find_b, the conjugator B: (report, spec, matrix, powers), the
    spec a matrix file's RecoveredSpec.

    1. Load the file.  2. Snap a spec's [re, im] eigenvalues to roots of
    unity (_exact_roots, the same for (p, q) and (q, p)), or build a matrix
    file's array.  3. When find_b, form (A^p, A^q) of the pair as typed.
    4. Recover a matrix file's structure.  5. Normalize the pair, for the
    verdict only.  6. The spectrum and its one successor walk under the
    normalized pair, which power_spectra_equal and the verdict both read,
    and, when find_b, the conjugator of the pair as typed.  matrix and
    powers are None where they are not formed: a spec file without find_b
    loads no numpy.
    """
    from .similarity import powers_similar_general
    from .spectra import successor_walk

    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    pq = ExponentPair(args.p, args.q)
    report = {**_base_report(args.command), "seed": args.seed}
    matrix, spec = _load_matrix_or_spec(args.input)
    report["inputs"] = {"path": args.input, "p": pq.p, "q": pq.q}
    powers = None
    if spec is not None:
        spec = _exact_roots(spec, pq, args.input)
    if find_b or spec is None:
        import numpy as np

        from .matrixcore import eigenspace_splits
        from .similarity import spec_from_matrix

        with _numeric():
            matrix = np.array(matrix) if spec is None else _spec_matrix(spec)
            if find_b:
                powers = _powers(matrix, pq)
            if spec is None:
                try:
                    spec = spec_from_matrix(matrix, pq, eigenspace_splits(matrix))
                except ValueError as exc:
                    raise ValueError(f"cannot recover structure: {exc}") from exc
    normalized = pq  # for a singular spec, 1 <= p < q by a swap
    if spec.zero_entry() is not None and not 1 <= pq.p < pq.q:
        if not 1 <= pq.q < pq.p:
            raise ValueError(
                f"singular input needs positive exponents (got p={pq.p}, q={pq.q}); "
                "similarity of negative powers of a singular matrix is undefined"
            )
        normalized = pq.swapped()
    report["normalized"] = {"p": normalized.p, "q": normalized.q, "swapped": normalized != pq}
    report["spec"] = spec.to_json()
    spectrum = spec.spectrum()
    report["spectrum"] = None if spectrum is None else spectrum.to_json()
    walk = None if spectrum is None else successor_walk(spectrum, normalized)
    report["power_spectra_equal"] = walk is not None and walk.uniform
    verdict = powers_similar_general(spec, normalized, walk)
    report["verdict"] = verdict.to_json()
    if find_b:
        with _numeric():
            report["conjugator"] = _solve_conjugator(spec, pq, verdict.similar, powers)
    return report, spec, matrix, powers


def cmd_analyze(args) -> dict:
    return _route(args, args.find_b)[0]


def _powers(matrix: np.ndarray, pq: ExponentPair) -> tuple[np.ndarray, np.ndarray]:
    from .matrixcore import mat_int_pow

    return mat_int_pow(matrix, pq.p), mat_int_pow(matrix, pq.q)


def _solve_conjugator(spec: JordanSpec, pq: ExponentPair, similar: bool, powers: tuple) -> dict:
    """The conjugator report of A with Jordan structure spec, whose verdict
    is similar or not; powers is (A^p, A^q), formed once per request.
    kernel_dimension is counted from the spec and, when similar, B is its
    closed form carried to A's basis (the identity for a spec file).  B is
    refused as recovery is when that basis is singular or B misses
    A^p B = B A^q by more than VERIFY_TOL * (||A^p||_F + ||A^q||_F)
    relative to max|B|: a structure certified on an ill-conditioned A can
    be a nearby matrix's.
    """
    import numpy as np

    from .matrixcore import conjugacy_residual, matrix_to_json
    from .solvers import intertwiner_dimension, spec_conjugator

    out = {"kernel_dimension": intertwiner_dimension(spec, pq), "b": None, "residual": None}
    if not similar:
        return out
    b = spec_conjugator(spec, pq)
    try:
        b = spec.from_jordan_basis(b)
    except ValueError as exc:
        raise ValueError(f"cannot recover structure: {exc}") from exc
    residual = conjugacy_residual(b, *powers)
    bound = VERIFY_TOL * sum(float(np.linalg.norm(power)) for power in powers)
    if residual > bound:
        raise ValueError(
            f"cannot recover structure: its B misses A^p B = B A^q by {residual:.3e} > {bound:.3e}"
        )
    out["b"], out["residual"] = matrix_to_json(b), residual
    return out


def _entry_rows(n: int, entries: dict) -> list[list[complex]]:
    """The n x n matrix with entries[i, j] at (i, j) and 0j elsewhere, as rows of complex."""
    rows = [[0j] * n for _ in range(n)]
    for (i, j), z in entries.items():
        rows[i][j] = z
    return rows


def _diagonal_residual(a: list[complex], b: dict, pq: ExponentPair) -> float:
    """matrixcore.conjugacy_residual(B, A^p, A^q) of a diagonal A without
    numpy, B given by its nonzero entries b[i, j]: (A^p B - B A^q)[i][j]
    is a_i^p b_ij - b_ij a_j^q, 0 where b_ij is, with each a_i raised to
    the power as a float.  The same ValueError where a term or the ratio
    is not finite."""

    def size(z: complex) -> float:  # |z| as numpy takes it: inf where abs() raises
        return math.hypot(z.real, z.imag)

    a_p, a_q = [z**pq.p for z in a], [z**pq.q for z in a]
    terms = [a_p[i] * z - z * a_q[j] for (i, j), z in b.items()]
    residual = math.inf  # also where max would skip a nan
    if all(map(cmath.isfinite, terms)):
        residual = max(map(size, terms)) / max(map(size, b.values()))
    if not math.isfinite(residual):
        raise ValueError("the conjugacy residual max|X B - B Y| / max|B| overflows")
    return residual


def _cycle_report(inst: CycleInstance, scale: list[complex]) -> dict:
    """The a, b and residual of generate --k1, without numpy: A is the
    diagonal of the cycle's 1-blocks and B diag(scale) times their
    conjugator, which maps e_u to e_(u+1), a successor's place; both are
    built as dicts of their nonzero entries.  Q = |q^n - p^n| >= 2^(n-1)
    and Q <= MAX_MODULUS keep n <= 25, inside _spec_matrix's cap."""
    from .similarity import JordanEntry, JordanSpec, _jordan_matrix
    from .solvers import _conjugator

    cycle = JordanSpec(tuple(JordanEntry(ev, (1,)) for ev in inst.spectrum))
    a = _jordan_matrix(cycle, lambda n: {})
    conjugator = _conjugator(cycle, inst.pq, lambda n: {})
    # + 0j: a -0.0 part becomes 0.0, as in a sum with the product's other, zero terms
    b = {(i, j): scale[i] * z + 0j for (i, j), z in conjugator.items()}
    return {
        "a": _rows_to_json(_entry_rows(inst.n, a)),
        "b": _rows_to_json(_entry_rows(inst.n, b)),
        "residual": _diagonal_residual([a[k, k] for k in range(inst.n)], b, inst.pq),
    }


def cmd_generate(args) -> dict:
    from .solvers import _power_modulus, build_cycle_instance, enumerate_valid_k1

    if args.scale is not None and args.k1 is None:
        raise ValueError("--scale needs --k1")
    pq = ExponentPair(args.p, args.q)
    report = _base_report("generate")
    report["inputs"] = {"n": args.n, "p": pq.p, "q": pq.q, "k1": args.k1, "scale": args.scale}
    report["valid_k1"] = enumerate_valid_k1(args.n, pq)
    report["modulus"] = _power_modulus(args.n, pq)
    if args.k1 is None:
        return report
    inst = build_cycle_instance(args.n, pq, args.k1)
    scale = [1.0 + 0j] * args.n
    if args.scale is not None:  # given, even as an empty list
        scale = _parse_complex_list(args.scale, "--scale")
    if len(scale) != inst.n:
        raise ValueError(f"need {inst.n} scale entries, got {len(scale)}")
    if any(s == 0 for s in scale):
        raise ValueError("scale entries must be nonzero")
    report["instance"] = inst.to_json()
    return report | _cycle_report(inst, scale)


@_numeric()
def cmd_nilpotent(args) -> dict:
    import numpy as np

    from .matrixcore import conjugacy_residual, mat_int_pow
    from .similarity import JordanEntry, JordanSpec
    from .solvers import solve_single_eigenvalue

    pq = ExponentPair(args.p, args.q)
    lam = _parse_rou(args.lam, "--lam")
    try:
        blocks = [int(part) for part in args.blocks.split(",") if part]
    except ValueError as exc:
        raise ValueError(f"bad --blocks {args.blocks!r}: {exc}") from exc
    if not blocks or any(b < 1 for b in blocks):
        raise ValueError(f"bad --blocks {args.blocks!r}: need positive sizes")
    report = _base_report("nilpotent")
    report["inputs"] = {"lambda": str(lam), "blocks": blocks, "p": pq.p, "q": pq.q}
    a_mat = _spec_matrix(JordanSpec((JordanEntry(lam, tuple(blocks)),)))
    solution = solve_single_eigenvalue(lam, blocks, pq)
    nil = _spec_matrix(JordanSpec((JordanEntry(None, solution.block_sizes),)))
    c_mat = rou_to_complex(lam) * np.eye(solution.n) + solution.m_matrix
    power_residual = np.max(np.abs(mat_int_pow(c_mat, pq.p) - mat_int_pow(a_mat, pq.q)))
    report["solution"] = solution.to_json()
    report["alpha_exact"] = [str(c) for c in solution.rational_coeffs] if lam.num == 0 else None
    report["alpha_factored"] = [
        {"rational": str(frac), "root": str(rou_pow(lam, 1 - j))}
        for j, frac in enumerate(solution.rational_coeffs, start=1)
    ]
    report["power_residual"] = float(power_residual)
    report["conjugation_residual"] = conjugacy_residual(solution.b0, nil, solution.m_matrix)
    return report


@_numeric()
def cmd_solve_b(args) -> dict:
    """analyze --find-b's report without the verdict, with A as a polynomial
    in A^q: the Hermite witness of its spec, or None."""
    from .solvers import polynomial_witness

    report, spec, matrix, powers = _route(args, find_b=True)
    for key in ("normalized", "spec", "spectrum", "power_spectra_equal", "verdict"):
        del report[key]
    coeffs = polynomial_witness(spec, ExponentPair(args.p, args.q), matrix, powers[1])
    report["polynomial_in_a_q"] = (
        [[c.real, c.imag] for c in coeffs] if coeffs is not None else None
    )
    return report


@_numeric()
def cmd_verify(args) -> dict:
    import numpy as np

    from .matrixcore import conjugacy_residual, matrix_to_json
    from .solvers import realize_conjugate_c

    pq = ExponentPair(args.p, args.q)
    a, b = map(np.array, _load_pair(args.a, args.b, _spec_matrix))
    report = _base_report("verify")
    report["inputs"] = {"a": args.a, "b": args.b, "p": pq.p, "q": pq.q}
    conj = realize_conjugate_c(a, b)
    report["residual"] = conjugacy_residual(b, *_powers(a, pq))
    report["c"] = matrix_to_json(conj.c)
    report["commutation_residual"] = conj.commutation_residual
    report["c_commutes_with_a"] = conj.commutes
    return report


def _word_shape(args) -> tuple[WordShape, dict]:
    """A word2 command's WordShape and the five fields of its report's inputs that echo it."""
    shape = WordShape(args.r, args.s, args.rp, args.sp, args.eps)
    fields = {
        "r": shape.r, "s": shape.s, "rp": shape.r_prime, "sp": shape.s_prime, "eps": shape.epsilon,
    }
    return shape, fields


def cmd_word2_classify(args) -> dict:
    shape, inputs = _word_shape(args)
    result = classify(shape, max_report=args.max_report)
    report = _base_report("word2 classify")
    report["inputs"] = inputs
    report["classification"] = result.to_json()
    return report


def cmd_word2_construct(args) -> dict:
    shape, inputs = _word_shape(args)
    u = _parse_rou(args.u, "--u")
    rho = _parse_rou(args.rho, "--rho")
    try:
        v = complex(args.v)
    except ValueError as exc:
        raise ValueError(f"bad --v {args.v!r}") from exc
    if not cmath.isfinite(v):
        raise ValueError(f"bad --v {args.v!r}")
    report = _base_report("word2 construct")
    report["inputs"] = inputs | {"u": str(u), "rho": str(rho), "v": [v.real, v.imag]}
    a, b = construct_solution(shape, u, rho, v)
    report["a"] = _rows_to_json(a)
    report["b"] = _rows_to_json(b)
    report["sigma"] = [b[1][0].real, b[1][0].imag]
    report["residual"] = verify_word(a, b, shape)
    report["simultaneously_triangularizable"] = is_simultaneously_triangularizable(a, b)
    return report


def cmd_word2_verify(args) -> dict:
    shape, inputs = _word_shape(args)
    a, b = _load_pair(args.a, args.b, _spec_rows)
    report = _base_report("word2 verify")
    report["inputs"] = {"a": args.a, "b": args.b, **inputs}
    report["residual"] = verify_word(a, b, shape)
    report["simultaneously_triangularizable"] = is_simultaneously_triangularizable(a, b)
    return report


_PQ = [("-p", {"type": int, "required": True}), ("-q", {"type": int, "required": True})]
_SHAPE = [
    ("-r", {"type": int, "required": True}),
    ("--rp", {"type": int, "required": True, "help": "exponent r'"}),
    ("-s", {"type": int, "required": True}),
    ("--sp", {"type": int, "required": True, "help": "exponent s'"}),
    ("--eps", {"type": int, "required": True, "choices": (-1, 1)}),
]
_INPUT = ("input", {"help": "matrix or spec JSON file"})
_SEED = ("--seed", {"type": int, "default": 0, "help": "echoed as seed; B draws nothing"})
_AB = [("a", {"help": "matrix JSON file for A"}), ("b", {"help": "matrix JSON file for B"})]
_ROU = {"required": True, "help": "root of unity 'k/m'"}

# The CLI grammar, written once: each command path's help, handler (None
# for word2, which only holds subcommands) and arguments, a positional's
# name or an option's flag with add_argument keywords, of which _read knows
# type, required, default, choices, help and action="store_true" only.
_GRAMMAR = {
    ("analyze",): ("similarity verdict for A^p vs A^q", cmd_analyze, [
        _INPUT, *_PQ, ("--find-b", {"action": "store_true", "default": False}), _SEED,
    ]),
    ("generate",): ("distinct-eigenvalue solutions from a seed residue", cmd_generate, [
        ("-n", {"type": int, "required": True}), *_PQ, ("--k1", {"type": int}),
        ("--scale", {"help": "comma-separated complex scales"}),
    ]),
    ("nilpotent",): ("single-eigenvalue solver", cmd_nilpotent, [
        ("--lam", {"required": True, "help": "eigenvalue as 'k/m'"}),
        ("--blocks", {"required": True, "help": "comma-separated block sizes"}), *_PQ,
    ]),
    ("solve-b",): ("conjugator B in closed form, on a spec or a matrix's certified structure",
                   cmd_solve_b, [_INPUT, *_PQ, _SEED]),
    ("verify",): ("residual of B^-1 A^p B = A^q", cmd_verify, [*_AB, *_PQ]),
    ("word2",): ("the 2x2 word equation A^r B^s A^r' B^s' = eps*I", None, []),
    ("word2", "classify"): ("enumerate non-ST solution families", cmd_word2_classify, [
        *_SHAPE, ("--max-report", {"type": int, "default": DEFAULT_MAX_REPORT}),
    ]),
    ("word2", "construct"): ("build a non-ST solution pair", cmd_word2_construct, [
        *_SHAPE, ("--u", _ROU), ("--rho", _ROU),
        ("--v", {"required": True, "help": "nonzero complex number"}),
    ]),
    ("word2", "verify"): ("word residual for explicit 2x2 matrices", cmd_word2_verify,
                          [*_AB, *_SHAPE]),
}
_DESTS = {  # each name's attribute in the namespace, as argparse derives it
    name: name.lstrip("-").replace("-", "_") for *_, args in _GRAMMAR.values() for name, _ in args
}


def build_parser() -> argparse.ArgumentParser:
    """The full parser of _GRAMMAR: it reads every argv _parse_args declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="simpow",
        description="Similarity of matrix powers and 2x2 matrix word equations",
    )
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for path, (help_text, func, arguments) in _GRAMMAR.items():
        command = subparsers[path[:-1]].add_parser(path[-1], help=help_text)
        for name, keywords in arguments:
            command.add_argument(name, **keywords)
        if func is None:
            subparsers[path] = command.add_subparsers(dest="word2_command", required=True)
        else:
            command.set_defaults(func=func)
    return parser


def _read(arguments: list, tokens: list[str], values: dict) -> types.SimpleNamespace | None:
    """values completed by reading tokens with arguments (a _GRAMMAR entry's)
    as argparse would, or None where the table does not cover every token
    exactly; see _parse_args."""
    spec = dict(arguments)
    positionals = [name for name in spec if name[0] != "-"]
    tokens = iter(tokens)
    for token in tokens:
        if token[:1] != "-":
            name, eq, value = positionals.pop(0) if positionals else "-", "", token
        else:
            name, eq, value = token.partition("=") if token[:2] == "--" else (token, "", "")
        keywords = spec.get(name)
        if keywords is None or _DESTS[name] in values or eq and "action" in keywords:
            return None
        if name[0] == "-" and not eq and "action" not in keywords:
            value = next(tokens, "-")
            if value[:1] == "-" and not (value[1:].isascii() and value[1:].isdigit()):
                return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        values[_DESTS[name]] = "action" in keywords or value
    for name, keywords in spec.items():
        if _DESTS[name] not in values and (name[0] != "-" or keywords.get("required")):
            return None
        values.setdefault(_DESTS[name], keywords.get("default"))
    return types.SimpleNamespace(**values)


def _parse_args(argv) -> argparse.Namespace | types.SimpleNamespace:
    """argv read by _GRAMMAR into the namespace argparse would make of it
    (command, word2_command for word2, func and every argument) where the
    table covers every token exactly.  Any other argv goes to the full
    parser, built only then, for its own namespace, messages and exit
    codes: -h, an unknown or abbreviated flag, a short flag with its value
    attached (-p3, -p=3), a repeated flag, --, a positional or an option's
    separate value that starts with - (but a negative integer value), = on
    a switch, a value its type or choices refuse, a missing required flag
    and a wrong number of positionals.  --flag=value is read."""
    argv = sys.argv[1:] if argv is None else list(argv)
    path = tuple(argv[:2] if argv[:1] == ["word2"] else argv[:1])
    _, func, arguments = _GRAMMAR.get(path, (None, None, []))
    names = dict(zip(("command", "word2_command"), path), func=func)
    args = _read(arguments, argv[len(path):], names) if func else None
    return args or build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    code = 0
    try:
        out = json.dumps(args.func(args), sort_keys=True, allow_nan=False)
    except (ValueError, ArithmeticError) as exc:
        command = " ".join(filter(None, [args.command, getattr(args, "word2_command", None)]))
        error_report = {"command": command, "error": str(exc), "tool_version": __version__}
        out, code = json.dumps(error_report, sort_keys=True), 1
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit 1 quietly, with nothing left for Python to flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

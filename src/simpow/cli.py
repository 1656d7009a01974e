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
no NaN or Infinity.  A command line argparse cannot parse exits 2 with
argparse's usage message.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__
from .equation2x2 import (
    WordShape,
    classify,
    construct_solution,
    is_simultaneously_triangularizable,
    verify_word,
)
from .matrixcore import (
    RANK_TOL,
    VERIFY_TOL,
    conjugacy_residual,
    find_invertible_in_span,
    fit_polynomial_in,
    mat_int_pow,
    matrix_from_json,
    matrix_to_json,
    sylvester_kernel,
)
from .scalar import ExponentPair, RootOfUnity, _admissible_roots, rou_pow, rou_to_complex
from .similarity import (
    JordanEntry,
    JordanSpec,
    matrix_from_spec,
    powers_similar_general,
    spec_from_matrix,
)
from .solvers import (
    _power_modulus,
    build_cycle_conjugator,
    build_cycle_instance,
    enumerate_valid_k1,
    nilpotent_from_blocks,
    realize_conjugate_c,
    solve_single_eigenvalue,
)
from .spectra import powers_equal


def _load_matrix_or_spec(path: str):
    """Returns (matrix or None, spec or None) from a JSON input file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if isinstance(data, dict) and "rows" in data:
        try:
            matrix = matrix_from_json(data)
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"bad matrix file {path}: {exc}") from exc
        if matrix.size == 0:
            raise ValueError(f"bad matrix file {path}: the matrix is empty")
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"bad matrix file {path}: shape {matrix.shape} is not square")
        return matrix, None
    if isinstance(data, list):
        try:
            spec = JordanSpec.from_json(data)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            raise ValueError(f"bad spec file {path}: {exc}") from exc
        if not spec.entries:
            raise ValueError(f"bad spec file {path}: the spec is empty")
        return None, spec
    raise ValueError(f"{path}: expected a matrix object or a spec list")


def _load_matrix(path: str) -> np.ndarray:
    matrix, spec = _load_matrix_or_spec(path)
    if matrix is None:
        matrix = matrix_from_spec(spec)
    return matrix


def _load_pair(path_a: str, path_b: str) -> tuple[np.ndarray, np.ndarray]:
    a, b = _load_matrix(path_a), _load_matrix(path_b)
    if len(a) != len(b):
        raise ValueError(f"A is {len(a)}x{len(a)} but B is {len(b)}x{len(b)}")
    return a, b


def _base_report(command: str) -> dict:
    return {
        "command": command,
        "tool_version": __version__,
        "tolerances": {"rank_tol": RANK_TOL, "verify_tol": VERIFY_TOL},
    }


def _seeded_report(command: str, args) -> dict:
    """The base report of a command that draws B, with its --seed."""
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    return {**_base_report(command), "seed": args.seed}


def _exact_roots(spec: JordanSpec, pq: ExponentPair, path: str) -> JordanSpec:
    """The spec with each complex eigenvalue replaced by the first admissible
    root of unity within RANK_TOL * (|z| + 1) of it: the rank cut that
    certifies a 1x1 block [z] at that root in spec_from_matrix."""
    entries = []
    for entry in spec.entries:
        ev = entry.eigenvalue
        if isinstance(ev, complex):
            roots = _admissible_roots(ev, pq, spec.n, RANK_TOL * (abs(ev) + 1.0))
            if roots:
                entry = JordanEntry(roots[0], entry.blocks)
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
        return [complex(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise ValueError(f"bad {label} {text!r}: expected comma-separated complex numbers") from exc


def cmd_analyze(args) -> dict:
    pq = ExponentPair(args.p, args.q)
    report = _seeded_report("analyze", args)
    matrix, spec = _load_matrix_or_spec(args.input)
    if spec is None:
        try:
            spec = spec_from_matrix(matrix, pq)
        except ValueError as exc:
            raise ValueError(f"cannot recover structure: {exc}") from exc
    report["inputs"] = {"path": args.input, "p": pq.p, "q": pq.q}

    normalized = pq
    swapped = False
    if spec.zero_entry() is not None and not (1 <= pq.p < pq.q):
        if 1 <= pq.q < pq.p:
            normalized, swapped = pq.swapped(), True
        else:
            raise ValueError(
                f"singular input needs positive exponents (got p={pq.p}, q={pq.q}); "
                "similarity of negative powers of a singular matrix is undefined"
            )
    report["normalized"] = {"p": normalized.p, "q": normalized.q, "swapped": swapped}
    if matrix is None:
        spec = _exact_roots(spec, normalized, args.input)
    report["spec"] = spec.to_json()

    try:
        spectrum = spec.spectrum()
        report["spectrum"] = spectrum.to_json()
        report["power_spectra_equal"] = powers_equal(spectrum, normalized)
    except ValueError:
        report["spectrum"] = None
        report["power_spectra_equal"] = False
    report["verdict"] = powers_similar_general(spec, normalized).to_json()

    if args.find_b:
        if matrix is None:
            matrix = matrix_from_spec(spec)
        powers = _powers(matrix, normalized)
        report["conjugator"] = _solve_conjugator(matrix, normalized, powers, args.seed)
    return report


def _powers(matrix: np.ndarray, pq: ExponentPair) -> tuple[np.ndarray, np.ndarray]:
    return mat_int_pow(matrix, pq.p), mat_int_pow(matrix, pq.q)


def _solve_conjugator(matrix: np.ndarray, pq: ExponentPair, powers: tuple, seed: int) -> dict:
    """The conjugator report; powers is (A^p, A^q), formed once per request."""
    kernel = sylvester_kernel(matrix, pq.p, pq.q, *powers)
    out: dict = {"kernel_dimension": sum(k.shape[1] for _, k, _ in kernel)}
    candidate = find_invertible_in_span(kernel, seed=seed) if kernel else None
    if candidate is None:
        out["b"] = None
        out["residual"] = None
        return out
    out["b"] = matrix_to_json(candidate)
    out["residual"] = conjugacy_residual(candidate, *powers)
    return out


def cmd_generate(args) -> dict:
    pq = ExponentPair(args.p, args.q)
    if args.n < 1:
        raise ValueError(f"n must be >= 1, got {args.n}")
    report = _base_report("generate")
    report["inputs"] = {"n": args.n, "p": pq.p, "q": pq.q, "k1": args.k1, "scale": args.scale}
    report["valid_k1"] = enumerate_valid_k1(args.n, pq)
    report["modulus"] = _power_modulus(args.n, pq)
    if args.k1 is None:
        return report
    inst = build_cycle_instance(args.n, pq, args.k1)
    scale = (
        _parse_complex_list(args.scale, "--scale") if args.scale else [1.0 + 0j] * args.n
    )
    b = build_cycle_conjugator(inst, scale)
    a = inst.diagonal_matrix()
    report["instance"] = inst.to_json()
    report["a"] = matrix_to_json(a)
    report["b"] = matrix_to_json(b)
    report["residual"] = conjugacy_residual(b, *_powers(a, pq))
    return report


def cmd_nilpotent(args) -> dict:
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
    solution = solve_single_eigenvalue(lam, blocks, pq)
    n = solution.n
    lam_c = rou_to_complex(lam)
    nil = nilpotent_from_blocks(solution.block_sizes)
    a_mat = lam_c * np.eye(n) + nil
    c_mat = lam_c * np.eye(n) + solution.m_matrix
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


def cmd_solve_b(args) -> dict:
    pq = ExponentPair(args.p, args.q)
    report = _seeded_report("solve-b", args)
    matrix = _load_matrix(args.input)
    report["inputs"] = {"path": args.input, "p": pq.p, "q": pq.q}
    powers = _powers(matrix, pq)
    report["conjugator"] = _solve_conjugator(matrix, pq, powers, args.seed)
    coeffs = fit_polynomial_in(powers[1], matrix, matrix.shape[0] - 1)
    report["polynomial_in_a_q"] = (
        [[c.real, c.imag] for c in coeffs] if coeffs is not None else None
    )
    return report


def cmd_verify(args) -> dict:
    pq = ExponentPair(args.p, args.q)
    a, b = _load_pair(args.a, args.b)
    report = _base_report("verify")
    report["inputs"] = {"a": args.a, "b": args.b, "p": pq.p, "q": pq.q}
    conj = realize_conjugate_c(a, b)
    report["residual"] = conjugacy_residual(b, *_powers(a, pq))
    report["c"] = matrix_to_json(conj.c)
    report["commutation_residual"] = conj.commutation_residual
    report["c_commutes_with_a"] = conj.commutes
    return report


def cmd_word2_classify(args) -> dict:
    shape = WordShape(args.r, args.s, args.rp, args.sp, args.eps)
    result = classify(shape, max_report=args.max_report)
    report = _base_report("word2 classify")
    report["inputs"] = {
        "r": shape.r, "s": shape.s, "rp": shape.r_prime, "sp": shape.s_prime, "eps": shape.epsilon,
    }
    report["classification"] = result.to_json()
    return report


def cmd_word2_construct(args) -> dict:
    shape = WordShape(args.r, args.s, args.rp, args.sp, args.eps)
    u = _parse_rou(args.u, "--u")
    rho = _parse_rou(args.rho, "--rho")
    try:
        v = complex(args.v)
    except ValueError as exc:
        raise ValueError(f"bad --v {args.v!r}") from exc
    if not np.isfinite(v):
        raise ValueError(f"bad --v {args.v!r}")
    report = _base_report("word2 construct")
    report["inputs"] = {
        "r": shape.r, "s": shape.s, "rp": shape.r_prime, "sp": shape.s_prime,
        "eps": shape.epsilon, "u": str(u), "rho": str(rho), "v": [v.real, v.imag],
    }
    a, b = construct_solution(shape, u, rho, v)
    report["a"] = matrix_to_json(a)
    report["b"] = matrix_to_json(b)
    report["sigma"] = [complex(b[1, 0]).real, complex(b[1, 0]).imag]
    report["residual"] = verify_word(a, b, shape)
    report["simultaneously_triangularizable"] = is_simultaneously_triangularizable(a, b)
    return report


def cmd_word2_verify(args) -> dict:
    shape = WordShape(args.r, args.s, args.rp, args.sp, args.eps)
    a, b = _load_pair(args.a, args.b)
    report = _base_report("word2 verify")
    report["inputs"] = {
        "a": args.a, "b": args.b, "r": shape.r, "s": shape.s,
        "rp": shape.r_prime, "sp": shape.s_prime, "eps": shape.epsilon,
    }
    report["residual"] = verify_word(a, b, shape)
    if len(a) == 2:
        report["simultaneously_triangularizable"] = is_simultaneously_triangularizable(a, b)
    return report


def _add_pq(parser: argparse.ArgumentParser):
    parser.add_argument("-p", type=int, required=True)
    parser.add_argument("-q", type=int, required=True)


def _add_shape(parser: argparse.ArgumentParser):
    parser.add_argument("-r", type=int, required=True)
    parser.add_argument("--rp", type=int, required=True, help="exponent r'")
    parser.add_argument("-s", type=int, required=True)
    parser.add_argument("--sp", type=int, required=True, help="exponent s'")
    parser.add_argument("--eps", type=int, required=True, choices=(-1, 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simpow",
        description="Similarity of matrix powers and 2x2 matrix word equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="similarity verdict for A^p vs A^q")
    p_an.add_argument("input", help="matrix or spec JSON file")
    _add_pq(p_an)
    p_an.add_argument("--find-b", action="store_true", dest="find_b")
    p_an.add_argument("--seed", type=int, default=0, help="seed of the draw of B")
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("generate", help="distinct-eigenvalue solutions from a seed residue")
    p_gen.add_argument("-n", type=int, required=True)
    _add_pq(p_gen)
    p_gen.add_argument("--k1", type=int, default=None)
    p_gen.add_argument("--scale", type=str, default=None, help="comma-separated complex scales")
    p_gen.set_defaults(func=cmd_generate)

    p_nil = sub.add_parser("nilpotent", help="single-eigenvalue solver")
    p_nil.add_argument("--lam", type=str, required=True, help="eigenvalue as 'k/m'")
    p_nil.add_argument("--blocks", type=str, required=True, help="comma-separated block sizes")
    _add_pq(p_nil)
    p_nil.set_defaults(func=cmd_nilpotent)

    p_sb = sub.add_parser("solve-b", help="conjugator via the intertwiner kernel")
    p_sb.add_argument("input", help="matrix or spec JSON file")
    _add_pq(p_sb)
    p_sb.add_argument("--seed", type=int, default=0, help="seed of the draw of B")
    p_sb.set_defaults(func=cmd_solve_b)

    p_ver = sub.add_parser("verify", help="residual of B^-1 A^p B = A^q")
    p_ver.add_argument("a", help="matrix JSON file for A")
    p_ver.add_argument("b", help="matrix JSON file for B")
    _add_pq(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_w2 = sub.add_parser("word2", help="the 2x2 word equation A^r B^s A^r' B^s' = eps*I")
    w2 = p_w2.add_subparsers(dest="word2_command", required=True)

    w_cl = w2.add_parser("classify", help="enumerate non-ST solution families")
    _add_shape(w_cl)
    w_cl.add_argument("--max-report", type=int, default=100, dest="max_report")
    w_cl.set_defaults(func=cmd_word2_classify)

    w_co = w2.add_parser("construct", help="build a non-ST solution pair")
    _add_shape(w_co)
    w_co.add_argument("--u", type=str, required=True, help="root of unity 'k/m'")
    w_co.add_argument("--rho", type=str, required=True, help="root of unity 'k/m'")
    w_co.add_argument("--v", type=str, required=True, help="nonzero complex number")
    w_co.set_defaults(func=cmd_word2_construct)

    w_ve = w2.add_parser("verify", help="word residual for explicit matrices")
    w_ve.add_argument("a", help="matrix JSON file for A")
    w_ve.add_argument("b", help="matrix JSON file for B")
    _add_shape(w_ve)
    w_ve.set_defaults(func=cmd_word2_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing leaves it unchanged, so
    in-process callers need not pay for building it on every call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # an overflow surfaces as the error below, named by the check that
        # meets the non-finite value, so numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            out = json.dumps(args.func(args), sort_keys=True, allow_nan=False)
    except (ValueError, ArithmeticError) as exc:
        command = " ".join(filter(None, [args.command, getattr(args, "word2_command", None)]))
        error_report = {"command": command, "error": str(exc), "tool_version": __version__}
        print(json.dumps(error_report, sort_keys=True))
        return 1
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

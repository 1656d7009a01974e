"""Independent checks of simpow reports.

Uses numpy and exact integer / Fraction arithmetic only, never simpow, so
a defect in the program cannot hide inside its own check.  Residuals are
recomputed without inverses (``A^p B - B A^q`` rather than
``B^-1 A^p B - A^q``) and bounded by ``verify_tol`` times the size of the
terms, which is what rounding can reach; residuals the program reports
after a linear solve are bounded by ``verify_tol`` times cond(B) as well.

``check(request, rc, report, workdir)`` returns a list of problems; an
empty list means the report is right.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np

MAX_REPORT = 100  # word2 classify --max-report default, not overridden by the workloads


def check(request: dict, rc: int, report: dict | None, workdir: str) -> list[str]:
    if rc != 0 or report is None:
        error = report.get("error") if isinstance(report, dict) else None
        return [f"exit {rc}: {error}"]
    if "error" in report:
        return [f"error report with exit 0: {report['error']}"]
    checker = _CHECKERS[request["kind"]]
    return checker(request["check"], report, workdir)


# ---------------------------------------------------------------- helpers


def _matrix(data: dict) -> np.ndarray:
    flat = np.array(data["data"], dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(data["rows"], data["cols"])


def _load(workdir: str, name: str) -> np.ndarray:
    with open(os.path.join(workdir, name)) as fh:
        return _matrix(json.load(fh))


def _angle(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den or "1")) % 1


def _angle_str(angle: Fraction) -> str:
    angle %= 1
    return f"{angle.numerator}/{angle.denominator}"


def _rou(angle: Fraction) -> complex:
    theta = 2.0 * math.pi * float(angle)
    return complex(math.cos(theta), math.sin(theta))


def _power(m: np.ndarray, e: int) -> np.ndarray:
    return np.linalg.matrix_power(m if e >= 0 else np.linalg.inv(m), abs(e))


def _fro(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def _tol(report: dict) -> float:
    return float(report["tolerances"]["verify_tol"])


def _conj_problems(a: np.ndarray, b: np.ndarray, p: int, q: int, tol: float, reported) -> list[str]:
    """B^-1 A^p B = A^q, checked inverse-free, plus the reported residual."""
    a_p, a_q = _power(a, p), _power(a, q)
    scale = max(1.0, _fro(a_p) * _fro(b) + _fro(b) * _fro(a_q))
    out = []
    residual = float(np.max(np.abs(a_p @ b - b @ a_q)))
    if residual > tol * scale:
        out.append(f"A^p B - B A^q = {residual:.3e} > {tol * scale:.3e}")
    bound = tol * max(1.0, float(np.linalg.cond(b))) * max(1.0, _fro(a_p), _fro(a_q))
    if reported is None or not reported <= bound:
        out.append(f"reported residual {reported} > {bound:.3e}")
    return out


def canonical_spec(spec: list) -> list:
    """Order-free form of a spec's JSON, for comparing recovered and generating specs."""
    return sorted(
        (item["eigenvalue"] if isinstance(item["eigenvalue"], str) else repr(item["eigenvalue"]),
         tuple(sorted(item["blocks"], reverse=True)))
        for item in spec
    )


def _power_blocks(spec: list, e: int) -> dict:
    """Jordan blocks of A^e from the spec of A (e != 0, e >= 1 when A is singular)."""
    out: dict = {}
    for item in spec:
        ev = item["eigenvalue"]
        for k in item["blocks"]:
            if ev == "zero":
                whole, extra = divmod(k, e)
                sizes = [whole + 1] * extra + [whole] * (e - extra)
                out.setdefault("zero", []).extend(s for s in sizes if s)
            else:
                out.setdefault(_angle(ev) * e % 1, []).append(k)
    return out


def _kernel_dimension(spec: list, p: int, q: int) -> int:
    """dim {X : A^p X = X A^q}: sum of min block sizes over equal eigenvalues."""
    bp, bq = _power_blocks(spec, p), _power_blocks(spec, q)
    return sum(min(x, y) for key in bp.keys() & bq.keys() for x in bp[key] for y in bq[key])


# ---------------------------------------------------------------- numeric


def _check_conjugator(expect: dict, conj: dict, p: int, q: int, a: np.ndarray, tol: float) -> list[str]:
    out = []
    dim = _kernel_dimension(expect["spec"], p, q)
    if conj["kernel_dimension"] != dim:
        out.append(f"kernel dimension {conj['kernel_dimension']}, exact {dim}")
    if conj["b"] is None:
        if expect["similar"]:
            out.append("no conjugator for a similar pair")
    elif not expect["similar"]:
        out.append("conjugator reported for a non-similar pair")
    else:
        out += _conj_problems(a, _matrix(conj["b"]), p, q, tol, conj["residual"])
    return out


def _check_analyze(expect: dict, report: dict, workdir: str) -> list[str]:
    out = []
    if canonical_spec(report["spec"]) != canonical_spec(expect["spec"]):
        out.append(f"recovered spec {report['spec']} != generating spec {expect['spec']}")
    if report["verdict"]["similar"] != expect["similar"]:
        out.append(f"verdict similar={report['verdict']['similar']}, exact {expect['similar']}")
    p, q = report["normalized"]["p"], report["normalized"]["q"]
    if "conjugator" in report and not out:
        a = _load(workdir, expect["matrix"])
        out += _check_conjugator(expect, report["conjugator"], p, q, a, _tol(report))
    return out


def _check_solve_b(expect: dict, report: dict, workdir: str) -> list[str]:
    a = _load(workdir, expect["matrix"])
    p, q, tol = expect["p"], expect["q"], _tol(report)
    out = _check_conjugator(expect, report["conjugator"], p, q, a, tol)
    coeffs = report["polynomial_in_a_q"]
    if coeffs is not None:
        a_q = _power(a, q)
        total = np.zeros_like(a)
        power = np.eye(a.shape[0], dtype=complex)
        scale = 0.0
        for re, im in coeffs:
            total += complex(re, im) * power
            scale += abs(complex(re, im)) * _fro(power)
            power = power @ a_q
        residual = _fro(total - a)
        if residual > tol * max(1.0, scale):
            out.append(f"polynomial in A^q misses A by {residual:.3e}")
    return out


def _check_verify(expect: dict, report: dict, workdir: str) -> list[str]:
    a, b = _load(workdir, expect["a"]), _load(workdir, expect["b"])
    tol = _tol(report)
    out = _conj_problems(a, b, expect["p"], expect["q"], tol, report["residual"])
    c = _matrix(report["c"])
    residual = _fro(b @ c - a @ b)
    if residual > tol * max(1.0, _fro(b) * (_fro(c) + _fro(a))):
        out.append(f"B C - A B = {residual:.3e}")
    return out


# ------------------------------------------------------------------ exact


def _binomial(x: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out = out * (x - i) / (i + 1)
    return out


def _nilpotent(blocks: list[int]) -> np.ndarray:
    n = sum(blocks)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for size in sorted(blocks, reverse=True):
        out[pos:pos + size, pos:pos + size] = np.eye(size, k=1)
        pos += size
    return out


def _check_nilpotent(expect: dict, report: dict, workdir: str) -> list[str]:
    out = []
    p, q, tol = expect["p"], expect["q"], _tol(report)
    lam = _angle(expect["lam"])
    blocks = sorted(expect["blocks"], reverse=True)
    sol = report["solution"]
    if sol["blocks"] != blocks or sol["lambda"] != _angle_str(lam):
        out.append(f"solution for blocks {sol['blocks']} at {sol['lambda']}")
    # closed form: C = lam (I + N/lam)^(q/p), so alpha_j = C(q/p, j) lam^(1-j)
    for j, item in enumerate(report["alpha_factored"], start=1):
        if Fraction(item["rational"]) != _binomial(Fraction(q, p), j):
            out.append(f"alpha_{j} = {item['rational']}, closed form {_binomial(Fraction(q, p), j)}")
            break
        if item["root"] != _angle_str(lam * (1 - j)):
            out.append(f"alpha_{j} root {item['root']}")
            break
    if len(report["alpha_factored"]) != blocks[0] - 1:
        out.append(f"{len(report['alpha_factored'])} coefficients for d = {blocks[0]}")
    nil, m, b0 = _nilpotent(blocks), _matrix(sol["m_matrix"]), _matrix(sol["b0"])
    residual = float(np.max(np.abs(nil @ b0 - b0 @ m)))
    scale = max(1.0, _fro(b0) * (_fro(nil) + _fro(m)))
    if residual > tol * scale:
        out.append(f"N B0 - B0 M = {residual:.3e} > {tol * scale:.3e}")
    eye = np.eye(nil.shape[0])
    c_p, a_q = _power(_rou(lam) * eye + m, p), _power(_rou(lam) * eye + nil, q)
    bound = tol * max(1.0, _fro(c_p), _fro(a_q))
    residual = float(np.max(np.abs(c_p - a_q)))
    if residual > bound or not report["power_residual"] <= bound:
        out.append(f"C^p - A^q = {residual:.3e}, reported {report['power_residual']}, bound {bound:.3e}")
    return out


def _mobius(n: int) -> int:
    result, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    return -result if n > 1 else result


def _check_k1_list(n: int, p: int, q: int, report: dict) -> list[str]:
    """Count by the closed form; every listed k1 has a cycle of n distinct residues."""
    modulus = abs(q**n - p**n)
    valid = report["valid_k1"]
    out = []
    if report["modulus"] != modulus:
        out.append(f"modulus {report['modulus']} != {modulus}")
    count = sum(_mobius(n // z) * abs(q**z - p**z) for z in range(1, n + 1) if n % z == 0)
    if len(valid) != count:
        out.append(f"{len(valid)} valid k1, closed form {count}")
    if any(b <= a for a, b in zip(valid, valid[1:])) or (valid and not 0 <= valid[0] <= valid[-1] < modulus):
        out.append("valid k1 not strictly increasing inside [0, Q)")
    step = q * pow(p, -1, modulus) % modulus
    powers = [pow(step, u, modulus) for u in range(1, n)]
    for k1 in valid:
        if any(k1 * g % modulus == k1 for g in powers):
            out.append(f"k1 = {k1} has a cycle shorter than n = {n}")
            break
    return out


def _check_generate(expect: dict, report: dict, workdir: str) -> list[str]:
    n, p, q = expect["n"], expect["p"], expect["q"]
    out = _check_k1_list(n, p, q, report)
    if "k1" not in expect:
        return out
    modulus = abs(q**n - p**n)
    inst = report["instance"]
    step = q * pow(p, -1, modulus) % modulus
    k_seq = [expect["k1"] * pow(step, u, modulus) % modulus for u in range(n)]
    if inst["k_seq"] != k_seq or inst["spectrum"] != [_angle_str(Fraction(k, modulus)) for k in k_seq]:
        out.append(f"cycle {inst['k_seq']} != {k_seq}")
        return out
    a, b = _matrix(report["a"]), _matrix(report["b"])
    if float(np.max(np.abs(a - np.diag([_rou(Fraction(k, modulus)) for k in k_seq])))) > 1e-12:
        out.append("A is not diag(exp(2 pi i k_u / Q))")
    scale = [complex(part) for part in expect["scale"].split(",")]
    sigma = np.roll(np.eye(n), 1, axis=0)
    if float(np.max(np.abs(b - np.diag(scale) @ sigma))) > 1e-12:
        out.append("B is not diag(scale) times the cycle permutation")
    return out + _conj_problems(a, b, p, q, _tol(report), report["residual"])


# ------------------------------------------------------------------ word2


def _roots(diff: int, sign: int) -> list[Fraction]:
    """All u with u^diff = sign, as angles."""
    m = abs(diff)
    if sign == 1:
        return [Fraction(j, m) for j in range(m)]
    return [Fraction(2 * j + 1, 2 * m) for j in range(m)]


def _candidates(diff: int, sign: int, k: int) -> list[str]:
    """Roots with order > 2 and phi_k != 0 (i.e. u^(2k) != 1)."""
    return [
        _angle_str(u) for u in _roots(diff, sign)
        if u.denominator > 2 and (2 * k * u) % 1 != 0
    ]


def _word_residual(a: np.ndarray, b: np.ndarray, shape: list[int]) -> tuple[float, float]:
    """(max |A^r B^s A^r' B^s' - eps I|, product of the factor norms)."""
    r, rp, s, sp, eps = shape
    factors = [_power(a, r), _power(b, s), _power(a, rp), _power(b, sp)]
    word = factors[0] @ factors[1] @ factors[2] @ factors[3]
    scale = math.prod(_fro(f) for f in factors)
    return float(np.max(np.abs(word - eps * np.eye(2)))), scale


def _non_st(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    comm = a @ b - b @ a
    return abs(np.linalg.det(comm)) > tol * max(_fro(a) * _fro(b), 1.0) ** 2


def _admissible_pairs(us: list[str], rhos: list[str], r: int, s: int) -> int:
    """Count (u, rho) with u^2r != -rho^2s and u^2r rho^2s != -1, exactly."""
    if not us or not rhos:
        return 0
    angles_u = [_angle(u) for u in us]
    angles_rho = [_angle(rho) for rho in rhos]
    den = math.lcm(*(x.denominator for x in angles_u + angles_rho), 2)
    x = np.array([int(2 * r * u * den) % den for u in angles_u], dtype=np.int64)[:, None]
    y = np.array([int(2 * s * rho * den) % den for rho in angles_rho], dtype=np.int64)[None, :]
    ok = (x != (y + den // 2) % den) & ((x + y) % den != den // 2)
    return int(ok.sum())


def _check_classify(expect: dict, report: dict, workdir: str) -> list[str]:
    r, rp, s, sp, eps = expect["shape"]
    dr, ds = r - rp, s - sp
    result = report["classification"]
    families = result["families"]
    if abs(dr) == 1 or abs(ds) == 1 or dr == 0 or ds == 0:
        if families or not result["empty_reason"]:
            return [f"shape with r-r'={dr}, s-s'={ds} must be empty with a reason"]
        return []
    out = []
    expected_alphas = []
    for alpha in (1, -1):
        us, rhos = _candidates(dr, alpha, r), _candidates(ds, -alpha * eps, s)
        count = _admissible_pairs(us, rhos, r, s)
        if count:
            expected_alphas.append((alpha, us, rhos, count))
    if [f["alpha"] for f in families] != [a for a, *_ in expected_alphas]:
        return [f"families {[f['alpha'] for f in families]}, exact {[a for a, *_ in expected_alphas]}"]
    tol = _tol(report)
    for fam, (alpha, us, rhos, count) in zip(families, expected_alphas):
        if fam["u"] != us or fam["rho"] != rhos:
            out.append(f"alpha={alpha}: candidate lists differ from u^(r-r') = alpha, rho^(s-s') = -alpha eps")
        if len(fam["pairs"]) != min(count, MAX_REPORT) or fam["truncated"] != (count > MAX_REPORT):
            out.append(f"alpha={alpha}: {len(fam['pairs'])} pairs, truncated={fam['truncated']}; "
                       f"{count} admissible")
        for pair in fam["pairs"]:
            if pair["u"] not in us or pair["rho"] not in rhos or not _admissible_pairs([pair["u"]], [pair["rho"]], r, s):
                out.append(f"inadmissible pair {pair}")
                break
            # every listed pair constructs (v = 1, sigma = sigma_v) and verifies
            u, rho = _rou(_angle(pair["u"])), _rou(_angle(pair["rho"]))
            a = np.array([[u, 1.0], [0.0, 1.0 / u]], dtype=complex)
            b = np.array([[rho, 0.0], [complex(*pair["sigma_v"]), 1.0 / rho]], dtype=complex)
            residual, scale = _word_residual(a, b, expect["shape"])
            if residual > tol * max(1.0, scale) or not _non_st(a, b, tol):
                out.append(f"pair {pair['u']}, {pair['rho']} does not solve the word: {residual:.3e}")
                break
    return out


def _check_word_pair(a: np.ndarray, b: np.ndarray, shape: list[int], report: dict) -> list[str]:
    tol = _tol(report)
    residual, scale = _word_residual(a, b, shape)
    bound = tol * max(1.0, scale)
    out = []
    if residual > bound or not report["residual"] <= bound:
        out.append(f"word residual {residual:.3e}, reported {report['residual']}, bound {bound:.3e}")
    if report["simultaneously_triangularizable"] or not _non_st(a, b, tol):
        out.append("pair is simultaneously triangularizable")
    return out


def _check_construct(expect: dict, report: dict, workdir: str) -> list[str]:
    a, b = _matrix(report["a"]), _matrix(report["b"])
    u, rho = _rou(_angle(expect["u"])), _rou(_angle(expect["rho"]))
    out = []
    if abs(a[0, 0] - u) > 1e-12 or abs(b[0, 0] - rho) > 1e-12 or abs(a[0, 1] - complex(expect["v"])) > 1e-12:
        out.append("A, B do not carry the requested u, rho, v")
    if abs(a[1, 0]) or abs(b[0, 1]):
        out.append("A is not upper or B not lower triangular")
    return out + _check_word_pair(a, b, expect["shape"], report)


def _check_word2_verify(expect: dict, report: dict, workdir: str) -> list[str]:
    a, b = _load(workdir, expect["a"]), _load(workdir, expect["b"])
    return _check_word_pair(a, b, expect["shape"], report)


_CHECKERS = {
    "analyze": _check_analyze,
    "solve-b": _check_solve_b,
    "verify": _check_verify,
    "nilpotent": _check_nilpotent,
    "generate": _check_generate,
    "generate-k1": _check_generate,
    "classify": _check_classify,
    "construct": _check_construct,
    "word2-verify": _check_word2_verify,
}

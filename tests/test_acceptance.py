"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from simpow.cli import main, matrix_from_json
from simpow.equation2x2 import (
    WordShape,
    _coupling_product,
    classify,
    construct_solution,
    verify_word,
)
from simpow.matrixcore import mat_int_pow, matrix_to_json, weyr_characteristic
from simpow.scalar import (
    ExponentPair,
    RootOfUnity,
    _admissible_roots,
    mod_inverse,
    rou_pow,
    rou_to_complex,
)
from simpow.solvers import (
    build_cycle_instance,
    enumerate_valid_k1,
    solve_single_eigenvalue,
)
from simpow.spectra import SpectrumMultiset, successor, successor_walk
from test_matrixcore import dense_kernel, own_scale
from test_solvers import cycle_pair, exact_solution

R = RootOfUnity


def _report(criterion: int, ok: bool, detail: str):
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_cli_json(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_criterion_1_intro_fixture(capsys, tmp_path, intro_spec, intro_matrix):
    """Power spectra match for (3,5) yet similarity fails; (3,7) is similar."""
    spec_path = tmp_path / "intro.json"
    spec_path.write_text(json.dumps(intro_spec.to_json()))
    code35, report35 = run_cli_json(capsys, "analyze", str(spec_path), "-p", "3", "-q", "5")
    code37, report37 = run_cli_json(capsys, "analyze", str(spec_path), "-p", "3", "-q", "7")
    checks = {
        "cli exit codes": code35 == 0 and code37 == 0,
        "m-spectra of A^3 and A^5 agree": report35["power_spectra_equal"] is True,
        "(3,5) not similar": report35["verdict"]["similar"] is False,
        "(3,7) similar": report37["verdict"]["similar"] is True,
    }
    # integer Weyr sequences at rank_tol 1e-9 pin down the structure exactly
    a3 = mat_int_pow(intro_matrix, 3)
    a5 = mat_int_pow(intro_matrix, 5)
    a7 = mat_int_pow(intro_matrix, 7)
    def weyr(m, lam, depth):
        return weyr_characteristic(m, lam, depth, own_scale(m, lam))

    checks["weyr(A^3) at i"] = weyr(a3, 1j, 2) == [1, 2]
    checks["weyr(A^5) at i"] = weyr(a5, 1j, 2) == [2, 2]
    checks["weyr(A^3) at -i"] = weyr(a3, -1j, 2) == [2, 2]
    checks["weyr(A^5) at -i"] = weyr(a5, -1j, 2) == [1, 2]
    checks["weyr at 0 both vanish"] = weyr(a3, 0, 3) == [3, 3, 3] and weyr(a5, 0, 3) == [3, 3, 3]
    checks["weyr(A^3) = weyr(A^7) everywhere"] = all(
        weyr(a3, lam, 3) == weyr(a7, lam, 3) for lam in (1j, -1j, 0)
    )
    failed = [name for name, ok in checks.items() if not ok]
    _report(1, not failed, f"intro 7x7 fixture, failed={failed or 'none'}")


def test_criterion_2_nondiag_fixture(nondiag_fixture):
    """The explicit non-diagonalizable 4x4 pair solves the conjugacy equation."""
    a, b, c_expected, _, _ = nondiag_fixture
    conj_residual = np.max(np.abs(np.linalg.solve(b, mat_int_pow(a, 2) @ b) - mat_int_pow(a, 3)))
    c = np.linalg.solve(b, a @ b)
    c_match = np.max(np.abs(c - c_expected))
    commute = np.max(np.abs(c @ a - a @ c))
    ok = conj_residual < 1e-10 and c_match < 1e-10 and commute < 1e-10
    _report(
        2,
        ok,
        f"||B^-1 A^2 B - A^3||={conj_residual:.2e}, ||C - C_expected||={c_match:.2e}, "
        f"||CA - AC||={commute:.2e} (all < 1e-10)",
    )


def brute_force_valid_k1(n, pq):
    modulus = abs(pq.q**n - pq.p**n)
    if modulus == 1:
        return [0]
    step = (mod_inverse(pq.p, modulus) * pq.q) % modulus
    valid = []
    for k1 in range(modulus):
        seq = [k1]
        for _ in range(n - 1):
            seq.append((seq[-1] * step) % modulus)
        if len(set(seq)) == n:
            valid.append(k1)
    return valid


def test_criterion_3_distinct_eigenvalue_instances():
    """Seed-residue enumeration vs brute force, word residuals, power relation."""
    failures = []
    pq23, pq13 = ExponentPair(2, 3), ExponentPair(1, 3)
    got23 = enumerate_valid_k1(2, pq23)
    if got23 != [1, 2, 3, 4] or got23 != brute_force_valid_k1(2, pq23):
        failures.append(f"k1 enumeration (2,2,3): {got23}")
    got13 = enumerate_valid_k1(2, pq13)
    if got13 != [1, 2, 3, 5, 6, 7] or got13 != brute_force_valid_k1(2, pq13):
        failures.append(f"k1 enumeration (2,1,3): {got13}")
    for pq, k1_values in ((pq23, got23), (pq13, got13)):
        for k1 in k1_values:
            inst = build_cycle_instance(2, pq, k1)
            a, b = cycle_pair(inst, [1.0, 1.0])
            residual = np.max(
                np.abs(np.linalg.solve(b, mat_int_pow(a, pq.p) @ b) - mat_int_pow(a, pq.q))
            )
            if residual >= 1e-10:
                failures.append(f"word residual k1={k1} (p,q)=({pq.p},{pq.q}): {residual:.2e}")
            # C = B^-1 A B = A^(alpha q), exact on angles, alpha p = 1 mod m
            gcd_all = math.gcd(inst.modulus, math.gcd(*inst.k_seq))
            m = inst.modulus // gcd_all
            alpha = mod_inverse(pq.p, m)
            for u in range(inst.n):
                if rou_pow(inst.spectrum[u], alpha * pq.q) != inst.spectrum[(u + 1) % inst.n]:
                    failures.append(f"power relation k1={k1} (p,q)=({pq.p},{pq.q})")
                    break
    _report(3, not failures, f"(2,2,3) and (2,1,3) sweeps, failed={failures or 'none'}")


def _frac_identity(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def _frac_matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _frac_power(m, e):
    n = len(m)
    if e < 0:
        return _frac_power(_frac_inv_upper(m), -e)
    out = _frac_identity(n)
    for _ in range(e):
        out = _frac_matmul(out, m)
    return out


def _frac_inv_upper(m):
    n = len(m)
    inv = _frac_identity(n)
    for col in range(n):
        for i in range(n - 1, -1, -1):
            acc = inv[i][col] - sum(m[i][k] * inv[k][col] for k in range(i + 1, n))
            inv[i][col] = acc / m[i][i]
    return inv


def _coprime_pairs(limit):
    pairs = []
    for p in range(-limit, limit + 1):
        for q in range(-limit, limit + 1):
            if p == 0 or q == 0 or p == q:
                continue
            if math.gcd(abs(p), abs(q)) != 1 or abs(p) + abs(q) <= 2:
                continue
            pairs.append((p, q))
    return pairs


def _mp_rou(r: RootOfUnity):
    return mp.e ** (2j * mp.pi * r.num / r.order)


def _mp_from_exact(sol, pq, which):
    """M or B0 from its rationals: entry [i][j] is twisted by lambda^(1+i-j) or lambda^(i-j)."""
    m_rat, b_rat = exact_solution(pq, sol.block_sizes)
    rational, shift = (m_rat, 1) if which == "m" else (b_rat, 0)
    n = sol.n
    out = mp.matrix(n)
    for i in range(n):
        for j in range(n):
            frac = rational[i][j]
            if frac:
                rou = rou_pow(sol.lam, shift + i - j)
                out[i, j] = mp.mpf(frac.numerator) / mp.mpf(frac.denominator) * _mp_rou(rou)
    return out


def test_criterion_4_single_eigenvalue_solver():
    """Exact coefficients, verified by symbolic oracle and exact matrix identities."""
    import sympy

    failures = []
    pq23 = ExponentPair(2, 3)
    sol2 = solve_single_eigenvalue(R(0, 1), [2], pq23)
    if sol2.rational_coeffs != (Fraction(3, 2),):
        failures.append(f"blocks [2]: alpha={sol2.rational_coeffs}")
    sol3 = solve_single_eigenvalue(R(0, 1), [3], pq23)
    if sol3.rational_coeffs != (Fraction(3, 2), Fraction(3, 8)):
        failures.append(f"blocks [3]: alpha={sol3.rational_coeffs}")
    # independent symbolic-expansion oracle for the (2,3) coefficients
    a1, a2 = sympy.symbols("a1 a2")
    n_sym = sympy.Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    m_sym = a1 * n_sym + a2 * n_sym**2
    system = sympy.expand((sympy.eye(3) + m_sym) ** 2 - (sympy.eye(3) + n_sym) ** 3)
    oracle = sympy.solve([e for e in system], [a1, a2], dict=True)
    if oracle != [{a1: sympy.Rational(3, 2), a2: sympy.Rational(3, 8)}]:
        failures.append(f"symbolic oracle disagrees: {oracle}")

    # the two residual identities hold exactly: the lambda-twist reduces every
    # case to the rational lambda=1 identity, which is checked in exact
    # Fraction arithmetic per block size (block-diagonal structure makes the
    # per-size check cover every block multiset of total size <= 8)
    checked = 0
    for p, q in _coprime_pairs(5):
        pq = ExponentPair(p, q)
        for d in range(1, 9):
            m_rat, b_rat = exact_solution(pq, [d])
            nil = [[Fraction(j == i + 1) for j in range(d)] for i in range(d)]
            eye = _frac_identity(d)
            lhs_mat = [[eye[i][j] + m_rat[i][j] for j in range(d)] for i in range(d)]
            rhs_mat = [[eye[i][j] + nil[i][j] for j in range(d)] for i in range(d)]
            if _frac_power(lhs_mat, p) != _frac_power(rhs_mat, q):
                failures.append(f"power identity fails exactly: (p,q)=({p},{q}), d={d}")
            if _frac_matmul(nil, b_rat) != _frac_matmul(b_rat, m_rat):
                failures.append(f"conjugation identity fails exactly: (p,q)=({p},{q}), d={d}")
            if any(b_rat[i][i] == 0 for i in range(d)):
                failures.append(f"B0 singular: (p,q)=({p},{q}), d={d}")
            checked += 1

    # spot-check the assembled lambda-twisted solutions at 40-digit precision,
    # covering every admissible lambda order <= 12 and mixed block multisets
    mp.mp.dps = 40
    rng = np.random.default_rng(2024)
    multisets = [(8,), (5, 3), (4, 2, 1), (3, 3, 2), (2, 2, 2, 1), (6, 2), (1, 1, 1)]
    sampled = 0
    worst = mp.mpf(0)
    for p, q in _coprime_pairs(5):
        pq = ExponentPair(p, q)
        diff = abs(q - p)
        lams = [
            R(k, m)
            for m in range(1, 13)
            if diff % m == 0
            for k in range(m)
            if math.gcd(k, m) == 1 or (k == 0 and m == 1)
        ]
        for lam in lams:
            if lam.order > 1 and rng.random() > 0.2:
                continue
            blocks = multisets[rng.integers(len(multisets))]
            sol = solve_single_eigenvalue(lam, blocks, pq)
            n = sol.n
            lam_mp = _mp_rou(lam)
            nil_mp = mp.matrix(n)
            pos = 0
            for size in sol.block_sizes:
                for i in range(size - 1):
                    nil_mp[pos + i, pos + i + 1] = mp.mpf(1)
                pos += size
            m_mp = _mp_from_exact(sol, pq, "m")
            b0_mp = _mp_from_exact(sol, pq, "b0")
            a_mp = mp.eye(n) * lam_mp + nil_mp
            c_mp = mp.eye(n) * lam_mp + m_mp
            power_res = max(abs(x) for x in (c_mp**p - a_mp**q))
            conj_res = max(abs(x) for x in (b0_mp**-1 * nil_mp * b0_mp - m_mp))
            worst = max(worst, power_res, conj_res)
            if power_res >= 1e-12 or conj_res >= 1e-12:
                failures.append(
                    f"residual >= 1e-12: (p,q)=({p},{q}), lam={lam}, blocks={blocks}"
                )
            sampled += 1
    _report(
        4,
        not failures,
        f"alphas (3/2) and (3/2, 3/8) vs symbolic oracle; {checked} exact identities; "
        f"{sampled} lambda-twisted spot checks at 40 digits (worst {mp.nstr(worst, 2)} < 1e-12); "
        f"failed={failures or 'none'}",
    )


def test_criterion_5_sylvester_oracle(capsys, tmp_path, nondiag_fixture):
    """The explicit B lies in the dense intertwiner kernel; solve-b's B conjugates."""
    a, b, _, _, _ = nondiag_fixture
    a2, a3 = mat_int_pow(a, 2), mat_int_pow(a, 3)
    elements = dense_kernel(a2, a3)
    cols = np.stack([x.ravel() for x in elements], axis=1)
    coeffs, *_ = np.linalg.lstsq(cols, b.ravel(), rcond=None)
    projection = float(np.linalg.norm(cols @ coeffs - b.ravel()))
    path = tmp_path / "a.json"
    path.write_text(json.dumps(matrix_to_json(a)))
    code, report = run_cli_json(capsys, "solve-b", str(path), "-p", "2", "-q", "3")
    found = report["conjugator"]["b"] if code == 0 else None
    residual = np.inf
    if found is not None:
        found = np.asarray(matrix_from_json(found))
        residual = np.max(np.abs(np.linalg.solve(found, a2 @ found) - a3))
    dimension = report["conjugator"]["kernel_dimension"] if code == 0 else None
    ok = projection < 1e-9 and residual < 1e-9 and dimension == len(elements)
    _report(
        5,
        ok,
        f"kernel dim {len(elements)} (solve-b {dimension}), projection residual "
        f"{projection:.2e} < 1e-9, conjugation residual {residual:.2e} < 1e-9",
    )


def _word_shapes_in_box(limit, min_diff, max_diff):
    exponent_pairs = [
        (x, y)
        for x in range(-limit, limit + 1)
        for y in range(-limit, limit + 1)
        if x != 0 and y != 0 and math.gcd(abs(x), abs(y)) == 1
        and min_diff <= abs(x - y) <= max_diff
    ]
    for r, rp in exponent_pairs:
        for s, sp in exponent_pairs:
            for eps in (1, -1):
                yield WordShape(r, s, rp, sp, eps)


def listed_roots(family):
    """A classify family's listed (u, rho) pairs, from their (num, order) angles to RootOfUnity."""
    return [(R(*u), R(*rho)) for u, rho in family.pairs]


def word_value(a, b, shape):
    """A^r B^s A^r' B^s' on numpy arrays, each power by mat_int_pow: the
    oracle of equation2x2's 2x2 kernel."""
    r, s, rp, sp = shape.exponents
    return mat_int_pow(a, r) @ mat_int_pow(b, s) @ mat_int_pow(a, rp) @ mat_int_pow(b, sp)


def test_criterion_6_word_equation_families():
    """Worked instance, then every family member in the exponent-6 box."""
    failures = []
    shape = WordShape(3, 3, 1, 1, -1)
    a, b = map(np.asarray, construct_solution(shape, R(1, 4), R(1, 4), 1.0))
    sigma = complex(b[1, 0])
    if abs(sigma - 2.0) > 1e-12:
        failures.append(f"sigma={sigma}")
    word_residual = np.max(np.abs(word_value(a, b, shape) + np.eye(2)))
    if word_residual >= 1e-12:
        failures.append(f"worked-instance residual {word_residual:.2e}")
    comm_det = abs(np.linalg.det(a @ b - b @ a))
    if comm_det <= 1e-6:
        failures.append(f"worked instance looks ST: |det[A,B]|={comm_det:.2e}")

    members = 0
    worst_word = 0.0
    worst_square = 0.0
    for shape in _word_shapes_in_box(6, 2, 6):
        result = classify(shape, max_report=10**6)
        dr, ds = shape.r - shape.r_prime, shape.s - shape.s_prime
        for family in result.families:
            # first two rigidity conditions, exact on angles
            target_u = R(0, 1) if family.alpha == 1 else R(1, 2)
            target_rho = R(0, 1) if -family.alpha * shape.epsilon == 1 else R(1, 2)
            pairs = listed_roots(family)
            if any(rou_pow(u, dr) != target_u for u, _ in pairs):
                failures.append(f"u^(r-r') mismatch in {shape}")
            if any(rou_pow(rho, ds) != target_rho for _, rho in pairs):
                failures.append(f"rho^(s-s') mismatch in {shape}")
            # word and (A^r B^s)^2 = -I, evaluated by stacked repeated multiplication
            count = len(pairs)
            a_stack = np.zeros((count, 2, 2), dtype=complex)
            b_stack = np.zeros((count, 2, 2), dtype=complex)
            for idx, (u, rho) in enumerate(pairs):
                uc, rc = rou_to_complex(u), rou_to_complex(rho)
                sigma = _coupling_product(shape, u, rho)  # v = 1
                a_stack[idx] = [[uc, 1.0], [0.0, 1.0 / uc]]
                b_stack[idx] = [[rc, 0.0], [sigma, 1.0 / rc]]
            ar = np.linalg.matrix_power(a_stack, shape.r)
            bs = np.linalg.matrix_power(b_stack, shape.s)
            word = (
                ar
                @ bs
                @ np.linalg.matrix_power(a_stack, shape.r_prime)
                @ np.linalg.matrix_power(b_stack, shape.s_prime)
            )
            word_res = float(np.abs(word - shape.epsilon * np.eye(2)).max())
            square = ar @ bs
            square_res = float(np.abs(square @ square + np.eye(2)).max())
            worst_word = max(worst_word, word_res)
            worst_square = max(worst_square, square_res)
            if word_res >= 1e-10:
                failures.append(f"word residual {word_res:.2e} in {shape}")
            if square_res >= 1e-10:
                failures.append(f"square residual {square_res:.2e} in {shape}")
            members += count
    _report(
        6,
        not failures,
        f"worked instance sigma=2; {members} family members across the box, "
        f"worst word residual {worst_word:.2e}, worst square residual {worst_square:.2e} "
        f"(both < 1e-10); failed={failures or 'none'}",
    )


def test_criterion_7_impossible_shapes():
    """No families when r-r' or s-s' is +-1; seeded random search finds nothing."""
    failures = []
    checked = 0
    for shape in _word_shapes_in_box(6, 1, 1):
        if classify(shape).families:
            failures.append(f"classify nonempty for {shape}")
        checked += 1
    # also mixed: one difference +-1, the other arbitrary in the box
    exponent_pairs = [
        (x, y)
        for x in range(-6, 7)
        for y in range(-6, 7)
        if x != 0 and y != 0 and math.gcd(abs(x), abs(y)) == 1 and 1 <= abs(x - y) <= 6
    ]
    for r, rp in exponent_pairs:
        for s, sp in [(2, 1), (3, -2), (5, 2)]:
            if abs(r - rp) == 1 or abs(s - sp) == 1:
                shape = WordShape(r, s, rp, sp, 1)
                if classify(shape).families:
                    failures.append(f"classify nonempty for {shape}")
                checked += 1

    # statistical smoke test (documented: evidence, not a proof): 10^4 random
    # non-ST unit-determinant pairs never come close to solving the word
    shape = WordShape(2, 3, 1, 1, 1)
    rng = np.random.default_rng(7)
    total = 0
    min_residual = np.inf
    while total < 10**4:
        batch = 2000
        a = rng.standard_normal((batch, 2, 2)) + 1j * rng.standard_normal((batch, 2, 2))
        b = rng.standard_normal((batch, 2, 2)) + 1j * rng.standard_normal((batch, 2, 2))
        det_a = np.linalg.det(a)
        det_b = np.linalg.det(b)
        keep = (np.abs(det_a) > 1e-3) & (np.abs(det_b) > 1e-3)
        a, b = a[keep] / np.sqrt(det_a[keep])[:, None, None], b[keep] / np.sqrt(det_b[keep])[:, None, None]
        comm_det = np.abs(np.linalg.det(a @ b - b @ a))
        scale = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(b, axis=(1, 2))
        non_st = comm_det > 1e-6 * scale**2
        a, b = a[non_st], b[non_st]
        word = (
            np.linalg.matrix_power(a, shape.r)
            @ np.linalg.matrix_power(b, shape.s)
            @ np.linalg.matrix_power(a, shape.r_prime)
            @ np.linalg.matrix_power(b, shape.s_prime)
        )
        residuals = np.abs(word - shape.epsilon * np.eye(2)).max(axis=(1, 2))
        min_residual = min(min_residual, float(residuals.min()))
        total += len(a)
    if min_residual < 1e-3:
        failures.append(f"random search found residual {min_residual:.2e}")
    _report(
        7,
        not failures,
        f"{checked} impossible shapes all classify empty; random search over {total} "
        f"non-ST pairs: min residual {min_residual:.2e} >= 1e-3 (statistical, not a proof); "
        f"failed={failures or 'none'}",
    )


def test_criterion_8_property_suites():
    """Four randomized property suites, >= 100 cases each, fixed seeds."""
    failures = []
    rng = np.random.default_rng(8)

    # orbit cycle closure
    cases = 0
    orders = [m for m in range(1, 100) if math.gcd(m, 6) == 1]
    while cases < 100:
        order = orders[rng.integers(len(orders))]
        k = int(rng.integers(order))
        lam = R(k, order)
        pq = ExponentPair(2, 3)
        cycle = [lam]
        while True:
            nxt = successor(cycle[-1], pq)
            if nxt == lam:
                break
            cycle.append(nxt)
        u = SpectrumMultiset(tuple((ev, 1) for ev in cycle))
        walk = successor_walk(u, pq)
        current = walk.orbits[0].members[0]
        for _ in range(len(walk.orbits[0])):
            current = successor(current, pq)
        if current != walk.orbits[0].members[0]:
            failures.append(f"orbit closure: lam={lam}")
        cases += 1

    # admissible-root round trip: a root k/Q_t, Q_t = |q^t - p^t|, comes back
    # from its complex value
    pairs = [(2, 3), (1, 2), (-1, 2), (1, 3), (3, 5)]
    for _ in range(100):
        pq = ExponentPair(*pairs[rng.integers(len(pairs))])
        t = int(rng.integers(1, 6))
        order = abs(pq.q**t - pq.p**t)
        a = R(int(rng.integers(order)), order)
        if list(_admissible_roots(rou_to_complex(a), pq, t, 1e-9)) != [a]:
            failures.append(f"admissible root round trip: {a}, (p,q)=({pq.p},{pq.q}), t={t}")

    # Weyr similarity invariance
    for trial in range(100):
        base = np.zeros((5, 5), dtype=complex)
        base[:2, :2] = 1j * np.eye(2) + np.eye(2, k=1)
        base[2:, 2:] = 2.0 * np.eye(3) + np.eye(3, k=1)
        g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q, _ = np.linalg.qr(g)
        conj = q.conj().T @ base @ q
        for lam in (1j, 2.0):
            dims = weyr_characteristic(conj, lam, 3, own_scale(conj, lam))
            if dims != weyr_characteristic(base, lam, 3, own_scale(base, lam)):
                failures.append(f"weyr invariance: trial={trial}, lam={lam}")

    # inverse-word residual for constructed solutions
    cases = 0
    shapes = [
        WordShape(3, 3, 1, 1, -1),
        WordShape(5, 4, 2, -1, 1),
        WordShape(2, 5, -3, 1, -1),
        WordShape(4, 3, -1, -2, 1),
        WordShape(-3, 5, 2, 1, 1),
    ]
    while cases < 100:
        shape = shapes[cases % len(shapes)]
        result = classify(shape, max_report=10**6)
        for family in result.families:
            for u, rho in listed_roots(family):
                v = complex(rng.standard_normal() + 1j * rng.standard_normal()) or 1.0
                a, b = construct_solution(shape, u, rho, v)
                inverse = WordShape(
                    -shape.r, -shape.s, -shape.r_prime, -shape.s_prime, shape.epsilon
                )
                if verify_word(a, b, inverse) >= 1e-10:
                    failures.append(f"inverse word: {shape}, u={u}, rho={rho}")
                cases += 1
    _report(
        8,
        not failures,
        f"orbit closure, admissible root round trip, weyr invariance, inverse-word "
        f"residual: >= 100 seeded cases each; failed={failures or 'none'}",
    )

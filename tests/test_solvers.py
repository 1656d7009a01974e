import json
import math
from fractions import Fraction

import numpy as np
import pytest

from simpow import solvers
from simpow.cli import main
from simpow.errors import InvalidK1Error
from simpow.matrixcore import fit_polynomial_in, mat_int_pow
from simpow.scalar import ExponentPair, RootOfUnity, mod_inverse, rou_pow, rou_to_complex
from simpow.solvers import (
    _power_modulus,
    _violated_divisor,
    build_cycle_conjugator,
    build_cycle_instance,
    enumerate_valid_k1,
    nilpotent_from_blocks,
    realize_conjugate_c,
    solve_single_eigenvalue,
)
from simpow.spectra import SpectrumMultiset, orbit_decomposition, powers_equal

R = RootOfUnity


def brute_force_valid_k1(n, pq):
    """Oracle: k1 whose cycle under multiplication by p^-1 q has n distinct values."""
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


class TestEnumerateValidK1:
    def test_223(self, pq23):
        assert enumerate_valid_k1(2, pq23) == [1, 2, 3, 4]

    def test_n_one_trivial_ring(self, pq23):
        assert enumerate_valid_k1(1, pq23) == [0]

    def test_213(self):
        got = enumerate_valid_k1(2, ExponentPair(1, 3))
        assert got == [1, 2, 3, 5, 6, 7]

    def test_refuses_a_huge_modulus_before_allocating(self, pq23):
        # Q = 3^25 - 2^25 = 847255055011 would need Q bytes for the sieve
        with pytest.raises(ValueError, match="847255055011"):
            enumerate_valid_k1(25, pq23)

    def test_modulus_cap_is_inclusive(self, pq23, monkeypatch):
        monkeypatch.setattr(solvers, "MAX_MODULUS", 5)
        assert enumerate_valid_k1(2, pq23) == [1, 2, 3, 4]  # Q = 5
        with pytest.raises(ValueError):
            enumerate_valid_k1(3, pq23)  # Q = 19

    @pytest.mark.parametrize(
        "n,p,q",
        [(1, 2, 3), (2, 2, 3), (3, 2, 3), (4, 2, 3), (2, 1, 3), (3, 1, 3), (4, 1, 3),
         (2, -2, 3), (3, -2, 3), (2, 3, 5), (2, 2, -3), (6, 1, 2), (2, 1, 5), (4, 1, 2)],
    )
    def test_matches_brute_force(self, n, p, q):
        pq = ExponentPair(p, q)
        assert abs(pq.q**n - pq.p**n) <= 10**4
        got = enumerate_valid_k1(n, pq)
        assert got == brute_force_valid_k1(n, pq)


class TestBuildCycleInstance:
    def test_223_k1(self, pq23):
        inst = build_cycle_instance(2, pq23, 1)
        assert inst.k_seq == (1, 4)
        assert inst.spectrum == (R(1, 5), R(4, 5))

    def test_213(self):
        inst = build_cycle_instance(2, ExponentPair(1, 3), 1)
        assert inst.k_seq == (1, 3)
        assert inst.spectrum == (R(1, 8), R(3, 8))
        # lambda_1^3 = lambda_2^1 on angles
        assert rou_pow(inst.spectrum[0], 3) == rou_pow(inst.spectrum[1], 1)

    def test_excluded_k1(self, pq23):
        with pytest.raises(InvalidK1Error) as exc_info:
            build_cycle_instance(2, pq23, 0)
        assert exc_info.value.violated_divisor == 1

    @pytest.mark.parametrize("p,q", [(2, 3), (1, 3), (3, 5), (-1, 2), (1, 2)])
    def test_divisor_test_alone_decides(self, p, q):
        # the cycle of k1 repeats after z steps, z the least divisor of n with
        # (q^z - p^z) k1 = 0 mod Q: exactly the coset _violated_divisor tests
        pq = ExponentPair(p, q)
        for n in range(1, 7):
            modulus = _power_modulus(n, pq)
            if modulus > 10**4:
                continue
            for k1 in range(modulus):
                if _violated_divisor(n, pq, k1, modulus) is not None:
                    with pytest.raises(InvalidK1Error):
                        build_cycle_instance(n, pq, k1)
                else:
                    assert len(set(build_cycle_instance(n, pq, k1).k_seq)) == n

    def test_spectrum_is_single_orbit(self, pq23):
        for n in (1, 2, 3, 4):
            for k1 in enumerate_valid_k1(n, pq23):
                inst = build_cycle_instance(n, pq23, k1)
                u = SpectrumMultiset(tuple((ev, 1) for ev in inst.spectrum))
                assert powers_equal(u, pq23)
                od = orbit_decomposition(u, pq23)
                assert len(od.orbits) == 1
                assert len(od.orbits[0]) == n


class TestBuildCycleConjugator:
    def test_antidiagonal(self, pq23):
        inst = build_cycle_instance(2, pq23, 1)
        b = build_cycle_conjugator(inst, [1, 1])
        assert np.array_equal(b, np.array([[0, 1], [1, 0]], dtype=complex))
        a = inst.diagonal_matrix()
        residual = np.max(np.abs(np.linalg.solve(b, mat_int_pow(a, 2) @ b) - mat_int_pow(a, 3)))
        assert residual < 1e-12

    def test_scale_invariance(self, pq23):
        inst = build_cycle_instance(2, pq23, 1)
        b = build_cycle_conjugator(inst, [2, 5j])
        a = inst.diagonal_matrix()
        residual = np.max(np.abs(np.linalg.solve(b, mat_int_pow(a, 2) @ b) - mat_int_pow(a, 3)))
        assert residual < 1e-12

    def test_zero_scale_rejected(self, pq23):
        inst = build_cycle_instance(2, pq23, 1)
        with pytest.raises(ValueError):
            build_cycle_conjugator(inst, [1, 0])

    def test_random_instances(self):
        rng = np.random.default_rng(17)
        cases = [
            (2, 2, 3), (3, 2, 3), (4, 2, 3), (3, 1, 3), (2, 3, 5), (5, 1, 2),
            (2, -2, 3), (8, 1, 2), (2, 5, 7), (3, 2, 7), (2, -5, 7), (6, 1, -2),
        ]
        for n, p, q in cases:
            pq = ExponentPair(p, q)
            for k1 in enumerate_valid_k1(n, pq)[:6]:
                inst = build_cycle_instance(n, pq, k1)
                scale = rng.standard_normal(n) + 1j * rng.standard_normal(n) + 2.0
                b = build_cycle_conjugator(inst, scale)
                a = inst.diagonal_matrix()
                aq = mat_int_pow(a, q)
                residual = np.max(np.abs(np.linalg.solve(b, mat_int_pow(a, p) @ b) - aq))
                assert residual <= 1e-10 * max(np.max(np.abs(aq)), 1.0)


def sympy_alpha_oracle(p, q, d):
    """Independent symbolic expansion of (I + M)^p = (I + N)^q mod N^d at lambda=1."""
    import sympy

    a_syms = sympy.symbols(f"a1:{d}")
    n_mat = sympy.zeros(d, d)
    for i in range(d - 1):
        n_mat[i, i + 1] = 1
    m_mat = sympy.zeros(d, d)
    for i, sym in enumerate(a_syms, start=1):
        m_mat += sym * n_mat**i
    lhs = (sympy.eye(d) + m_mat) ** p
    rhs = (sympy.eye(d) + n_mat) ** q
    equations = [sympy.expand(e) for e in (lhs - rhs)]
    solution = sympy.solve(equations, a_syms, dict=True)
    assert len(solution) == 1
    return [sympy.nsimplify(solution[0][sym]) for sym in a_syms]


class TestSolveSingleEigenvalue:
    def test_d2_alpha(self, pq23):
        sol = solve_single_eigenvalue(R(0, 1), [2], pq23)
        assert sol.rational_coeffs == (Fraction(3, 2),)
        assert np.allclose(sol.b0, np.diag([1.0, 1.5]))
        assert np.max(np.abs(sol.m_matrix - 1.5 * np.eye(2, k=1))) < 1e-15

    def test_d1_trivial(self, pq23):
        sol = solve_single_eigenvalue(R(0, 1), [1, 1], pq23)
        assert sol.rational_coeffs == ()
        assert np.array_equal(sol.m_matrix, np.zeros((2, 2)))
        assert np.array_equal(sol.b0, np.eye(2))

    def test_d3_alpha_against_symbolic_oracle(self, pq23):
        sol = solve_single_eigenvalue(R(0, 1), [3], pq23)
        assert sol.rational_coeffs == (Fraction(3, 2), Fraction(3, 8))
        import sympy

        oracle = sympy_alpha_oracle(2, 3, 3)
        assert oracle == [sympy.Rational(3, 2), sympy.Rational(3, 8)]

    def test_d4_against_symbolic_oracle(self, pq23):
        import sympy

        sol = solve_single_eigenvalue(R(0, 1), [4], pq23)
        oracle = sympy_alpha_oracle(2, 3, 4)
        assert [sympy.Rational(c.numerator, c.denominator) for c in sol.rational_coeffs] == oracle

    def test_hypothesis_violation(self, pq23):
        # lambda^(q-p) = lambda for (2,3); a cube root of 1 fails
        with pytest.raises(ValueError):
            solve_single_eigenvalue(R(1, 3), [2], pq23)

    def test_residuals_nontrivial_lambda(self):
        pq = ExponentPair(3, 5)
        lam = R(1, 2)  # (-1)^2 = 1 = lambda^(q-p)
        sol = solve_single_eigenvalue(lam, [3, 2], pq)
        lam_c = rou_to_complex(lam)
        nil = nilpotent_from_blocks([3, 2])
        a = lam_c * np.eye(5) + nil
        c = lam_c * np.eye(5) + sol.m_matrix
        assert np.max(np.abs(mat_int_pow(c, 3) - mat_int_pow(a, 5))) < 1e-12
        assert np.max(np.abs(np.linalg.solve(sol.b0, nil @ sol.b0) - sol.m_matrix)) < 1e-12

    def test_negative_exponents(self):
        pq = ExponentPair(-2, 3)
        sol = solve_single_eigenvalue(R(0, 1), [3], pq)
        assert sol.rational_coeffs[0] == Fraction(3, -2)
        nil = nilpotent_from_blocks([3])
        a = np.eye(3) + nil
        c = np.eye(3) + sol.m_matrix
        assert np.max(np.abs(mat_int_pow(c, -2) - mat_int_pow(a, 3))) < 1e-12

    def test_alpha1_nonzero(self):
        for p, q in [(2, 3), (3, 5), (2, -3), (-3, 4), (4, 5)]:
            pq = ExponentPair(p, q)
            sol = solve_single_eigenvalue(R(0, 1), [4], pq)
            assert sol.rational_coeffs[0] != 0


class TestCommutesWithN:
    def test_commutant_coset_property(self, pq23):
        # every invertible Delta commuting with N gives another conjugator Delta @ B0
        sol = solve_single_eigenvalue(R(0, 1), [3], pq23)
        nil = nilpotent_from_blocks([3])
        a = np.eye(3) + nil
        rng = np.random.default_rng(23)
        for _ in range(10):
            coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            delta = (coeffs[0] + 2) * np.eye(3) + coeffs[1] * nil + coeffs[2] * nil @ nil
            assert np.max(np.abs(delta @ nil - nil @ delta)) < 1e-12
            b = delta @ sol.b0
            lhs = np.linalg.solve(b, mat_int_pow(a, 2) @ b)
            assert np.max(np.abs(lhs - mat_int_pow(a, 3))) < 1e-10


class TestRealizeConjugateC:
    def test_identity_conjugator(self):
        a = np.diag([1.0, 2.0])
        result = realize_conjugate_c(a, np.eye(2))
        assert np.array_equal(result.c, a)
        assert result.commutes

    def test_nondiag_fixture(self, nondiag_fixture):
        a, b, c_expected, _, _ = nondiag_fixture
        result = realize_conjugate_c(a, b)
        assert np.max(np.abs(result.c - c_expected)) < 1e-10
        assert result.commutation_residual < 1e-10
        assert result.commutes

    def test_non_solution_reports_not_errors(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) + 3 * np.eye(3)
        result = realize_conjugate_c(a, b)
        assert not result.commutes

    def test_singular_b(self):
        with pytest.raises(ValueError):
            realize_conjugate_c(np.eye(2), np.zeros((2, 2)))


class TestPolynomialRealization:
    def test_a_is_polynomial_in_its_qth_power(self, pq23):
        # constructed invertible solutions admit A = poly(A^q)
        for n, k1 in [(2, 1), (3, 1), (4, 3)]:
            inst = build_cycle_instance(n, pq23, k1)
            a = inst.diagonal_matrix()
            coeffs = fit_polynomial_in(mat_int_pow(a, pq23.q), a, n - 1)
            assert coeffs is not None

    def test_conjugate_is_power_of_a(self, pq23):
        # diagonalizable case: C = B^-1 A B = A^(alpha q) with alpha p = 1 mod m
        for n, k1 in [(2, 1), (2, 2), (3, 1), (4, 1)]:
            inst = build_cycle_instance(n, pq23, k1)
            gcd_all = math.gcd(inst.modulus, math.gcd(*inst.k_seq))
            m = inst.modulus // gcd_all
            alpha = mod_inverse(pq23.p, m)
            # exact check on angles: successor spectrum equals component powers
            for u in range(n):
                expected = inst.spectrum[(u + 1) % n]
                assert rou_pow(inst.spectrum[u], alpha * pq23.q) == expected
            a = inst.diagonal_matrix()
            b = build_cycle_conjugator(inst, [1.0] * n)
            c = np.linalg.solve(b, a @ b)
            assert np.max(np.abs(c - mat_int_pow(a, alpha * pq23.q))) < 1e-10


# The nine exponent pairs of the closed-form pins: negative exponents, p > q
# and p = 1 included.
CLOSED_FORM_PAIRS = [(2, 5), (1, 3), (2, 3), (-1, 2), (3, 5), (3, 7), (-2, 3), (1, -2), (5, 2)]


def krylov_inverse_conjugator(alphas, size):
    """Reference B0 block: the inverse of the Krylov basis [M^(r-1) e_r, ..., e_r].

    M = sum_k alphas[k-1] J^k on the Jordan block J of the given size; the
    inverse is found by back substitution and scaled to a unit top-left entry.
    """
    coeffs = [Fraction(0)] + list(alphas[: size - 1])
    m_block = [
        [coeffs[j - i] if 0 <= j - i < len(coeffs) else Fraction(0) for j in range(size)]
        for i in range(size)
    ]
    vec = [Fraction(0)] * size
    vec[-1] = Fraction(1)
    cols = []
    for _ in range(size):
        cols.append(vec)
        vec = [sum(m_block[i][k] * vec[k] for k in range(size)) for i in range(size)]
    basis = [[cols[size - 1 - j][i] for j in range(size)] for i in range(size)]
    inverse = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for col in range(size):
        for i in range(size - 1, -1, -1):
            acc = inverse[i][col] - sum(basis[i][k] * inverse[k][col] for k in range(i + 1, size))
            inverse[i][col] = acc / basis[i][i]
    return [[entry / inverse[0][0] for entry in row] for row in inverse]


def exact_nilpotent(block_sizes):
    n = sum(block_sizes)
    out = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for size in block_sizes:
        for i in range(pos, pos + size - 1):
            out[i][i + 1] = Fraction(1)
        pos += size
    return out


def exact_matmul(x, y):
    # zero terms skipped: the matrices here are block diagonal and triangular
    return [
        [sum((a * b for a, b in zip(row, col) if a and b), Fraction(0)) for col in zip(*y)]
        for row in x
    ]


def convolution_series_powers(pq, d):
    """Oracle for solvers._inverse_series_powers: q^t t! [y^t] w(y)^k for
    w(y) = (1 + y)^(p/q) - 1, by the O(d^3) binomial convolution of scaled
    series.  For w itself the scaled coefficient is p (p - q) ... (p - (t-1) q),
    and the product of two scaled series is their binomial convolution."""
    w = [0, pq.p]
    for t in range(2, d):
        w.append(w[-1] * (pq.p - (t - 1) * pq.q))
    scaled = [[1] + [0] * (d - 1)]
    for k in range(1, d):
        prev = scaled[-1]  # w^(k-1) has valuation k - 1, w has valuation 1
        scaled.append([0] * k + [
            sum(math.comb(t, i) * prev[i] * w[t - i] for i in range(k - 1, t))
            for t in range(k, d)
        ])
    return scaled


def coprime_pairs(limit):
    return [
        (p, q)
        for p in range(-limit, limit + 1)
        for q in range(-limit, limit + 1)
        if p and q and math.gcd(abs(p), abs(q)) == 1 and abs(p) + abs(q) > 2
    ]


class TestClosedForms:
    @pytest.mark.parametrize("p,q", CLOSED_FORM_PAIRS)
    def test_alpha_is_generalized_binomial(self, p, q):
        import sympy

        sol = solve_single_eigenvalue(R(0, 1), [16], ExponentPair(p, q))
        expected = [sympy.binomial(sympy.Rational(q, p), j) for j in range(1, 16)]
        assert [sympy.Rational(c.numerator, c.denominator) for c in sol.rational_coeffs] == expected

    @pytest.mark.parametrize("p,q", CLOSED_FORM_PAIRS)
    def test_b0_intertwines_exactly(self, p, q):
        blocks = (12, 5, 2, 1)
        sol = solve_single_eigenvalue(R(0, 1), blocks, ExponentPair(p, q))
        b0 = [list(row) for row in sol.b0_rational]
        m = [list(row) for row in sol.m_rational]
        nil = exact_nilpotent(blocks)
        assert exact_matmul(nil, b0) == exact_matmul(b0, m)
        assert all(b0[i][i] != 0 for i in range(len(b0)))

    @pytest.mark.parametrize("p,q", CLOSED_FORM_PAIRS)
    def test_b0_matches_krylov_inverse(self, p, q):
        for d in (1, 2, 5, 12):
            sol = solve_single_eigenvalue(R(0, 1), [d], ExponentPair(p, q))
            got = [list(row) for row in sol.b0_rational]
            assert got == krylov_inverse_conjugator(list(sol.rational_coeffs), d)

    def test_twisted_entries_follow_rationals(self):
        # lambda != 1 only twists the float views by powers of lambda, and
        # each float is float(rational) * lambda^e bit for bit, signed zeros
        # included; lambda^(q-p) = 1 in every case
        cases = [
            ((1, 3), R(1, 2), [6, 3]),
            ((1, 3), R(1, 2), [6, 6, 3]),
            ((-1, 2), R(1, 3), [6, 6, 3]),
            ((3, -2), R(2, 5), [6, 6, 3]),
            ((-3, 5), R(3, 8), [6, 6, 3]),
            ((2, 5), R(1, 3), [24, 6, 6]),
        ]
        for (p, q), lam, blocks in cases:
            pq = ExponentPair(p, q)
            sol = solve_single_eigenvalue(lam, blocks, pq)
            base = solve_single_eigenvalue(R(0, 1), blocks, pq)
            assert sol.rational_coeffs == base.rational_coeffs
            assert sol.m_rational == base.m_rational
            assert sol.b0_rational == base.b0_rational
            views = ((sol.m_matrix, sol.m_rational, 1), (sol.b0, sol.b0_rational, 0))
            for view, rational, shift in views:
                expected = np.zeros((sol.n, sol.n), dtype=complex)
                for i in range(sol.n):
                    for j in range(sol.n):
                        if rational[i][j]:
                            twist = rou_to_complex(rou_pow(lam, shift + i - j))
                            expected[i, j] = float(rational[i][j]) * twist
                assert view.tobytes() == expected.tobytes(), (p, q, blocks, shift)

    @pytest.mark.parametrize("p,q", CLOSED_FORM_PAIRS)
    def test_b0_intertwines_exactly_at_d40(self, p, q):
        blocks = (40, 13, 13, 2)
        sol = solve_single_eigenvalue(R(0, 1), blocks, ExponentPair(p, q))
        b0 = [list(row) for row in sol.b0_rational]
        m = [list(row) for row in sol.m_rational]
        nil = exact_nilpotent(blocks)
        assert exact_matmul(nil, b0) == exact_matmul(b0, m)
        # upper triangular with a nonzero diagonal: invertible
        assert all(b0[i][j] == 0 for i in range(len(b0)) for j in range(i))
        assert all(b0[i][i] != 0 for i in range(len(b0)))

    def test_series_table_matches_convolution(self):
        # the O(d^2) recurrence against the O(d^3) convolution; the table
        # for d is the top-left corner of the table for 40
        for p, q in coprime_pairs(7):
            pq = ExponentPair(p, q)
            oracle = convolution_series_powers(pq, 40)
            for d in range(1, 41):
                expected = [row[:d] for row in oracle[:d]]
                assert solvers._inverse_series_powers(pq, d) == expected, (p, q, d)

    def test_cli_builds_no_fraction_per_entry(self, monkeypatch, capsys):
        # the nilpotent report needs only the d - 1 rational alpha_j
        built = []

        def counting_fraction(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(solvers, "Fraction", counting_fraction)
        argv = ["nilpotent", "--lam", "1/3", "--blocks", "24,6,6", "-p", "2", "-q", "5"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["conjugation_residual"] < 1e-14
        assert len(built) == 23


def per_residue_valid_k1(n, pq):
    """Definition: k1 outside every coset (Q/|q^z - p^z|) Z/Q, z a strict divisor of n."""
    modulus = abs(pq.q**n - pq.p**n)
    steps = [modulus // abs(pq.q**z - pq.p**z) for z in range(1, n) if n % z == 0]
    return [k1 for k1 in range(modulus) if all(k1 % step for step in steps)]


@pytest.mark.parametrize("p,q", [(2, 3), (1, 2), (-1, 2), (3, 5), (2, 5)])
def test_enumerate_valid_k1_matches_definition(p, q):
    pq = ExponentPair(p, q)
    n = 1
    while abs(pq.q**n - pq.p**n) <= 2 * 10**4:
        assert enumerate_valid_k1(n, pq) == per_residue_valid_k1(n, pq)
        n += 1
    assert n > 5

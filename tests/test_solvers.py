import contextlib
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from simpow import cli, solvers
from simpow.cli import main
from simpow.matrixcore import (
    MAX_RECOVERY_N,
    conjugacy_residual,
    mat_int_pow,
    matrix_to_json,
)
from simpow.scalar import ExponentPair, RootOfUnity, mod_inverse, rou_pow, rou_to_complex
from simpow.solvers import (
    _power_modulus,
    build_cycle_instance,
    enumerate_valid_k1,
    intertwiner_dimension,
    polynomial_witness,
    realize_conjugate_c,
    solve_single_eigenvalue,
    spec_conjugator,
)
from simpow.similarity import JordanEntry, JordanSpec, matrix_from_spec, powers_similar_general
from simpow.spectra import SpectrumMultiset, orbit_decomposition, powers_equal, successor
from test_matrixcore import cycle_spec as random_cycle_spec
from test_matrixcore import dense_dimension, dense_singular_values, fit_polynomial_in, poly_residual

R = RootOfUnity


def nilpotent(*blocks):
    """The direct sum of nilpotent Jordan blocks of the given sizes."""
    return matrix_from_spec(JordanSpec((JordanEntry(None, blocks),)))


def cycle_spec(inst):
    """The spec of a cycle instance: one 1-block per eigenvalue, in cycle order."""
    return JordanSpec(tuple(JordanEntry(ev, (1,)) for ev in inst.spectrum))


def cycle_pair(inst, scale):
    """A and B of generate --k1: the cycle's matrix and diag(scale) times its conjugator."""
    spec = cycle_spec(inst)
    return matrix_from_spec(spec), np.diag(scale) @ spec_conjugator(spec, inst.pq)


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
        with pytest.raises(ValueError, match="excluded set for divisor z=1 of n=2"):
            build_cycle_instance(2, pq23, 0)

    @pytest.mark.parametrize("p,q", [(2, 3), (1, 3), (3, 5), (-1, 2), (1, 2)])
    def test_divisor_test_alone_decides(self, p, q):
        # the cycle of k1 repeats after z steps, z the least divisor of n with
        # (q^z - p^z) k1 = 0 mod Q: the least strict divisor whose coset
        # (Q / |q^z - p^z|) Z/Q holds k1, if any
        pq = ExponentPair(p, q)
        for n in range(1, 7):
            modulus = _power_modulus(n, pq)
            if modulus > 10**4:
                continue
            for k1 in range(modulus):
                z = next(
                    (z for z in range(1, n)
                     if n % z == 0 and k1 % (modulus // abs(q**z - p**z)) == 0),
                    None,
                )
                if z is not None:
                    with pytest.raises(ValueError, match=f"for divisor z={z} of n={n}$"):
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


class TestCycleConjugator:
    def test_antidiagonal(self, pq23):
        inst = build_cycle_instance(2, pq23, 1)
        a, b = cycle_pair(inst, [1, 1])
        assert np.array_equal(b, np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.array_equal(a, np.diag([rou_to_complex(ev) for ev in inst.spectrum]))
        residual = np.max(np.abs(np.linalg.solve(b, mat_int_pow(a, 2) @ b) - mat_int_pow(a, 3)))
        assert residual < 1e-12

    def test_scale_invariance(self, pq23):
        inst = build_cycle_instance(2, pq23, 1)
        a, b = cycle_pair(inst, [2, 5j])
        residual = np.max(np.abs(np.linalg.solve(b, mat_int_pow(a, 2) @ b) - mat_int_pow(a, 3)))
        assert residual < 1e-12

    @pytest.mark.parametrize(
        "scale, error", [("1,0", "scale entries must be nonzero"), ("1", "need 2 scale entries, got 1")]
    )
    def test_bad_scale_rejected(self, capsys, scale, error):
        code = main(["generate", "-n", "2", "-p", "2", "-q", "3", "--k1", "1", f"--scale={scale}"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"] == error

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
                a, b = cycle_pair(inst, scale)
                aq = mat_int_pow(a, q)
                residual = np.max(np.abs(np.linalg.solve(b, mat_int_pow(a, p) @ b) - aq))
                assert residual <= 1e-10 * max(np.max(np.abs(aq)), 1.0)


ORACLE_PAIRS = [(2, 3), (1, 2), (-1, 2), (3, 5), (2, 5), (1, 3), (2, -5), (1, -2)]


def longest_cycle(pq):
    """The largest n whose modulus Q = |q^n - p^n| generate accepts."""
    n = 1
    while _power_modulus(n + 1, pq) <= solvers.MAX_MODULUS:
        n += 1
    return n


class TestGenerateOracle:
    """generate --k1 builds A, B and the residual on Python complex numbers
    (cli._cycle_report); cycle_pair, the numpy construction, is the
    reference."""

    @staticmethod
    def reference(inst, scale):
        """(a, b, residual or the error message) by numpy.  Its product
        diag(scale) @ X leaves -0.0 in some zero parts of B's entries, where
        the BLAS kernel at hand puts it; the report writes 0.0 for each,
        and B + 0 does too."""
        a, b = cycle_pair(inst, scale)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                residual = conjugacy_residual(b, mat_int_pow(a, inst.pq.p), mat_int_pow(a, inst.pq.q))
            except ValueError as exc:
                residual = str(exc)
        return matrix_to_json(a), matrix_to_json(b + 0), residual

    @staticmethod
    def report(inst, scale):
        try:
            out = cli._cycle_report(inst, scale)
        except ValueError as exc:
            return None, None, str(exc)
        return out["a"], out["b"], out["residual"]

    @staticmethod
    def instance(rng, n, pq):
        """A seeded cycle of length n, or None where no k1 is valid."""
        modulus = _power_modulus(n, pq)
        if modulus <= 10**4:
            valid = enumerate_valid_k1(n, pq)
            return build_cycle_instance(n, pq, rng.choice(valid)) if valid else None
        while True:  # nearly every residue of a large Q is valid
            with contextlib.suppress(ValueError):
                return build_cycle_instance(n, pq, rng.randrange(modulus))

    def assert_agrees(self, inst, scale):
        if inst is None:
            return
        want, got = self.reference(inst, scale), self.report(inst, scale)
        if isinstance(want[2], str) or isinstance(got[2], str):
            assert got[2] == want[2], (inst, scale)
            return
        assert json.dumps(got[:2]) == json.dumps(want[:2]), (inst, scale)
        # each power is within about |e| rounding steps of the exact root on
        # either route, and the residual is relative to max|B|
        tol = 8 * (abs(inst.pq.p) + abs(inst.pq.q)) * np.finfo(float).eps
        assert abs(got[2] - want[2]) <= tol, (inst, scale, got[2], want[2])

    def test_cycle_length_stays_inside_the_matrix_cap(self):
        # Q = |q^n - p^n| >= 2^(n-1) for every pair (|q| >= |p| + 1 >= 2
        # up to a swap), and generate refuses Q > 2^24, so n <= 25: the
        # n <= 64 cap of cli._spec_matrix, which generate --k1 does not
        # pass through, could not fire
        for p in range(-9, 10):
            for q in range(-9, 10):
                with contextlib.suppress(ValueError):  # not an exponent pair
                    pq = ExponentPair(p, q)
                    for n in range(1, 26):
                        assert _power_modulus(n, pq) >= 2 ** (n - 1)
                    assert longest_cycle(pq) <= 25
        assert solvers.MAX_MODULUS == 2**24
        assert 25 <= MAX_RECOVERY_N
        assert [longest_cycle(ExponentPair(*pq)) for pq in ORACLE_PAIRS] == [
            15, 24, 24, 10, 10, 15, 10, 24
        ]

    def test_matches_the_numpy_construction(self):
        rng = random.Random(25)
        for pair in ORACLE_PAIRS:
            pq = ExponentPair(*pair)
            top = longest_cycle(pq)
            for n in sorted({1, 2, 3, 5, top // 2, top - 1, top}):
                for _ in range(3):
                    inst = self.instance(rng, n, pq)
                    # magnitudes near 1, 1e300 and 1e-300, mixed in one B
                    scale = [
                        complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                        * 10.0 ** (rng.choice([0, 300, -300]) + rng.uniform(-5, 5))
                        for _ in range(n)
                    ]
                    self.assert_agrees(inst, scale)

    @pytest.mark.parametrize("edge", [
        complex(1.2e308, 1.2e308), complex(1.5e308, -1.5e308), complex(-1.7e308, 1e308),
        complex(1.7976931348623157e308, 0.0), complex(-0.0, 1.5), complex(-1.5, -0.0),
    ])
    def test_edge_scales(self, edge):
        # near the float range the terms or |B| overflow: the same message
        # on both routes, or a residual on both; a -0.0 part of a scale
        # becomes 0.0 in B
        rng = random.Random(7)
        for pair in ORACLE_PAIRS:
            pq = ExponentPair(*pair)
            for n in (1, 3, 6):
                inst = self.instance(rng, n, pq)
                self.assert_agrees(inst, [edge] * n)
                self.assert_agrees(inst, [edge] + [complex(rng.uniform(-1, 1), 1.0)] * (n - 1))


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

    @pytest.mark.parametrize("blocks", [[], [3, 0], [-1]])
    def test_non_positive_blocks(self, pq23, blocks):
        # refused by the JordanEntry the solution is built on, before any block is read
        with pytest.raises(ValueError, match="block sizes must be positive"):
            solve_single_eigenvalue(R(0, 1), blocks, pq23)

    def test_blocks_sorted_by_the_entry(self, pq23):
        assert solve_single_eigenvalue(R(0, 1), [1, 3, 2], pq23).block_sizes == (3, 2, 1)

    def test_residuals_nontrivial_lambda(self):
        pq = ExponentPair(3, 5)
        lam = R(1, 2)  # (-1)^2 = 1 = lambda^(q-p)
        sol = solve_single_eigenvalue(lam, [3, 2], pq)
        lam_c = rou_to_complex(lam)
        nil = nilpotent(3, 2)
        a = lam_c * np.eye(5) + nil
        c = lam_c * np.eye(5) + sol.m_matrix
        assert np.max(np.abs(mat_int_pow(c, 3) - mat_int_pow(a, 5))) < 1e-12
        assert np.max(np.abs(np.linalg.solve(sol.b0, nil @ sol.b0) - sol.m_matrix)) < 1e-12

    def test_negative_exponents(self):
        pq = ExponentPair(-2, 3)
        sol = solve_single_eigenvalue(R(0, 1), [3], pq)
        assert sol.rational_coeffs[0] == Fraction(3, -2)
        nil = nilpotent(3)
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
        nil = nilpotent(3)
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


def witness(spec, pq, conjugate_seed=None):
    """polynomial_witness as solve-b takes it, on A = matrix_from_spec(spec)
    and its float A^q; with A and A^q."""
    a = matrix_from_spec(spec, conjugate_seed)
    a_q = mat_int_pow(a, pq.q)
    return polynomial_witness(spec, pq, a, a_q), a, a_q


class TestPolynomialRealization:
    def test_a_is_polynomial_in_its_qth_power(self, pq23):
        # constructed invertible solutions admit A = poly(A^q), of degree
        # below n: one node per distinct mu = lambda^3
        for n, k1 in [(2, 1), (3, 1), (4, 3)]:
            inst = build_cycle_instance(n, pq23, k1)
            coeffs, a, a_q = witness(cycle_spec(inst), pq23)
            assert coeffs is not None and len(coeffs) == n
            assert poly_residual(a_q, a, coeffs) < 1e-12

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
            a, b = cycle_pair(inst, [1.0] * n)
            c = np.linalg.solve(b, a @ b)
            assert np.max(np.abs(c - mat_int_pow(a, alpha * pq23.q))) < 1e-10


WITNESS_PAIRS = [ExponentPair(p, q) for p, q in [(2, 3), (3, 5), (-1, 2), (1, 2)]]


class TestPolynomialWitness:
    """solvers.polynomial_witness, the Hermite interpolant of the local
    inverse of x -> x^q, against the degree-by-degree fit it replaced
    (test_matrixcore.fit_polynomial_in) and against exact powers."""

    def test_identity(self):
        # A = I is the constant 1 in any power of it
        for pq in (ExponentPair(2, 3), ExponentPair(1, -2)):
            coeffs, _, _ = witness(JordanSpec((JordanEntry(R(0, 1), (1, 1)),)), pq)
            assert coeffs == [pytest.approx(1.0, abs=1e-15)]

    def test_matrix_in_its_own_cube(self):
        # 1/5 and 4/5 cube to 3/5 and 2/5: two nodes, a line through them
        spec = JordanSpec((JordanEntry(R(1, 5), (1,)), JordanEntry(R(4, 5), (1,))))
        coeffs, a, a_q = witness(spec, ExponentPair(2, 3))
        assert len(coeffs) == 2
        assert poly_residual(a_q, a, coeffs) < 1e-12

    @pytest.mark.parametrize("p", [2, -3])
    def test_q_one_is_the_polynomial_x(self, p):
        # S = A: the interpolant of x, with a 3-block at 0 allowed
        spec = JordanSpec((
            JordanEntry(None, (3, 1)), JordanEntry(R(1, 5), (2,)), JordanEntry(R(2, 7), (1,)),
        ))
        if p < 0:
            spec = spec.invertible_part()
        coeffs, a, _ = witness(spec, ExponentPair(p, 1), conjugate_seed=4)
        assert len(coeffs) == sum(e.blocks[0] for e in spec.entries)
        assert np.allclose(coeffs, [0, 1] + [0] * (len(coeffs) - 2), atol=1e-10)

    def test_q_minus_one_is_the_inverse(self):
        # S = A^-1, and A the Hermite interpolant of 1/x at the eigenvalues of S
        spec = JordanSpec((JordanEntry(R(1, 5), (3, 1)), JordanEntry(R(2, 7), (2,))))
        coeffs, a, a_q = witness(spec, ExponentPair(2, -1), conjugate_seed=2)
        assert len(coeffs) == 5
        assert poly_residual(a_q, a, coeffs) < 1e-10

    @pytest.mark.parametrize(
        "entries, pq",
        [
            # a 2-block at 0: J^2 = 0 and no polynomial in it is J
            ([(None, (2,)), (R(1, 5), (1,))], (1, 2)),
            ([(None, (2, 1))], (3, 2)),
            # 1/4 and 3/4 square to one mu, 1/2
            ([(R(1, 4), (1,)), (R(3, 4), (1,))], (1, 2)),
            ([(R(1, 4), (2,)), (R(3, 4), (1,)), (R(0, 1), (1,))], (3, 2)),
        ],
    )
    def test_null_cases(self, entries, pq):
        spec = JordanSpec(tuple(JordanEntry(ev, blocks) for ev, blocks in entries))
        pq = ExponentPair(*pq)
        assert witness(spec, pq)[0] is None
        # the reference finds no polynomial either
        a = matrix_from_spec(spec, conjugate_seed=1)
        assert fit_polynomial_in(mat_int_pow(a, pq.q), a, len(a) - 1) is None

    def test_zero_one_blocks_take_the_value_zero(self):
        spec = JordanSpec((JordanEntry(None, (1, 1)), JordanEntry(R(1, 5), (2,))))
        coeffs, a, a_q = witness(spec, ExponentPair(2, 3), conjugate_seed=3)
        assert len(coeffs) == 3 and abs(coeffs[0]) < 1e-15
        assert poly_residual(a_q, a, coeffs) < 1e-10

    def test_refused_by_its_residual(self):
        # a wrong spec gives an interpolant that misses A: None
        spec = JordanSpec((JordanEntry(R(1, 5), (1,)), JordanEntry(R(4, 5), (1,))))
        a = matrix_from_spec(JordanSpec((JordanEntry(R(1, 5), (2,)),)))
        assert polynomial_witness(spec, ExponentPair(2, 3), a, mat_int_pow(a, 3)) is None

    def test_a_complex_eigenvalue(self):
        # no root of unity: mu = lambda^q as a complex number
        spec = JordanSpec((JordanEntry(0.9 + 0.3j, (2,)), JordanEntry(R(1, 3), (1,))))
        coeffs, a, a_q = witness(spec, ExponentPair(2, 3), conjugate_seed=5)
        assert len(coeffs) == 3
        assert poly_residual(a_q, a, coeffs) < 1e-10

    @pytest.mark.parametrize("pq", WITNESS_PAIRS, ids=str)
    def test_agrees_with_the_degree_by_degree_fit(self, pq):
        # seeded unitary-conjugated similar specs: where the fit and the
        # witness have one length, they are one polynomial
        rng = np.random.default_rng(17 * abs(pq.p) + pq.q)
        compared = 0
        for seed in range(8):
            spec = random_cycle_spec(rng, pq, 12)
            coeffs, a, a_q = witness(spec, pq, conjugate_seed=seed)
            reference = fit_polynomial_in(a_q, a, len(a) - 1)
            if coeffs is None or reference is None or len(coeffs) != len(reference):
                continue
            scale = max(1.0, max(map(abs, reference)))
            assert np.max(np.abs(np.subtract(coeffs, reference))) <= 1e-6 * scale, spec
            compared += 1
        assert compared >= 4

    @pytest.mark.parametrize(
        "entries, pq",
        [
            ([(R(1, 5), (2,)), (R(2, 5), (1,)), (R(3, 7), (2, 1))], (2, 3)),
            ([(R(0, 1), (3,)), (R(1, 3), (2,)), (R(2, 3), (1,))], (3, 5)),
            ([(R(1, 4), (2,)), (R(1, 6), (2, 1)), (R(5, 6), (1,))], (-1, 2)),
            ([(None, (1, 1)), (R(1, 7), (2,)), (R(3, 7), (2,))], (1, 2)),
            ([(R(2, 9), (4,)), (R(1, 2), (2,))], (2, -1)),
            ([(None, (3,)), (R(1, 5), (3,))], (2, 1)),
        ],
    )
    def test_sympy_exact_power(self, entries, pq):
        # J^q exact in sympy, rounded once: sum(c[j] (J^q)^j) is J
        import sympy

        spec = JordanSpec(tuple(JordanEntry(ev, blocks) for ev, blocks in entries))
        pq = ExponentPair(*pq)
        assert spec.n <= 6
        exact = sympy.zeros(spec.n, spec.n)
        start = 0
        for e in spec.entries:
            lam = 0 if e.eigenvalue is None else sympy.exp(2 * sympy.pi * sympy.I * e.eigenvalue.angle)
            for size in e.blocks:
                for k in range(start, start + size):
                    exact[k, k] = lam
                    if k > start:
                        exact[k - 1, k] = 1
                start += size
        j = np.array(exact.evalf(30).tolist(), dtype=complex)
        j_q = np.array((exact**pq.q).evalf(30).tolist(), dtype=complex)
        coeffs = polynomial_witness(spec, pq, j, j_q)
        assert coeffs is not None
        assert poly_residual(j_q, j, coeffs) <= 1e-12


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


def exact_solution(pq, blocks):
    """M and B0 of solve_single_eigenvalue at lambda = 1 as Fraction
    matrices, from the integers its floats are rounded from:
    solvers._binomial_coeffs for M, Toeplitz on every block, and the
    _inverse_series_powers table read by _block_conjugator_entries for B0.
    At lambda, entry [i][j] is twisted by lambda^(1+i-j) in M and by
    lambda^(i-j) in B0."""
    blocks = sorted(blocks, reverse=True)
    alphas = solvers._binomial_coeffs(pq.q, pq.p, blocks[0])
    table = solvers._inverse_series_powers(pq, blocks[0])
    n = sum(blocks)
    m, b0 = ([[Fraction(0)] * n for _ in range(n)] for _ in range(2))
    pos = 0
    for size in blocks:
        for i in range(size):
            for j in range(i + 1, size):
                m[pos + i][pos + j] = alphas[j - i - 1]
        for i, j, num, den in solvers._block_conjugator_entries(table, pq, size):
            b0[pos + i][pos + j] = Fraction(num, den)
        pos += size
    return m, b0


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
        m, b0 = exact_solution(ExponentPair(p, q), blocks)
        nil = exact_nilpotent(blocks)
        assert exact_matmul(nil, b0) == exact_matmul(b0, m)
        assert all(b0[i][i] != 0 for i in range(len(b0)))

    @pytest.mark.parametrize("p,q", CLOSED_FORM_PAIRS)
    def test_b0_matches_krylov_inverse(self, p, q):
        for d in (1, 2, 5, 12):
            pq = ExponentPair(p, q)
            sol = solve_single_eigenvalue(R(0, 1), [d], pq)
            got = exact_solution(pq, [d])[1]
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
            m, b0 = exact_solution(pq, blocks)
            views = ((sol.m_matrix, m, 1), (sol.b0, b0, 0))
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
        m, b0 = exact_solution(ExponentPair(p, q), blocks)
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


def exact_spec_conjugator(spec, pq):
    """The B of spec_conjugator at 50 digits, from the exact base conjugator:
    block k at lambda goes to block k at mu = successor(lambda) as
    R[i][j] mu^i lambda^-j, with R the exact B0 of lambda = 1; blocks
    at 0 stay in place as the identity."""
    import mpmath as mp

    mp.mp.dps = 50
    start, pos = {}, 0
    for e in spec.entries:
        start[e.eigenvalue], pos = pos, pos + e.multiplicity
    out = mp.matrix(pos)
    for e in spec.entries:
        col = start[e.eigenvalue]
        if e.eigenvalue is None:
            for k in range(e.multiplicity):
                out[col + k, col + k] = 1
            continue
        mu = successor(e.eigenvalue, pq)
        row = start[mu]
        lam_mp, mu_mp = (mp.expjpi(2 * mp.mpf(r.num) / r.order) for r in (e.eigenvalue, mu))
        for size in e.blocks:
            r = exact_solution(pq, [size])[1]
            for i in range(size):
                for j in range(size):
                    if r[i][j]:
                        value = mp.mpf(r[i][j].numerator) / r[i][j].denominator
                        out[row + i, col + j] = value * mu_mp**i * lam_mp**-j
            row, col = row + size, col + size
    return out


def exact_spec_matrix(spec):
    """matrix_from_spec at 50 digits, its roots of unity evaluated exactly."""
    import mpmath as mp

    mp.mp.dps = 50
    out, pos = mp.matrix(spec.n), 0
    for e in spec.entries:
        ev = e.eigenvalue
        lam = 0 if ev is None else mp.expjpi(2 * mp.mpf(ev.num) / ev.order)
        for size in e.blocks:
            for k in range(size):
                out[pos + k, pos + k] = lam
                if k:
                    out[pos + k - 1, pos + k] = 1
            pos += size
    return out


# similar specs with blocks at 0, at a root and along cycles, for pairs with
# p > q and negative exponents
SIMILAR_SPECS = [
    ([(R(1, 4), (1, 1)), (R(3, 4), (2,)), (None, (3,))], (3, 7)),
    ([(R(0, 1), (3, 3)), (R(1, 65), (1,)), (R(34, 65), (1,)), (R(51, 65), (1,)),
      (R(44, 65), (1,))], (2, 3)),
    ([(R(0, 1), (11,))], (2, 3)),
    ([(R(1, 5), (2,)), (R(4, 5), (2,))], (2, 3)),
    ([(None, (2, 1)), (R(0, 1), (2,))], (3, 2)),
    ([(R(1, 9), (2, 1)), (R(7, 9), (2, 1)), (R(4, 9), (2, 1)), (R(1, 3), (3,))], (-1, 2)),
    ([(R(1, 5), (3,)), (R(2, 5), (1, 1))], (3, -2)),
]


def random_parity_spec(rng, pq):
    """A seeded spec with n <= 12 for the pair pq: whole successor cycles of
    roots of order |q^t - p^t|, t <= 3, with equal blocks along a cycle
    except where one member's blocks are changed; sometimes a root of small
    order that need not close up, and complex eigenvalues, some pairs of
    them with w^q = z^p; for p, q > 0 often a part at 0 first, sometimes
    deeper than min(p, q)."""
    entries = {}

    def add(ev, blocks):
        if ev not in entries and sum(map(sum, entries.values())) + sum(blocks) <= 12:
            entries[ev] = blocks

    if min(pq.p, pq.q) > 0 and rng.random() < 0.35:
        depth = min(pq.p, pq.q) + (rng.random() < 0.2)
        add(None, tuple(rng.randint(1, depth) for _ in range(rng.randint(1, 3))))
    for _ in range(rng.randint(1, 3)):
        t = rng.randint(1, 3)
        order = abs(pq.q**t - pq.p**t)
        cycle = [R(rng.randrange(order), order)]
        while (mu := successor(cycle[-1], pq)) != cycle[0]:
            cycle.append(mu)
        blocks = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        for ev in cycle:
            add(ev, blocks if rng.random() > 0.08 else blocks + (1,))
    if rng.random() < 0.2:
        order = rng.randint(1, 12)
        add(R(rng.randrange(order), order), (rng.randint(1, 2),))
    if rng.random() < 0.2:
        w = complex(rng.uniform(0.5, 1.5), rng.uniform(-1.0, 1.0))
        blocks = (rng.randint(1, 2),)
        add(w, blocks)
        if rng.random() < 0.5:
            add((w**pq.q) ** (1 / pq.p), blocks)
    return JordanSpec(tuple(JordanEntry(ev, blocks) for ev, blocks in entries.items()))


class TestSpecConjugator:
    """spec_conjugator and intertwiner_dimension: the closed forms that
    solve-b and analyze --find-b of a spec file report."""

    def test_parity_with_the_kernel_on_seeded_specs(self):
        # intertwiner_dimension equals the nullity of the dense n^2 x n^2
        # operator of matrix_from_spec(spec), and spec_conjugator is an
        # invertible B with a residual of at most 1e-12 exactly when the
        # verdict is similar.  Taken whole, the operator sees a gap g between
        # two 3-blocks as a singular value near g^3, which can fall within a
        # decade of its cut: there the count must lie between the nullities
        # two decades either side of the cut, and elsewhere equal it
        rng = random.Random(17)
        pairs = [(2, 3), (1, 2), (1, 3), (3, 5), (-1, 2), (2, 5), (3, -2), (3, 2), (5, 2)]
        seen = {"similar": 0, "not similar": 0, "singular p > q": 0, "complex": 0, "negative": 0}
        near_cut = 0
        for case in range(2000):
            pq = ExponentPair(*pairs[case % len(pairs)])
            spec = random_parity_spec(rng, pq)
            a = matrix_from_spec(spec)
            a_p, a_q = mat_int_pow(a, pq.p), mat_int_pow(a, pq.q)
            dimension = intertwiner_dimension(spec, pq)
            s, cut = dense_singular_values(a_p, a_q)
            low, at, high = (int(np.count_nonzero(s <= cut * f)) for f in (1e-2, 1.0, 1e2))
            assert low <= dimension <= high, (case, spec, pq)
            near_cut += dimension != at
            singular = spec.zero_entry() is not None
            normalized = pq.swapped() if singular and pq.p > pq.q else pq
            if powers_similar_general(spec, normalized).similar:
                b = spec_conjugator(spec, pq)
                assert np.linalg.matrix_rank(b) == spec.n, (case, spec, pq)
                assert conjugacy_residual(b, a_p, a_q) <= 1e-12, (case, spec, pq)
                seen["similar"] += 1
            else:
                with pytest.raises(ValueError):
                    spec_conjugator(spec, pq)
                seen["not similar"] += 1
            seen["singular p > q"] += singular and pq.p > pq.q
            seen["complex"] += any(isinstance(e.eigenvalue, complex) for e in spec.entries)
            seen["negative"] += min(pq.p, pq.q) < 0
        assert min(seen.values()) >= 100, sorted(seen.items())
        assert near_cut <= 10

    @pytest.mark.parametrize("entries, pair", SIMILAR_SPECS)
    def test_exact_at_50_digits(self, entries, pair):
        # A^p B = B A^q holds for the exact B at 50 digits, and the float B
        # is that B rounded entry by entry
        import mpmath as mp

        pq = ExponentPair(*pair)
        spec = JordanSpec(tuple(JordanEntry(ev, blocks) for ev, blocks in entries))
        exact, a = exact_spec_conjugator(spec, pq), exact_spec_matrix(spec)
        residual = a**pq.p * exact - exact * a**pq.q
        assert max(abs(x) for x in residual) < mp.mpf(10) ** -40
        b = spec_conjugator(spec, pq)
        for i in range(spec.n):
            for j in range(spec.n):
                x = complex(exact[i, j])
                assert abs(b[i, j] - x) <= 2e-15 * abs(x), (i, j, b[i, j], x)

    @pytest.mark.parametrize("pair", [(2, 3), (3, 2), (1, 2)])
    def test_complex_zero_splits_as_zero_does(self, pair):
        # [0.0, 0.0] in a spec file is read as the eigenvalue 0, whose
        # blocks split in A^p and A^q
        pq = ExponentPair(*pair)
        spec = JordanSpec((JordanEntry(None, (3, 2)), JordanEntry(R(0, 1), (1,))))
        for zero in ([0.0, 0.0], [-0.0, 0.0], "zero"):
            read = JordanSpec.from_json([{"eigenvalue": zero, "blocks": [3, 2]},
                                         {"eigenvalue": "0/1", "blocks": [1]}])
            assert read == spec
        a = matrix_from_spec(spec)
        dense = dense_dimension(mat_int_pow(a, pq.p), mat_int_pow(a, pq.q))
        assert intertwiner_dimension(spec, pq) == dense

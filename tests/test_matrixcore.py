import numpy as np
import pytest

from simpow.errors import NotInvertibleError
from simpow.matrixcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    conjugacy_residual,
    find_invertible_in_span,
    fit_polynomial_in,
    kernel_basis,
    mat_int_pow,
    mat_mul,
    matrix_from_json,
    matrix_to_json,
    span_residual,
    sylvester_kernel,
    weyr_characteristic,
)

J2 = np.array([[0, 1], [0, 0]], dtype=complex)
J3 = np.eye(3, k=1, dtype=complex)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestMatMul:
    def test_identity(self):
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(mat_mul(np.eye(2), x), x)

    def test_nilpotent_square(self):
        assert np.array_equal(mat_mul(J2, J2), np.zeros((2, 2)))

    def test_inverse_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = random_matrix(rng, 4) + 4 * np.eye(4)
            assert np.max(np.abs(mat_mul(a, np.linalg.inv(a)) - np.eye(4))) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(np.eye(2), np.eye(3))


class TestMatIntPow:
    def test_zeroth_power(self):
        rng = np.random.default_rng(0)
        a = random_matrix(rng, 3)
        assert np.array_equal(mat_int_pow(a, 0), np.eye(3))

    def test_diag_squared(self):
        a = np.diag([1j, -1j])
        assert np.max(np.abs(mat_int_pow(a, 2) - np.diag([-1, -1]))) < 1e-15

    def test_nondiag_fixture_powers(self, nondiag_fixture):
        a, b, _, _, _ = nondiag_fixture
        lhs = np.linalg.solve(b, mat_int_pow(a, 2) @ b)
        assert np.max(np.abs(lhs - mat_int_pow(a, 3))) < 1e-12

    def test_negative_power_of_singular(self):
        with pytest.raises(NotInvertibleError):
            mat_int_pow(J2, -1)

    def test_inverse_power_property(self):
        rng = np.random.default_rng(1)
        for e in range(1, 9):
            a = random_matrix(rng, 3) + 3 * np.eye(3)
            prod = mat_int_pow(a, e) @ mat_int_pow(a, -e)
            assert np.max(np.abs(prod - np.eye(3))) < DEFAULT_TOL.verify_tol


class TestKernelBasis:
    def test_zero_matrix(self):
        assert len(kernel_basis(np.zeros((3, 3)))) == 3

    def test_identity(self):
        assert kernel_basis(np.eye(3)) == []

    def test_jordan_block(self):
        basis = kernel_basis(J3)
        assert len(basis) == 1
        v = basis[0]
        assert abs(abs(v[0]) - 1.0) < 1e-12 and np.max(np.abs(v[1:])) < 1e-12


class TestSylvesterKernel:
    def test_identity_pair(self):
        assert len(sylvester_kernel(np.eye(2), np.eye(2))) == 4

    def test_distinct_diagonal(self):
        basis = sylvester_kernel(np.diag([1.0, 2.0]), np.diag([1.0, 2.0]))
        assert len(basis) == 2
        for x in basis:
            assert np.max(np.abs(x - np.diag(np.diag(x)))) < 1e-12

    def test_nondiag_membership(self, nondiag_fixture):
        a, b, _, _, _ = nondiag_fixture
        basis = sylvester_kernel(mat_int_pow(a, 2), mat_int_pow(a, 3))
        assert span_residual(basis, b) < 1e-9

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_matrix(rng, 3)
            q = random_matrix(rng, 3)
            scale = np.linalg.norm(p) + np.linalg.norm(q)
            for x in sylvester_kernel(p, q):
                residual = np.linalg.norm(p @ x - x @ q)
                assert residual <= 10 * DEFAULT_TOL.rank_tol * scale * np.linalg.norm(x)


class TestConjugacyResidual:
    def test_nondiag_solution(self, nondiag_fixture):
        a, b, _, _, _ = nondiag_fixture
        assert conjugacy_residual(b, mat_int_pow(a, 2), mat_int_pow(a, 3)) < 1e-12

    def test_largest_entry_of_difference(self):
        # B = I: the residual is max|X - Y| exactly
        x = np.diag([1.0, 2.0]).astype(complex)
        y = np.array([[1.0, 0.5], [0.0, -1.0]], dtype=complex)
        assert conjugacy_residual(np.eye(2), x, y) == 3.0

    def test_singular_b_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            conjugacy_residual(np.zeros((2, 2)), np.eye(2), np.eye(2))


class TestFindInvertibleInSpan:
    def test_identity_span(self):
        found = find_invertible_in_span([np.eye(2)], seed=0)
        assert found is not None

    def test_nilpotent_span_has_none(self):
        assert find_invertible_in_span([J2], seed=0) is None

    def test_deterministic(self):
        basis = [np.eye(2), J2]
        a = find_invertible_in_span(basis, seed=5)
        b = find_invertible_in_span(basis, seed=5)
        assert np.array_equal(a, b)

    def test_conjugator_from_sylvester(self, nondiag_fixture):
        a, _, _, _, _ = nondiag_fixture
        a2, a3 = mat_int_pow(a, 2), mat_int_pow(a, 3)
        basis = sylvester_kernel(a2, a3)
        found = find_invertible_in_span(basis, seed=0)
        assert found is not None
        assert np.max(np.abs(np.linalg.solve(found, a2 @ found) - a3)) < 1e-9

    def test_empty_basis(self):
        with pytest.raises(ValueError):
            find_invertible_in_span([], seed=0)


class TestFitPolynomialIn:
    def test_identity_pair(self):
        coeffs = fit_polynomial_in(np.eye(2), np.eye(2), 3)
        assert coeffs is not None and len(coeffs) == 1
        assert coeffs[0] == pytest.approx(1.0)

    def test_constant_target(self):
        coeffs = fit_polynomial_in(np.diag([1.0, -1.0]), np.eye(2), 3)
        assert coeffs is not None
        assert coeffs[0] == pytest.approx(1.0)
        assert len(coeffs) == 1

    def test_matrix_in_its_own_cube(self):
        # A from the 2x2 distinct-eigenvalue construction: A is a polynomial in A^3
        a = np.diag(
            [np.exp(2j * np.pi / 5), np.exp(8j * np.pi / 5)]
        )
        coeffs = fit_polynomial_in(mat_int_pow(a, 3), a, 1)
        assert coeffs is not None
        fitted = sum(c * mat_int_pow(mat_int_pow(a, 3), j) for j, c in enumerate(coeffs))
        assert np.max(np.abs(fitted - a)) < 1e-9

    def test_self_fit(self):
        rng = np.random.default_rng(2)
        s = random_matrix(rng, 3)
        coeffs = fit_polynomial_in(s, s, 3)
        assert coeffs is not None
        assert len(coeffs) == 2
        assert coeffs[0] == pytest.approx(0.0, abs=1e-10)
        assert coeffs[1] == pytest.approx(1.0, abs=1e-10)

    def test_unfittable(self):
        # a non-diagonal target cannot be a polynomial in a diagonal matrix
        assert fit_polynomial_in(np.diag([1.0, 2.0]), J2, 3) is None


class TestWeyrCharacteristic:
    def test_jordan_block(self):
        assert weyr_characteristic(J3, 0, 3) == [1, 2, 3]

    def test_identity(self):
        assert weyr_characteristic(np.eye(2), 1.0, 2) == [2, 2]

    def test_intro_fixture_powers(self, intro_matrix):
        # J3^3 = 0 exactly, so both A^3 and A^5 have a vanished nilpotent part
        a3 = mat_int_pow(intro_matrix, 3)
        a5 = mat_int_pow(intro_matrix, 5)
        assert weyr_characteristic(a3, 0, 3) == [3, 3, 3]
        assert weyr_characteristic(a5, 0, 3) == [3, 3, 3]
        # the similarity failure shows up at the invertible eigenvalues
        assert weyr_characteristic(a3, 1j, 2) == [1, 2]
        assert weyr_characteristic(a5, 1j, 2) == [2, 2]

    def test_exact_rank_oracle(self, intro_matrix):
        # independent oracle: sympy exact kernel dimensions over Gaussian rationals
        import sympy

        a3 = mat_int_pow(intro_matrix, 3)
        m = sympy.Matrix(
            [
                [sympy.nsimplify(z.real) + sympy.I * sympy.nsimplify(z.imag) for z in row]
                for row in a3.tolist()
            ]
        )
        shifted = m - sympy.I * sympy.eye(7)
        for k in (1, 2):
            exact_dim = 7 - (shifted**k).rank()
            assert weyr_characteristic(a3, 1j, 2)[k - 1] == exact_dim

    def test_similarity_invariance(self):
        rng = np.random.default_rng(4)
        base = np.zeros((5, 5), dtype=complex)
        base[:2, :2] = 2.0 * np.eye(2) + J2
        base[2:, 2:] = -1j * np.eye(3) + J3
        for _ in range(5):
            g = random_matrix(rng, 5)
            q, _ = np.linalg.qr(g)
            conj = q.conj().T @ base @ q
            for lam in (2.0, -1j):
                assert weyr_characteristic(conj, lam, 3) == weyr_characteristic(base, lam, 3)

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            weyr_characteristic(J3, 0, 0)


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 3)
        again = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(m, again)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})


class TestToleranceConfig:
    def test_defaults(self):
        cfg = ToleranceConfig()
        assert cfg.rank_tol == 1e-9 and cfg.verify_tol == 1e-9

    def test_positive_required(self):
        with pytest.raises(ValueError):
            ToleranceConfig(rank_tol=0.0)

"""The 2x2 word equation A^r B^s A^r' B^s' = eps * I.

After normalizing both matrices to unit determinant, pairs split into the
simultaneously triangularizable (ST) case, which reduces to a triangular
polynomial system, and the non-ST case, which is rigid: solutions exist
only when |r - r'| >= 2 and |s - s'| >= 2, and then A and B are conjugate
to a triangular pair built from roots of unity u, rho with a single
coupling constraint tying the off-diagonal parameters together.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import gcd

import numpy as np

from .matrixcore import DEFAULT_TOL, ToleranceConfig, as_matrix, mat_int_pow
from .scalar import RootOfUnity, phi_k, rou_mul, rou_pow, rou_to_complex

DEFAULT_MAX_REPORT = 100


@dataclass(frozen=True)
class WordShape:
    """Exponent data (r, s, r', s') and the sign eps of the right-hand side."""

    r: int
    s: int
    r_prime: int
    s_prime: int
    epsilon: int

    def __post_init__(self):
        if 0 in (self.r, self.s, self.r_prime, self.s_prime):
            raise ValueError("word exponents must be nonzero")
        if gcd(abs(self.r), abs(self.r_prime)) != 1:
            raise ValueError(f"r={self.r} and r'={self.r_prime} must be coprime")
        if gcd(abs(self.s), abs(self.s_prime)) != 1:
            raise ValueError(f"s={self.s} and s'={self.s_prime} must be coprime")
        if self.epsilon not in (-1, 1):
            raise ValueError(f"epsilon must be +-1, got {self.epsilon}")

    @property
    def exponents(self) -> tuple[int, int, int, int]:
        return (self.r, self.s, self.r_prime, self.s_prime)


@dataclass(frozen=True)
class TriangularPair:
    """A = [[u, v], [0, 1/u]] upper, B = [[rho, 0], [sigma, 1/rho]] lower."""

    u: complex
    v: complex
    rho: complex
    sigma: complex

    def __post_init__(self):
        if self.u == 0 or self.rho == 0:
            raise ValueError("diagonal parameters must be nonzero")

    def a_matrix(self) -> np.ndarray:
        return np.array([[self.u, self.v], [0.0, 1.0 / self.u]], dtype=complex)

    def b_matrix(self) -> np.ndarray:
        return np.array([[self.rho, 0.0], [self.sigma, 1.0 / self.rho]], dtype=complex)

    def st_defect(self) -> complex:
        """(rho^2-1)(u^2-1) + u*v*rho*sigma; zero exactly when the pair is ST."""
        return (self.rho**2 - 1.0) * (self.u**2 - 1.0) + self.u * self.v * self.rho * self.sigma


def word_value(a: np.ndarray, b: np.ndarray, shape: WordShape, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    r, s, rp, sp = shape.exponents
    return (
        mat_int_pow(a, r, cfg)
        @ mat_int_pow(b, s, cfg)
        @ mat_int_pow(a, rp, cfg)
        @ mat_int_pow(b, sp, cfg)
    )


def verify_word(
    a: np.ndarray, b: np.ndarray, shape: WordShape, cfg: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Max-abs residual of A^r B^s A^r' B^s' - eps*I."""
    a, b = as_matrix(a), as_matrix(b)
    n = a.shape[0]
    w = word_value(a, b, shape, cfg)
    return float(np.max(np.abs(w - shape.epsilon * np.eye(n))))


@dataclass
class NormalizedPair:
    """Unit-determinant rescaling a = scale_a * a1, b = scale_b * b1.

    word_scale is scale_a^(r+r') * scale_b^(s+s'): the original word equals
    word_scale times the normalized word.  When word_scale is +-1 within
    tolerance, ``sign`` records it; otherwise sign is None and the
    normalized equation can only hold with the right-hand side eps scaled
    by an undetermined factor.
    """

    a1: np.ndarray
    b1: np.ndarray
    scale_a: complex
    scale_b: complex
    word_scale: complex
    sign: int | None


def normalize_determinants(
    a: np.ndarray, b: np.ndarray, shape: WordShape, cfg: ToleranceConfig = DEFAULT_TOL
) -> NormalizedPair:
    a, b = as_matrix(a), as_matrix(b)
    det_a, det_b = complex(np.linalg.det(a)), complex(np.linalg.det(b))
    if abs(det_a) <= cfg.rank_tol or abs(det_b) <= cfg.rank_tol:
        raise ValueError("inputs must be invertible")
    scale_a, scale_b = cmath.sqrt(det_a), cmath.sqrt(det_b)
    word_scale = scale_a ** (shape.r + shape.r_prime) * scale_b ** (shape.s + shape.s_prime)
    sign: int | None = None
    if abs(word_scale - 1.0) <= cfg.verify_tol:
        sign = 1
    elif abs(word_scale + 1.0) <= cfg.verify_tol:
        sign = -1
    return NormalizedPair(a / scale_a, b / scale_b, scale_a, scale_b, word_scale, sign)


def is_simultaneously_triangularizable(
    a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """For 2x2 pairs, ST is equivalent to det(AB - BA) = 0."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("ST test is for 2x2 matrices")
    comm = a @ b - b @ a
    scale = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    return bool(abs(np.linalg.det(comm)) <= cfg.verify_tol * max(scale, 1.0) ** 2)


def _require_unit_determinant(name: str, m: np.ndarray, cfg: ToleranceConfig) -> None:
    """Raise ValueError unless |det(m) - 1| <= verify_tol * max(||m||_F, 1)^2."""
    if abs(np.linalg.det(m) - 1.0) > cfg.verify_tol * max(float(np.linalg.norm(m)), 1.0) ** 2:
        raise ValueError(f"{name} must have determinant 1")


@dataclass
class StResidual:
    """Triangular-case reduction: the word is eps*I iff diag_residual = 0 and
    v*phi_coeff + q_off*psi_coeff = 0."""

    diag_residual: complex
    phi_coeff: complex
    psi_coeff: complex


def st_residual_system(
    a: np.ndarray, b: np.ndarray, shape: WordShape, cfg: ToleranceConfig = DEFAULT_TOL
) -> StResidual:
    """Reduce the word equation for an upper-triangular pair.

    Both inputs must be upper triangular with unit determinant.  The
    word's top-right entry is linear in the two off-diagonal entries, so
    its coefficients are recovered by evaluating at (1, 0) and (0, 1).
    """
    a, b = as_matrix(a), as_matrix(b)
    for name, m in (("a", a), ("b", b)):
        if m.shape != (2, 2):
            raise ValueError(f"{name} must be 2x2")
        if abs(m[1, 0]) > cfg.verify_tol * max(float(np.linalg.norm(m)), 1.0):
            raise ValueError(f"{name} is not upper triangular")
        _require_unit_determinant(name, m, cfg)
    u, rho = complex(a[0, 0]), complex(b[0, 0])
    diag_residual = u ** (shape.r + shape.r_prime) * rho ** (shape.s + shape.s_prime) - shape.epsilon

    def top_right(v: complex, q_off: complex) -> complex:
        au = np.array([[u, v], [0.0, 1.0 / u]], dtype=complex)
        bu = np.array([[rho, q_off], [0.0, 1.0 / rho]], dtype=complex)
        return complex(word_value(au, bu, shape, cfg)[0, 1])

    return StResidual(diag_residual, top_right(1.0, 0.0), top_right(0.0, 1.0))


def _is_diagonalizable_2x2(m: np.ndarray, tol: float) -> bool:
    ev = np.linalg.eigvals(m)
    return bool(abs(ev[0] - ev[1]) > tol * max(1.0, float(np.linalg.norm(m))))


def _symmetrize_with_diagonalizable(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Diagonalize ``first``, then rescale so ``second`` becomes symmetric."""
    _, vecs = np.linalg.eig(first)
    transformed = np.linalg.solve(vecs, second @ vecs)
    x = cmath.sqrt(complex(transformed[0, 1]))
    y = cmath.sqrt(complex(transformed[1, 0]))
    return vecs @ np.diag([x, y])


def symmetrize_pair(
    a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Conjugator P making both P^-1 A P and P^-1 B P symmetric.

    Only defined for non-ST pairs.  If one matrix is diagonalizable the
    scaling trick applies; when both are non-diagonalizable the pair
    reduces to complementary nilpotent parts and P = Q @ [[1, i], [1, -i]]
    does the job.
    """
    a, b = as_matrix(a), as_matrix(b)
    if is_simultaneously_triangularizable(a, b, cfg):
        raise ValueError("pair is simultaneously triangularizable")
    eig_gap_tol = 1e-8
    if _is_diagonalizable_2x2(a, eig_gap_tol):
        return _symmetrize_with_diagonalizable(a, b)
    if _is_diagonalizable_2x2(b, eig_gap_tol):
        return _symmetrize_with_diagonalizable(b, a)
    # both non-diagonalizable: A = lam*I + M, B = mu*I + N with M, N
    # nilpotent sharing no eigenvector
    lam = complex(np.trace(a)) / 2.0
    mu = complex(np.trace(b)) / 2.0
    m_nil = a - lam * np.eye(2)
    n_nil = b - mu * np.eye(2)
    v1 = _nilpotent_kernel_vector(m_nil)
    v2 = _nilpotent_kernel_vector(n_nil)
    q = np.column_stack([v1, v2])
    rotate = np.array([[1.0, 1j], [1.0, -1j]], dtype=complex)
    return q @ rotate


def _nilpotent_kernel_vector(m: np.ndarray) -> np.ndarray:
    """Unit kernel vector of a nonzero nilpotent 2x2 matrix."""
    _, _, vh = np.linalg.svd(m)
    return vh[-1].conj()


@dataclass
class NecessaryConditionsReport:
    """Residuals of the identities every non-ST unit-determinant solution obeys."""

    alpha: int
    inverse_word_residual: float
    commutation_residual: float
    a_power_residual: float
    b_power_residual: float
    square_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(
            res <= self.tolerance
            for res in (
                self.inverse_word_residual,
                self.commutation_residual,
                self.a_power_residual,
                self.b_power_residual,
                self.square_residual,
            )
        )

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "inverse_word_residual": self.inverse_word_residual,
            "commutation_residual": self.commutation_residual,
            "a_power_residual": self.a_power_residual,
            "b_power_residual": self.b_power_residual,
            "square_residual": self.square_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def check_necessary_conditions(
    a: np.ndarray, b: np.ndarray, shape: WordShape, cfg: ToleranceConfig = DEFAULT_TOL
) -> NecessaryConditionsReport:
    """Evaluate the rigidity identities for a non-ST unit-determinant pair.

    Reports residuals of: the inverse-exponent word; commutation of
    A^(r-r') with B^s; A^(r-r') = alpha*I; B^(s-s') = -alpha*eps*I; and
    (A^r B^s)^2 = -I, with alpha the nearer sign for A^(r-r').
    """
    a, b = as_matrix(a), as_matrix(b)
    _require_unit_determinant("a", a, cfg)
    _require_unit_determinant("b", b, cfg)
    if is_simultaneously_triangularizable(a, b, cfg):
        raise ValueError("pair is simultaneously triangularizable")
    eye = np.eye(2)
    inverse_shape = WordShape(-shape.r, -shape.s, -shape.r_prime, -shape.s_prime, shape.epsilon)
    inverse_residual = verify_word(a, b, inverse_shape, cfg)
    a_diff = mat_int_pow(a, shape.r - shape.r_prime, cfg)
    b_s = mat_int_pow(b, shape.s, cfg)
    commutation = float(np.max(np.abs(a_diff @ b_s - b_s @ a_diff)))
    alpha = 1 if np.abs(a_diff - eye).max() <= np.abs(a_diff + eye).max() else -1
    a_power = float(np.max(np.abs(a_diff - alpha * eye)))
    b_diff = mat_int_pow(b, shape.s - shape.s_prime, cfg)
    b_power = float(np.max(np.abs(b_diff + alpha * shape.epsilon * eye)))
    ab = mat_int_pow(a, shape.r, cfg) @ b_s
    square = float(np.max(np.abs(ab @ ab + eye)))
    return NecessaryConditionsReport(
        alpha=alpha,
        inverse_word_residual=inverse_residual,
        commutation_residual=commutation,
        a_power_residual=a_power,
        b_power_residual=b_power,
        square_residual=square,
        tolerance=cfg.verify_tol,
    )


def _roots_with_power_sign(exponent: int, sign: int) -> list[RootOfUnity]:
    """All u with u^exponent = sign (sign = +-1), exponent != 0."""
    m = abs(exponent)
    if sign == 1:
        return [RootOfUnity(j, m) for j in range(m)]
    return [RootOfUnity(2 * j + 1, 2 * m) for j in range(m)]


def _phi_vanishes(u: RootOfUnity, k: int) -> bool:
    """phi_k(u) = 0 for a root of unity u, exactly: u^2 != 1 and u^(2k) = 1."""
    if u.order <= 2:
        return False
    return rou_pow(u, 2 * k).num == 0


def _passes_pair_constraints(u: RootOfUnity, rho: RootOfUnity, shape: WordShape) -> bool:
    """Exact angle form of u^2r + rho^2s != 0 and 1 + u^2r rho^2s != 0."""
    u2r = rou_pow(u, 2 * shape.r)
    rho2s = rou_pow(rho, 2 * shape.s)
    half = RootOfUnity(1, 2)
    if u2r == rou_mul(rho2s, half):
        return False
    if rou_mul(u2r, rho2s) == half:
        return False
    return True


@dataclass
class SolutionFamily:
    """One alpha-branch of the non-ST solution classification.

    ``pairs`` lists admissible (u, rho) combinations (possibly truncated);
    sigma*v for each pair follows from the coupling rule.
    """

    alpha: int
    u_candidates: tuple[RootOfUnity, ...]
    rho_candidates: tuple[RootOfUnity, ...]
    pairs: tuple[tuple[RootOfUnity, RootOfUnity], ...]
    shape: WordShape
    truncated: bool = False

    def sigma_v(self, u: RootOfUnity, rho: RootOfUnity) -> complex:
        return _coupling_product(self.shape, u, rho)

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "u": [str(u) for u in self.u_candidates],
            "rho": [str(rho) for rho in self.rho_candidates],
            "pairs": [
                {
                    "u": str(u),
                    "rho": str(rho),
                    "sigma_v": _complex_pair(self.sigma_v(u, rho)),
                }
                for u, rho in self.pairs
            ],
            "coupling": "sigma*v = (-1 - u^(2r) rho^(2s)) / (u^r phi_r(u) rho^s phi_s(rho))",
            "truncated": self.truncated,
        }


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _coupling_product(shape: WordShape, u: RootOfUnity, rho: RootOfUnity) -> complex:
    """sigma*v determined by (u, rho) for the non-ST solution family."""
    uc, rc = rou_to_complex(u), rou_to_complex(rho)
    cross = rou_mul(rou_pow(u, 2 * shape.r), rou_pow(rho, 2 * shape.s))
    numerator = -1.0 - rou_to_complex(cross)
    denominator = (
        rou_to_complex(rou_pow(u, shape.r))
        * phi_k(uc, shape.r)
        * rou_to_complex(rou_pow(rho, shape.s))
        * phi_k(rc, shape.s)
    )
    return numerator / denominator


@dataclass
class ClassifyResult:
    families: tuple[SolutionFamily, ...]
    empty_reason: str | None = None

    def to_json(self) -> dict:
        return {
            "families": [f.to_json() for f in self.families],
            "empty_reason": self.empty_reason,
        }


def classify(shape: WordShape, max_report: int = DEFAULT_MAX_REPORT) -> ClassifyResult:
    """Enumerate the non-ST solution families of the word equation.

    Empty when |r - r'| = 1 or |s - s'| = 1 (no non-ST solutions exist).
    When r = r' or s = s' the family is a continuum, which is not
    enumerated here; construct/verify still accept explicit members.
    Otherwise, for each alpha in {+1, -1}, u ranges over the solutions of
    u^(r-r') = alpha and rho over rho^(s-s') = -alpha*eps, with u^2 = 1,
    rho^2 = 1 and the phi-vanishing values excluded, and (u, rho) pairs
    filtered by the two non-degeneracy conditions.
    """
    dr = shape.r - shape.r_prime
    ds = shape.s - shape.s_prime
    if abs(dr) == 1 or abs(ds) == 1:
        return ClassifyResult((), empty_reason="r-r' = +-1 or s-s' = +-1: no non-ST solutions")
    if dr == 0 or ds == 0:
        return ClassifyResult(
            (),
            empty_reason=(
                "r = r' or s = s': the family is continuous and not enumerable; "
                "use construct/verify with explicit parameters"
            ),
        )
    families = []
    for alpha in (1, -1):
        u_cands = [
            u
            for u in _roots_with_power_sign(dr, alpha)
            if u.order > 2 and not _phi_vanishes(u, shape.r)
        ]
        rho_cands = [
            rho
            for rho in _roots_with_power_sign(ds, -alpha * shape.epsilon)
            if rho.order > 2 and not _phi_vanishes(rho, shape.s)
        ]
        pairs = []
        truncated = False
        for u in u_cands:
            for rho in rho_cands:
                if not _passes_pair_constraints(u, rho, shape):
                    continue
                if len(pairs) >= max_report:
                    truncated = True
                    break
                pairs.append((u, rho))
            if truncated:
                break
        if pairs:
            families.append(
                SolutionFamily(
                    alpha=alpha,
                    u_candidates=tuple(u_cands),
                    rho_candidates=tuple(rho_cands),
                    pairs=tuple(pairs),
                    shape=shape,
                    truncated=truncated,
                )
            )
    if not families:
        return ClassifyResult((), empty_reason="both alpha branches are empty")
    return ClassifyResult(tuple(families))


def construct_solution(
    shape: WordShape, u: RootOfUnity, rho: RootOfUnity, v: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Build the triangular non-ST solution pair for admissible (u, rho, v).

    sigma is forced by the coupling rule, so sigma*v depends only on
    (u, rho).  Raises ValueError for inadmissible parameters.
    """
    v = complex(v)
    if v == 0:
        raise ValueError("v must be nonzero")
    if u.order <= 2:
        raise ValueError(f"u = {u} has u^2 = 1, which is excluded")
    if rho.order <= 2:
        raise ValueError(f"rho = {rho} has rho^2 = 1, which is excluded")
    dr = shape.r - shape.r_prime
    ds = shape.s - shape.s_prime
    u_power = rou_pow(u, dr)
    if u_power.order > 2:
        raise ValueError(f"u^(r-r') = {u_power} is not +-1")
    alpha = 1 if u_power.num == 0 else -1
    rho_power = rou_pow(rho, ds)
    expected = RootOfUnity(0, 1) if -alpha * shape.epsilon == 1 else RootOfUnity(1, 2)
    if rho_power != expected:
        raise ValueError(f"rho^(s-s') = {rho_power}, expected {expected}")
    if _phi_vanishes(u, shape.r):
        raise ValueError(f"phi_r(u) = 0 for u = {u}: A^r would be +-I")
    if _phi_vanishes(rho, shape.s):
        raise ValueError(f"phi_s(rho) = 0 for rho = {rho}: B^s would be +-I")
    if not _passes_pair_constraints(u, rho, shape):
        raise ValueError(f"(u, rho) = ({u}, {rho}) fails the non-degeneracy conditions")
    sigma = _coupling_product(shape, u, rho) / v
    pair = TriangularPair(rou_to_complex(u), v, rou_to_complex(rho), sigma)
    return pair.a_matrix(), pair.b_matrix()

"""Dense complex matrix algebra used by the constructive solvers.

Matrices are numpy arrays of complex128.  Rank decisions are made by
singular-value thresholding with a relative tolerance, which keeps the
integer-valued quantities (ranks, Weyr sequences) robust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInvertibleError


@dataclass(frozen=True)
class ToleranceConfig:
    """rank_tol: relative singular-value cutoff; verify_tol: residual threshold."""

    rank_tol: float = 1e-9
    verify_tol: float = 1e-9

    def __post_init__(self):
        if self.rank_tol <= 0 or self.verify_tol <= 0:
            raise ValueError("tolerances must be positive")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(data) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting non-finite entries."""
    m = np.asarray(data, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return m


def _require_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def rank_with_tol(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > cfg.rank_tol * s[0]))


def is_invertible(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    n = _require_square(m)
    return rank_with_tol(m, cfg) == n


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def mat_int_pow(a: np.ndarray, e: int, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Integer matrix power; negative exponents invert once then power."""
    a = as_matrix(a)
    _require_square(a)
    if e >= 0:
        return np.linalg.matrix_power(a, e)
    if not is_invertible(a, cfg):
        raise NotInvertibleError("negative power of a singular matrix")
    return np.linalg.matrix_power(np.linalg.inv(a), -e)


def kernel_basis(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space at rank_tol."""
    m = as_matrix(m)
    _, s, vh = np.linalg.svd(m)
    if s.size and s[0] > 0.0:
        rank = int(np.count_nonzero(s > cfg.rank_tol * s[0]))
    else:
        rank = 0
    return [vh[i].conj() for i in range(rank, m.shape[1])]


def sylvester_kernel(
    p_mat: np.ndarray, q_mat: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL
) -> list[np.ndarray]:
    """Basis of {X : p_mat @ X - X @ q_mat = 0}.

    The map X -> PX - XQ is the n^2 x n^2 operator kron(P, I) - kron(I, Q^T)
    acting on row-major vectorizations; its null space is reshaped back to
    matrices.
    """
    p_mat, q_mat = as_matrix(p_mat), as_matrix(q_mat)
    n = _require_square(p_mat)
    if _require_square(q_mat) != n:
        raise ValueError("operands must have equal size")
    eye = np.eye(n)
    op = np.kron(p_mat, eye) - np.kron(eye, q_mat.T)
    return [vec.reshape(n, n) for vec in kernel_basis(op, cfg)]


def conjugacy_residual(b: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Largest entry of |B^-1 X B - Y|: how far B is from conjugating X to Y."""
    return float(np.max(np.abs(np.linalg.solve(b, x @ b) - y)))


def span_residual(basis: list[np.ndarray], target: np.ndarray) -> float:
    """Frobenius distance from target to the span of the basis matrices."""
    if not basis:
        return float(np.linalg.norm(target))
    cols = np.stack([b.ravel() for b in basis], axis=1)
    coeffs, *_ = np.linalg.lstsq(cols, np.asarray(target, dtype=complex).ravel(), rcond=None)
    return float(np.linalg.norm(cols @ coeffs - target.ravel()))


def find_invertible_in_span(
    basis: list[np.ndarray],
    attempts: int = 32,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray | None:
    """Random linear combination of the basis that is invertible at rank_tol.

    Deterministic for a fixed seed; returns None when no draw succeeds
    (e.g. the span contains no invertible element).
    """
    if not basis:
        raise ValueError("empty basis")
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        candidate = sum(c * b for c, b in zip(coeffs, basis))
        if is_invertible(candidate, cfg):
            return candidate
    return None


def fit_polynomial_in(
    matrix_s: np.ndarray,
    target_t: np.ndarray,
    max_degree: int,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> list[complex] | None:
    """Coefficients c with sum(c[j] * S^j) = T, if such a polynomial exists.

    Solves a least-squares problem over vectorized powers S^0..S^d, raising
    the degree until the residual passes verify_tol * ||T|| (Frobenius).
    Returns the coefficient list of the smallest adequate degree, or None.
    """
    matrix_s, target_t = as_matrix(matrix_s), as_matrix(target_t)
    n = _require_square(matrix_s)
    if _require_square(target_t) != n:
        raise ValueError("operands must have equal size")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    target_norm = np.linalg.norm(target_t)
    threshold = cfg.verify_tol * max(target_norm, 1e-300)
    powers = [np.eye(n, dtype=complex)]
    vec_t = target_t.ravel()
    for degree in range(max_degree + 1):
        if degree > 0:
            powers.append(powers[-1] @ matrix_s)
        cols = np.stack([p.ravel() for p in powers], axis=1)
        coeffs, *_ = np.linalg.lstsq(cols, vec_t, rcond=None)
        if np.linalg.norm(cols @ coeffs - vec_t) <= threshold:
            return [complex(c) for c in coeffs]
    return None


def weyr_characteristic(
    m: np.ndarray,
    lam: complex,
    depth: int,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> list[int]:
    """dim ker((M - lam*I)^k) for k = 1..depth; nondecreasing, eventually constant."""
    m = as_matrix(m)
    n = _require_square(m)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    shifted = m - complex(lam) * np.eye(n)
    power = np.eye(n, dtype=complex)
    dims = []
    for _ in range(depth):
        power = power @ shifted
        dims.append(n - rank_with_tol(power, cfg))
    return dims


def matrix_to_json(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
    }


def matrix_from_json(data: dict) -> np.ndarray:
    rows, cols = data["rows"], data["cols"]
    entries = [complex(re, im) for re, im in data["data"]]
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    return np.array(entries, dtype=complex).reshape(rows, cols)

"""Dense complex matrix algebra used by the constructive solvers.

Matrices are numpy arrays of complex128.  Rank decisions are made by
singular-value thresholding with a relative tolerance, which keeps the
integer-valued quantities (ranks, Weyr sequences) robust.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ClusteringAmbiguityError, NotInvertibleError

# singular values at most this times the operand's 2-norm, or a bound on it, count as 0
RANK_TOL = 1e-9
# residuals at most this, relative to the size of the terms, count as 0
VERIFY_TOL = 1e-9
# eigenvalues closer than this, relative to the operand's 2-norm, are one cluster
DEFAULT_CLUSTER_TOL = 1e-6
# the clustering radii, finest first, in units of that: a Jordan block of size k
# scatters its computed eigenvalues by about (u * ||A||)^(1/k), their mean by rounding
CLUSTER_LADDER = (1, 10, 100, 1000, 10**4)


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


def _rank_cut(s: np.ndarray, scale: float | None = None) -> int:
    """Count of the descending singular values s above RANK_TOL * scale.

    scale defaults to s[0], the matrix's own 2-norm; an absolute scale lets
    a small block be judged against the norm of the operator it came from.
    """
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * (s[0] if scale is None else scale)))


def rank_with_tol(m: np.ndarray) -> int:
    return _rank_cut(np.linalg.svd(m, compute_uv=False))


def is_invertible(m: np.ndarray) -> bool:
    n = _require_square(m)
    return rank_with_tol(m) == n


def mat_int_pow(a: np.ndarray, e: int) -> np.ndarray:
    """Integer matrix power; negative exponents invert once then power.

    A power with a non-finite entry (overflow) is a ValueError naming e.
    """
    a = as_matrix(a)
    _require_square(a)
    if e < 0:
        if not is_invertible(a):
            raise NotInvertibleError("negative power of a singular matrix")
        a = np.linalg.inv(a)
    power = np.linalg.matrix_power(a, abs(e))
    if not np.isfinite(power).all():
        raise ValueError(f"the matrix power with exponent {e} overflows")
    return power


def block_diagonal(blocks: list[np.ndarray]) -> np.ndarray:
    """The complex direct sum of square blocks, in the order given."""
    n = sum(len(b) for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    pos = 0
    for b in blocks:
        k = len(b)
        out[pos : pos + k, pos : pos + k] = b
        pos += k
    return out


def kernel_basis(m: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the numerical null space at RANK_TOL (see _rank_cut)."""
    _, s, vh = np.linalg.svd(m)
    return vh[_rank_cut(s, scale):].conj().T


def _cluster_eigenvalues(values: np.ndarray, threshold: float) -> list[list[int]]:
    """Single-linkage clusters of points in the complex plane (as index lists).

    Clusters are ordered by their lowest-index member's (real, imag).
    Raises ClusteringAmbiguityError when two distinct clusters come closer
    than twice the linking threshold, since the split would then be
    arbitrary.
    """
    k = len(values)
    dist = np.abs(values[:, None] - values[None, :])
    linked = dist <= threshold
    # each point takes the lowest index it is linked to until nothing moves;
    # the label of a cluster is then its lowest index
    labels = np.arange(k)
    while True:
        relabeled = np.where(linked, labels[None, :], k).min(axis=1)
        if np.array_equal(relabeled, labels):
            break
        labels = relabeled
    roots = np.flatnonzero(labels == np.arange(k)).tolist()
    roots.sort(key=lambda r: (values[r].real, values[r].imag))
    members: dict[int, list[int]] = {r: [] for r in roots}
    for i, r in enumerate(labels.tolist()):
        members[r].append(i)
    clusters = list(members.values())
    close = (dist < 2.0 * threshold) & (labels[:, None] != labels[None, :])
    if close.any():
        # report the first offending pair of clusters in their sorted order
        position = {r: i for i, r in enumerate(roots)}
        i, j = min(
            sorted((position[labels[a]], position[labels[b]]))
            for a, b in zip(*np.nonzero(close))
        )
        gap = float(dist[np.ix_(clusters[i], clusters[j])].min())
        raise ClusteringAmbiguityError(
            f"eigenvalue clusters separated by only {gap:.3e} at threshold {threshold:.3e}"
        )
    return clusters


def _sylvester_operator(p_mat: np.ndarray, q_mat: np.ndarray) -> np.ndarray:
    """kron(P, I) - kron(I, Q^T): the map X -> PX - XQ on row-major vectorizations."""
    m_p, m_q = len(p_mat), len(q_mat)
    eye_p, eye_q = np.eye(m_p), np.eye(m_q)
    # axes (i, j, k, l): P[i, k] delta[j, l] - delta[i, k] Q[l, j]
    op = p_mat[:, None, :, None] * eye_q[None, :, None, :]
    op = op - eye_p[:, None, :, None] * q_mat.T[None, :, None, :]
    return op.reshape(m_p * m_q, m_p * m_q)


def _nested_kernels(m: np.ndarray, lam: complex, scale: float, depth: int):
    """Orthonormal columns spanning ker((M - lam*I)^k) for k = 1..depth, while they grow.

    Deflated: with S = M - lam*I and P_k the orthogonal projector onto
    ker(S^k), ker(S^(k+1)) = ker((I - P_k) S), so each k takes one SVD of
    M's size and no power of S is formed.  Every rank is cut at RANK_TOL *
    scale, the caller's bound on ||S||_2, so a rounding-sized S is not
    judged by its own norm and a gap d between eigenvalues is not shrunk
    to d^k.  A kernel of the previous dimension is not yielded, and none
    follows the whole space: every later one would be the same.
    """
    shifted = m - lam * np.eye(len(m))
    deflated, dim = shifted, -1
    for _ in range(depth):
        kernel = kernel_basis(deflated, scale)
        if kernel.shape[1] == dim:
            return
        yield kernel
        dim = kernel.shape[1]
        if dim == len(m):
            return
        deflated = shifted - kernel @ (kernel.conj().T @ shifted)


class Split(NamedTuple):
    """One unambiguous rung of the eigenvalue split of A (eigenspace_splits)."""

    factor: int  # the clustering radius is factor * tol
    tol: float  # DEFAULT_CLUSTER_TOL * max(||A||_2, 1)
    clusters: list[list[int]]  # indices into the eigenvalues of A
    centres: list[complex]  # the cluster means
    bases: list[np.ndarray] | None  # the V_i, orthonormal, when the split certifies
    lefts: list[np.ndarray] | None  # the W_i, the row blocks of [V_1 ... V_k]^-1


def _generalized_eigenspace(a, vecs, members, lam, scale) -> np.ndarray | None:
    """Orthonormal columns spanning the generalized eigenspace of A for its
    eigenvalues ``members`` (indices into its eigenvectors vecs) near lam:
    a lone one's eigenvector, else the first nested kernel of A - lam*I of
    that dimension; None when the dimensions overshoot or stop short."""
    mult = len(members)
    if mult < 2:
        return vecs[:, members]
    for kernel in _nested_kernels(a, lam, scale, mult):
        if kernel.shape[1] >= mult:
            return kernel if kernel.shape[1] == mult else None
    return None


def eigenspace_splits(a: np.ndarray):
    """The eigenvalue split of A on each rung of CLUSTER_LADDER, finest first.

    One eig(A) serves every rung: its eigenvalues are clustered by single
    linkage at factor * tol; an ambiguous rung yields its
    ClusteringAmbiguityError.  Cluster i, at mean c_i, gets the orthonormal
    basis V_i of its generalized eigenspace (the eigenvector of a lone
    eigenvalue, else the nested kernel of A - c_i of its dimension, cut at
    RANK_TOL * (||A||_F + |c_i|)), and W_i is the i-th row block of
    [V_1 ... V_k]^-1, so that A V_i = V_i A_i and W_i A = A_i W_i with
    A_i = W_i A V_i (Golub & Wilkinson, SIAM Rev. 18, 1976; Kagstrom &
    Ruhe, ACM TOMS 6, 1980).  The split certifies when every V_i has its
    cluster's dimension and cond([V_1 ... V_k]) <= 1/sqrt(RANK_TOL).  One
    cluster has nothing to split and ends the ladder: coarser radii join
    no less.
    """
    values, vecs = np.linalg.eig(a)
    tol = DEFAULT_CLUSTER_TOL * max(float(np.linalg.norm(a, 2)), 1.0)
    norm = float(np.linalg.norm(a))
    for factor in CLUSTER_LADDER:
        try:
            clusters = _cluster_eigenvalues(values, tol * factor)
        except ClusteringAmbiguityError as exc:
            yield exc
            continue
        centres = [complex(values[c].mean()) for c in clusters]
        split = Split(factor, tol, clusters, centres, None, None)
        if len(clusters) == 1:
            yield split
            return
        bases = [
            _generalized_eigenspace(a, vecs, c, z, norm + abs(z)) for c, z in zip(clusters, centres)
        ]
        if all(v is not None for v in bases):
            u, s, vh = np.linalg.svd(np.hstack(bases))
            if s[0] <= s[-1] / np.sqrt(RANK_TOL):
                inverse = vh.conj().T @ (u.conj().T / s[:, None])
                lefts = np.split(inverse, np.cumsum([v.shape[1] for v in bases])[:-1])
                split = split._replace(bases=bases, lefts=lefts)
        yield split


def _pair_kernel(p_c: np.ndarray, q_c: np.ndarray, scale: float) -> np.ndarray:
    """Orthonormal columns spanning the kernel of Z -> P_c Z - Z Q_c on
    row-major vectorizations, cut at RANK_TOL * scale.

    With mu the mean eigenvalue of P_c, ||P_c - mu||_F + ||Q_c - mu||_F
    bounds the operator's 2-norm and so every singular value: within the
    cut, the kernel is every m_p x m_q matrix, the rank decision the SVD
    would make, without the SVD.
    """
    m_p, m_q = len(p_c), len(q_c)
    mu = np.trace(p_c) / m_p
    spread = np.linalg.norm(p_c - mu * np.eye(m_p)) + np.linalg.norm(q_c - mu * np.eye(m_q))
    if spread <= RANK_TOL * scale:
        return np.eye(m_p * m_q, dtype=complex)
    return kernel_basis(_sylvester_operator(p_c, q_c), scale)


def sylvester_kernel(
    a: np.ndarray, p: int, q: int, a_p: np.ndarray, a_q: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The intertwiner space {X : A^p X = X A^q}, factored over pairs of
    eigenvalue clusters of A; a_p and a_q are A^p and A^q (mat_int_pow).

    Returns triples (V_i, K, W_j), V_i of shape n x m_i, W_j of shape
    m_j x n and K with orthonormal columns of length m_i * m_j, none of
    them empty.  The space is the direct sum over the triples of the
    matrices V_i reshape(K c, (m_i, m_j)) W_j, so its dimension is the
    total column count of the K.

    A^p and A^q share the generalized eigenspaces of A, so with the split
    of A (eigenspace_splits) every such X is a sum of V_i Z W_j with
    P_i Z = Z Q_j, P_i = W_i A^p V_i and Q_j = W_j A^q V_j.  The first
    certified rung is taken at which the c_i^p and c_j^q cluster
    unambiguously at the same rung, on the scale max(||A^p||_2,
    ||A^q||_2, 1), and only the pairs in one cluster are solved, each cut
    at RANK_TOL * (||A^p||_2 + ||A^q||_2) (_pair_kernel).  A single
    cluster, or no such rung, leaves V = W = I: the whole n^2 x n^2
    operator, O(n^6) time instead of about O(k n^3 + sum (m_i m_j)^3).
    """
    a = as_matrix(a)
    n = _require_square(a)
    norm_p, norm_q = np.linalg.svd(np.stack([a_p, a_q]), compute_uv=False)[:, 0]
    power_tol = DEFAULT_CLUSTER_TOL * max(norm_p, norm_q, 1.0)
    bases, lefts, pairs = [np.eye(n)], [np.eye(n)], [(0, 0)]
    for split in eigenspace_splits(a):
        if not isinstance(split, Split) or split.bases is None:
            continue
        k, centres = len(split.centres), np.array(split.centres)
        try:  # the pairs whose c_i^p and c_j^q fall in one cluster
            joint = _cluster_eigenvalues(
                np.concatenate([centres**p, centres**q]), power_tol * split.factor
            )
        except ClusteringAmbiguityError:
            continue
        pairs = [(i, j - k) for c in joint for i in c if i < k for j in c if j >= k]
        bases, lefts = split.bases, split.lefts
        break
    kernel = []
    for i, j in pairs:
        basis = _pair_kernel(lefts[i] @ a_p @ bases[i], lefts[j] @ a_q @ bases[j], norm_p + norm_q)
        if basis.shape[1]:
            kernel.append((bases[i], basis, lefts[j]))
    return kernel


def conjugacy_residual(b: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """max|X B - B Y| / max|B|: how far B is from conjugating X to Y (B^-1 X B = Y).

    Inverse-free and relative, so an exact but ill-conditioned B is not
    charged with rounding amplified by cond(B).  The ratio is undefined
    for B = 0, which raises LinAlgError, and a ratio that overflows is a
    ValueError.
    """
    scale = float(np.max(np.abs(b)))
    if scale == 0.0:
        raise np.linalg.LinAlgError("B is zero")
    residual = float(np.max(np.abs(x @ b - b @ y))) / scale
    if not math.isfinite(residual):
        raise ValueError("the conjugacy residual max|X B - B Y| / max|B| overflows")
    return residual


def find_invertible_in_span(kernel: list[tuple], seed: int = 0) -> np.ndarray | None:
    """One random element of a sylvester_kernel space, if it is invertible at RANK_TOL.

    The element is the sum over the triples (V, K, W) of
    V reshape(K c, (m_i, m_j)) W, the c slices of one complex Gaussian
    vector from default_rng(seed).  One draw decides: c -> B is linear
    and injective, so det B is a polynomial in c, nonzero when the space
    holds an invertible element; a Gaussian draw misses its zeros almost
    surely, and None means the space holds none.  Deterministic for a
    fixed seed.
    """
    if not kernel:
        raise ValueError("empty kernel")
    dims = [k.shape[1] for _, k, _ in kernel]
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(sum(dims)) + 1j * rng.standard_normal(sum(dims))
    candidate = sum(
        v @ (k @ c).reshape(v.shape[1], w.shape[0]) @ w
        for (v, k, w), c in zip(kernel, np.split(coeffs, np.cumsum(dims)[:-1]))
    )
    return candidate if is_invertible(candidate) else None


def fit_polynomial_in(
    matrix_s: np.ndarray, target_t: np.ndarray, max_degree: int
) -> list[complex] | None:
    """Coefficients c with sum(c[j] * S^j) = T, if such a polynomial exists.

    One QR factorization K = QR of the vectorized powers S^0..S^d_max,
    d_max = min(max_degree, n - 1), serves every degree d: the least-squares residual over the first d + 1
    columns is r_d = r_(d-1) - q_d (q_d^H t).  At the first d where it
    passes VERIFY_TOL * ||T|| (Frobenius), R_d c = (Q^H t)[:d+1] is solved
    and ||K_d c - t|| checked again; a rank-deficient K_d can pass the
    running residual only.  Returns the coefficients of the smallest
    degree that passes, or None.
    """
    matrix_s, target_t = as_matrix(matrix_s), as_matrix(target_t)
    n = _require_square(matrix_s)
    if _require_square(target_t) != n:
        raise ValueError("operands must have equal size")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    threshold = VERIFY_TOL * max(np.linalg.norm(target_t), 1e-300)
    powers = [np.eye(n, dtype=complex)]
    for _ in range(min(max_degree, n - 1)):  # S^n and up add nothing (Cayley-Hamilton)
        powers.append(powers[-1] @ matrix_s)
    krylov = np.stack([p.ravel() for p in powers], axis=1)
    vec_t = target_t.ravel()
    q, r = np.linalg.qr(krylov)
    projection = q.conj().T @ vec_t
    residual = vec_t.copy()
    for d in range(len(powers)):
        residual -= projection[d] * q[:, d]
        if np.linalg.norm(residual) > threshold:
            continue
        try:
            coeffs = np.linalg.solve(r[: d + 1, : d + 1], projection[: d + 1])
        except np.linalg.LinAlgError:  # an exactly dependent column: R_d is singular
            continue
        if np.linalg.norm(krylov[:, : d + 1] @ coeffs - vec_t) <= threshold:
            return [complex(c) for c in coeffs]
    return None


def weyr_characteristic(m: np.ndarray, lam: complex, depth: int, scale: float) -> list[int]:
    """dim ker((M - lam*I)^k) for k = 1..depth; nondecreasing, eventually constant.

    The dimensions of the nested kernels cut at RANK_TOL * scale
    (_nested_kernels), a bound on ||M - lam*I||_2: ||M||_F + |lam|, or for
    a block of a larger operator that operator's; once they stop growing
    the list is padded to depth with the last one.
    """
    m = as_matrix(m)
    _require_square(m)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dims = [kernel.shape[1] for kernel in _nested_kernels(m, complex(lam), scale, depth)]
    return dims + dims[-1:] * (depth - len(dims))


def matrix_to_json(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": np.stack([m.real.ravel(), m.imag.ravel()], 1).tolist(),
    }


def matrix_from_json(data: dict) -> np.ndarray:
    rows, cols = data["rows"], data["cols"]
    entries = [complex(re, im) for re, im in data["data"]]
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    return np.array(entries, dtype=complex).reshape(rows, cols)

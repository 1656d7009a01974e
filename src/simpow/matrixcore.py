"""Dense complex matrix algebra used by the constructive solvers.

Matrices are numpy arrays of complex128.  Rank decisions are made by
singular-value thresholding with a relative tolerance, which keeps the
integer-valued quantities (ranks, Weyr sequences) robust.
"""

from __future__ import annotations

import numpy as np

from .errors import ClusteringAmbiguityError, NotInvertibleError

# singular values at most this times the operand's 2-norm, or a bound on it, count as 0
RANK_TOL = 1e-9
# residuals at most this, relative to the size of the terms, count as 0
VERIFY_TOL = 1e-9
# eigenvalues closer than this, relative to the operand's 2-norm, are one cluster
DEFAULT_CLUSTER_TOL = 1e-6
# random combinations find_invertible_in_span tries before it gives up
INVERTIBLE_DRAWS = 32


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
    """Integer matrix power; negative exponents invert once then power."""
    a = as_matrix(a)
    _require_square(a)
    if e >= 0:
        return np.linalg.matrix_power(a, e)
    if not is_invertible(a):
        raise NotInvertibleError("negative power of a singular matrix")
    return np.linalg.matrix_power(np.linalg.inv(a), -e)


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


def kernel_basis(m: np.ndarray, scale: float | None = None) -> list[np.ndarray]:
    """Orthonormal basis of the numerical null space at RANK_TOL (see _rank_cut)."""
    m = as_matrix(m)
    _, s, vh = np.linalg.svd(m)
    return [vh[i].conj() for i in range(_rank_cut(s, scale), m.shape[1])]


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


def _dense_sylvester_kernel(p_mat: np.ndarray, q_mat: np.ndarray) -> list[np.ndarray]:
    """The kernel from one SVD of the n^2 x n^2 operator: O(n^6) time, O(n^4) memory."""
    n = p_mat.shape[0]
    return [vec.reshape(n, n) for vec in kernel_basis(_sylvester_operator(p_mat, q_mat))]


def _generalized_eigenspace(shifted: np.ndarray, mult: int) -> np.ndarray | None:
    """Orthonormal columns spanning ker(shifted^k) at the first k where its
    dimension reaches mult; None when it overshoots or never gets there."""
    n = shifted.shape[0]
    if mult == n:
        return np.eye(n, dtype=complex)
    power = shifted
    for _ in range(mult):
        basis = kernel_basis(power)
        if len(basis) >= mult:
            return np.stack(basis, axis=1) if len(basis) == mult else None
        power = power @ shifted
    return None


def _structured_sylvester_kernel(p_mat: np.ndarray, q_mat: np.ndarray) -> list[np.ndarray] | None:
    """The kernel solved one joint eigenvalue cluster at a time, or None
    when the split cannot be certified.

    For a cluster at centre mu with m_p eigenvalues of P and m_q of Q, U
    spans ker((P - mu)^m_p) and Y spans ker(((Q - mu)^m_q)^H), so that
    P U = U P_c and Y^H Q = Q_c Y^H.  Every X with PX = XQ is a sum of
    U K Y^H over the clusters with P_c K = K Q_c; pairs of different
    clusters contribute nothing.  A cluster of one eigenvalue takes its
    (left) eigenvector from the one eig call per operand.  The small
    kernels are cut at RANK_TOL times ||P||_2 + ||Q||_2, a bound on the
    2-norm of every small operator.  The split is taken only when the
    clustering is unambiguous, every U and Y has the dimension of its
    cluster, and the stacked bases [U_1 ... U_k] and [Y_1 ... Y_k] have
    condition numbers at most 1/sqrt(RANK_TOL).
    """
    n = p_mat.shape[0]
    if n < 2:
        return None  # nothing to split
    norm_p, norm_q = np.linalg.svd(np.stack([p_mat, q_mat]), compute_uv=False)[:, 0]
    q_adj = q_mat.conj().T
    ev_p, vec_p = np.linalg.eig(p_mat)
    ev_q, vec_q = np.linalg.eig(q_adj)  # left eigenvectors of Q, at conj(eigenvalues)
    values = np.concatenate([ev_p, ev_q.conj()])
    try:
        clusters = _cluster_eigenvalues(values, DEFAULT_CLUSTER_TOL * max(norm_p, norm_q, 1.0))
    except ClusteringAmbiguityError:
        return None
    if len(clusters) == 1:
        return None  # nothing to split: the dense operator is the one block
    eye = np.eye(n)
    u_blocks, y_blocks, pairs = [], [], []
    for cluster in clusters:
        members = np.asarray(cluster)
        in_p, in_q = members[members < n], members[members >= n] - n
        center = complex(values[members].mean())
        u = y = None
        if len(in_p):
            u = vec_p[:, in_p] if len(in_p) == 1 else _generalized_eigenspace(
                p_mat - center * eye, len(in_p))
            if u is None:
                return None
            u_blocks.append(u)
        if len(in_q):
            y = vec_q[:, in_q] if len(in_q) == 1 else _generalized_eigenspace(
                q_adj - center.conjugate() * eye, len(in_q))
            if y is None:
                return None
            y_blocks.append(y)
        if u is not None and y is not None:
            pairs.append((u, y))
    s = np.linalg.svd(np.stack([np.hstack(u_blocks), np.hstack(y_blocks)]), compute_uv=False)
    if np.any(s[:, 0] > s[:, -1] / np.sqrt(RANK_TOL)):
        return None
    basis = []
    for u, y in pairs:
        y_adj = y.conj().T
        p_c, q_c = u.conj().T @ p_mat @ u, y_adj @ q_mat @ y
        kernel = kernel_basis(_sylvester_operator(p_c, q_c), norm_p + norm_q)
        basis += [u @ k.reshape(len(p_c), len(q_c)) @ y_adj for k in kernel]
    return basis


def sylvester_kernel(p_mat: np.ndarray, q_mat: np.ndarray) -> list[np.ndarray]:
    """Basis of {X : p_mat @ X - X @ q_mat = 0}, each element of unit Frobenius norm.

    Solved per joint eigenvalue cluster (_structured_sylvester_kernel) in
    about O(#clusters * n^3 + sum (m_p m_q)^3); when that split cannot be
    certified, from the dense n^2 x n^2 operator instead.
    """
    p_mat, q_mat = as_matrix(p_mat), as_matrix(q_mat)
    n = _require_square(p_mat)
    if _require_square(q_mat) != n:
        raise ValueError("operands must have equal size")
    basis = _structured_sylvester_kernel(p_mat, q_mat)
    return basis if basis is not None else _dense_sylvester_kernel(p_mat, q_mat)


def conjugacy_residual(b: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """max|X B - B Y| / max|B|: how far B is from conjugating X to Y (B^-1 X B = Y).

    Inverse-free and relative, so an exact but ill-conditioned B is not
    charged with rounding amplified by cond(B).  The ratio is undefined
    for B = 0, which raises LinAlgError.
    """
    scale = float(np.max(np.abs(b)))
    if scale == 0.0:
        raise np.linalg.LinAlgError("B is zero")
    return float(np.max(np.abs(x @ b - b @ y))) / scale


def find_invertible_in_span(basis: list[np.ndarray], seed: int = 0) -> np.ndarray | None:
    """Random linear combination of the basis that is invertible at RANK_TOL.

    Deterministic for a fixed seed; returns None when none of
    INVERTIBLE_DRAWS draws succeeds (e.g. the span contains no invertible
    element).
    """
    if not basis:
        raise ValueError("empty basis")
    rng = np.random.default_rng(seed)
    for _ in range(INVERTIBLE_DRAWS):
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        candidate = sum(c * b for c, b in zip(coeffs, basis))
        if is_invertible(candidate):
            return candidate
    return None


def fit_polynomial_in(
    matrix_s: np.ndarray, target_t: np.ndarray, max_degree: int
) -> list[complex] | None:
    """Coefficients c with sum(c[j] * S^j) = T, if such a polynomial exists.

    Solves a least-squares problem over vectorized powers S^0..S^d, raising
    the degree until the residual passes VERIFY_TOL * ||T|| (Frobenius).
    Returns the coefficient list of the smallest adequate degree, or None.
    """
    matrix_s, target_t = as_matrix(matrix_s), as_matrix(target_t)
    n = _require_square(matrix_s)
    if _require_square(target_t) != n:
        raise ValueError("operands must have equal size")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    target_norm = np.linalg.norm(target_t)
    threshold = VERIFY_TOL * max(target_norm, 1e-300)
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


def weyr_characteristic(m: np.ndarray, lam: complex, depth: int) -> list[int]:
    """dim ker((M - lam*I)^k) for k = 1..depth; nondecreasing, eventually constant.

    Deflated: with S = M - lam*I and P_k the orthogonal projector onto
    ker(S^k), ker(S^(k+1)) = ker((I - P_k) S), so each k takes one SVD of
    an n x n matrix and no power of S is formed.  Every rank is cut at
    RANK_TOL * (||M||_F + |lam|), a bound on ||S||_2, so a rounding-sized
    S is not judged by its own norm and a gap d between eigenvalues is not
    shrunk to d^k.  The dimensions stop growing once two repeat, and the
    list is padded with the last one to depth.
    """
    m = as_matrix(m)
    n = _require_square(m)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    lam = complex(lam)
    shifted = m - lam * np.eye(n)
    scale = float(np.linalg.norm(m)) + abs(lam)
    deflated = shifted
    dims: list[int] = []
    while len(dims) < depth:
        _, s, vh = np.linalg.svd(deflated)
        rank = _rank_cut(s, scale)
        if dims and n - rank == dims[-1]:
            break
        dims.append(n - rank)
        kernel = vh[rank:].conj().T  # orthonormal columns spanning ker(S^k)
        deflated = shifted - kernel @ (kernel.conj().T @ shifted)
    return dims + dims[-1:] * (depth - len(dims))


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

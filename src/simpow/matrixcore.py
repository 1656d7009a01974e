"""Dense complex matrix algebra used by the constructive solvers.

Matrices are numpy arrays of complex128.  Rank decisions are made by
singular-value thresholding with a relative tolerance, which keeps the
integer-valued quantities (ranks, Weyr sequences) robust.
"""

from __future__ import annotations

import itertools

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


def kernel_basis(m: np.ndarray, scale: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the numerical null space at RANK_TOL (see _rank_cut)."""
    _, s, vh = np.linalg.svd(as_matrix(m))
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


def _nested_kernels(m: np.ndarray, lam: complex):
    """Orthonormal columns spanning ker((M - lam*I)^k) for k = 1, 2, ...

    Deflated: with S = M - lam*I and P_k the orthogonal projector onto
    ker(S^k), ker(S^(k+1)) = ker((I - P_k) S), so each k takes one SVD of
    an n x n matrix and no power of S is formed.  Every rank is cut at
    RANK_TOL * (||M||_F + |lam|), a bound on ||S||_2, so a rounding-sized
    S is not judged by its own norm and a gap d between eigenvalues is not
    shrunk to d^k.  The generator never ends; callers stop it.
    """
    shifted = m - lam * np.eye(len(m))
    scale = float(np.linalg.norm(m)) + abs(lam)
    deflated = shifted
    while True:
        kernel = kernel_basis(deflated, scale)
        yield kernel
        deflated = shifted - kernel @ (kernel.conj().T @ shifted)


def _generalized_eigenspace(m, vecs, members, lam) -> np.ndarray | None:
    """Orthonormal columns spanning the generalized eigenspace of M for its
    eigenvalues ``members`` (indices into its eigenvectors vecs) near lam:
    a lone one's eigenvector, else the first nested kernel of M - lam*I of
    that dimension; None when the dimensions overshoot or stop short."""
    mult = len(members)
    if mult < 2:
        return vecs[:, members]
    if mult == len(m):
        return np.eye(mult, dtype=complex)
    for kernel in itertools.islice(_nested_kernels(m, lam), mult):
        if kernel.shape[1] >= mult:
            return kernel if kernel.shape[1] == mult else None
    return None


def _cluster_bases(p_mat, q_adj, values, vec_p, vec_q, clusters) -> list[tuple] | None:
    """(U, Y) per cluster, or None when the split is not certified (see
    sylvester_kernel); U or Y has no columns where the cluster holds no
    eigenvalue of P or of Q."""
    n = len(p_mat)
    pairs = []
    for cluster in clusters:
        members = np.asarray(cluster)
        center = complex(values[members].mean())
        u = _generalized_eigenspace(p_mat, vec_p, members[members < n], center)
        y = _generalized_eigenspace(q_adj, vec_q, members[members >= n] - n, center.conjugate())
        if u is None or y is None:
            return None
        pairs.append((u, y))
    s = np.linalg.svd(np.stack([np.hstack(side) for side in zip(*pairs)]), compute_uv=False)
    return None if np.any(s[:, 0] > s[:, -1] / np.sqrt(RANK_TOL)) else pairs


def sylvester_kernel(p_mat: np.ndarray, q_mat: np.ndarray) -> list[np.ndarray]:
    """Basis of {X : p_mat @ X - X @ q_mat = 0}, each element of unit Frobenius norm.

    Solved one joint eigenvalue cluster of P and Q at a time.  The
    clusters come from the radius ladder of structure recovery
    (CLUSTER_LADDER times DEFAULT_CLUSTER_TOL * max(||P||_2, ||Q||_2, 1)).
    For a cluster at centre mu with m_p eigenvalues of P and m_q of Q, U
    is the nested kernel of P - mu of dimension m_p and Y that of
    (Q - mu)^H of dimension m_q (_nested_kernels), so that P U = U P_c and
    Y^H Q = Q_c Y^H; a lone eigenvalue takes its (left) eigenvector from
    the one eig call per operand.  Every X with PX = XQ is a sum of
    U K Y^H over the clusters with P_c K = K Q_c; pairs of different
    clusters contribute nothing.  The small kernels are cut at RANK_TOL
    times ||P||_2 + ||Q||_2, a bound on the 2-norm of every small operator.
    A radius is taken when its clustering is unambiguous, every U and Y
    has the dimension of its cluster, and the stacked bases [U_1 ... U_k]
    and [Y_1 ... Y_k] have condition numbers at most 1/sqrt(RANK_TOL).
    A single cluster has U = Y = I, the whole n^2 x n^2 operator: the last
    rung when no radius certifies, O(n^6) time instead of about
    O(#clusters * n^3 + sum (m_p m_q)^3).
    """
    p_mat, q_mat = as_matrix(p_mat), as_matrix(q_mat)
    n = _require_square(p_mat)
    if _require_square(q_mat) != n:
        raise ValueError("operands must have equal size")
    norm_p, norm_q = np.linalg.svd(np.stack([p_mat, q_mat]), compute_uv=False)[:, 0]
    q_adj = q_mat.conj().T
    ev_p, vec_p = np.linalg.eig(p_mat)
    ev_q, vec_q = np.linalg.eig(q_adj)  # left eigenvectors of Q, at conj(eigenvalues)
    values = np.concatenate([ev_p, ev_q.conj()])
    tol = DEFAULT_CLUSTER_TOL * max(norm_p, norm_q, 1.0)
    for factor in CLUSTER_LADDER:
        try:
            clusters = _cluster_eigenvalues(values, tol * factor)
        except ClusteringAmbiguityError:
            continue
        pairs = _cluster_bases(p_mat, q_adj, values, vec_p, vec_q, clusters)
        if pairs is not None:
            break
    else:  # the last rung: the whole operator, one cluster with U = Y = I
        pairs = _cluster_bases(p_mat, q_adj, values, vec_p, vec_q, [range(2 * n)])
    basis = []
    for u, y in pairs:
        y_adj = y.conj().T
        p_c, q_c = u.conj().T @ p_mat @ u, y_adj @ q_mat @ y
        kernel = kernel_basis(_sylvester_operator(p_c, q_c), norm_p + norm_q)
        basis += [u @ k.reshape(len(p_c), len(q_c)) @ y_adj for k in kernel.T]
    return basis


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
    """One random complex combination of the basis, if it is invertible at RANK_TOL.

    One draw decides: the singular combinations are the zeros of det, a
    polynomial in the coefficients that is nonzero when the span holds an
    invertible element, so a Gaussian draw misses them almost surely and
    None means the span holds none.  Deterministic for a fixed seed.
    """
    if not basis:
        raise ValueError("empty basis")
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    candidate = sum(c * b for c, b in zip(coeffs, basis))
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


def weyr_characteristic(m: np.ndarray, lam: complex, depth: int) -> list[int]:
    """dim ker((M - lam*I)^k) for k = 1..depth; nondecreasing, eventually constant.

    The dimensions of the deflated nested kernels (_nested_kernels): one
    n x n SVD per k, no power of M - lam*I, every rank cut at RANK_TOL *
    (||M||_F + |lam|).  They stop growing once two repeat, and the list is
    padded with the last one to depth.
    """
    m = as_matrix(m)
    _require_square(m)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dims: list[int] = []
    for kernel in itertools.islice(_nested_kernels(m, complex(lam)), depth):
        if dims and kernel.shape[1] == dims[-1]:
            break
        dims.append(kernel.shape[1])
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

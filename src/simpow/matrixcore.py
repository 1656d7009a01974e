"""Dense complex matrix algebra used by the constructive solvers.

Matrices are numpy arrays of complex128.  Rank decisions are made by
singular-value thresholding with a relative tolerance, which keeps the
integer-valued quantities (ranks, Weyr sequences) robust.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import DEFAULT_CLUSTER_TOL, MAX_RECOVERY_N, RANK_TOL

# the clustering radii, finest first, in units of DEFAULT_CLUSTER_TOL: a Jordan block of size k
# scatters its computed eigenvalues by about (u * ||A||)^(1/k), their mean by rounding
CLUSTER_LADDER = (1, 10, 100, 1000, 10**4)


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
    return rank_with_tol(m) == len(m)


def mat_int_pow(a: np.ndarray, e: int) -> np.ndarray:
    """Integer matrix power; negative exponents invert once then power.

    A power with a non-finite entry (overflow) is a ValueError naming e.
    """
    if e < 0:
        if not is_invertible(a):
            raise ValueError("negative power of a singular matrix")
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


class ClusteringAmbiguityError(ValueError):
    """Numerically computed eigenvalues cannot be clustered unambiguously."""


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


class Split(NamedTuple):
    """One unambiguous rung of the eigenvalue split of A (eigenspace_splits)."""

    tol: float  # DEFAULT_CLUSTER_TOL * max(||A||_2, 1); the rung clusters at a multiple of it
    clusters: list[list[int]]  # indices into the eigenvalues of A
    centres: list[complex]  # the cluster means
    bases: list[np.ndarray] | None  # the V_i, orthonormal, when the split certifies
    # the A_i = W_i A V_i, with W_i the row blocks of [V_1 ... V_k]^-1, when the split certifies
    blocks: list[np.ndarray] | None


def _generalized_eigenspace(a, q, lam, scale) -> np.ndarray | None:
    """The orthonormal columns q, a start near an invariant subspace of A
    for its eigenvalues near lam, refined to one; None when not certified.

    Newton steps on A Q = Q M (Stewart, SIAM Rev. 15, 1973; Demmel,
    Computing 38, 1987): with M = Q^H A Q, R = A Q - Q M and N = M - lam,
    the step Z solves (I - QQ^H)(A - lam) Z - Z N = -R with Z orthogonal
    to Q, through the bordered matrix K = [[A - lam, Q], [Q^H, 0]]:
    Z = G (Z N - R) for G the leading n x n block of K^-1, exact after m
    rounds when N is nilpotent, and Q + Z is orthonormalized by a QR
    factorization, which keeps its span.  The steps run while ||R||_F
    exceeds the rounding bound of its own product, n * sqrt(m) * eps *
    scale, and still falls; a singular K ends them.
    Q is certified when ||R||_F <= RANK_TOL * scale, scale >= ||A - lam||_2:
    the cut at which the nested kernels of A - lam took its dimension.
    """
    n, mult = q.shape
    qh = q.conj().T
    aq = a @ q
    m = qh @ aq
    r = aq - q @ m
    res = np.vdot(r, r).real  # the residual and both cuts are compared squared
    rounding = mult * (n * np.finfo(float).eps * scale) ** 2
    bordered = None
    while res > rounding:
        if bordered is None:
            bordered = np.zeros((n + mult, n + mult), dtype=complex)
            bordered[:n, :n] = a
            bordered.reshape(-1)[: n * (n + mult + 1) : n + mult + 1] -= lam
        bordered[:n, n:] = q
        bordered[n:, :n] = qh
        try:
            g = np.linalg.inv(bordered)[:n, :n]
        except np.linalg.LinAlgError:
            break
        m.reshape(-1)[:: mult + 1] -= lam
        u = r
        for _ in range(mult - 1):
            u = r + (g @ u) @ m
        w = g @ u
        step = np.linalg.qr(q - w)[0]
        step_h = step.conj().T
        aq = a @ step
        m_step = step_h @ aq
        r = aq - step @ m_step
        res_step = np.vdot(r, r).real
        if not res_step < res:
            break
        q, qh, m, res = step, step_h, m_step, res_step
    return q if res <= (RANK_TOL * scale) ** 2 else None


def _cluster_bases(a, vecs, clusters, centres, norm) -> list[np.ndarray | None]:
    """Per cluster of the eigenvalues of A (indices into its eigenvectors
    vecs) at mean c, an orthonormal basis of its invariant subspace, or None
    when none is certified: a lone eigenvalue's eigenvector, else the
    cluster's eigenvectors orthonormalized, which for a Jordan block are
    nearly parallel, and refined by _generalized_eigenspace at scale
    ||A||_F + |c|, norm = ||A||_F."""
    return [
        vecs[:, c]
        if len(c) < 2
        else _generalized_eigenspace(a, np.linalg.qr(vecs[:, c])[0], z, norm + abs(z))
        for c, z in zip(clusters, centres)
    ]


def eigenspace_splits(a: np.ndarray) -> list[Split | ClusteringAmbiguityError]:
    """The eigenvalue split of A on the rungs of CLUSTER_LADDER, finest first,
    up to the first rung whose split certifies or has one cluster.

    One eig(A) serves every rung: its eigenvalues are clustered by single
    linkage at tol times the rung's factor; an ambiguous rung is its
    ClusteringAmbiguityError.  Cluster i, at mean c_i, gets an orthonormal
    basis V_i of its invariant subspace from eig's own eigenvectors
    (_cluster_bases): a lone eigenvalue's eigenvector, else the cluster's
    eigenvectors refined by Newton steps and certified by their invariance
    residual, ||A V_i - V_i (V_i^H A V_i)||_F <= RANK_TOL * (||A||_F + |c_i|).
    With W_i the i-th row block of [V_1 ... V_k]^-1, A V_i = V_i A_i and
    W_i A = A_i W_i for the block A_i = W_i A V_i (Golub & Wilkinson, SIAM
    Rev. 18, 1976; Kagstrom & Ruhe, ACM TOMS 6, 1980), and every A_i is read
    off the one product T = W A V.  The split certifies when every V_i is
    certified and cond([V_1 ... V_k]) <= 1/sqrt(RANK_TOL).  It takes no
    nested kernel: those are the certificate's, on the blocks
    (weyr_characteristic).  A certified split, or one cluster, ends the
    list: coarser radii join no less, and recovery never needs them.  Every
    command that splits A passes here once, so past MAX_RECOVERY_N it is
    refused before the eig.
    """
    if len(a) > MAX_RECOVERY_N:
        raise ValueError(f"numeric recovery supports n <= {MAX_RECOVERY_N}")
    values, vecs = np.linalg.eig(a)
    # ||A||_2: the SVD that np.linalg.norm(a, 2) takes, without its wrapper
    tol = DEFAULT_CLUSTER_TOL * max(float(np.linalg.svd(a, compute_uv=False)[0]), 1.0)
    norm = float(np.linalg.norm(a))
    splits: list[Split | ClusteringAmbiguityError] = []
    for factor in CLUSTER_LADDER:
        try:
            clusters = _cluster_eigenvalues(values, tol * factor)
        except ClusteringAmbiguityError as exc:
            splits.append(exc)
            continue
        centres = [complex(values[c].mean()) for c in clusters]
        splits.append(Split(tol, clusters, centres, None, None))
        if len(clusters) == 1:
            break
        bases = _cluster_bases(a, vecs, clusters, centres, norm)
        if all(v is not None for v in bases):
            v = np.hstack(bases)
            u, s, vh = np.linalg.svd(v)
            if s[0] <= s[-1] / np.sqrt(RANK_TOL):
                t = vh.conj().T @ (u.conj().T @ (a @ v) / s[:, None])
                ends = np.cumsum([len(c) for c in clusters]).tolist()
                blocks = [t[i:j, i:j] for i, j in zip([0] + ends, ends)]
                splits[-1] = splits[-1]._replace(bases=bases, blocks=blocks)
                break
    return splits


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


def weyr_characteristic(
    m: np.ndarray, lam: complex, depth: int, scale: float, kernels: list | None = None
) -> list[int]:
    """dim ker((M - lam*I)^k) for k = 1..depth; nondecreasing, eventually constant.

    The nested kernels are deflated: with S = M - lam*I and P_k the
    orthogonal projector onto ker(S^k), ker(S^(k+1)) = ker((I - P_k) S),
    so each k takes one SVD of M's size and no power of S is formed.  Every
    rank is cut at RANK_TOL * scale, a bound on ||S||_2: ||M||_F + |lam|,
    or for a block of a larger operator that operator's, so a
    rounding-sized S is not judged by its own norm and a gap d between
    eigenvalues is not shrunk to d^k.  Once the dimensions stop growing, or
    reach M's size, the list is padded to depth with the last one.  A list
    passed as kernels receives the kernels themselves, K_1 up to the last
    that grew.
    """
    shifted = m - complex(lam) * np.eye(len(m))
    deflated, dims = shifted, []
    for _ in range(depth):
        kernel = kernel_basis(deflated, scale)
        if dims and kernel.shape[1] == dims[-1]:
            break
        if kernels is not None:
            kernels.append(kernel)
        dims.append(kernel.shape[1])
        if dims[-1] == len(m):
            break
        deflated = shifted - kernel @ (kernel.conj().T @ shifted)
    return dims + dims[-1:] * (depth - len(dims))


def matrix_to_json(m: np.ndarray) -> dict:
    """A 2-D array as a matrix JSON object; a ValueError for a non-finite entry."""
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix contains non-finite entries")
    return {
        "rows": m.shape[0],
        "cols": m.shape[1],
        "data": np.stack([m.real.ravel(), m.imag.ravel()], 1).tolist(),
    }

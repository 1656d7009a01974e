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

    tol: float  # DEFAULT_CLUSTER_TOL * max(||A||_2, 1); the rung clusters at a multiple of it
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


def eigenspace_splits(a: np.ndarray) -> list[Split | ClusteringAmbiguityError]:
    """The eigenvalue split of A on the rungs of CLUSTER_LADDER, finest first,
    up to the first rung whose split certifies or has one cluster.

    One eig(A) serves every rung: its eigenvalues are clustered by single
    linkage at tol times the rung's factor; an ambiguous rung is its
    ClusteringAmbiguityError.  Cluster i, at mean c_i, gets the orthonormal
    basis V_i of its generalized eigenspace (the eigenvector of a lone
    eigenvalue, else the nested kernel of A - c_i of its dimension, cut at
    RANK_TOL * (||A||_F + |c_i|)), and W_i is the i-th row block of
    [V_1 ... V_k]^-1, so that A V_i = V_i A_i and W_i A = A_i W_i with
    A_i = W_i A V_i (Golub & Wilkinson, SIAM Rev. 18, 1976; Kagstrom &
    Ruhe, ACM TOMS 6, 1980).  The split certifies when every V_i has its
    cluster's dimension and cond([V_1 ... V_k]) <= 1/sqrt(RANK_TOL).  A
    certified split, or one cluster, ends the list: coarser radii join no
    less, and recovery never needs them.  Every command that splits A
    passes here once, so past MAX_RECOVERY_N it is refused before the eig.
    """
    if len(a) > MAX_RECOVERY_N:
        raise ValueError(f"numeric recovery supports n <= {MAX_RECOVERY_N}")
    values, vecs = np.linalg.eig(a)
    tol = DEFAULT_CLUSTER_TOL * max(float(np.linalg.norm(a, 2)), 1.0)
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
        bases = [
            _generalized_eigenspace(a, vecs, c, z, norm + abs(z)) for c, z in zip(clusters, centres)
        ]
        if all(v is not None for v in bases):
            u, s, vh = np.linalg.svd(np.hstack(bases))
            if s[0] <= s[-1] / np.sqrt(RANK_TOL):
                inverse = vh.conj().T @ (u.conj().T / s[:, None])
                lefts = np.split(inverse, np.cumsum([v.shape[1] for v in bases])[:-1])
                splits[-1] = splits[-1]._replace(bases=bases, lefts=lefts)
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

    The dimensions of the nested kernels cut at RANK_TOL * scale
    (_nested_kernels), a bound on ||M - lam*I||_2: ||M||_F + |lam|, or for
    a block of a larger operator that operator's; once they stop growing
    the list is padded to depth with the last one.  A list passed as
    kernels receives the kernels themselves, K_1 up to the last that grew.
    """
    found = list(_nested_kernels(m, complex(lam), scale, depth))
    if kernels is not None:
        kernels.extend(found)
    dims = [kernel.shape[1] for kernel in found]
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

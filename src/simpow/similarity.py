"""Structural similarity tests for integer powers of a matrix.

A JordanSpec is the exact structural description of a matrix: per
eigenvalue, the multiset of Jordan block sizes.  The verdicts implement
the characterization of when A^p and A^q are similar, for invertible and
singular A.  A matrix reaches them through spec_from_matrix, which
certifies the structure it recovers and keeps what certified it, from
which the Jordan basis of the matrix is built.

The verdicts on a spec are exact and load no numpy; the functions that
build or read matrices import it, and matrixcore, where they run.
"""

from __future__ import annotations

import enum
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import RANK_TOL
from .scalar import ExponentPair, RootOfUnity, _admissible_roots, rou_to_complex
from .spectra import SpectrumMultiset, SuccessorWalk, successor_walk

if TYPE_CHECKING:
    from collections.abc import Iterable

    import numpy as np

    from .matrixcore import Split

JordanEigenvalue = RootOfUnity | complex | None  # None encodes 0


class FailureReason(str, enum.Enum):
    SPECTRA_POWER_MISMATCH = "spectra-power-mismatch"
    ORBIT_MULTIPLICITY_MISMATCH = "orbit-multiplicity-mismatch"
    JORDAN_STRUCTURE_MISMATCH = "jordan-structure-mismatch-in-orbit"
    NILPOTENT_PART_TOO_DEEP = "nilpotent-part-too-deep"
    NON_ROOT_OF_UNITY = "non-root-of-unity-eigenvalue"


@dataclass(frozen=True)
class JordanEntry:
    """One eigenvalue with its multiset of Jordan block sizes."""

    eigenvalue: JordanEigenvalue
    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks or any(b < 1 for b in self.blocks):
            raise ValueError(f"block sizes must be positive, got {self.blocks}")
        object.__setattr__(self, "blocks", tuple(sorted(self.blocks, reverse=True)))

    @property
    def multiplicity(self) -> int:
        return sum(self.blocks)


@dataclass(frozen=True)
class JordanSpec:
    """Jordan structure by eigenvalue.

    Equality and the hash ignore the order of ``entries``, which is kept
    as given: it fixes the block order of matrix_from_spec and to_json.
    """

    entries: tuple[JordanEntry, ...]

    def __post_init__(self):
        eigenvalues = [e.eigenvalue for e in self.entries]
        # 0 (None), roots of unity and complex values hash and compare apart
        if len(set(eigenvalues)) != len(eigenvalues):
            raise ValueError("eigenvalues must be pairwise distinct")

    def __eq__(self, other):
        if not isinstance(other, JordanSpec):
            return NotImplemented
        return frozenset(self.entries) == frozenset(other.entries)

    def __hash__(self):
        return hash(frozenset(self.entries))

    @property
    def n(self) -> int:
        return sum(e.multiplicity for e in self.entries)

    def zero_entry(self) -> JordanEntry | None:
        for e in self.entries:
            if e.eigenvalue is None:
                return e
        return None

    def from_jordan_basis(self, x: np.ndarray) -> np.ndarray:
        """x carried from the basis of matrix_from_spec(self) to the matrix's
        own: the same basis for a plain spec (see RecoveredSpec)."""
        return x

    def invertible_part(self) -> "JordanSpec":
        return JordanSpec(tuple(e for e in self.entries if e.eigenvalue is not None))

    def spectrum(self) -> SpectrumMultiset | None:
        """Multiset spectrum; None when an eigenvalue is neither 0 nor a root of unity."""
        if any(isinstance(e.eigenvalue, complex) for e in self.entries):
            return None
        return SpectrumMultiset(tuple((e.eigenvalue, e.multiplicity) for e in self.entries))

    def to_json(self) -> list:
        out = []
        for e in self.entries:
            ev = e.eigenvalue
            if ev is None:
                key = "zero"
            elif isinstance(ev, RootOfUnity):
                key = str(ev)
            else:
                key = [ev.real, ev.imag]
            out.append({"eigenvalue": key, "blocks": list(e.blocks)})
        return out

    @classmethod
    def from_json(cls, data: list) -> "JordanSpec":
        entries = []
        for item in data:
            ev = item["eigenvalue"]
            if ev == "zero":
                parsed: JordanEigenvalue = None
            elif isinstance(ev, str):
                parsed = RootOfUnity.from_str(ev)
            else:
                # a complex 0 is the eigenvalue 0, whose blocks split in a power
                parsed = complex(ev[0], ev[1]) or None
            blocks = tuple(item["blocks"])
            if any(type(b) is not int for b in blocks):  # bool is an int subclass
                raise ValueError(f"block sizes must be integers, got {item['blocks']}")
            entries.append(JordanEntry(parsed, blocks))
        return cls(tuple(entries))


def _ev_complex(ev: JordanEigenvalue) -> complex:
    if ev is None:
        return 0j
    if isinstance(ev, RootOfUnity):
        return rou_to_complex(ev)
    return complex(ev)


@dataclass
class SimilarityVerdict:
    similar: bool
    failure_reason: FailureReason | None = None
    orbit_report: SuccessorWalk | None = None
    certificate: str | None = None

    def to_json(self) -> dict:
        return {
            "similar": self.similar,
            "failure_reason": self.failure_reason.value if self.failure_reason else None,
            "orbits": self.orbit_report.to_json() if self.orbit_report else None,
            "certificate": self.certificate,
        }


def _jordan_matrix(spec: JordanSpec, zeros):
    """matrix_from_spec(spec) without a seed in out = zeros(n), each
    diagonal and superdiagonal entry set as out[i, j]: out is an n x n
    array of zeros or, without numpy, a dict."""
    out, start = zeros(spec.n), 0
    for e in spec.entries:
        lam = _ev_complex(e.eigenvalue) + 0j  # a -0.0 part becomes 0.0, as in lambda*I + N
        for size in e.blocks:
            for k in range(start, start + size):
                out[k, k] = lam
                if k > start:
                    out[k - 1, k] = 1 + 0j
            start += size
    return out


def matrix_from_spec(spec: JordanSpec, conjugate_seed: int | None = None) -> np.ndarray:
    """Materialize a concrete matrix with the given Jordan structure.

    The direct sum of the Jordan blocks lambda*I + N, in the order of the
    entries and of their blocks.  With a seed, it is conjugated by a
    random unitary matrix (well-conditioned, so the structure survives
    numerically).
    """
    import numpy as np

    a = _jordan_matrix(spec, lambda n: np.zeros((n, n), dtype=complex))
    if conjugate_seed is None:
        return a
    n = spec.n
    rng = np.random.default_rng(conjugate_seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return q.conj().T @ a @ q


def _blocks_from_weyr(dims: list[int], multiplicity: int) -> tuple[int, ...]:
    """Recover the Jordan block-size multiset from ker-dimension increments."""
    counts = [dims[0]] + [dims[k] - dims[k - 1] for k in range(1, len(dims))]
    if any(c2 > c1 for c1, c2 in zip(counts, counts[1:])) or dims[-1] != multiplicity:
        raise ValueError(f"Weyr sequence {dims} inconsistent with multiplicity {multiplicity}")
    counts.append(0)
    blocks = []
    for size in range(1, len(dims) + 1):
        blocks.extend([size] * (counts[size - 1] - counts[size]))
    return tuple(sorted(blocks, reverse=True))


@dataclass(frozen=True, eq=False)
class RecoveredSpec(JordanSpec):
    """A JordanSpec that spec_from_matrix certified on a matrix A, equal to
    and hashed as the plain spec.  Per entry, its certificate is the
    shifted matrix S = M - lam whose nested kernels K_1 < ... < K_d
    certified it at its point lam, those kernels, and the V_i that carries
    M's coordinates to A's (None when M is A itself)."""

    certificates: tuple = field(default=(), repr=False)

    def jordan_basis(self) -> np.ndarray:
        """V with A V = V J for J = matrix_from_spec(self): the Jordan chains
        of every entry, in the order of its blocks (_jordan_chains)."""
        import numpy as np

        columns = []
        for entry, (shifted, kernels, basis) in zip(self.entries, self.certificates):
            chains = _jordan_chains(entry.blocks, shifted, kernels)
            columns.append(chains if basis is None else basis @ chains)
        return np.hstack(columns)

    def from_jordan_basis(self, x: np.ndarray) -> np.ndarray:
        """V x V^-1 for V = jordan_basis(); ValueError when V is not
        invertible at RANK_TOL."""
        import numpy as np

        from .matrixcore import is_invertible

        v = self.jordan_basis()
        if not is_invertible(v):
            raise ValueError("the Jordan basis of the certified structure is singular")
        return v @ x @ np.linalg.inv(v)


def _jordan_chains(blocks: tuple[int, ...], shifted: np.ndarray, kernels: list) -> np.ndarray:
    """Columns x_0, ..., x_(j-1) of one Jordan chain of S = shifted per
    block of size j, longest first: S x_0 = 0 and S x_i = x_(i-1).

    Built top-down in the nested kernels K_k = kernels[k - 1] of S
    (Kagstrom & Ruhe, ACM TOMS 6, 1980): a chain of length j starts at a
    vector of K_j independent of K_(j-1) and of the longer chains' vectors
    at level j.  With 1-blocks only, K_1 is taken as it is.
    """
    import numpy as np

    if blocks[0] == 1:
        return kernels[0]
    counts = Counter(blocks)
    level = np.zeros((len(shifted), 0), dtype=complex)  # the chains' vectors at level j
    levels = []  # levels[d - j] is the level of j
    for j in range(blocks[0], 0, -1):
        if counts[j]:
            # in K_j's coordinates, the complement of K_(j-1) and the level
            below = level if j == 1 else np.hstack([kernels[j - 2], level])
            u = np.linalg.svd(kernels[j - 1].conj().T @ below)[0]
            level = np.hstack([level, kernels[j - 1] @ u[:, below.shape[1] :]])
        levels.append(level)
        level = shifted @ level
    top = blocks[0]
    return np.stack(
        [levels[top - i][:, c] for c, size in enumerate(blocks) for i in range(1, size + 1)], axis=1
    )


def spec_from_matrix(a: np.ndarray, pq: ExponentPair, splits: list) -> RecoveredSpec:
    """Recover a JordanSpec numerically, certified cluster by cluster.

    The clusters are those of splits = eigenspace_splits(A), rung by rung.
    A cluster of m eigenvalues is certified at an exact point when the
    Weyr sequence there, to depth m + 1 with every rank cut at RANK_TOL *
    (||A||_F + |point|), stops growing at m; the blocks are read off it.
    On a certified split that is the sequence of the cluster's own block
    W_i A V_i, which no other cluster can disturb; otherwise that of A.
    A lone eigenvalue's block [m] is 1x1, and its sequence is the one rank
    cut |m - point| <= RANK_TOL * (||A||_F + |point|), kernel [[1]].
    The point is 0 when the mean is within tol of 0; otherwise the
    admissible roots of unity within tol of the mean, smallest order first
    (_admissible_roots), then the mean itself.  The first rung at which
    every cluster certifies gives the spec, which keeps the nested kernels
    of each certificate for its Jordan basis; failing that, the error of
    the finest rung is raised (ClusteringAmbiguityError or another
    ValueError).
    """
    import numpy as np

    from .matrixcore import Split

    norm = float(np.linalg.norm(a))
    finest_error = None
    for split in splits:
        if not isinstance(split, Split):
            finest_error = finest_error or split
            continue
        try:
            indices = range(len(split.clusters))
            certified = [_certified_entry(a, split, i, pq, norm) for i in indices]
        except ValueError as exc:
            finest_error = finest_error or exc
            continue
        entries, certificates = zip(*certified)
        return RecoveredSpec(entries, certificates)
    raise finest_error


def _certified_entry(a: np.ndarray, split: Split, i: int, pq: ExponentPair, norm: float):
    """The entry of the i-th cluster of split, ||A||_F = norm, at the first
    point that certifies it, and its certificate; ValueError when none
    does (see spec_from_matrix)."""
    import numpy as np

    from .matrixcore import weyr_characteristic

    basis = None if split.bases is None else split.bases[i]
    m = a if basis is None else split.lefts[i] @ a @ basis
    mult, center = len(split.clusters[i]), split.centres[i]
    if abs(center) <= split.tol:
        points: Iterable[JordanEigenvalue] = [None]
    else:
        points = itertools.chain(_admissible_roots(center, pq, len(a), split.tol), [center])
    for ev in points:
        lam = _ev_complex(ev)
        if len(m) == 1:
            # the rank cut of the 1x1 SVD of m - lam, whose right singular vector is [1]
            if abs(complex(m[0, 0]) - lam) <= RANK_TOL * (norm + abs(lam)):
                return JordanEntry(ev, (1,)), (m - lam, [np.eye(1, dtype=complex).conj()], basis)
            continue
        kernels = []
        dims = weyr_characteristic(m, lam, mult + 1, norm + abs(lam), kernels)
        if dims[-1] == mult:
            entry = JordanEntry(ev, _blocks_from_weyr(dims, mult))
            return entry, (m - lam * np.eye(len(m)), kernels, basis)
    raise ValueError(f"no point certifies the {mult} eigenvalue(s) around {center:.6g}")


def powers_similar_general(
    spec: JordanSpec, pq: ExponentPair, walk: SuccessorWalk | None = None
) -> SimilarityVerdict:
    """Verdict on A^p ~ A^q; a singular part requires 1 <= p < q.

    A^p ~ A^q iff the nilpotent part has no block past p, the power
    spectra agree as multisets and the Jordan structure is constant along
    every orbit.  walk is the caller's successor_walk of spec's spectrum
    under pq, its 0 included or not, so that caller and verdict read one
    walk; None walks it here.  An eigenvalue that is no RootOfUnity fails:
    on a successor cycle of length t <= n, n the size of the invertible
    part, it would be a root of unity of order dividing |q^t - p^t|.
    """
    zero = spec.zero_entry()
    if zero is not None:
        if not (1 <= pq.p < pq.q):
            raise ValueError(f"singular case needs 1 <= p < q, got (p,q)=({pq.p},{pq.q})")
        if max(zero.blocks) > pq.p:
            return SimilarityVerdict(
                False,
                FailureReason.NILPOTENT_PART_TOO_DEEP,
                certificate=f"nilpotent block of size {max(zero.blocks)} exceeds p={pq.p}",
            )
        spec = spec.invertible_part()
        if not spec.entries:
            return SimilarityVerdict(True)
    for entry in spec.entries:
        if isinstance(entry.eigenvalue, complex):
            return SimilarityVerdict(
                False,
                FailureReason.NON_ROOT_OF_UNITY,
                certificate=(
                    f"eigenvalue {entry.eigenvalue} matches no admissible root of unity "
                    f"(order dividing |q^t - p^t| for some t <= {spec.n}, "
                    f"(p,q) = ({pq.p},{pq.q}))"
                ),
            )
    if walk is None:
        walk = successor_walk(spec.spectrum(), pq)
    if not walk.uniform:
        # closed: the distinct values align, but a multiplicity varies along an orbit
        reason = (
            FailureReason.ORBIT_MULTIPLICITY_MISMATCH if walk.closed
            else FailureReason.SPECTRA_POWER_MISMATCH
        )
        return SimilarityVerdict(False, reason)
    blocks_of = {e.eigenvalue: e.blocks for e in spec.entries}
    for orbit in walk.orbits:
        structures = {blocks_of[ev] for ev in orbit.members}
        if len(structures) > 1:
            members = " -> ".join(str(ev) for ev in orbit.members)
            return SimilarityVerdict(
                False,
                FailureReason.JORDAN_STRUCTURE_MISMATCH,
                orbit_report=walk,
                certificate=f"orbit [{members}] carries block multisets {sorted(structures)}",
            )
    return SimilarityVerdict(True, orbit_report=walk)

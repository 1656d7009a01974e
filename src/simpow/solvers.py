"""Constructive solvers for the conjugacy equation B^-1 A^p B = A^q.

Two regimes are fully constructive, and one constructor serves both:

* distinct eigenvalues: A = diag of one successor-cycle of roots of unity
  inside Z/(q^n - p^n), with B = diag(scale) times the cycle permutation;
* a single eigenvalue lambda with lambda^(q-p) = 1: the conjugate is the
  primary matrix function lambda*(I + N/lambda)^(q/p), whose coefficients
  are the generalized binomials C(q/p, j), and a block-diagonal base
  conjugator B0 realizes it.  B0 is the power matrix of the compositional
  inverse series (1 + y)^(p/q) - 1, in closed form as well.  Every other
  conjugator is Delta @ B0 for an invertible Delta commuting with N.

A Jordan spec with A^p similar to A^q is a direct sum of those two cases
along the successor orbits: spec_conjugator builds its B in closed form,
and intertwiner_dimension counts the space of all of them.

The residue enumeration is exact and loads no numpy, and neither does the
closed form of the conjugator, which writes its entries into a dict as
well as into an array; the functions that build arrays import numpy, and
matrixcore, where they run.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from . import DEFAULT_CLUSTER_TOL, VERIFY_TOL
from .scalar import ExponentPair, RootOfUnity, angle_to_complex, mod_inverse, rou_pow, rou_to_complex
from .similarity import JordanEntry, JordanSpec, _ev_complex
from .spectra import successor

if TYPE_CHECKING:
    import numpy as np

# the largest Q = |q^n - p^n| whose residues enumerate_valid_k1 lists: at
# 2^24 the list is already about 150 MB of JSON, and the sieve takes Q bytes
MAX_MODULUS = 2**24


@dataclass(frozen=True)
class CycleInstance:
    """A diagonal solution family with n distinct eigenvalues forming one cycle.

    The eigenvalues are exp(2*pi*i*k_u/Q) with Q = |q^n - p^n| and
    k_{u+1} = (p^-1 q) k_u in Z/Q.
    """

    n: int
    pq: ExponentPair
    modulus: int
    k1: int
    k_seq: tuple[int, ...]
    spectrum: tuple[RootOfUnity, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.pq.p,
            "q": self.pq.q,
            "Q": self.modulus,
            "k1": self.k1,
            "k_seq": list(self.k_seq),
            "spectrum": [str(ev) for ev in self.spectrum],
        }


def _power_modulus(n: int, pq: ExponentPair) -> int:
    q_n = abs(pq.q**n - pq.p**n)
    if q_n == 0:
        raise ValueError(f"q^n = p^n for (p,q)=({pq.p},{pq.q}), n={n}")
    return q_n


def _excluded_divisors(n: int) -> list[int]:
    return [z for z in range(1, n) if n % z == 0]


def enumerate_valid_k1(n: int, pq: ExponentPair) -> list[int]:
    """All seed residues k1 whose cycle k_u = (p^-1 q)^(u-1) k1 has n distinct values.

    These are the residues outside every set (Q/|q^z - p^z|) Z/Q for strict
    divisors z of n, found by sieving out those sets.  Returned in
    increasing order.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    modulus = _power_modulus(n, pq)
    if modulus > MAX_MODULUS:
        raise ValueError(f"modulus Q = {modulus} exceeds {MAX_MODULUS}: too many residues to list")
    valid = bytearray(b"\x01") * modulus
    for z in _excluded_divisors(n):
        step = modulus // abs(pq.q**z - pq.p**z)
        valid[::step] = bytes(len(range(0, modulus, step)))
    return list(itertools.compress(range(modulus), valid))


def build_cycle_instance(n: int, pq: ExponentPair, k1: int) -> CycleInstance:
    modulus = _power_modulus(n, pq)
    k1_value = k1 % modulus
    step = (mod_inverse(pq.p, modulus) * pq.q) % modulus
    k_seq = [k1_value]
    for _ in range(n - 1):
        k_seq.append((k_seq[-1] * step) % modulus)
    if k1_value in k_seq[1:]:
        # the cycle's period z divides n: k1 lies in the excluded set of z
        z = k_seq.index(k1_value, 1)
        raise ValueError(f"k1={k1_value} lies in the excluded set for divisor z={z} of n={n}")
    return CycleInstance(
        n=n,
        pq=pq,
        modulus=modulus,
        k1=k1_value,
        k_seq=tuple(k_seq),
        spectrum=tuple(RootOfUnity(k, modulus) for k in k_seq),
    )


def _binomial_coeffs(top: int, bottom: int, d: int) -> list[Fraction]:
    """C(t, 1..d-1) for t = top/bottom, the coefficients of (1 + x)^t - 1,
    from the integers C(t, j) = top (top - bottom) ... (top - (j-1) bottom)
    / (bottom^j j!)."""
    coeffs, num, den = [], 1, 1
    for j in range(1, d):
        num *= top - (j - 1) * bottom
        den *= bottom * j
        coeffs.append(Fraction(num, den))
    return coeffs


def _inverse_series_powers(pq: ExponentPair, d: int) -> list[list[int]]:
    """G[k][t] = q^t t! [y^t] w(y)^k for w(y) = (1 + y)^(p/q) - 1 and 0 <= k, t < d.

    Every entry is an integer.  Differentiating gives
    (1 + y) (w^k)' = (k p / q) (w^k + w^(k-1)), so
    G[k][t+1] = (k p - t q) G[k][t] + k p G[k-1][t]: O(d^2) integer
    operations for the whole table (Knuth, TAOCP Vol. 2, 4.7).  w^k has
    valuation k, so the row starts at G[k][k] = k! p^k.
    """
    p, q = pq.p, pq.q
    table = [[1] + [0] * (d - 1)]
    for k in range(1, d):
        prev, row = table[-1], [0] * d
        for t in range(k - 1, d - 1):
            row[t + 1] = (k * p - t * q) * row[t] + k * p * prev[t]
        table.append(row)
    return table


def _block_conjugator_entries(table: list[list[int]], pq: ExponentPair, size: int):
    """(i, j, numerator, denominator) of every nonzero entry of the exact B
    with B^-1 J B = M for a Jordan block of size r, unit top-left entry.

    B^-1 is the Krylov basis [x^(r-1-i)] m(x)^(r-1-j), the power matrix of
    m(x) = (1 + x)^(q/p) - 1.  Power matrices compose, so B is the power
    matrix of the compositional inverse w(y) = (1 + y)^(p/q) - 1, whose
    top-left entry (p/q)^(r-1) is divided out:
    B[i][j] = G[k][t] q^(r-1-t) / (t! p^(r-1)) with t = r-1-i, k = r-1-j.
    """
    r = size
    p_scale = pq.p ** (r - 1)
    for i in range(r):
        t = r - 1 - i
        num_scale, den = pq.q**i, math.factorial(t) * p_scale
        for j in range(i, r):
            g = table[r - 1 - j][t]
            if g:
                yield i, j, g * num_scale, den


@dataclass(frozen=True)
class SingleEigSolution:
    """Solution data for spectrum {lambda}: C = lambda*I + P(N), B0^-1 N B0 = P(N).

    The solution is exact: with lambda^(q-p) = 1, substituting M = lambda *
    Mtilde(N / lambda) reduces the coefficient solve to the lambda = 1 case,
    whose coefficients are rational.  Every entry of M and B0 is therefore a
    rational times a power of lambda, and the float64 views are rounded
    from the exact integer data: _binomial_coeffs for M, the table of
    _inverse_series_powers read by _block_conjugator_entries for B0.
    entry(M)[i][j] = rational_coeffs[j-i-1] * lambda^(1+i-j) for j > i,
    entry(B0)[i][j] = R[i][j] * lambda^(i-j), R the B0 of lambda = 1.
    """

    lam: RootOfUnity
    block_sizes: tuple[int, ...]
    m_matrix: np.ndarray
    b0: np.ndarray
    rational_coeffs: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    def to_json(self) -> dict:
        from .matrixcore import matrix_to_json

        # alpha_j = rational_coeffs[j-1] * lambda^(1-j); at lambda = 1 the
        # rational itself, so a negative alpha_j keeps an unsigned imaginary 0
        coeffs = [
            complex(a) if self.lam.num == 0
            else float(a) * rou_to_complex(rou_pow(self.lam, 1 - j))
            for j, a in enumerate(self.rational_coeffs, start=1)
        ]
        return {
            "lambda": str(self.lam),
            "blocks": list(self.block_sizes),
            "alpha": [[c.real, c.imag] for c in coeffs],
            "m_matrix": matrix_to_json(self.m_matrix),
            "b0": matrix_to_json(self.b0),
        }


def solve_single_eigenvalue(
    lam: RootOfUnity, block_sizes, pq: ExponentPair
) -> SingleEigSolution:
    """Solve B^-1 A^p B = A^q for A = lam*I + N with N of given block sizes.

    Requires lam^(q-p) = 1 exactly.  The conjugate C = lam*I + sum alpha_i N^i
    with C^p = A^q and alpha_1 != 0 is lam*(I + N/lam)^(q/p), so alpha_j is
    the generalized binomial C(q/p, j) twisted by lam^(1-j).  lam is its
    own successor, so B0 is spec_conjugator of the one-eigenvalue spec,
    built from the integer table of the powers of the inverse series
    (1 + y)^(p/q) - 1.  Every float is one correctly rounded
    int/int division (as float(Fraction) is) times its power of lambda, so
    the views equal the rounded exact solution without a Fraction per entry.
    """
    import numpy as np

    from .matrixcore import block_diagonal

    entry = JordanEntry(lam, tuple(int(b) for b in block_sizes))
    if rou_pow(lam, pq.q - pq.p).num != 0:
        raise ValueError(
            f"lambda = {lam} violates lambda^(q-p) = 1 for (p,q)=({pq.p},{pq.q})"
        )
    d = entry.blocks[0]
    rational = _binomial_coeffs(pq.q, pq.p, d)
    twist = {e: rou_to_complex(rou_pow(lam, e)) for e in range(1 - d, 1)}
    # M is Toeplitz, M[i][j] = diagonals[j - i + d - 1], on every block, so
    # its blocks are the top-left corners of the largest one
    diagonals = np.array(
        [0] * d + [float(a) * twist[1 - s] if a else 0 for s, a in enumerate(rational, 1)],
        dtype=complex,
    )
    index = np.arange(d)
    m_full = diagonals[index - index[:, None] + d - 1]
    return SingleEigSolution(
        lam,
        entry.blocks,
        block_diagonal([m_full[:size, :size] for size in entry.blocks]),
        spec_conjugator(JordanSpec((entry,)), pq),
        tuple(rational),
    )


def _conjugator(spec: JordanSpec, pq: ExponentPair, zeros):
    """The B of spec_conjugator(spec, pq) in out = zeros(n), each nonzero
    entry set as out[i, j]: out is an n x n array of zeros or, without
    numpy, a dict."""
    place, n = {}, 0  # eigenvalue -> (its first row and column in A, its blocks)
    for e in spec.entries:
        place[e.eigenvalue], n = (n, e.blocks), n + e.multiplicity
    out = zeros(n)
    d = max((e.blocks[0] for e in spec.entries if e.eigenvalue is not None), default=1)
    table = _inverse_series_powers(pq, d)
    r_of = {}  # block size -> the (i, j, R[i][j]) of its nonzero entries, built once
    for lam, (col, blocks) in place.items():
        if lam is None:
            if blocks[0] > min(pq.p, pq.q):
                raise ValueError(f"a block of size {blocks[0]} at 0 survives A^p or A^q")
            for k in range(col, col + sum(blocks)):
                out[k, k] = 1 + 0j
            continue
        if not isinstance(lam, RootOfUnity):
            raise ValueError(f"eigenvalue {lam} is no root of unity")
        mu = successor(lam, pq)
        row, mu_blocks = place.get(mu, (0, ()))
        if mu_blocks != blocks:
            raise ValueError(f"the blocks {blocks} at {lam} differ at its successor {mu}")
        # mu has the order m of lambda, so mu^i lambda^-j = exp(2 pi i k / m)
        # with k = i c - j a mod m
        a, c, m = lam.num, mu.num, lam.order
        twist = {0: 1 + 0j}
        for size in blocks:
            if size not in r_of:
                entries = _block_conjugator_entries(table, pq, size)
                r_of[size] = [(i, j, num / den) for i, j, num, den in entries]
            for i, j, r in r_of[size]:
                k = (i * c - j * a) % m
                w = twist.get(k)
                if w is None:
                    w = twist[k] = angle_to_complex(k, m)
                out[row + i, col + j] = r * w
            row, col = row + size, col + size
    return out


def spec_conjugator(spec: JordanSpec, pq: ExponentPair) -> np.ndarray:
    """B with A^p B = B A^q for A = matrix_from_spec(spec), in closed form
    (README, Conjugator of a spec).

    Block k of lambda maps to block k of mu = successor(lambda), whose
    blocks the verdict makes equal, as X[i][j] = R[i][j] mu^i lambda^-j,
    that is diag((mu/lambda)^i) B0(lambda), with R the base conjugator at
    lambda = 1 and each root evaluated from its exact angle (at
    mu = lambda, the B0 of solve_single_eigenvalue).  Blocks at 0 map to
    themselves by the identity: no longer than min(p, q), they vanish in
    A^p and A^q.  A spec whose powers are not similar has no such B:
    ValueError.
    """
    import numpy as np

    return _conjugator(spec, pq, lambda n: np.zeros((n, n), dtype=complex))


def intertwiner_dimension(spec: JordanSpec, pq: ExponentPair) -> int:
    """dim {X : A^p X = X A^q} for A of Jordan structure spec: the sum of
    min(b, c) over the Jordan blocks b of A^p and c of A^q at one
    eigenvalue (Gantmacher, Theory of Matrices, ch. VIII).

    A block of size b at lambda != 0 is one block of size b at lambda^e
    in A^e; J_b(0)^e splits into one block per residue class mod e of
    its b indices.  0 and roots of unity are exact keys, met by lookup;
    only a complex eigenvalue's power is compared by value, with every
    key, at DEFAULT_CLUSTER_TOL relative to max(|x|, |y|, 1).
    """

    def power_blocks(e: int) -> dict:
        out: dict = {}  # 0 (None), a root of unity or a complex value -> the blocks there
        for entry in spec.entries:
            ev, sizes = entry.eigenvalue, entry.blocks
            if ev is None:
                if e < 0:
                    raise ValueError("negative power of a singular matrix")
                sizes = [len(range(k, b, e)) for b in sizes for k in range(min(e, b))]
            else:
                ev = rou_pow(ev, e) if isinstance(ev, RootOfUnity) else ev**e
            out.setdefault(ev, []).extend(sizes)
        return out

    def close(x, y) -> bool:
        x, y = _ev_complex(x), _ev_complex(y)
        return abs(x - y) <= DEFAULT_CLUSTER_TOL * max(abs(x), abs(y), 1.0)

    blocks_p, blocks_q = power_blocks(pq.p), power_blocks(pq.q)
    inexact_q = [y for y in blocks_q if isinstance(y, complex)]
    met = [(x, x) for x in blocks_p if x in blocks_q and not isinstance(x, complex)]
    met += [
        (x, y)
        for x in blocks_p
        for y in (blocks_q if isinstance(x, complex) else inexact_q)
        if close(x, y)
    ]
    return sum(min(b, c) for x, y in met for b in blocks_p[x] for c in blocks_q[y])


def polynomial_witness(
    spec: JordanSpec, pq: ExponentPair, a: np.ndarray, a_q: np.ndarray
) -> list[complex] | None:
    """Coefficients c with sum(c[j] * S^j) = A for A of Jordan structure
    spec and S = a_q = A^q, or None.

    Near an eigenvalue lambda != 0 of A, f(x) = lambda (x / mu)^(1/q),
    mu = lambda^q, inverts x -> x^q, so A = f(S) wherever the mu are
    distinct.  f(S) is the Hermite interpolant of f (Higham, Functions of
    Matrices, SIAM 2008, 1.2): the polynomial of degree below the number
    of its conditions whose k-th Taylor coefficient at each mu is
    lambda C(1/q, k) mu^-k, for k below the largest block at lambda; the
    mu of a root of unity is its exact angle.  At 0, f(0) = 0 on blocks of
    size 1, and f(x) = x for q = 1.  The conditions are one confluent
    Vandermonde system.  None when two eigenvalues share one mu or, for
    q != 1, a block at 0 is longer than 1: no polynomial in S is A then;
    and when sum(c[j] S^j), by Horner, misses A by more than
    VERIFY_TOL * ||A||_F (Frobenius).
    """
    import numpy as np

    depth = max(e.blocks[0] for e in spec.entries)
    taylor = [1.0, *map(float, _binomial_coeffs(1, pq.q, depth))]  # C(1/q, k)
    seen, nodes, values = set(), [], []  # nodes: (mu, k) of each condition
    with np.errstate(all="ignore"):  # an overflow fails the residual test below
        for entry in spec.entries:
            lam, d = entry.eigenvalue, entry.blocks[0]
            if lam is None:
                if d > 1 and pq.q != 1:
                    return None
                mu, f = 0j, [0j, 1 + 0j, *[0j] * (d - 2)][:d]
            elif isinstance(lam, RootOfUnity):
                mu = rou_pow(lam, pq.q)  # and lambda mu^-k = lambda^(1 - k q)
                f = [
                    c * rou_to_complex(rou_pow(lam, 1 - k * pq.q))
                    for k, c in enumerate(taylor[:d])
                ]
            else:
                mu = np.complex128(lam) ** pq.q
                f = [lam * c * mu**-k for k, c in enumerate(taylor[:d])]
            if mu in seen:
                return None
            seen.add(mu)
            nodes += [(_ev_complex(mu), k) for k in range(d)]
            values += f
        size = len(nodes)
        mus, ks = (np.array(column) for column in zip(*nodes))
        exponents = np.arange(size) - ks[:, None]
        pascal = np.array([[math.comb(j, k) for j in range(size)] for k in range(depth)], float)
        powers = mus[:, None] ** np.maximum(exponents, 0)  # row (mu, k): C(j, k) mu^(j - k)
        vandermonde = np.where(exponents >= 0, pascal[ks] * powers, 0)
        try:
            coeffs = np.linalg.solve(vandermonde, np.array(values, dtype=complex))
        except np.linalg.LinAlgError:
            return None
        horner = coeffs[-1] * np.eye(len(a), dtype=complex)
        for c in coeffs[-2::-1]:
            horner = horner @ a_q
            horner.flat[:: len(a) + 1] += c
        residual = np.linalg.norm(horner - a)
    if not residual <= VERIFY_TOL * max(np.linalg.norm(a), 1e-300):
        return None
    return [complex(c) for c in coeffs]


@dataclass
class ConjugateResult:
    c: np.ndarray
    commutation_residual: float
    commutes: bool


def realize_conjugate_c(a: np.ndarray, b: np.ndarray) -> ConjugateResult:
    """C = B^-1 A B, reporting whether C commutes with A.

    When (A, B) solves the conjugacy equation and A is invertible, C must
    commute with A: A is then a polynomial in A^q = C^p.  For a singular A
    that is no theorem, and a correct B can report false.  The check is
    reported, never enforced.
    """
    import numpy as np

    from .matrixcore import is_invertible

    if not is_invertible(b):
        raise ValueError("b is singular")
    c = np.linalg.solve(b, a @ b)
    residual = float(np.linalg.norm(c @ a - a @ c))
    bound = VERIFY_TOL * float(np.linalg.norm(a)) * max(float(np.linalg.norm(c)), 1.0)
    return ConjugateResult(c, residual, residual <= bound)

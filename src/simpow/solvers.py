"""Constructive solvers for the conjugacy equation B^-1 A^p B = A^q.

Two regimes are fully constructive:

* distinct eigenvalues: A = diag of one successor-cycle of roots of unity
  inside Z/(q^n - p^n), with B = diag(scale) times the cycle permutation;
* a single eigenvalue lambda with lambda^(q-p) = 1: the conjugate is the
  primary matrix function lambda*(I + N/lambda)^(q/p), whose coefficients
  are the generalized binomials C(q/p, j), and a block-diagonal base
  conjugator B0 realizes it.  B0 is the power matrix of the compositional
  inverse series (1 + y)^(p/q) - 1, in closed form as well.  Every other
  conjugator is Delta @ B0 for an invertible Delta commuting with N.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .matrixcore import VERIFY_TOL, block_diagonal, is_invertible, matrix_to_json
from .scalar import ExponentPair, RootOfUnity, mod_inverse, rou_pow, rou_to_complex

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

    def diagonal_matrix(self) -> np.ndarray:
        return np.diag([rou_to_complex(ev) for ev in self.spectrum])

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


def build_cycle_conjugator(inst: CycleInstance, scale) -> np.ndarray:
    """B = diag(scale) @ Sigma with Sigma the cycle permutation e_u -> e_{u+1}.

    For A = inst.diagonal_matrix() this gives B^-1 A^p B = A^q.
    """
    scale = [complex(s) for s in scale]
    if len(scale) != inst.n:
        raise ValueError(f"need {inst.n} scale entries, got {len(scale)}")
    if any(s == 0 for s in scale):
        raise ValueError("scale entries must be nonzero")
    n = inst.n
    sigma = np.zeros((n, n), dtype=complex)
    for j in range(n):
        sigma[(j + 1) % n, j] = 1.0
    return np.diag(scale) @ sigma


def _rational_poly_block(alphas: tuple[Fraction, ...], size: int) -> list[list[Fraction]]:
    """a_1 J + a_2 J^2 + ... on the Jordan block J_size, exactly (Toeplitz)."""
    coeffs = [Fraction(0)] + list(alphas[: size - 1])
    return [
        [coeffs[j - i] if 0 <= j - i < len(coeffs) else Fraction(0) for j in range(size)]
        for i in range(size)
    ]


def _binomial_coeffs(pq: ExponentPair, d: int) -> list[Fraction]:
    """C(q/p, 1..d-1), the coefficients of (1 + x)^(q/p) - 1, from the
    integers C(q/p, j) = q (q - p) ... (q - (j-1) p) / (p^j j!)."""
    coeffs, num, den = [], 1, 1
    for j in range(1, d):
        num *= pq.q - (j - 1) * pq.p
        den *= pq.p * j
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


def _assemble_blocks(blocks: list[list[list[Fraction]]]) -> tuple[tuple[Fraction, ...], ...]:
    n = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * n for _ in range(n)]
    pos = 0
    for block in blocks:
        size = len(block)
        for i in range(size):
            for j in range(size):
                out[pos + i][pos + j] = block[i][j]
        pos += size
    return tuple(tuple(row) for row in out)


def _m_rational(sol: SingleEigSolution) -> tuple[tuple[Fraction, ...], ...]:
    return _assemble_blocks(
        [_rational_poly_block(sol.rational_coeffs, size) for size in sol.block_sizes]
    )


def _b0_rational(sol: SingleEigSolution) -> tuple[tuple[Fraction, ...], ...]:
    table = _inverse_series_powers(sol.pq, sol.block_sizes[0])
    blocks = []
    for size in sol.block_sizes:
        block = [[Fraction(0)] * size for _ in range(size)]
        for i, j, num, den in _block_conjugator_entries(table, sol.pq, size):
            block[i][j] = Fraction(num, den)
        blocks.append(block)
    return _assemble_blocks(blocks)


@dataclass(frozen=True)
class SingleEigSolution:
    """Solution data for spectrum {lambda}: C = lambda*I + P(N), B0^-1 N B0 = P(N).

    The solution is exact: with lambda^(q-p) = 1, substituting M = lambda *
    Mtilde(N / lambda) reduces the coefficient solve to the lambda = 1 case,
    whose coefficients are rational.  Every entry of M and B0 is therefore a
    rational times a power of lambda; ``m_rational``/``b0_rational`` hold
    the rational parts, built from the same integer table on first read,
    and the float64 views are rounded from them.
    entry(M)[i][j] = m_rational[i][j] * lambda^(1+i-j),
    entry(B0)[i][j] = b0_rational[i][j] * lambda^(i-j).
    """

    lam: RootOfUnity
    block_sizes: tuple[int, ...]
    pq: ExponentPair
    m_matrix: np.ndarray
    b0: np.ndarray
    rational_coeffs: tuple[Fraction, ...]

    # the exact tables cost a Fraction per entry, which the float views do not need
    m_rational = functools.cached_property(_m_rational)
    b0_rational = functools.cached_property(_b0_rational)

    @property
    def n(self) -> int:
        return sum(self.block_sizes)

    def to_json(self) -> dict:
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
    the generalized binomial C(q/p, j) twisted by lam^(1-j).  B0 is
    assembled block by block from the integer table of the powers of the
    inverse series (1 + y)^(p/q) - 1.  Every float is one correctly rounded
    int/int division (as float(Fraction) is) times its power of lambda, so
    the views equal the rounded exact solution without a Fraction per entry.
    """
    block_sizes = tuple(sorted((int(b) for b in block_sizes), reverse=True))
    if not block_sizes or block_sizes[-1] < 1:
        raise ValueError(f"block sizes must be positive, got {block_sizes}")
    if rou_pow(lam, pq.q - pq.p).num != 0:
        raise ValueError(
            f"lambda = {lam} violates lambda^(q-p) = 1 for (p,q)=({pq.p},{pq.q})"
        )
    d = block_sizes[0]
    rational = _binomial_coeffs(pq, d)
    table = _inverse_series_powers(pq, d)
    twist = {e: rou_to_complex(rou_pow(lam, e)) for e in range(1 - d, 1)}
    # M is Toeplitz, M[i][j] = diagonals[j - i + d - 1], on every block, so
    # its blocks are the top-left corners of the largest one
    diagonals = np.array(
        [0] * d + [float(a) * twist[1 - s] if a else 0 for s, a in enumerate(rational, 1)],
        dtype=complex,
    )
    index = np.arange(d)
    m_full = diagonals[index - index[:, None] + d - 1]
    b_blocks = {}
    for size in set(block_sizes):
        block = np.zeros((size, size), dtype=complex)
        for i, j, num, den in _block_conjugator_entries(table, pq, size):
            block[i, j] = num / den * twist[i - j]
        b_blocks[size] = block
    return SingleEigSolution(
        lam,
        block_sizes,
        pq,
        block_diagonal([m_full[:size, :size] for size in block_sizes]),
        block_diagonal([b_blocks[size] for size in block_sizes]),
        tuple(rational),
    )


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
    if not is_invertible(b):
        raise ValueError("b is singular")
    c = np.linalg.solve(b, a @ b)
    residual = float(np.linalg.norm(c @ a - a @ c))
    bound = VERIFY_TOL * float(np.linalg.norm(a)) * max(float(np.linalg.norm(c)), 1.0)
    return ConjugateResult(c, residual, residual <= bound)

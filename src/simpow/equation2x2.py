"""The 2x2 word equation A^r B^s A^r' B^s' = eps * I.

Solution pairs split into the simultaneously triangularizable (ST) case
and the non-ST case, which is rigid: solutions exist only when
|r - r'| >= 2 and |s - s'| >= 2, and then A and B are conjugate to a
triangular pair built from roots of unity u, rho with a single coupling
constraint tying the off-diagonal parameters together.  This module
evaluates the word and its residual, tests a pair for ST, and classifies
and constructs the non-ST solution families.

Only 2x2 matrices are taken, and nothing here loads numpy:
construct_solution returns nested tuples of Python complex, and the word,
its powers and the ST test run on a small kernel of them (_mul, _power,
_inverse), dividing by exact powers of two where a determinant or norm
could overflow.  verify_word refuses any other size.
"""

from __future__ import annotations

import cmath
from contextlib import suppress
from dataclasses import dataclass
from itertools import islice
from math import frexp, gcd, inf, isfinite, ldexp, sqrt

from . import RANK_TOL, VERIFY_TOL
from .scalar import RootOfUnity, angle_to_complex, rou_pow, rou_to_complex

DEFAULT_MAX_REPORT = 100

# a 2x2 matrix ((a, b), (c, d)) of Python complex, row by row
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]
# a root of unity exp(2 pi i num/order) as its reduced angle (num, order)
Angle = tuple[int, int]


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

    def a_matrix(self) -> Matrix2:
        return ((self.u, self.v), (0j, 1.0 / self.u))

    def b_matrix(self) -> Matrix2:
        return ((self.rho, 0j), (self.sigma, 1.0 / self.rho))


def _matrix2(m) -> Matrix2:
    """A 2x2 matrix (nested sequences or an array) as nested tuples of complex."""
    (a, b), (c, d) = m
    return ((complex(a), complex(b)), (complex(c), complex(d)))


def _finite(m: Matrix2) -> bool:
    return all(map(cmath.isfinite, m[0] + m[1]))


def _mul(x: Matrix2, y: Matrix2) -> Matrix2:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _frobenius2(m: Matrix2) -> float:
    """|M|_F^2"""
    return sum(x * x for z in m[0] + m[1] for x in (z.real, z.imag))


def _times_power_of_two(m: Matrix2, k: int) -> Matrix2:
    """M * 2^k, exact for every part that stays a normal float; an
    OverflowError when one leaves the float range."""
    return tuple(tuple(complex(ldexp(z.real, k), ldexp(z.imag, k)) for z in row) for row in m)


def _binary_scaled(m: Matrix2) -> tuple[Matrix2, int] | None:
    """(M / 2^e, e), the largest real or imaginary part of an entry of
    M / 2^e in [1/2, 1), or None for M = 0.  Scaling by a power of two is
    exact, and so is every product and sum later formed of the result.  A
    largest part within 2^200 of 1 needs no scaling (e = 0): no product
    of four such parts overflows."""
    largest = max(abs(x) for z in m[0] + m[1] for x in (z.real, z.imag))
    if largest == 0.0:
        return None
    e = frexp(largest)[1]
    if abs(e) <= 200:
        return m, 0
    return _times_power_of_two(m, -e), e


def _inverse(m: Matrix2) -> Matrix2:
    """M^-1, or a ValueError where matrixcore.is_invertible would refuse M:
    sigma_min <= RANK_TOL sigma_max.  For S = M / 2^e (_binary_scaled),
    sigma_max sigma_min = |det S| and sigma_max^2 + sigma_min^2 = |S|_F^2,
    so sigma_min > RANK_TOL sigma_max is |det S| > RANK_TOL sigma_max^2 with
    sigma_max^2 = (|S|_F^2 + sqrt(|S|_F^4 - 4 |det S|^2)) / 2, none of which
    can overflow.  S^-1 is the adjugate of S over det S, and M^-1 is
    S^-1 / 2^e; an OverflowError when that leaves the float range."""
    scaled = _binary_scaled(m)
    if scaled is not None:
        s, e = scaled
        (a, b), (c, d) = s
        det = a * d - b * c
        size = abs(det)
        f2 = _frobenius2(s)
        sigma_max2 = (f2 + sqrt(max(f2 - 2 * size, 0.0) * (f2 + 2 * size))) / 2
        if size > RANK_TOL * sigma_max2:
            inverse = ((d / det, -b / det), (-c / det, a / det))
            return _times_power_of_two(inverse, -e) if e else inverse
    raise ValueError("negative power of a singular matrix")


def _power(m: Matrix2, e: int) -> Matrix2:
    """M^e for e != 0 by binary powering, the messages those of
    matrixcore.mat_int_pow: a singular M under a negative e, and a power
    with a non-finite entry."""
    overflow = f"the matrix power with exponent {e} overflows"
    if e < 0:
        try:
            m = _inverse(m)
        except OverflowError:
            raise ValueError(overflow) from None
    power, n = None, abs(e)
    while n:
        if n & 1:
            power = m if power is None else _mul(power, m)
        n >>= 1
        if n:
            m = _mul(m, m)
    if not _finite(power):
        raise ValueError(overflow)
    return power


def _require_2x2(n: int) -> None:
    """verify_word's refusal of an n x n pair, n != 2."""
    if n != 2:
        raise ValueError(f"the word equation is for 2x2 matrices, got {n}x{n}")


def verify_word(a, b, shape: WordShape) -> float:
    """Max-abs residual of A^r B^s A^r' B^s' - eps*I for a 2x2 pair, on
    the 2x2 kernel; a ValueError for any other size, before any power is
    formed, and when the word overflows."""
    _require_2x2(len(a))
    eps, (r, s, rp, sp) = shape.epsilon, shape.exponents
    a, b = _matrix2(a), _matrix2(b)
    powers = (_power(a, r), _power(b, s), _power(a, rp), _power(b, sp))
    (w, x), (y, z) = _mul(_mul(_mul(powers[0], powers[1]), powers[2]), powers[3])
    terms = (w - eps, x, y, z - eps)
    residual = inf  # also where max would skip a nan
    if all(map(cmath.isfinite, terms)):
        with suppress(OverflowError):  # an |entry| past the float range
            residual = max(map(abs, terms))
    if not isfinite(residual):
        raise ValueError(f"the word A^{r} B^{s} A^{rp} B^{sp} overflows")
    return residual


def is_simultaneously_triangularizable(a, b) -> bool:
    """For 2x2 pairs, ST is equivalent to det(AB - BA) = 0 (Shemesh, LAA 62, 1984).

    The test compares |det(AB - BA)| with VERIFY_TOL max(|A|_F |B|_F, 1)^2.
    It is made on A / 2^e and B / 2^f (_binary_scaled), where nothing can
    overflow: both sides shrink by 2^(2(e+f)) exactly, so the decision is
    the unscaled one wherever that is finite.  A zero matrix commutes with
    every matrix, so it is ST.
    """
    if len(a) != 2 or len(b) != 2:
        raise ValueError("ST test is for 2x2 matrices")
    a, b = _matrix2(a), _matrix2(b)
    if not (_finite(a) and _finite(b)):
        raise ValueError("matrix contains non-finite entries")
    scaled_a, scaled_b = _binary_scaled(a), _binary_scaled(b)
    if scaled_a is None or scaled_b is None:
        return True
    (a, e), (b, f) = scaled_a, scaled_b
    (p, q), (r, s) = _mul(a, b)
    (w, x), (y, z) = _mul(b, a)
    det = abs((p - w) * (s - z) - (q - x) * (r - y))
    # the floor 1 of the norm product, scaled too; capped at 2^1000, whose
    # square is already inf and so above every finite det
    floor = ldexp(1.0, min(-(e + f), 1000))
    scale = max(sqrt(_frobenius2(a)) * sqrt(_frobenius2(b)), floor)
    return det <= VERIFY_TOL * (scale * scale)


def _admissible_order(order: int, k: int) -> bool:
    """t^2 != 1 and phi_k(t) != 0 for a root of unity t of reduced order
    ``order``: the order is above 2 and does not divide 2k."""
    return order > 2 and (2 * k) % order != 0


def _candidates(d: int, sign: int, k: int) -> list[Angle]:
    """The roots t of t^d = sign (d != 0, sign = +-1) of admissible order
    for phi_k, by increasing angle: j/|d| for sign 1, (2j+1)/(2|d|) for -1."""
    den, first, step = (abs(d), 0, 1) if sign == 1 else (2 * abs(d), 1, 2)
    reduced = ((num // g, den // g) for num in range(first, den, step) for g in [gcd(num, den)])
    return [t for t in reduced if _admissible_order(t[1], k)]


def _angle_key(t: Angle, k: int, n: int) -> int:
    """n times the angle of t^(2k), an exact integer mod n for n a multiple of t's order."""
    num, order = t
    return num * (n // order) * 2 * k % n


def _excluded_keys(u: Angle, shape: WordShape, n: int) -> tuple[int, int]:
    """The two keys _angle_key(rho, s, n) that fail with u (n even, a
    multiple of the orders of u and rho).  u^2r = -rho^2s and
    u^2r rho^2s = -1 both say angle(rho^2s) = +-(angle(u^2r) - 1/2) mod 1,
    one congruence mod n up to sign."""
    x = (_angle_key(u, shape.r, n) - n // 2) % n
    return x, -x % n


@dataclass
class SolutionFamily:
    """One alpha-branch of the non-ST solution classification.

    ``u_candidates`` and ``rho_candidates`` are reduced angles (num, order);
    ``pairs`` lists admissible (u, rho) combinations (possibly truncated)
    as RootOfUnity; sigma*v for each pair follows from the coupling rule.
    """

    alpha: int
    u_candidates: tuple[Angle, ...]
    rho_candidates: tuple[Angle, ...]
    pairs: tuple[tuple[RootOfUnity, RootOfUnity], ...]
    shape: WordShape
    truncated: bool = False

    def to_json(self) -> dict:
        # each factor of sigma*v depends on u alone or on rho alone: it is
        # computed once per angle that the listed pairs use
        r, s = self.shape.r, self.shape.s
        angles = [((u.num, u.order), (rho.num, rho.order)) for u, rho in self.pairs]
        u_factors = {u: _candidate_factors(u, r) for u in {u for u, _ in angles}}
        rho_factors = {rho: _candidate_factors(rho, s) for rho in {rho for _, rho in angles}}
        return {
            "alpha": self.alpha,
            "u": [f"{num}/{order}" for num, order in self.u_candidates],
            "rho": [f"{num}/{order}" for num, order in self.rho_candidates],
            "pairs": [
                {
                    "u": f"{u[0]}/{u[1]}",
                    "rho": f"{rho[0]}/{rho[1]}",
                    "sigma_v": _complex_pair(_coupling(u_factors[u], rho_factors[rho])),
                }
                for u, rho in angles
            ],
            "coupling": "sigma*v = (-1 - u^(2r) rho^(2s)) / (u^r phi_r(u) rho^s phi_s(rho))",
            "truncated": self.truncated,
        }


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _candidate_factors(t: Angle, k: int) -> tuple[complex, complex]:
    """(t^(2k), t^k phi_k(t)) for a root of unity t with t^2 != 1, from
    exact angles: t^k phi_k(t) = t (1 - t^(2k)) / (1 - t^2) is the
    off-diagonal factor of the k-th power of [[t, 1], [0, 1/t]]."""
    num, order = t
    t2k, t2 = angle_to_complex(num * 2 * k, order), angle_to_complex(2 * num, order)
    return t2k, angle_to_complex(num, order) * (1.0 - t2k) / (1.0 - t2)


def _coupling(u_factors: tuple[complex, complex], rho_factors: tuple[complex, complex]) -> complex:
    """sigma*v = (-1 - u^2r rho^2s) / (u^r phi_r(u) rho^s phi_s(rho)) from
    the _candidate_factors of u and rho."""
    (u2r, u_phi), (rho2s, rho_phi) = u_factors, rho_factors
    return (-1.0 - u2r * rho2s) / (u_phi * rho_phi)


def _coupling_product(shape: WordShape, u: RootOfUnity, rho: RootOfUnity) -> complex:
    """sigma*v determined by (u, rho) for the non-ST solution family."""
    return _coupling(
        _candidate_factors((u.num, u.order), shape.r),
        _candidate_factors((rho.num, rho.order), shape.s),
    )


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
    filtered by the two non-degeneracy conditions, at most max_report >= 1 per family.
    """
    if max_report < 1:
        raise ValueError(f"max_report must be >= 1, got {max_report}")
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
    n = 2 * abs(dr) * abs(ds)  # even, and a multiple of every candidate's order
    families = []
    for alpha in (1, -1):
        u_cands = _candidates(dr, alpha, shape.r)
        rho_cands = _candidates(ds, -alpha * shape.epsilon, shape.s)
        rho_keys = [_angle_key(rho, shape.s, n) for rho in rho_cands]
        admitted = (
            (u, rho)
            for u in u_cands
            for excluded in [_excluded_keys(u, shape, n)]
            for rho, key in zip(rho_cands, rho_keys)
            if key not in excluded
        )
        pairs = list(islice(admitted, max_report + 1))  # one past the cap marks truncation
        if pairs:
            listed = pairs[:max_report]
            roots = {t: RootOfUnity(*t) for t in {t for pair in listed for t in pair}}
            families.append(SolutionFamily(
                alpha, tuple(u_cands), tuple(rho_cands),
                tuple((roots[u], roots[rho]) for u, rho in listed), shape,
                truncated=len(pairs) > max_report,
            ))
    if not families:
        return ClassifyResult((), empty_reason="both alpha branches are empty")
    return ClassifyResult(tuple(families))


def construct_solution(
    shape: WordShape, u: RootOfUnity, rho: RootOfUnity, v: complex
) -> tuple[Matrix2, Matrix2]:
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
    if not _admissible_order(u.order, shape.r):
        raise ValueError(f"phi_r(u) = 0 for u = {u}: A^r would be +-I")
    if not _admissible_order(rho.order, shape.s):
        raise ValueError(f"phi_s(rho) = 0 for rho = {rho}: B^s would be +-I")
    n = 2 * u.order * rho.order
    if _angle_key((rho.num, rho.order), shape.s, n) in _excluded_keys((u.num, u.order), shape, n):
        raise ValueError(f"(u, rho) = ({u}, {rho}) fails the non-degeneracy conditions")
    sigma = _coupling_product(shape, u, rho) / v
    pair = TriangularPair(rou_to_complex(u), v, rou_to_complex(rho), sigma)
    return pair.a_matrix(), pair.b_matrix()

"""The 2x2 word equation A^r B^s A^r' B^s' = eps * I.

Solution pairs split into the simultaneously triangularizable (ST) case
and the non-ST case, which is rigid: solutions exist only when
|r - r'| >= 2 and |s - s'| >= 2, and then A and B are conjugate to a
triangular pair built from roots of unity u, rho with a single coupling
constraint tying the off-diagonal parameters together.  This module
evaluates the word and its residual, tests a pair for ST, and classifies
and constructs the non-ST solution families.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isfinite

import numpy as np

from .matrixcore import VERIFY_TOL, as_matrix, mat_int_pow
from .scalar import RootOfUnity, phi_k, rou_mul, rou_pow, rou_to_complex

DEFAULT_MAX_REPORT = 100


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

    def a_matrix(self) -> np.ndarray:
        return np.array([[self.u, self.v], [0.0, 1.0 / self.u]], dtype=complex)

    def b_matrix(self) -> np.ndarray:
        return np.array([[self.rho, 0.0], [self.sigma, 1.0 / self.rho]], dtype=complex)


def word_value(a: np.ndarray, b: np.ndarray, shape: WordShape) -> np.ndarray:
    r, s, rp, sp = shape.exponents
    return mat_int_pow(a, r) @ mat_int_pow(b, s) @ mat_int_pow(a, rp) @ mat_int_pow(b, sp)


def verify_word(a: np.ndarray, b: np.ndarray, shape: WordShape) -> float:
    """Max-abs residual of A^r B^s A^r' B^s' - eps*I; a ValueError when the word overflows."""
    a, b = as_matrix(a), as_matrix(b)
    n = a.shape[0]
    w = word_value(a, b, shape)
    residual = float(np.max(np.abs(w - shape.epsilon * np.eye(n))))
    if not isfinite(residual):
        r, s, rp, sp = shape.exponents
        raise ValueError(f"the word A^{r} B^{s} A^{rp} B^{sp} overflows")
    return residual


def is_simultaneously_triangularizable(a: np.ndarray, b: np.ndarray) -> bool:
    """For 2x2 pairs, ST is equivalent to det(AB - BA) = 0.

    The test compares |det(AB - BA)| with VERIFY_TOL (|A|_F |B|_F)^2; when
    either side overflows it decides nothing, which is a ValueError.
    """
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError("ST test is for 2x2 matrices")
    det = abs(np.linalg.det(a @ b - b @ a))
    scale = max(float(np.linalg.norm(a)) * float(np.linalg.norm(b)), 1.0)
    if not isfinite(det) or not isfinite(scale * scale):
        raise ValueError("the ST test overflows: det(AB - BA) or (|A|_F |B|_F)^2 is not finite")
    return bool(det <= VERIFY_TOL * scale**2)


def _roots_with_power_sign(exponent: int, sign: int) -> list[RootOfUnity]:
    """All u with u^exponent = sign (sign = +-1), exponent != 0."""
    m = abs(exponent)
    if sign == 1:
        return [RootOfUnity(j, m) for j in range(m)]
    return [RootOfUnity(2 * j + 1, 2 * m) for j in range(m)]


def _phi_vanishes(u: RootOfUnity, k: int) -> bool:
    """phi_k(u) = 0 for a root of unity u, exactly: u^2 != 1 and u^(2k) = 1."""
    if u.order <= 2:
        return False
    return rou_pow(u, 2 * k).num == 0


def _passes_pair_constraints(u: RootOfUnity, rho: RootOfUnity, shape: WordShape) -> bool:
    """Exact angle form of u^2r + rho^2s != 0 and 1 + u^2r rho^2s != 0."""
    u2r = rou_pow(u, 2 * shape.r)
    rho2s = rou_pow(rho, 2 * shape.s)
    half = RootOfUnity(1, 2)
    if u2r == rou_mul(rho2s, half):
        return False
    if rou_mul(u2r, rho2s) == half:
        return False
    return True


@dataclass
class SolutionFamily:
    """One alpha-branch of the non-ST solution classification.

    ``pairs`` lists admissible (u, rho) combinations (possibly truncated);
    sigma*v for each pair follows from the coupling rule.
    """

    alpha: int
    u_candidates: tuple[RootOfUnity, ...]
    rho_candidates: tuple[RootOfUnity, ...]
    pairs: tuple[tuple[RootOfUnity, RootOfUnity], ...]
    shape: WordShape
    truncated: bool = False

    def sigma_v(self, u: RootOfUnity, rho: RootOfUnity) -> complex:
        return _coupling_product(self.shape, u, rho)

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "u": [str(u) for u in self.u_candidates],
            "rho": [str(rho) for rho in self.rho_candidates],
            "pairs": [
                {
                    "u": str(u),
                    "rho": str(rho),
                    "sigma_v": _complex_pair(self.sigma_v(u, rho)),
                }
                for u, rho in self.pairs
            ],
            "coupling": "sigma*v = (-1 - u^(2r) rho^(2s)) / (u^r phi_r(u) rho^s phi_s(rho))",
            "truncated": self.truncated,
        }


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _coupling_product(shape: WordShape, u: RootOfUnity, rho: RootOfUnity) -> complex:
    """sigma*v determined by (u, rho) for the non-ST solution family."""
    uc, rc = rou_to_complex(u), rou_to_complex(rho)
    cross = rou_mul(rou_pow(u, 2 * shape.r), rou_pow(rho, 2 * shape.s))
    numerator = -1.0 - rou_to_complex(cross)
    denominator = (
        rou_to_complex(rou_pow(u, shape.r))
        * phi_k(uc, shape.r)
        * rou_to_complex(rou_pow(rho, shape.s))
        * phi_k(rc, shape.s)
    )
    return numerator / denominator


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
    families = []
    for alpha in (1, -1):
        u_cands = [
            u
            for u in _roots_with_power_sign(dr, alpha)
            if u.order > 2 and not _phi_vanishes(u, shape.r)
        ]
        rho_cands = [
            rho
            for rho in _roots_with_power_sign(ds, -alpha * shape.epsilon)
            if rho.order > 2 and not _phi_vanishes(rho, shape.s)
        ]
        pairs = []
        truncated = False
        for u in u_cands:
            for rho in rho_cands:
                if not _passes_pair_constraints(u, rho, shape):
                    continue
                if len(pairs) >= max_report:
                    truncated = True
                    break
                pairs.append((u, rho))
            if truncated:
                break
        if pairs:
            families.append(
                SolutionFamily(
                    alpha=alpha,
                    u_candidates=tuple(u_cands),
                    rho_candidates=tuple(rho_cands),
                    pairs=tuple(pairs),
                    shape=shape,
                    truncated=truncated,
                )
            )
    if not families:
        return ClassifyResult((), empty_reason="both alpha branches are empty")
    return ClassifyResult(tuple(families))


def construct_solution(
    shape: WordShape, u: RootOfUnity, rho: RootOfUnity, v: complex
) -> tuple[np.ndarray, np.ndarray]:
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
    if _phi_vanishes(u, shape.r):
        raise ValueError(f"phi_r(u) = 0 for u = {u}: A^r would be +-I")
    if _phi_vanishes(rho, shape.s):
        raise ValueError(f"phi_s(rho) = 0 for rho = {rho}: B^s would be +-I")
    if not _passes_pair_constraints(u, rho, shape):
        raise ValueError(f"(u, rho) = ({u}, {rho}) fails the non-degeneracy conditions")
    sigma = _coupling_product(shape, u, rho) / v
    pair = TriangularPair(rou_to_complex(u), v, rou_to_complex(rho), sigma)
    return pair.a_matrix(), pair.b_matrix()

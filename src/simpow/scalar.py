"""Exact scalar arithmetic: roots of unity and modular inverses.

Roots of unity are stored as reduced rational angles k/m, meaning the
complex number exp(2*pi*i*k/m).  All angle arithmetic is exact integer
arithmetic; conversion to floating point happens only in
:func:`angle_to_complex`, which :func:`rou_to_complex` calls.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RootOfUnity:
    """The number exp(2*pi*i*num/order), stored as a reduced angle.

    The constructor reduces ``num/order`` modulo 1, so the multiplicative
    order of the represented number is exactly ``order``.
    """

    num: int
    order: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        num = self.num % self.order
        g = math.gcd(num, self.order)
        if g != 1 or num != self.num:  # a reduced angle is stored as given
            object.__setattr__(self, "num", num // g)
            object.__setattr__(self, "order", self.order // g)

    @property
    def angle(self) -> Fraction:
        return Fraction(self.num, self.order)

    def __str__(self) -> str:
        return f"{self.num}/{self.order}"

    @classmethod
    def from_str(cls, text: str) -> "RootOfUnity":
        num, _, order = text.partition("/")
        return cls(int(num), int(order or "1"))


@dataclass(frozen=True)
class ExponentPair:
    """A coprime exponent pair (p, q) with |p| + |q| > 2."""

    p: int
    q: int

    def __post_init__(self):
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(f"p={self.p} and q={self.q} are not coprime")
        if abs(self.p) + abs(self.q) <= 2:
            raise ValueError(f"need |p|+|q| > 2, got p={self.p}, q={self.q}")

    def swapped(self) -> "ExponentPair":
        return ExponentPair(self.q, self.p)


def rou_pow(a: RootOfUnity, e: int) -> RootOfUnity:
    """Raise a root of unity to any integer power (e reduced mod order first)."""
    return RootOfUnity(a.num * (e % a.order), a.order)


def angle_to_complex(num: int, order: int) -> complex:
    """exp(2*pi*i*num/order) for order >= 1, evaluated from the reduced
    angle: 2*pi*3/9 and 2*pi/3 can differ in the last bit, so every form
    of one angle gives the bits of RootOfUnity(num, order)."""
    num %= order
    g = math.gcd(num, order)
    theta = 2.0 * math.pi * (num // g) / (order // g)
    return complex(math.cos(theta), math.sin(theta))


def rou_to_complex(a: RootOfUnity) -> complex:
    """Evaluate the angle as a complex number on the unit circle."""
    return angle_to_complex(a.num, a.order)


def mod_inverse(a: int, modulus: int) -> int:
    """Inverse of a modulo ``modulus`` in [0, modulus); raises ValueError if none."""
    if modulus < 1:
        raise ValueError(f"modulus must be >= 1, got {modulus}")
    if modulus == 1:
        return 0
    g = math.gcd(a % modulus, modulus)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {modulus} (gcd={g})")
    return pow(a % modulus, -1, modulus)


@functools.lru_cache(maxsize=128)
def _cycle_orders(p: int, q: int) -> tuple[int, ...]:
    """|q^t - p^t| for t = 1, 2, ..., up to the last one within 2^53."""
    orders = []
    for t in itertools.count(1):
        order = abs(q**t - p**t)
        if order > 2**53:
            return tuple(orders)
        orders.append(order)


def _admissible_roots(z: complex, pq: ExponentPair, n: int, tol: float) -> Iterator[RootOfUnity]:
    """The admissible roots of unity within ``tol`` of z, smallest order
    first, each built only when the iterator reaches it.

    A nonzero eigenvalue of an n x n matrix with A^p similar to A^q lies
    on a successor cycle of some length t <= n, so it satisfies
    lambda^Q_t = 1 with Q_t = |q^t - p^t| (never 0 for an ExponentPair).
    For each t the one candidate w is the Q_t-th root of unity nearest in
    angle to z, d turns away from its angle.  |z - w|^2 = (|z| - 1)^2 +
    4 |z| sin^2(pi d) with |d| <= 1/2, so 4 sqrt|z| |d| <= |z - w| <=
    ||z| - 1| + 2 pi |d|: a candidate is refused or kept by those bounds,
    widened by a rounding slack, and only between them is |z - w| taken
    from its reduced angle by angle_to_complex, as rou_to_complex
    evaluates it.  The orders are exact integers, with no bound on their
    lcm; Q_t grows with t, and past 2^53 the angle of a double no longer
    tells its Q_t-th roots apart, so larger t propose nothing.
    """
    theta = cmath.phase(z) / (2.0 * math.pi)
    size = abs(z)
    # bounds the rounding of d, of the distance and of the angle of angle_to_complex
    slack = 1e-13 * (1.0 + size)
    refuse = (tol + slack) / (4.0 * math.sqrt(size)) if size else math.inf
    keep = tol - slack - abs(size - 1.0)
    near = set()
    for order in _cycle_orders(pq.p, pq.q)[:n]:
        turns = theta * order
        num = round(turns)
        d = abs(turns - num) / order
        if d > refuse or 2.0 * math.pi * d > keep and abs(z - angle_to_complex(num, order)) > tol:
            continue
        num %= order
        g = math.gcd(num, order)
        near.add((order // g, num // g))
    return (RootOfUnity(num, den) for den, num in sorted(near))

"""Multiset spectra and the integer action lambda -> successor(lambda).

A spectrum here is a multiset of eigenvalues that are either 0 or roots of
unity.  The eigenvalue 0 is encoded as ``None``; everything else is a
:class:`~simpow.scalar.RootOfUnity`.  All comparisons are exact integer
angle arithmetic; no tolerances appear in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .scalar import ExponentPair, RootOfUnity, mod_inverse, rou_pow

Eigenvalue = RootOfUnity | None  # None encodes the eigenvalue 0


def _sort_key(ev: Eigenvalue):
    """0 first, then by increasing angle.  num / order is correctly rounded,
    so it is monotone in the exact angle and decides a comparison with one
    float compare; only two angles whose orders multiply to more than 2^52
    can share a double and fall through to the exact angle."""
    return (0,) if ev is None else (1, ev.num / ev.order, ev.angle)


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalues (0 or roots of unity) with positive multiplicities.

    Items are canonicalized: duplicates merged, sorted with 0 first and
    then by increasing angle.  Equality is therefore exact multiset
    equality.
    """

    items: tuple[tuple[Eigenvalue, int], ...]
    # successor_walk(self, pq) by pq, so that each fact about U is walked once
    _walks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        merged: dict[Eigenvalue, int] = {}
        for ev, mult in self.items:
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1, got {mult}")
            merged[ev] = merged.get(ev, 0) + mult
        canon = tuple(sorted(merged.items(), key=lambda it: _sort_key(it[0])))
        object.__setattr__(self, "items", canon)

    @property
    def zero_multiplicity(self) -> int:
        return sum(m for ev, m in self.items if ev is None)

    def nonzero_items(self) -> tuple[tuple[RootOfUnity, int], ...]:
        return tuple((ev, m) for ev, m in self.items if ev is not None)

    def to_json(self) -> list:
        return [
            {"angle": "zero" if ev is None else str(ev), "mult": m}
            for ev, m in self.items
        ]


def successor(lam: RootOfUnity, pq: ExponentPair) -> RootOfUnity:
    """The unique root of unity mu with mu^p = lam^q.

    Uniqueness needs the order of lam to be coprime to p*q; otherwise
    ValueError is raised.
    """
    if math.gcd(lam.order, abs(pq.p * pq.q)) != 1:
        raise ValueError(f"order {lam.order} of {lam} is not coprime to p*q = {pq.p * pq.q}")
    p_inv = mod_inverse(pq.p, lam.order)
    return rou_pow(lam, pq.q * p_inv)


@dataclass(frozen=True)
class Orbit:
    """One successor-cycle, listed from its smallest angle, with its multiplicity."""

    members: tuple[RootOfUnity, ...]
    multiplicity: int

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class OrbitDecomposition:
    """Partition of the nonzero distinct eigenvalues into successor-cycles."""

    orbits: tuple[Orbit, ...]
    delta: int
    successor_map: dict[RootOfUnity, RootOfUnity]

    def to_json(self) -> dict:
        return {
            "orbits": [
                {"members": [str(ev) for ev in orb.members], "multiplicity": orb.multiplicity}
                for orb in self.orbits
            ],
            "delta": self.delta,
            "permutation": {str(a): str(b) for a, b in self.successor_map.items()},
        }


@dataclass(frozen=True)
class SuccessorWalk:
    """successor(lambda) for the distinct nonzero eigenvalues of U
    (``successors``, empty when an order is not coprime to p*q): ``closed``
    when it permutes them, ``uniform`` when it also keeps every
    multiplicity, which is exactly U^p = U^q.
    """

    closed: bool
    uniform: bool
    successors: dict[RootOfUnity, RootOfUnity]


def successor_walk(u: SpectrumMultiset, pq: ExponentPair) -> SuccessorWalk:
    """The successor action on u, walked once per spectrum and pair.

    It decides U^p = U^q (README, Verdict): equal powers need orders
    coprime to p*q, then x -> x^p is injective and lambda^q lies in U^p
    only as successor(lambda)^p.  A negative power of 0 is an error.
    """
    if u.zero_multiplicity and min(pq.p, pq.q) < 0:
        raise ValueError("negative power of a spectrum containing 0")
    walk = u._walks.get(pq)
    if walk is None:
        mult_of = dict(u.nonzero_items())
        coprime = all(math.gcd(ev.order, pq.p * pq.q) == 1 for ev in mult_of)
        succ = {ev: successor(ev, pq) for ev in mult_of} if coprime else {}
        closed = coprime and all(mu in mult_of for mu in succ.values())
        uniform = closed and all(mult_of[mu] == mult_of[ev] for ev, mu in succ.items())
        walk = u._walks[pq] = SuccessorWalk(closed, uniform, succ)
    return walk


def powers_equal(u: SpectrumMultiset, pq: ExponentPair) -> bool:
    """True iff U^p and U^q are equal as multisets."""
    return successor_walk(u, pq).uniform


def orbit_decomposition(u: SpectrumMultiset, pq: ExponentPair) -> OrbitDecomposition:
    """Decompose the nonzero part of u into the cycles of successor_walk.

    Requires U^p = U^q; zero eigenvalues are skipped (they do not take part
    in the action).  Every member of one cycle carries the same multiplicity.
    """
    walk = successor_walk(u, pq)
    if not walk.uniform:
        raise ValueError("U^p != U^q: spectrum admits no orbit structure")
    # u lists eigenvalues by increasing angle, so each cycle is entered at
    # its smallest member and the cycles come out in order of it
    orbits = []
    seen: set[RootOfUnity] = set()
    for start, mult in u.nonzero_items():
        if start in seen:
            continue
        cycle = [start]
        while (nxt := walk.successors[cycle[-1]]) != start:
            cycle.append(nxt)
        seen.update(cycle)
        orbits.append(Orbit(tuple(cycle), mult))
    delta = math.lcm(*(len(orb) for orb in orbits)) if orbits else 1
    return OrbitDecomposition(tuple(orbits), delta, dict(walk.successors))

"""Multiset spectra and the integer action lambda -> successor(lambda).

A spectrum here is a multiset of eigenvalues that are either 0 or roots of
unity.  The eigenvalue 0 is encoded as ``None``; everything else is a
:class:`~simpow.scalar.RootOfUnity`.  All comparisons are exact integer
angle arithmetic; no tolerances appear in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .scalar import ExponentPair, RootOfUnity, mod_inverse, rou_pow

Eigenvalue = RootOfUnity | None  # None encodes the eigenvalue 0


def _sort_key(ev: Eigenvalue):
    return (0, Fraction(0)) if ev is None else (1, ev.angle)


@dataclass(frozen=True)
class SpectrumMultiset:
    """Eigenvalues (0 or roots of unity) with positive multiplicities.

    Items are canonicalized: duplicates merged, sorted with 0 first and
    then by increasing angle.  Equality is therefore exact multiset
    equality.
    """

    items: tuple[tuple[Eigenvalue, int], ...]

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

    def distinct(self) -> "SpectrumMultiset":
        return SpectrumMultiset(tuple((ev, 1) for ev, _ in self.items))

    def to_json(self) -> list:
        return [
            {"angle": "zero" if ev is None else str(ev), "mult": m}
            for ev, m in self.items
        ]


def multiset_power(u: SpectrumMultiset, e: int) -> SpectrumMultiset:
    """Raise every eigenvalue to the e-th power, merging collisions.

    0^e is 0 for e > 0; e = 0 maps everything (including 0, since A^0 = I)
    to 1.  A negative power of a multiset containing 0 is an error.
    """
    if e < 0 and u.zero_multiplicity > 0:
        raise ValueError("negative power of a spectrum containing 0")
    pairs = []
    for ev, mult in u.items:
        if e == 0:
            pairs.append((RootOfUnity(0, 1), mult))
        elif ev is None:
            pairs.append((None, mult))
        else:
            pairs.append((rou_pow(ev, e), mult))
    return SpectrumMultiset(tuple(pairs))


def powers_equal(u: SpectrumMultiset, pq: ExponentPair) -> bool:
    """True iff U^p and U^q are equal as multisets."""
    return multiset_power(u, pq.p) == multiset_power(u, pq.q)


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
    successor_map: dict[RootOfUnity, RootOfUnity] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "orbits": [
                {"members": [str(ev) for ev in orb.members], "multiplicity": orb.multiplicity}
                for orb in self.orbits
            ],
            "delta": self.delta,
            "permutation": {str(a): str(b) for a, b in self.successor_map.items()},
        }


def orbit_decomposition(u: SpectrumMultiset, pq: ExponentPair) -> OrbitDecomposition:
    """Decompose the nonzero part of u into successor-cycles.

    Requires powers_equal(u, pq); zero eigenvalues are skipped (they do not
    take part in the action).  Every member of one cycle must carry the
    same multiplicity.
    """
    if not powers_equal(u, pq):
        raise ValueError("U^p != U^q: spectrum admits no orbit structure")
    mult_of = dict(u.nonzero_items())
    succ_map: dict[RootOfUnity, RootOfUnity] = {}
    orbits = []
    seen: set[RootOfUnity] = set()
    for start, _ in u.nonzero_items():
        if start in seen:
            continue
        cycle = [start]
        current = start
        while True:
            nxt = successor(current, pq)
            if nxt not in mult_of:
                raise ValueError(f"successor {nxt} of {current} is missing from the spectrum")
            succ_map[current] = nxt
            if nxt == start:
                break
            cycle.append(nxt)
            current = nxt
        seen.update(cycle)
        mults = {mult_of[ev] for ev in cycle}
        if len(mults) > 1:
            raise ValueError(
                f"orbit {[str(ev) for ev in cycle]} has mixed multiplicities {sorted(mults)}"
            )
        smallest = min(range(len(cycle)), key=lambda i: cycle[i].angle)
        members = tuple(cycle[smallest:] + cycle[:smallest])
        orbits.append(Orbit(members, mults.pop()))
    orbits.sort(key=lambda orb: orb.members[0].angle)
    delta = math.lcm(*(len(orb) for orb in orbits)) if orbits else 1
    return OrbitDecomposition(tuple(orbits), delta, succ_map)

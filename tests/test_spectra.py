import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpow.scalar import ExponentPair, RootOfUnity, rou_pow
from simpow.spectra import (
    SpectrumMultiset,
    multiset_power,
    orbit_decomposition,
    powers_equal,
    successor,
)


def spectrum(*pairs):
    return SpectrumMultiset(pairs)


R = RootOfUnity


class TestSpectrumMultiset:
    def test_merges_duplicates(self):
        u = spectrum((R(1, 5), 1), (R(1, 5), 2))
        assert u.items == ((R(1, 5), 3),)

    def test_rejects_nonpositive_multiplicity(self):
        with pytest.raises(ValueError):
            spectrum((R(1, 5), 0))

    def test_zero_sorted_first(self):
        u = spectrum((R(1, 5), 1), (None, 2))
        assert u.items[0] == (None, 2)

    def test_json_round_trip(self):
        # to_json loses nothing: its angle strings parse back to the same multiset
        u = spectrum((None, 1), (R(1, 5), 2), (R(4, 5), 1))
        parsed = tuple(
            (None if item["angle"] == "zero" else R.from_str(item["angle"]), item["mult"])
            for item in u.to_json()
        )
        assert SpectrumMultiset(parsed) == u


class TestMultisetPower:
    def test_collapse_to_one(self):
        u = spectrum((R(1, 5), 1), (R(4, 5), 1))
        assert multiset_power(u, 5) == spectrum((R(0, 1), 2))

    def test_identity_power(self):
        u = spectrum((R(1, 5), 1), (R(4, 5), 1))
        assert multiset_power(u, 1) == u

    def test_angle_doubling(self):
        u = spectrum((R(1, 5), 1), (R(4, 5), 1))
        assert multiset_power(u, 2) == spectrum((R(2, 5), 1), (R(3, 5), 1))

    def test_zero_stays_zero(self):
        u = spectrum((None, 2), (R(1, 3), 1))
        assert multiset_power(u, 3) == spectrum((None, 2), (R(0, 1), 1))

    def test_negative_power_of_zero_fails(self):
        with pytest.raises(ValueError):
            multiset_power(spectrum((None, 1)), -1)

    def test_zeroth_power_gives_ones(self):
        u = spectrum((None, 1), (R(1, 3), 2))
        assert multiset_power(u, 0) == spectrum((R(0, 1), 3))


class TestPowersEqual:
    def test_ones_fixed(self, pq23):
        assert powers_equal(spectrum((R(0, 1), 3)), pq23)

    def test_fifth_roots(self, pq23):
        assert powers_equal(spectrum((R(1, 5), 1), (R(4, 5), 1)), pq23)

    def test_order_not_coprime(self, pq23):
        assert not powers_equal(spectrum((R(1, 3), 1)), pq23)


class TestSuccessor:
    def test_one_is_fixed(self, pq23):
        assert successor(R(0, 1), pq23) == R(0, 1)

    def test_fifth_root(self, pq23):
        assert successor(R(1, 5), pq23) == R(4, 5)

    def test_order_divides_q(self, pq23):
        with pytest.raises(ValueError, match="not coprime to p\\*q"):
            successor(R(1, 3), pq23)

    def test_defining_property(self, pq23):
        # mu^p = lam^q exactly on angles
        lam = R(2, 7)
        mu = successor(lam, pq23)
        assert rou_pow(mu, pq23.p) == rou_pow(lam, pq23.q)


class TestOrbitDecomposition:
    def test_trivial_spectrum(self, pq23):
        od = orbit_decomposition(spectrum((R(0, 1), 2)), pq23)
        assert len(od.orbits) == 1
        assert od.orbits[0].members == (R(0, 1),)
        assert od.delta == 1

    def test_single_cycle(self, pq23):
        od = orbit_decomposition(spectrum((R(1, 5), 1), (R(4, 5), 1)), pq23)
        assert len(od.orbits) == 1
        assert od.orbits[0].members == (R(1, 5), R(4, 5))
        assert od.delta == 2

    def test_two_cycles(self, pq23):
        u = spectrum((R(1, 5), 1), (R(4, 5), 1), (R(2, 5), 1), (R(3, 5), 1))
        od = orbit_decomposition(u, pq23)
        assert [o.members for o in od.orbits] == [
            (R(1, 5), R(4, 5)),
            (R(2, 5), R(3, 5)),
        ]
        assert od.delta == 2

    def test_hypothesis_violated(self, pq23):
        with pytest.raises(ValueError, match="spectrum admits no orbit structure"):
            orbit_decomposition(spectrum((R(1, 3), 1)), pq23)

    def test_mixed_multiplicities_rejected(self, pq23):
        # same orbit, different multiplicities: U^p = U^q already fails
        with pytest.raises(ValueError, match="spectrum admits no orbit structure"):
            orbit_decomposition(spectrum((R(1, 5), 1), (R(4, 5), 2)), pq23)

    def test_zero_carried_outside_orbits(self, pq23):
        od = orbit_decomposition(spectrum((None, 3), (R(1, 5), 1), (R(4, 5), 1)), pq23)
        assert len(od.orbits) == 1

    def test_json(self, pq23):
        od = orbit_decomposition(spectrum((R(1, 5), 2), (R(4, 5), 2)), pq23)
        data = od.to_json()
        assert data["delta"] == 2
        assert data["orbits"][0]["multiplicity"] == 2
        assert data["permutation"]["1/5"] == "4/5"


@st.composite
def cycle_spectra(draw):
    """Spectra built as genuine successor-cycles, plus their exponent pair."""
    p = draw(st.sampled_from([1, 2, 3, -2, 5]))
    q = draw(st.sampled_from([3, 7, 4, 5]))
    if math.gcd(abs(p), abs(q)) != 1 or abs(p) + abs(q) <= 2 or p == q:
        return None
    pq = ExponentPair(p, q)
    order = draw(st.sampled_from([1, 5, 11, 13, 19, 95]))
    if math.gcd(order, abs(p * q)) != 1:
        return None
    k = draw(st.integers(min_value=0, max_value=order - 1))
    mult = draw(st.integers(min_value=1, max_value=3))
    lam = RootOfUnity(k, order)
    cycle = [lam]
    while True:
        nxt = successor(cycle[-1], pq)
        if nxt == lam:
            break
        cycle.append(nxt)
    return SpectrumMultiset(tuple((ev, mult) for ev in cycle)), pq


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=cycle_spectra())
def test_orbit_cycle_closure(data):
    if data is None:
        return
    u, pq = data
    od = orbit_decomposition(u, pq)
    for orbit in od.orbits:
        # applying successor len(orbit) times returns the start, exactly
        current = orbit.members[0]
        for _ in range(len(orbit)):
            current = successor(current, pq)
        assert current == orbit.members[0]
        # the order of every member divides p^delta - q^delta
        exponent = pq.p**od.delta - pq.q**od.delta
        for ev in orbit.members:
            assert rou_pow(ev, exponent) == RootOfUnity(0, 1)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=cycle_spectra())
def test_power_map_injective_on_distinct(data):
    if data is None:
        return
    u, pq = data
    if not powers_equal(u, pq):
        return
    distinct = [ev for ev, _ in u.nonzero_items()]
    for exponent in (pq.p, pq.q):
        images = {rou_pow(ev, exponent) for ev in distinct}
        assert len(images) == len(distinct)

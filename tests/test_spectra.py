import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpow.scalar import ExponentPair, RootOfUnity, rou_pow
from simpow.similarity import FailureReason, JordanEntry, JordanSpec, powers_similar_general
from simpow.spectra import (
    SpectrumMultiset,
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

    def test_sorted_by_exact_angle(self):
        # the sort keys on the double num / order first; above order 2^26
        # distinct angles can share a double, and there the exact angle
        # decides: the items come out as a Fraction-keyed sort orders them
        rng = random.Random(21)
        collisions = 0
        for _ in range(2000):
            evs = []
            for _ in range(rng.randint(1, 12)):
                if rng.random() < 0.1:
                    evs.append(None)
                elif rng.random() < 0.4:
                    evs.append(R(rng.randrange(64), rng.randint(1, 64)))
                else:
                    order = rng.randint(2**26 + 1, 2 ** rng.randint(27, 62))
                    num = rng.randrange(order)
                    evs += [R(num, order), R(num + 1, order)][: rng.randint(1, 2)]
            rng.shuffle(evs)  # a stable sort on the double alone would keep this order
            counts = Counter()
            for ev in evs:
                counts[ev] += rng.randint(1, 3)
            u = SpectrumMultiset(tuple(counts.items()))
            exact = sorted(counts.items(), key=lambda it: (it[0] is not None, it[0] and it[0].angle))
            assert u.items == tuple(exact)
            doubles = [ev.num / ev.order for ev in counts if ev is not None]
            collisions += len(doubles) - len(set(doubles))
        assert collisions > 500


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


# ---------------------------------------------------------------- oracle
#
# A test-local oracle that knows nothing of successors: it raises every
# Jordan block of A to the e-th power and counts the results.


PAIRS = [(2, 3), (3, 2), (-2, 3), (2, -3), (1, -3), (-1, 2), (1, 2), (2, 5), (3, 5), (-3, 4), (4, 7)]
ORDERS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 13, 15, 19, 21, 35]
BLOCKS = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def power_angle(ev, e):
    """ev^e as its reduced angle (num, order); None (the eigenvalue 0) stays None."""
    if ev is None:
        return None
    num = ev.num * e % ev.order
    g = math.gcd(num, ev.order)
    return num // g, ev.order // g


def block_powers(entries, e):
    """Counter of the Jordan blocks of A^e as (eigenvalue, size); entries
    maps each eigenvalue of A (None for 0) to its block sizes.  A nonzero
    block keeps its size; a nilpotent block of size k splits into k mod e
    blocks of size ceil(k/e) and the rest of size floor(k/e)."""
    out = Counter()
    for ev, blocks in entries.items():
        for k in blocks:
            if ev is not None:
                out[power_angle(ev, e), k] += 1
                continue
            out[None, -(-k // e)] += k % e
            if k // e:
                out[None, k // e] += e - k % e
    return +out


def power_counter(mults, e):
    """Counter of the eigenvalues of U^e; mults maps eigenvalue to multiplicity."""
    if e < 0 and None in mults:
        raise ValueError("negative power of a spectrum containing 0")
    out = Counter()
    for ev, m in mults.items():
        out[power_angle(ev, e)] += m
    return out


def oracle_reason(entries, pq):
    """The failure reason the verdict must give, in its order of checks."""
    zero = entries.get(None)
    if zero and max(zero) > pq.p:
        return FailureReason.NILPOTENT_PART_TOO_DEEP
    nonzero = {ev: sum(blocks) for ev, blocks in entries.items() if ev is not None}
    ones = dict.fromkeys(nonzero, 1)
    if power_counter(ones, pq.p) != power_counter(ones, pq.q):
        return FailureReason.SPECTRA_POWER_MISMATCH
    if power_counter(nonzero, pq.p) != power_counter(nonzero, pq.q):
        return FailureReason.ORBIT_MULTIPLICITY_MISMATCH
    invertible = {ev: blocks for ev, blocks in entries.items() if ev is not None}
    if block_powers(invertible, pq.p) != block_powers(invertible, pq.q):
        return FailureReason.JORDAN_STRUCTURE_MISMATCH
    return None


def successor_angle(k, m, pq):
    return k * pq.q * pow(pq.p, -1, m) % m if m > 1 else 0


def random_entries(rng, pq):
    """Eigenvalue -> blocks: whole or partial successor cycles, orders not
    coprime to p*q, one block multiset per cycle or not, and sometimes 0."""
    entries = {}
    for _ in range(rng.randint(0, 3)):
        m = rng.choice(ORDERS)
        k = rng.randrange(m)
        members = [k]
        if math.gcd(m, pq.p * pq.q) == 1:
            while (nxt := successor_angle(members[-1], m, pq)) != k:
                members.append(nxt)
            if rng.random() < 0.2:
                members = members[: rng.randint(1, len(members))]
        blocks = rng.choice(BLOCKS)
        for num in members:
            entries.setdefault(R(num, m), blocks if rng.random() < 0.85 else rng.choice(BLOCKS))
    if not entries or rng.random() < 0.3:
        entries[None] = rng.choice(BLOCKS)
    return entries


def test_counter_oracle():
    """powers_equal, orbit_decomposition and every verdict agree with the
    block-counting oracle on 12,000 seeded spectra."""
    rng = random.Random(2011)
    seen = Counter()
    for _ in range(12_000):
        pq = ExponentPair(*rng.choice(PAIRS))
        entries = random_entries(rng, pq)
        mults = {ev: sum(blocks) for ev, blocks in entries.items()}
        u = SpectrumMultiset(tuple(mults.items()))
        try:
            expected = power_counter(mults, pq.p) == power_counter(mults, pq.q)
        except ValueError:
            expected = "raises"
        seen[expected] += 1
        if expected == "raises":
            for fn in (powers_equal, orbit_decomposition):
                with pytest.raises(ValueError, match="negative power of a spectrum containing 0"):
                    fn(u, pq)
        else:
            assert powers_equal(u, pq) is expected
        if expected is False:
            with pytest.raises(ValueError, match=r"^U\^p != U\^q: spectrum admits no orbit structure$"):
                orbit_decomposition(u, pq)
        if expected is True:
            od = orbit_decomposition(u, pq)
            members = [ev for orbit in od.orbits for ev in orbit.members]
            assert len(members) == len(set(members)) == len(mults) - (None in mults)
            assert set(members) == set(mults) - {None}
            for orbit in od.orbits:
                assert orbit.members[0].angle == min(ev.angle for ev in orbit.members)
                for lam, mu in zip(orbit.members, orbit.members[1:] + orbit.members[:1]):
                    assert power_angle(mu, pq.p) == power_angle(lam, pq.q)
                    assert od.successor_map[lam] == mu
                    assert mults[lam] == orbit.multiplicity
            assert [o.members[0].angle for o in od.orbits] == sorted(o.members[0].angle for o in od.orbits)
            assert od.delta == math.lcm(*(len(o) for o in od.orbits))

        spec = JordanSpec(tuple(JordanEntry(ev, blocks) for ev, blocks in entries.items()))
        if None in entries and not 1 <= pq.p < pq.q:
            with pytest.raises(ValueError, match="singular case needs 1 <= p < q"):
                powers_similar_general(spec, pq)
            continue
        verdict = powers_similar_general(spec, pq)
        reason = oracle_reason(entries, pq)
        seen[reason] += 1
        assert verdict.failure_reason is reason
        assert verdict.similar is (reason is None)
        assert verdict.similar is (block_powers(entries, pq.p) == block_powers(entries, pq.q))
    # every outcome is well represented
    assert min(seen.values()) >= 200, seen

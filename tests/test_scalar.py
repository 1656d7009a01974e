import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpow.scalar import (
    ExponentPair,
    RootOfUnity,
    _admissible_roots,
    angle_to_complex,
    mod_inverse,
    rou_pow,
    rou_to_complex,
)

PQ23 = ExponentPair(2, 3)


def rou_mul(a, b):
    """Reference: the product of two roots of unity, by adding their angles mod 1."""
    return RootOfUnity(a.num * b.order + b.num * a.order, a.order * b.order)


class TestRootOfUnity:
    def test_normalization(self):
        assert RootOfUnity(7, 5) == RootOfUnity(2, 5)
        assert RootOfUnity(2, 4) == RootOfUnity(1, 2)
        assert RootOfUnity(5, 5) == RootOfUnity(0, 1)
        assert RootOfUnity(-1, 5) == RootOfUnity(4, 5)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            RootOfUnity(1, 0)

    def test_str_round_trip(self):
        assert RootOfUnity.from_str("3/8") == RootOfUnity(3, 8)
        assert str(RootOfUnity(3, 8)) == "3/8"


class TestRouMul:
    def test_identity(self):
        assert rou_mul(RootOfUnity(0, 1), RootOfUnity(0, 1)) == RootOfUnity(0, 1)

    def test_inverse_pair(self):
        assert rou_mul(RootOfUnity(1, 5), RootOfUnity(4, 5)) == RootOfUnity(0, 1)

    def test_rational_addition(self):
        # 1/5 + 1/3 = 8/15; confirmed against complex multiplication
        result = rou_mul(RootOfUnity(1, 5), RootOfUnity(1, 3))
        assert result == RootOfUnity(8, 15)
        product = rou_to_complex(RootOfUnity(1, 5)) * rou_to_complex(RootOfUnity(1, 3))
        assert abs(rou_to_complex(result) - product) < 1e-14


class TestRouPow:
    def test_order_annihilates(self):
        assert rou_pow(RootOfUnity(1, 5), 5) == RootOfUnity(0, 1)

    def test_conjugate(self):
        assert rou_pow(RootOfUnity(1, 5), -1) == RootOfUnity(4, 5)

    def test_cube_of_eighth_root(self):
        result = rou_pow(RootOfUnity(1, 8), 3)
        assert result == RootOfUnity(3, 8)
        assert abs(rou_to_complex(result) - rou_to_complex(RootOfUnity(1, 8)) ** 3) < 1e-12

    def test_zero_power(self):
        assert rou_pow(RootOfUnity(3, 7), 0) == RootOfUnity(0, 1)


class TestRouToComplex:
    def test_one(self):
        assert rou_to_complex(RootOfUnity(0, 1)) == 1.0 + 0.0j

    def test_minus_one(self):
        assert rou_to_complex(RootOfUnity(1, 2)) == pytest.approx(-1.0 + 0.0j)

    def test_fifth_root(self):
        z = rou_to_complex(RootOfUnity(1, 5))
        assert z.real == pytest.approx(math.cos(2 * math.pi / 5), abs=1e-12)
        assert z.imag == pytest.approx(math.sin(2 * math.pi / 5), abs=1e-12)

    def test_unreduced_angles_give_the_bits_of_the_reduced_one(self):
        # angle_to_complex(num, order) with a gcd g > 1 shared by num and
        # order, and num outside [0, order), evaluates the root of
        # RootOfUnity(num, order) bit for bit.  Evaluating 2 pi num/order
        # as given would not: (2 pi 3)/9 and 2 pi/3 can differ in the last bit
        rng = random.Random(26)
        unreduced_differs = 0
        for _ in range(2000):
            order, g = rng.randint(1, 500), rng.randint(2, 60)
            num = rng.randrange(-3 * order, 3 * order) * g
            z = angle_to_complex(num, order * g)
            w = rou_to_complex(RootOfUnity(num, order * g))
            assert (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex()), (num, order * g)
            theta = 2.0 * math.pi * (num % (order * g)) / (order * g)
            unreduced_differs += complex(math.cos(theta), math.sin(theta)) != z
        assert unreduced_differs >= 100, unreduced_differs


class TestSnap:
    """_admissible_roots: per cycle length t <= n the nearest |q^t - p^t|-th
    root of unity; those within tol, smallest order first."""

    def test_near_minus_one(self):
        # order 2 divides |3 - 1| for (1, 3), but every |3^t - 2^t| is odd
        z = complex(-1 + 1e-12, 0)
        assert list(_admissible_roots(z, ExponentPair(1, 3), 1, 1e-9)) == [RootOfUnity(1, 2)]
        assert list(_admissible_roots(z, PQ23, 8, 1e-9)) == []

    def test_fifth_root(self):
        z = complex(0.309017, 0.951057)
        assert list(_admissible_roots(z, PQ23, 2, 1e-6)) == [RootOfUnity(1, 5)]

    def test_off_circle(self):
        assert list(_admissible_roots(complex(0.5, 0.5), PQ23, 10, 1e-9)) == []

    def test_zero_input(self):
        assert list(_admissible_roots(0j, PQ23, 10, 1e-9)) == []

    def test_order_exceeds_bound(self):
        # 19 = 3^3 - 2^3 first divides |3^t - 2^t| at t = 3
        z = rou_to_complex(RootOfUnity(1, 19))
        assert list(_admissible_roots(z, PQ23, 2, 1e-9)) == []
        assert list(_admissible_roots(z, PQ23, 3, 1e-9)) == [RootOfUnity(1, 19)]

    def test_smallest_order_preferred(self):
        # 1/5 (t = 2) lies within 0.1 of the exact 4/19 (t = 3) and comes first
        z = rou_to_complex(RootOfUnity(4, 19))
        assert list(_admissible_roots(z, PQ23, 3, 0.1)) == [RootOfUnity(1, 5), RootOfUnity(4, 19)]
        assert list(_admissible_roots(z, PQ23, 3, 1e-9)) == [RootOfUnity(4, 19)]

    def test_huge_max_order(self):
        # the lcm of |3^t - 2^t| passes 2^63 by t = 12.  Past about 1e9 the
        # roots lie closer together than tol, so every t has a candidate,
        # but 3/95 (t = 6) has the smallest order; past 2^53 (t = 34) a
        # double cannot tell the roots apart and none is proposed
        z = rou_to_complex(RootOfUnity(3, 95))
        roots = list(_admissible_roots(z, PQ23, 60, 1e-9))
        assert roots[0] == RootOfUnity(3, 95)
        assert 2**40 < max(root.order for root in roots) <= 2**53

    def test_exponents_past_float_range(self):
        # |q^t - p^t| would overflow a float at t = 52 for q = 10^6; only
        # t = 1, 2 stay below 2^53, and t = 2 has a root within tol of i
        q2 = 10**12 - 1
        roots = list(_admissible_roots(1j, ExponentPair(1, 10**6), 60, 1e-6))
        assert roots == [RootOfUnity(round(q2 / 4), q2)]

    def test_bad_params(self):
        # no cycle length below 1, no distance below 0: no candidate
        assert list(_admissible_roots(1 + 0j, PQ23, 0, 1e-9)) == []
        assert list(_admissible_roots(1.1 + 0j, PQ23, 5, 0.0)) == []

    def test_matches_the_root_per_candidate_loop(self):
        # the bounds that refuse or keep a candidate without its point, and
        # the distance taken from each candidate's reduced angle before a
        # RootOfUnity is built, give the lists of the loop that built one per
        # candidate: on roots exact or nudged by up to 1e-7, on points at
        # about tol from a root in any direction (so |z| != 1), and on points
        # with 0.5 <= |z| <= 2, with tolerances 0 and from 1e-12 to 1e-2,
        # the recovery tolerances included
        rng = random.Random(4)
        pairs = [ExponentPair(p, q) for p, q in [(2, 3), (1, 2), (-1, 2), (1, 3), (3, 5), (2, 5), (3, 7)]]
        found = edges = 0
        for _ in range(6000):
            pq, n = rng.choice(pairs), rng.randint(1, 24)
            tol = rng.choice((0.0, 10 ** rng.uniform(-12, -2), 10 ** rng.uniform(-9, -5)))
            kind = rng.randrange(3)
            if kind < 2:
                t = rng.randint(1, n)
                order = abs(pq.q**t - pq.p**t)
                root = rou_to_complex(RootOfUnity(rng.randrange(order), order))
                if kind == 0:
                    z = root * (1 + rng.choice((0.0, rng.uniform(-1e-7, 1e-7))))
                else:
                    z = root + tol * rng.uniform(0.99, 1.01) * cmath.exp(2j * math.pi * rng.random())
            else:
                z = cmath.exp(2j * math.pi * rng.random()) * rng.uniform(0.5, 2.0)
            roots = list(_admissible_roots(z, pq, n, tol))
            assert roots == candidate_loop(z, pq, n, tol), (z, pq, n, tol)
            found += len(roots)
            edges += kind == 1 and tol > 0 and bool(roots)
        assert found > 2000 and edges > 500


def candidate_loop(z, pq, n, tol):
    """Reference: one RootOfUnity per cycle length, kept when within tol."""
    theta = cmath.phase(z) / (2.0 * math.pi)
    near = set()
    for t in range(1, n + 1):
        order = abs(pq.q**t - pq.p**t)
        if order > 2**53:
            break
        candidate = RootOfUnity(round(theta * order), order)
        if abs(z - rou_to_complex(candidate)) <= tol:
            near.add(candidate)
    return sorted(near, key=lambda root: (root.order, root.num))


class TestModInverse:
    def test_two_mod_five(self):
        assert mod_inverse(2, 5) == 3

    def test_one_mod_seven(self):
        assert mod_inverse(1, 7) == 1

    def test_not_invertible(self):
        with pytest.raises(ValueError, match="not invertible mod 9"):
            mod_inverse(3, 9)

    def test_trivial_ring(self):
        assert mod_inverse(42, 1) == 0

    def test_negative_argument(self):
        inv = mod_inverse(-2, 5)
        assert 0 <= inv < 5 and (-2 * inv) % 5 == 1


class TestExponentPair:
    def test_valid(self):
        ExponentPair(2, 3)
        ExponentPair(1, 3)
        ExponentPair(-2, 3)

    def test_not_coprime(self):
        with pytest.raises(ValueError):
            ExponentPair(2, 4)

    def test_too_small(self):
        with pytest.raises(ValueError):
            ExponentPair(1, 1)
        with pytest.raises(ValueError):
            ExponentPair(1, -1)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    k=st.integers(min_value=0, max_value=10**6),
    m=st.integers(min_value=1, max_value=500),
    e1=st.integers(min_value=-50, max_value=50),
    e2=st.integers(min_value=-50, max_value=50),
)
def test_rou_pow_additivity(k, m, e1, e2):
    a = RootOfUnity(k, m)
    assert rou_pow(a, e1 + e2) == rou_mul(rou_pow(a, e1), rou_pow(a, e2))


# (p, q) with the largest cycle length drawn for it: every |q^t - p^t| stays
# below ~1e4, so distinct admissible roots lie much farther apart than 1e-9
_ROUND_TRIP_PAIRS = [((2, 3), 8), ((1, 2), 12), ((-1, 2), 12), ((1, 3), 8), ((3, 5), 5)]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    pair=st.sampled_from(_ROUND_TRIP_PAIRS),
    t=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=0, max_value=10**6),
)
def test_snap_round_trip(pair, t, k):
    (p, q), max_t = pair
    pq, t = ExponentPair(p, q), min(t, max_t)
    a = RootOfUnity(k, abs(q**t - p**t))
    assert list(_admissible_roots(rou_to_complex(a), pq, t, 1e-9)) == [a]


def _snap_oracle(z, pq, n, tol):
    """Brute force: every root k/Q_t with t <= n within tol, by increasing order."""
    near = set()
    for t in range(1, n + 1):
        order = abs(pq.q**t - pq.p**t)
        close = np.abs(z - np.exp(2j * np.pi * np.arange(order) / order)) <= tol
        near.update(RootOfUnity(int(k), order) for k in np.flatnonzero(close))
    return sorted(near, key=lambda root: root.order)


def test_snap_matches_brute_force_oracle():
    # tol stays below half the spacing of the 6305th roots (t = 8), so each t
    # has at most one root within tol, and no two of them share an order
    rng = np.random.default_rng(5)
    for _ in range(300):
        if rng.random() < 0.5:
            t = int(rng.integers(1, 9))
            order = abs(3**t - 2**t)
            z = rou_to_complex(RootOfUnity(int(rng.integers(order)), order))
            z *= 1 + rng.normal() * 1e-12
        else:
            z = complex(rng.normal(), rng.normal())
        tol = 10.0 ** rng.uniform(-10, -4)
        assert list(_admissible_roots(z, PQ23, 8, tol)) == _snap_oracle(z, PQ23, 8, tol)

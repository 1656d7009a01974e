import collections
import json
import math
import random

import numpy as np
import pytest

from simpow import RANK_TOL, VERIFY_TOL
from simpow.equation2x2 import (
    TriangularPair,
    WordShape,
    _candidates,
    _coupling_product,
    _matrix2,
    _power,
    classify,
    construct_solution,
    is_simultaneously_triangularizable,
    verify_word,
)
from simpow.matrixcore import mat_int_pow
from simpow.scalar import RootOfUnity, rou_pow, rou_to_complex
from test_acceptance import _word_shapes_in_box, listed_roots, word_value
from test_scalar import rou_mul

R = RootOfUnity
WORKED_SHAPE = WordShape(3, 3, 1, 1, -1)


class TestWordShape:
    def test_valid(self):
        WordShape(3, 3, 1, 1, -1)
        WordShape(2, -3, -1, 1, 1)

    def test_zero_exponent(self):
        with pytest.raises(ValueError):
            WordShape(0, 1, 1, 1, 1)

    def test_not_coprime(self):
        with pytest.raises(ValueError):
            WordShape(2, 1, 4, 1, 1)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            WordShape(3, 3, 1, 1, 0)


class TestTriangularPair:
    def test_matrices(self):
        pair = TriangularPair(2.0, 3.0, 5.0, 7.0)
        assert np.allclose(pair.a_matrix(), [[2, 3], [0, 0.5]])
        assert np.allclose(pair.b_matrix(), [[5, 0], [7, 0.2]])

    def test_st_defect_matches_st_test(self):
        # reference: the pair is ST exactly when its defect vanishes
        def st_defect(pair):
            return (pair.rho**2 - 1) * (pair.u**2 - 1) + pair.u * pair.v * pair.rho * pair.sigma

        u, v, rho = 2.0 + 0j, 1.5 + 0j, 3.0 + 0j
        sigma_st = -(rho * rho - 1) * (u * u - 1) / (u * v * rho)
        st_pair = TriangularPair(u, v, rho, sigma_st)
        assert abs(st_defect(st_pair)) < 1e-12
        assert is_simultaneously_triangularizable(st_pair.a_matrix(), st_pair.b_matrix())
        generic = TriangularPair(u, v, rho, sigma_st + 1.0)
        assert abs(st_defect(generic)) > 1.0
        assert not is_simultaneously_triangularizable(generic.a_matrix(), generic.b_matrix())

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            TriangularPair(0.0, 1.0, 1.0, 1.0)


class TestSimultaneouslyTriangularizable:
    def test_diagonal_pair(self):
        assert is_simultaneously_triangularizable(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))

    def test_opposite_nilpotents(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        b = np.array([[0, 0], [1, 0]], dtype=complex)
        assert not is_simultaneously_triangularizable(a, b)

    def test_wrong_size(self):
        with pytest.raises(ValueError):
            is_simultaneously_triangularizable(np.eye(3), np.eye(3))

    def test_zero_matrix_is_st(self):
        other = np.array([[1.0, 2.0], [3.0, 4.0j]])
        assert is_simultaneously_triangularizable(np.zeros((2, 2)), other)
        assert is_simultaneously_triangularizable(other, np.zeros((2, 2)))

    @pytest.mark.parametrize("factor, st", [(0.5, True), (2.0, False)])
    def test_decided_at_verify_tol(self, factor, st):
        # det(AB - BA) = y for A = diag(1, 2) and B = [[1, 1], [y, 1]], and
        # the bound is 1e-9 (|A|_F |B|_F)^2 = 1e-9 * 5 * (3 + y^2): y sits at
        # factor times the documented VERIFY_TOL = 1e-9, not read from the
        # constant, so that a changed tolerance moves the edge past it
        y = factor * 1e-9 * 15
        b = np.array([[1.0, 1.0], [y, 1.0]])
        assert is_simultaneously_triangularizable(np.diag([1.0, 2.0]), b) is st


def st_unscaled(a, b):
    """The ST decision on A and B as given, |det(AB - BA)| <= VERIFY_TOL
    max(|A|_F |B|_F, 1)^2, or None where one of its quantities is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        det = abs(np.linalg.det(a @ b - b @ a))
        scale = max(float(np.linalg.norm(a)) * float(np.linalg.norm(b)), 1.0)
        bound = VERIFY_TOL * scale * scale
    if not (math.isfinite(det) and math.isfinite(bound)):
        return None
    return bool(det <= bound)


class TestScaleFreeST:
    """The ST test on 10^e A and 10^f B over e, f in -200..200: the decision
    on A and B as given wherever that is finite, and never an overflow."""

    rng = np.random.default_rng(12)
    PAIRS = {
        "commuting": (np.diag([1.0, 2.0]), np.diag([3.0, -4.0j])),
        "triangular": ([[1.0, 2.0], [0.0, 3.0]], [[2.0j, -1.0], [0.0, 1.0]]),
        "opposite nilpotents": ([[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]),
        "generic": (rng.standard_normal((2, 2)), rng.standard_normal((2, 2)) * 1j),
        "non-ST solution": construct_solution(WORKED_SHAPE, R(1, 4), R(1, 4), 1.0),
    }
    EXPONENTS = range(-200, 201, 25)

    @pytest.mark.parametrize("name", PAIRS)
    def test_scale_grid(self, name):
        a, b = (np.asarray(m, dtype=complex) for m in self.PAIRS[name])
        assert np.linalg.norm(a) * np.linalg.norm(b) >= 1.0
        unit = is_simultaneously_triangularizable(a, b)
        finite = 0
        for e in self.EXPONENTS:
            for f in self.EXPONENTS:
                scaled_a, scaled_b = 10.0**e * a, 10.0**f * b
                got = is_simultaneously_triangularizable(scaled_a, scaled_b)
                reference = st_unscaled(scaled_a, scaled_b)
                if reference is not None:
                    assert got == reference, (e, f)
                    finite += 1
                if e + f >= 0:  # |A|_F |B|_F >= 1: det / (|A|_F |B|_F)^2 alone decides
                    assert got == unit, (e, f)
                elif e + f <= -20:  # the floor 1 dwarfs every det
                    assert got, (e, f)
        assert 0 < finite < len(self.EXPONENTS) ** 2


class TestClassify:
    def test_impossible_difference_one(self):
        result = classify(WordShape(2, 3, 1, 1, 1))
        assert result.families == ()
        assert "r-r'" in result.empty_reason

    def test_worked_shape(self):
        result = classify(WORKED_SHAPE)
        assert len(result.families) == 1
        family = result.families[0]
        assert family.alpha == -1
        assert set(family.u_candidates) == {(1, 4), (3, 4)}
        assert set(family.rho_candidates) == {(1, 4), (3, 4)}
        assert len(family.pairs) == 4

    def test_plus_one_branch_empty(self):
        result = classify(WordShape(3, 3, 1, 1, 1))
        assert result.families == ()

    def test_continuous_case_not_enumerated(self):
        result = classify(WordShape(1, 3, 1, 1, 1))
        assert result.families == ()
        assert "continuous" in result.empty_reason

    def test_truncation(self):
        shape = WordShape(6, 6, 1, 1, -1)
        full = classify(shape, max_report=10**6)
        truncated = classify(shape, max_report=2)
        assert truncated.families[0].truncated
        assert len(truncated.families[0].pairs) == 2
        assert not full.families[0].truncated

    @pytest.mark.parametrize("max_report", [0, -1])
    def test_cap_below_one_raises(self, max_report):
        # it would drop every family and read as "both alpha branches are empty"
        with pytest.raises(ValueError):
            classify(WordShape(3, 3, 1, 1, -1), max_report=max_report)

    def test_candidate_filters_exact(self):
        # every enumerated pair satisfies the angle constraints exactly
        for shape in (WORKED_SHAPE, WordShape(5, 4, 2, -1, 1), WordShape(-3, 5, 2, 1, -1)):
            result = classify(shape, max_report=10**6)
            dr = shape.r - shape.r_prime
            ds = shape.s - shape.s_prime
            for family in result.families:
                target_u = R(0, 1) if family.alpha == 1 else R(1, 2)
                minus_ae = R(0, 1) if -family.alpha * shape.epsilon == 1 else R(1, 2)
                for u, rho in listed_roots(family):
                    assert rou_pow(u, dr) == target_u
                    assert rou_pow(rho, ds) == minus_ae

    def test_no_candidate_zeroes_phi(self):
        # t^(r-r') = +-1 with t^2 != 1 and r, r' coprime: the order m > 2 of
        # t divides 2(r - r'), so m | 2r would give m | gcd(2r, 2r') = 2;
        # phi_r(t) = 0 needs m | 2r, so no candidate can make it vanish
        count = 0
        for r in range(-40, 41):
            for rp in range(-40, 41):
                if 0 in (r, rp) or r == rp or math.gcd(abs(r), abs(rp)) != 1:
                    continue
                for sign in (1, -1):
                    orders = [order for _, order in _candidates(r - rp, sign)]
                    assert all(order > 2 and 2 * r % order for order in orders), (r, rp, sign)
                    count += len(orders)
        assert count == 201_940


def object_passes(shape, u, rho):
    """Reference: u^2r != -rho^2s and u^2r rho^2s != -1, through rou_mul."""
    u2r, rho2s, half = rou_pow(u, 2 * shape.r), rou_pow(rho, 2 * shape.s), R(1, 2)
    return u2r != rou_mul(rho2s, half) and rou_mul(u2r, rho2s) != half


def object_sigma_v(shape, u, rho):
    """Reference: sigma*v of one pair, every factor evaluated for it."""
    def scaled_phi(t, t2k):
        return rou_to_complex(t) * (1.0 - t2k) / (1.0 - rou_to_complex(rou_pow(t, 2)))

    u2r = rou_to_complex(rou_pow(u, 2 * shape.r))
    rho2s = rou_to_complex(rou_pow(rho, 2 * shape.s))
    return (-1.0 - u2r * rho2s) / (scaled_phi(u, u2r) * scaled_phi(rho, rho2s))


def object_classify(shape, max_report):
    """Reference: classify(shape, max_report).to_json() with one RootOfUnity
    per angle, the pair conditions through rou_mul and sigma*v evaluated
    per pair."""
    def roots(exponent, sign):
        m = abs(exponent)
        if sign == 1:
            return [R(j, m) for j in range(m)]
        return [R(2 * j + 1, 2 * m) for j in range(m)]

    def admissible(t, k):
        return t.order > 2 and not (2 * k) % t.order == 0

    dr, ds = shape.r - shape.r_prime, shape.s - shape.s_prime
    if abs(dr) == 1 or abs(ds) == 1:
        return {"families": [], "empty_reason": "r-r' = +-1 or s-s' = +-1: no non-ST solutions"}
    if dr == 0 or ds == 0:
        return {"families": [], "empty_reason": (
            "r = r' or s = s': the family is continuous and not enumerable; "
            "use construct/verify with explicit parameters")}
    families = []
    for alpha in (1, -1):
        us = [u for u in roots(dr, alpha) if admissible(u, shape.r)]
        rhos = [rho for rho in roots(ds, -alpha * shape.epsilon) if admissible(rho, shape.s)]
        admitted = []  # up to the first pair past the cap
        for u in us:
            admitted += [(u, rho) for rho in rhos if object_passes(shape, u, rho)]
            if len(admitted) > max_report:
                break
        if admitted:
            families.append({
                "alpha": alpha,
                "u": [str(u) for u in us],
                "rho": [str(rho) for rho in rhos],
                "pairs": [
                    {"u": str(u), "rho": str(rho), "sigma_v": [z.real, z.imag]}
                    for u, rho in admitted[:max_report]
                    for z in [object_sigma_v(shape, u, rho)]
                ],
                "coupling": "sigma*v = (-1 - u^(2r) rho^(2s)) / (u^r phi_r(u) rho^s phi_s(rho))",
                "truncated": len(admitted) > max_report,
            })
    if not families:
        return {"families": [], "empty_reason": "both alpha branches are empty"}
    return {"families": families, "empty_reason": None}


def seeded_shape(rng, differences):
    """A WordShape whose r - r' and s - s' are drawn from differences."""
    def exponents():
        difference = rng.choice(differences)
        while True:
            x_prime = rng.choice((-1, 1)) * (1 if difference == 0 else rng.randint(1, 9))
            x = x_prime + difference
            if x != 0 and math.gcd(abs(x), abs(x_prime)) == 1:
                return x, x_prime

    (r, r_prime), (s, s_prime) = exponents(), exponents()
    return WordShape(r, s, r_prime, s_prime, rng.choice((-1, 1)))


class TestClassifyOracle:
    MAX_REPORTS = (1, 3, 100, 10**6)
    SMALL = (0, 1, -1, *range(-16, 17))  # 0 and +-1 drawn twice as often
    LARGE = (*range(-500, -299), *range(300, 501))

    def check(self, shape, max_report):
        result = classify(shape, max_report)
        expected = object_classify(shape, max_report)
        assert json.dumps(result.to_json()) == json.dumps(expected), (shape, max_report)
        for family, reference in zip(result.families, expected["families"]):
            assert len(family.u_candidates) == len(reference["u"])
            assert len(family.rho_candidates) == len(reference["rho"])
            assert len(family.pairs) == len(reference["pairs"])
        return result

    def test_matches_the_object_per_pair_classifier(self):
        # integer keys and per-candidate factors give the bytes of one
        # RootOfUnity per angle and sigma*v per pair, over both signs of
        # r - r' and s - s', eps = +-1, the empty and continuum cases and
        # every report cap
        rng = random.Random(20)
        seen = {"empty": 0, "continuum": 0, "truncated": 0, "listed": 0}
        for case in range(2000):
            result = self.check(seeded_shape(rng, self.SMALL), self.MAX_REPORTS[case % 4])
            reason = result.empty_reason or ""
            seen["empty"] += "+-1" in reason
            seen["continuum"] += "continuous" in reason
            seen["truncated"] += any(family.truncated for family in result.families)
            seen["listed"] += bool(result.families)
        assert min(seen.values()) >= 100, seen

    def test_large_shapes(self):
        # |r - r'| and |s - s'| from 300 to 500, and the largest shape of
        # the benchmark; caps 1, 3 and 100
        rng = random.Random(21)
        shapes = [seeded_shape(rng, self.LARGE) for _ in range(8)] + [WordShape(-403, 297, 1, -8, 1)]
        for case, shape in enumerate(shapes):
            assert self.check(shape, self.MAX_REPORTS[case % 3]).families

    def test_candidates_stay_integer_angles(self, monkeypatch):
        # the 1,414 candidates and the listed pairs of the largest benchmark
        # shape stay integer angles through classify and to_json: no
        # RootOfUnity is built
        built = 0
        post_init = RootOfUnity.__post_init__

        def counting(self):
            nonlocal built
            built += 1
            post_init(self)

        monkeypatch.setattr(RootOfUnity, "__post_init__", counting)
        result = classify(WordShape(-403, 297, 1, -8, 1))
        result.to_json()
        candidates = sum(len(f.u_candidates) + len(f.rho_candidates) for f in result.families)
        assert candidates == 1414
        assert result.families[0].pairs
        assert built == 0

    def test_construct_uses_the_same_pair_test_and_factors(self):
        # construct_solution admits exactly the pairs of the object test,
        # r = r' (u free, of any order) included, and its sigma is the
        # per-pair sigma*v divided by v, bit for bit
        rng = random.Random(22)
        shapes = [seeded_shape(rng, (0, 2, -2, 3, -3, 4, -4, 5, -5, 6, 12, -12)) for _ in range(40)]
        admitted = rejected = 0
        for shape in shapes:
            dr, ds = shape.r - shape.r_prime, shape.s - shape.s_prime
            u_order, rho_order = 2 * abs(dr) or 24, 2 * abs(ds) or 24
            for u in [R(j, u_order) for j in range(u_order)]:
                for rho in [R(j, rho_order) for j in range(rho_order)]:
                    try:
                        _, b = map(np.asarray, construct_solution(shape, u, rho, 0.5 - 1j))
                    except ValueError as exc:
                        if "non-degeneracy" in str(exc):
                            assert not object_passes(shape, u, rho)
                            rejected += 1
                        continue
                    assert object_passes(shape, u, rho)
                    assert complex(b[1, 0]) == object_sigma_v(shape, u, rho) / (0.5 - 1j)
                    admitted += 1
        assert admitted > 1000 and rejected > 100, (admitted, rejected)


def phi(t, k):
    """phi_k(t) = (1 - t^(2k)) / (t^(k-1) (1 - t^2)), t^2 != 1, in complex powers."""
    return (1.0 - t ** (2 * k)) / (t ** (k - 1) * (1.0 - t * t))


class TestCouplingProduct:
    @pytest.mark.parametrize(
        "shape",
        [WORKED_SHAPE, WordShape(5, 4, 2, -1, 1), WordShape(-3, 5, 2, 1, -1),
         WordShape(203, 157, 3, 7, 1)],
        ids=str,
    )
    def test_matches_the_phi_formula(self, shape):
        # sigma*v = (-1 - u^2r rho^2s) / (u^r phi_r(u) rho^s phi_s(rho)),
        # evaluated in complex powers, against the exact-angle form
        pairs = [pair for family in classify(shape).families for pair in listed_roots(family)]
        assert pairs
        r, s = shape.r, shape.s
        for u, rho in pairs:
            uc, rc = rou_to_complex(u), rou_to_complex(rho)
            expected = (-1.0 - uc ** (2 * r) * rc ** (2 * s)) / (
                uc**r * phi(uc, r) * rc**s * phi(rc, s)
            )
            assert abs(_coupling_product(shape, u, rho) - expected) <= 1e-10 * abs(expected)


class TestConstructSolution:
    def test_worked_example(self):
        a, b = map(np.asarray, construct_solution(WORKED_SHAPE, R(1, 4), R(1, 4), 1.0))
        assert b[1, 0] == pytest.approx(2.0, abs=1e-12)
        word = word_value(a, b, WORKED_SHAPE)
        assert np.max(np.abs(word + np.eye(2))) < 1e-12
        assert not is_simultaneously_triangularizable(a, b)

    def test_sigma_v_product_invariant(self):
        a7, b7 = map(np.asarray, construct_solution(WORKED_SHAPE, R(1, 4), R(1, 4), 7.0))
        assert b7[1, 0] == pytest.approx(2.0 / 7.0, abs=1e-12)
        assert verify_word(a7, b7, WORKED_SHAPE) < 1e-12

    def test_rigidity_identities(self):
        # every non-ST unit-determinant solution obeys the inverse word,
        # A^(r-r') = alpha*I, B^(s-s') = -alpha*eps*I and (A^r B^s)^2 = -I
        eye = np.eye(2)
        for shape in (WORKED_SHAPE, WordShape(5, 4, 2, -1, 1), WordShape(2, 5, -3, 1, -1)):
            inverse = WordShape(-shape.r, -shape.s, -shape.r_prime, -shape.s_prime, shape.epsilon)
            for family in classify(shape, max_report=10**6).families:
                alpha = family.alpha
                for u, rho in listed_roots(family):
                    a, b = construct_solution(shape, u, rho, 1.0)
                    assert verify_word(a, b, inverse) < 1e-10
                    a_diff = mat_int_pow(a, shape.r - shape.r_prime)
                    assert np.max(np.abs(a_diff - alpha * eye)) < 1e-9
                    b_diff = mat_int_pow(b, shape.s - shape.s_prime)
                    assert np.max(np.abs(b_diff + alpha * shape.epsilon * eye)) < 1e-9
                    ab = mat_int_pow(a, shape.r) @ mat_int_pow(b, shape.s)
                    assert np.max(np.abs(ab @ ab + eye)) < 1e-10

    def test_u_square_one_rejected(self):
        with pytest.raises(ValueError):
            construct_solution(WORKED_SHAPE, R(1, 2), R(1, 4), 1.0)

    def test_zero_v_rejected(self):
        with pytest.raises(ValueError):
            construct_solution(WORKED_SHAPE, R(1, 4), R(1, 4), 0.0)

    def test_wrong_rho_branch_rejected(self):
        # rho^(s-s') must equal -alpha*eps; i gives -1 but 1/3 gives a cube root
        with pytest.raises(ValueError):
            construct_solution(WORKED_SHAPE, R(1, 4), R(1, 3), 1.0)

    def test_all_classified_members_solve(self):
        for shape in (WORKED_SHAPE, WordShape(5, 4, 2, -1, 1), WordShape(2, 5, -3, 1, -1)):
            result = classify(shape, max_report=10**6)
            for family in result.families:
                for u, rho in listed_roots(family):
                    a, b = construct_solution(shape, u, rho, 1.0)
                    assert verify_word(a, b, shape) < 1e-10
                    assert not is_simultaneously_triangularizable(a, b)


class TestVerifyWord:
    def test_identity(self):
        assert verify_word(np.eye(2), np.eye(2), WordShape(2, 3, 1, 1, 1)) == 0.0

    def test_perturbed_v_breaks_coupling(self):
        a, b = map(np.asarray, construct_solution(WORKED_SHAPE, R(1, 4), R(1, 4), 1.0))
        a_perturbed = a.copy()
        a_perturbed[0, 1] *= 1.1
        assert verify_word(a_perturbed, b, WORKED_SHAPE) > 1e-3

    def test_inverse_word_also_solves(self):
        # constructed solutions satisfy the inverse-exponent word too
        a, b = construct_solution(WORKED_SHAPE, R(3, 4), R(1, 4), 2.0 - 1j)
        inverse = WordShape(-3, -3, -1, -1, -1)
        assert verify_word(a, b, inverse) < 1e-10

    def test_larger_matrices_refused(self, nondiag_fixture):
        # the word equation is the paper's 2x2 one: a 4x4 pair is refused
        a, b, _, _, _ = nondiag_fixture
        with pytest.raises(ValueError, match="^the word equation is for 2x2 matrices, got 4x4$"):
            verify_word(a, b, WordShape(2, 1, -1, 1, 1))


class TestContinuousFamily:
    def test_construct_when_r_equals_r_prime(self):
        # r = r' forces alpha = 1 and rho^(s-s') = -eps; u stays a free
        # parameter, so classify refuses to enumerate but construct works
        shape = WordShape(1, 3, 1, 1, 1)
        assert classify(shape).families == ()
        for u in (R(1, 3), R(1, 5), R(2, 7)):
            a, b = construct_solution(shape, u, R(1, 4), 1.0)
            assert verify_word(a, b, shape) < 1e-12
            assert not is_simultaneously_triangularizable(a, b)


def numpy_residual(a, b, shape):
    """verify_word's residual and overflow error through word_value, the
    numpy oracle of its 2x2 kernel."""
    residual = float(np.max(np.abs(word_value(a, b, shape) - shape.epsilon * np.eye(2))))
    if not math.isfinite(residual):
        r, s, rp, sp = shape.exponents
        raise ValueError(f"the word A^{r} B^{s} A^{rp} B^{sp} overflows")
    return residual


def norm_product_bound(factors, power=1):
    """VERIFY_TOL times the product of the factors' Frobenius norms, to the
    given power, formed in logarithms so that no partial product over- or
    underflows."""
    norms = [math.hypot(*np.asarray(f, dtype=complex).view(float).ravel()) for f in factors]
    log2 = -math.inf if 0.0 in norms else math.log2(VERIFY_TOL) + power * sum(map(math.log2, norms))
    return 2.0**log2 if log2 < 1024 else math.inf


def error_kind(result):
    """What outcome() gave: a value, a singular matrix, or an overflow of a power or the word."""
    if not isinstance(result, str):
        return "value"
    if "singular" in result:
        return "singular"
    return ("word" if "word" in result else "power") + " overflow"


def outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def times_power_of_two(m, k):
    """M * 2^k, part by part."""
    return np.ldexp(np.asarray(m, dtype=complex).view(float), k).view(complex)


def near_cut(rng, above):
    """A 2x2 matrix with sigma_min / sigma_max = RANK_TOL (1 +- 1e-4): it
    passes is_invertible's cut when above, fails it otherwise."""
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    ratio = RANK_TOL * (1.0 + (1e-4 if above else -1e-4))
    return u @ np.diag([1.0, ratio]) @ v.conj().T


def box_solutions():
    """(shape, A, B) for every construct_solution output of the classify
    families in the exponent-6 box of acceptance criterion 6 (v = 1),
    once per (r, s, u, rho), which fixes A and B."""
    seen = set()
    for shape in _word_shapes_in_box(6, 2, 6):
        for family in classify(shape, max_report=10**6).families:
            for u, rho in listed_roots(family):
                if (shape.r, shape.s, u, rho) not in seen:
                    seen.add((shape.r, shape.s, u, rho))
                    yield (shape, *construct_solution(shape, u, rho, 1.0))


class TestKernelOracle:
    """The 2x2 kernel of verify_word and the ST test against numpy: its
    powers against mat_int_pow and its word residual against word_value's
    on np.asarray of the same input, within VERIFY_TOL times the product
    of the factors' Frobenius norms (rounding moves both by far less), its
    ST verdict against the det test, and every error with the same message.
    Each check tallies what it compared in ``seen``: "value" or the error."""

    @staticmethod
    def assert_same_power(seen, m, e):
        m = np.asarray(m, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            expected = outcome(mat_int_pow, m, e)
            got = outcome(_power, _matrix2(m), e)
        if isinstance(expected, str) or isinstance(got, str):
            assert got == expected, e
            seen[error_kind(got)] += 1
            return
        bound = norm_product_bound([m if e > 0 else np.linalg.inv(m)], abs(e))
        assert np.max(np.abs(np.asarray(got) - expected)) <= bound, e
        seen["power"] += 1

    @staticmethod
    def assert_same_word(seen, a, b, shape):
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            got = outcome(verify_word, a, b, shape)
            expected = outcome(numpy_residual, a, b, shape)
        if isinstance(expected, str) or isinstance(got, str):
            assert got == expected, shape
            seen[error_kind(got)] += 1
            return
        r, s, rp, sp = shape.exponents
        a, b = _matrix2(a), _matrix2(b)
        factors = [_power(a, r), _power(b, s), _power(a, rp), _power(b, sp)]
        assert abs(got - expected) <= norm_product_bound(factors), shape
        seen["word"] += 1

    def check_scaled_pair(self, seen, rng, a, b):
        """A and B as given, under the ST test, a word and a power each, of
        exponents in -450..450."""
        with np.errstate(divide="ignore", under="ignore"):
            reference = st_unscaled(a, b)
        if reference is not None:
            assert is_simultaneously_triangularizable(a, b) is reference
            seen["st"] += 1
        exponents = [rng.choice((-1, 1)) * rng.randint(1, 450) for _ in range(4)]
        if math.gcd(exponents[0], exponents[2]) == math.gcd(exponents[1], exponents[3]) == 1:
            self.assert_same_word(seen, a, b, WordShape(*exponents, rng.choice((-1, 1))))
        for m in (a, b):
            self.assert_same_power(seen, m, rng.choice((-1, 1)) * rng.randint(1, 450))

    def test_box_solutions(self):
        # each pair's own word and ST verdict; every eighth pair also
        # scaled, A by 2^k and B by 2^j with k, j in -600..600
        rng = random.Random(23)
        seen = collections.Counter()
        for pair, (shape, a, b) in enumerate(box_solutions()):
            self.assert_same_word(seen, a, b, shape)
            assert is_simultaneously_triangularizable(a, b) is st_unscaled(*map(np.asarray, (a, b)))
            if pair % 8 == 0:
                a, b = (times_power_of_two(m, rng.randint(-600, 600)) for m in (a, b))
                self.check_scaled_pair(seen, rng, a, b)
        assert pair > 25000
        assert all(seen[kind] >= 100 for kind in ("st", "word", "power", "power overflow")), seen

    def test_random_pairs(self):
        gen = np.random.default_rng(24)
        rng = random.Random(24)
        seen = collections.Counter()
        for _ in range(1500):
            a, b = gen.standard_normal((2, 2, 2)) + 1j * gen.standard_normal((2, 2, 2))
            self.assert_same_word(seen, a, b, WordShape(3, -2, 1, 5, 1))
            assert is_simultaneously_triangularizable(a, b) is st_unscaled(a, b)
            a, b = (times_power_of_two(m, rng.randint(-600, 600)) for m in (a, b))
            self.check_scaled_pair(seen, rng, a, b)
        assert all(seen[kind] >= 100 for kind in ("st", "word", "power", "power overflow")), seen

    def test_rank_cut(self):
        # just above the cut a negative power is a value or an overflow, just
        # below it the singular-matrix error; near the cut both inverses
        # carry an error of cond(M) times rounding, so a value is not
        # compared there, but the positive powers are
        gen = np.random.default_rng(25)
        rng = random.Random(25)
        seen = collections.Counter()
        for case in range(400):
            above = case % 2 == 0
            m = times_power_of_two(near_cut(gen, above), rng.randint(-600, 600))
            e = -rng.randint(1, 450)
            with np.errstate(over="ignore", invalid="ignore", under="ignore"):
                expected = outcome(mat_int_pow, m, e)
            got = outcome(_power, _matrix2(m), e)
            if isinstance(got, str) or isinstance(expected, str):
                assert got == expected, case
            seen[("above " if above else "below ") + error_kind(got)] += 1
            self.assert_same_power(seen, m, rng.randint(1, 450))
        assert set(seen) >= {"above value", "above power overflow", "below singular"}, seen
        assert seen["below singular"] == 200, seen

    @pytest.mark.parametrize(
        "a, b, exponents, message",
        [
            (np.diag([1.0, 0.0]), np.eye(2), (2, -1, -1, 1), "negative power of a singular matrix"),
            (np.zeros((2, 2)), np.eye(2), (2, -1, -1, 1), "negative power of a singular matrix"),
            ([[1e200, 2e200], [2e200, 1e200]], np.eye(2), (2, -1, -1, 1),
             "the matrix power with exponent 2 overflows"),
            # A^2 underflows to 0, and A^-1 = 2^1070 I is past the float range
            (2.0**-1070 * np.eye(2), np.eye(2), (2, -1, -1, 1),
             "the matrix power with exponent -1 overflows"),
            # every power is finite, the word is not
            (1e100 * np.eye(2), 1e100 * np.eye(2), (2, 2, 1, 1),
             "the word A^2 B^2 A^1 B^1 overflows"),
            # every entry of the word A^2 is finite, the modulus of one is not
            ([[1.0, 0.65e308 * (1 + 1j)], [0.0, 1.0]], np.eye(2), (1, 1, 1, 1),
             "the word A^1 B^1 A^1 B^1 overflows"),
        ],
        ids=["singular", "zero", "power", "inverse", "word", "modulus"],
    )
    def test_same_errors(self, a, b, exponents, message):
        shape = WordShape(*exponents, 1)
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            assert outcome(numpy_residual, a, b, shape) == message
        assert outcome(verify_word, a, b, shape) == message

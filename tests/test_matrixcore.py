import json
import math

import numpy as np
import pytest

from simpow import matrixcore
from simpow.errors import ClusteringAmbiguityError, NotInvertibleError
from simpow.matrixcore import (
    RANK_TOL,
    VERIFY_TOL,
    conjugacy_residual,
    find_invertible_in_span,
    fit_polynomial_in,
    kernel_basis,
    mat_int_pow,
    matrix_from_json,
    matrix_to_json,
    sylvester_kernel,
    weyr_characteristic,
)
from simpow.scalar import ExponentPair, RootOfUnity, rou_pow
from simpow.similarity import JordanEntry, JordanSpec, matrix_from_spec, powers_similar_general
from simpow.solvers import nilpotent_from_blocks, solve_single_eigenvalue
from simpow.spectra import successor
from test_similarity import FIXTURE_SPECS

J2 = np.array([[0, 1], [0, 0]], dtype=complex)
J3 = np.eye(3, k=1, dtype=complex)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestMatIntPow:
    def test_zeroth_power(self):
        rng = np.random.default_rng(0)
        a = random_matrix(rng, 3)
        assert np.array_equal(mat_int_pow(a, 0), np.eye(3))

    def test_diag_squared(self):
        a = np.diag([1j, -1j])
        assert np.max(np.abs(mat_int_pow(a, 2) - np.diag([-1, -1]))) < 1e-15

    def test_nondiag_fixture_powers(self, nondiag_fixture):
        a, b, _, _, _ = nondiag_fixture
        lhs = np.linalg.solve(b, mat_int_pow(a, 2) @ b)
        assert np.max(np.abs(lhs - mat_int_pow(a, 3))) < 1e-12

    def test_negative_power_of_singular(self):
        with pytest.raises(NotInvertibleError):
            mat_int_pow(J2, -1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "a, e", [(np.array([[1e200, 2e200], [2e200, 1e200]]), 2), (1e-300 * np.eye(2), -2)]
    )
    def test_overflow_is_a_value_error_naming_the_exponent(self, a, e):
        with pytest.raises(ValueError, match=f"exponent {e} overflows"):
            mat_int_pow(a, e)

    def test_inverse_power_property(self):
        rng = np.random.default_rng(1)
        for e in range(1, 9):
            a = random_matrix(rng, 3) + 3 * np.eye(3)
            prod = mat_int_pow(a, e) @ mat_int_pow(a, -e)
            assert np.max(np.abs(prod - np.eye(3))) < VERIFY_TOL


def assert_kernel_residuals(p, q, basis):
    scale = np.linalg.norm(p) + np.linalg.norm(q)
    for x in basis:
        residual = np.linalg.norm(p @ x - x @ q)
        assert residual <= 10 * RANK_TOL * scale * np.linalg.norm(x)


def intertwiners(a, p, q):
    """sylvester_kernel of A, handed A^p and A^q as the CLI forms them."""
    return sylvester_kernel(a, p, q, mat_int_pow(a, p), mat_int_pow(a, q))


def own_scale(m, lam):
    """The cut scale of M's own nested kernels at lam: ||M||_F + |lam|."""
    return np.linalg.norm(m) + abs(lam)


def kernel_dimension(kernel):
    return sum(k.shape[1] for _, k, _ in kernel)


def kernel_elements(kernel):
    """The n x n matrices V reshape(k) W, one per column k of each triple's K."""
    return [v @ k.reshape(v.shape[1], w.shape[0]) @ w for v, ks, w in kernel for k in ks.T]


def span(*matrices):
    """A kernel in the factored form (V = W = I) spanned by the given
    mutually orthogonal matrices."""
    n = len(matrices[0])
    columns = np.stack([m.ravel() / np.linalg.norm(m) for m in matrices], axis=1)
    return [(np.eye(n), columns.astype(complex), np.eye(n))]


class TestKernelBasis:
    def test_zero_matrix(self):
        assert kernel_basis(np.zeros((3, 3))).shape == (3, 3)

    def test_identity(self):
        assert kernel_basis(np.eye(3)).shape == (3, 0)

    def test_jordan_block(self):
        basis = kernel_basis(J3)
        assert basis.shape == (3, 1)
        v = basis[:, 0]
        assert abs(abs(v[0]) - 1.0) < 1e-12 and np.max(np.abs(v[1:])) < 1e-12


class TestSylvesterKernel:
    def test_identity_pair(self):
        assert kernel_dimension(intertwiners(np.eye(2), 1, 1)) == 4

    def test_distinct_diagonal(self):
        kernel = intertwiners(np.diag([1.0, 2.0]), 1, 1)
        assert kernel_dimension(kernel) == 2
        for x in kernel_elements(kernel):
            assert np.max(np.abs(x - np.diag(np.diag(x)))) < 1e-12

    def test_nondiag_membership(self, nondiag_fixture):
        a, b, _, _, _ = nondiag_fixture
        elements = kernel_elements(intertwiners(a, 2, 3))
        cols = np.stack([x.ravel() for x in elements], axis=1)
        coeffs, *_ = np.linalg.lstsq(cols, b.ravel(), rcond=None)
        assert np.linalg.norm(cols @ coeffs - b.ravel()) < 1e-9

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = random_matrix(rng, 3)
            for pq in PARITY_PAIRS:
                p, q = powers(a, pq)
                kernel = intertwiners(a, pq.p, pq.q)
                assert kernel_dimension(kernel) == dense_dimension(p, q)
                assert_kernel_residuals(p, q, kernel_elements(kernel))

    def test_singular_negative_exponent(self):
        with pytest.raises(NotInvertibleError):
            intertwiners(J2, -1, 2)


class TestPairKernel:
    """The kernel of Z -> P Z - Z Q for one pair of small blocks."""

    def test_identity_pair(self):
        assert matrixcore._pair_kernel(np.eye(2), np.eye(2), 2.0).shape == (4, 4)

    def test_residual_bound(self):
        # generic pairs have no kernel; similar ones have one of dimension n
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = random_matrix(rng, 3)
            s = random_matrix(rng, 3)
            for q, dim in ((random_matrix(rng, 3), 0), (np.linalg.solve(s, p @ s), 3)):
                scale = np.linalg.norm(p, 2) + np.linalg.norm(q, 2)
                kernel = matrixcore._pair_kernel(p, q, scale)
                assert kernel.shape[1] == dim
                assert_kernel_residuals(p, q, [k.reshape(3, 3) for k in kernel.T])

    def test_svd_free_rule_agrees_with_the_svd_cut(self, dense_calls):
        # near-scalar pairs mu + eps (E, F) with eps set just below or just
        # above the cut, against the rule's bound and the operator's own norm
        rng = np.random.default_rng(11)
        scale = 2.0
        cut = RANK_TOL * scale
        outcomes = set()
        for _ in range(40):
            m_p, m_q = (int(m) for m in rng.integers(1, 4, 2))
            mu = np.exp(2j * np.pi * rng.random())
            e, f = random_matrix(rng, m_p), random_matrix(rng, m_q)
            unit_p, unit_q = mu * np.eye(m_p) + 1e-3 * e, mu * np.eye(m_q) + 1e-3 * f
            spread = (
                np.linalg.norm(unit_p - np.trace(unit_p) / m_p * np.eye(m_p))
                + np.linalg.norm(unit_q - np.trace(unit_p) / m_p * np.eye(m_q))
            )
            norm = np.linalg.norm(matrixcore._sylvester_operator(unit_p, unit_q), 2)
            for size in (spread, norm):
                for factor in (1 - 1e-3, 1 + 1e-3):
                    eps = 1e-3 * cut * factor / size
                    p, q = mu * np.eye(m_p) + eps * e, mu * np.eye(m_q) + eps * f
                    dense_calls.clear()
                    got = matrixcore._pair_kernel(p, q, scale).shape[1]
                    svd_free = not dense_calls
                    svd = kernel_basis(matrixcore._sylvester_operator(p, q), scale).shape[1]
                    assert got == svd
                    outcomes.add((svd_free, svd == m_p * m_q))
                    if size is spread and factor < 1:
                        assert svd_free and svd == m_p * m_q
                    if size is norm and factor > 1:
                        assert not svd_free and svd < m_p * m_q
        assert outcomes == {(True, True), (False, True), (False, False)}


PARITY_PAIRS = [ExponentPair(p, q) for p, q in [(2, 3), (1, 3), (3, 5), (-1, 2), (1, 2)]]


def dense_dimension(p, q):
    """Oracle: nullity of the n^2 x n^2 operator kron(P, I) - kron(I, Q^T) at RANK_TOL."""
    n = len(p)
    s = np.linalg.svd(np.kron(p, np.eye(n)) - np.kron(np.eye(n), q.T), compute_uv=False)
    return int(np.count_nonzero(s <= RANK_TOL * s[0]))


def exact_dimension(spec, pq):
    """dim {X : A^p X = X A^q} for an invertible spec: a Jordan block of size b at
    lam stays one block of size b at lam^e in A^e, and two blocks of sizes b and c
    at equal eigenvalues intertwine in min(b, c) dimensions."""
    return sum(
        min(b, c)
        for e in spec.entries
        for f in spec.entries
        if rou_pow(e.eigenvalue, pq.p) == rou_pow(f.eigenvalue, pq.q)
        for b in e.blocks
        for c in f.blocks
    )


def cycle_spec(rng, pq, n_max):
    """Whole successor cycles of roots of unity (length <= 4), one block multiset
    with parts <= 2 per cycle, so that A^p and A^q are similar."""
    entries, n = {}, 0
    for _ in range(400):
        order = int(rng.integers(1, 30))
        if math.gcd(order, abs(pq.p * pq.q)) != 1:
            continue
        cycle = [RootOfUnity(int(rng.integers(0, order)), order)]
        while len(cycle) <= 4 and successor(cycle[-1], pq) != cycle[0]:
            cycle.append(successor(cycle[-1], pq))
        blocks = [(1,), (2,), (1, 1), (2, 1)][rng.integers(4)]
        size = len(cycle) * sum(blocks)
        if len(cycle) > 4 or n + size > n_max or any(ev in entries for ev in cycle):
            continue
        entries.update(dict.fromkeys(cycle, blocks))
        n += size
    return JordanSpec(tuple(JordanEntry(ev, blocks) for ev, blocks in entries.items()))


def defect_spec(rng, pq, kind, n_max):
    """A spec whose p-th and q-th powers are not similar, as the benchmark's
    defect kinds build them: a successor cycle of length 2..4 with one block
    structure changed ("structure") or one member of it alone ("spectrum"),
    beside a cycle_spec that holds no member of that cycle."""
    cycle = []
    while not 2 <= len(cycle) <= 4:
        order = int(rng.integers(2, 30))
        if math.gcd(order, abs(pq.p * pq.q)) != 1:
            continue
        cycle = [RootOfUnity(int(rng.integers(1, order)), order)]
        while len(cycle) <= 4 and successor(cycle[-1], pq) != cycle[0]:
            cycle.append(successor(cycle[-1], pq))
    if kind == "structure":
        odd = int(rng.integers(len(cycle)))
        defect = {ev: (1, 1) if i == odd else (2,) for i, ev in enumerate(cycle)}
    else:
        defect = {cycle[int(rng.integers(len(cycle)))]: (1,)}
    size = sum(sum(blocks) for blocks in defect.values())
    while True:
        rest = cycle_spec(rng, pq, n_max - size)
        if not {e.eigenvalue for e in rest.entries} & set(cycle):
            break
    entries = rest.entries + tuple(JordanEntry(ev, blocks) for ev, blocks in defect.items())
    return JordanSpec(entries)


def powers(a, pq):
    return mat_int_pow(a, pq.p), mat_int_pow(a, pq.q)


@pytest.fixture
def dense_calls(monkeypatch):
    """Operand sizes (m_p, m_q) of every Sylvester operator built; an
    (n, n) entry for an n x n input means the whole n^2 x n^2 operator."""
    calls = []
    operator = matrixcore._sylvester_operator

    def recording(p_mat, q_mat):
        calls.append((len(p_mat), len(q_mat)))
        return operator(p_mat, q_mat)

    monkeypatch.setattr(matrixcore, "_sylvester_operator", recording)
    return calls


class TestStructuredKernel:
    """The per-cluster kernel against the dense operator as an oracle."""

    def parity_inputs(self, nondiag_fixture):
        for idx, spec in enumerate(FIXTURE_SPECS):
            a = matrix_from_spec(spec, conjugate_seed=idx)
            for pq in PARITY_PAIRS:
                if spec.zero_entry() is None or pq.p > 0:
                    yield a, pq
        a, _, _, _, _ = nondiag_fixture
        for pq in PARITY_PAIRS:
            yield a, pq

    def test_parity_on_fixtures(self, nondiag_fixture):
        for a, pq in self.parity_inputs(nondiag_fixture):
            p, q = powers(a, pq)
            kernel = intertwiners(a, pq.p, pq.q)
            assert kernel_dimension(kernel) == dense_dimension(p, q)
            assert_kernel_residuals(p, q, kernel_elements(kernel))

    @pytest.mark.parametrize("pq", PARITY_PAIRS, ids=str)
    def test_parity_on_conjugated_cycle_specs(self, pq, dense_calls):
        rng = np.random.default_rng(abs(pq.p) * 100 + pq.q)
        for seed in range(12):
            spec = cycle_spec(rng, pq, 16)
            a = matrix_from_spec(spec, conjugate_seed=seed)
            p, q = powers(a, pq)
            dense_calls.clear()
            kernel = intertwiners(a, pq.p, pq.q)
            assert kernel_dimension(kernel) == dense_dimension(p, q) == exact_dimension(spec, pq)
            assert_kernel_residuals(p, q, kernel_elements(kernel))
            assert (spec.n, spec.n) not in dense_calls

    @pytest.mark.parametrize("pq", PARITY_PAIRS, ids=str)
    def test_parity_under_non_unitary_conjugation(self, pq, dense_calls):
        # A = S J S^-1 with S far from unitary: left and right eigenvectors differ
        rng = np.random.default_rng(7 * abs(pq.p) + pq.q)
        for _ in range(4):
            spec = cycle_spec(rng, pq, 12)
            g = random_matrix(rng, spec.n)
            s = np.eye(spec.n) + 0.6 * g / np.linalg.norm(g, 2)
            a = s @ matrix_from_spec(spec) @ np.linalg.inv(s)
            p, q = powers(a, pq)
            dense_calls.clear()
            kernel = intertwiners(a, pq.p, pq.q)
            assert kernel_dimension(kernel) == dense_dimension(p, q) == exact_dimension(spec, pq)
            assert_kernel_residuals(p, q, kernel_elements(kernel))
            assert (spec.n, spec.n) not in dense_calls

    @pytest.mark.parametrize(
        "entries",
        [
            ((RootOfUnity(1, 5), (3,)), (RootOfUnity(4, 5), (3,))),
            ((RootOfUnity(1, 5), (4,)), (RootOfUnity(4, 5), (4,))),
            ((RootOfUnity(0, 1), (3, 1)), (RootOfUnity(1, 5), (1,)), (RootOfUnity(4, 5), (1,))),
        ],
        ids=["3-blocks", "4-blocks", "3-block-beside"],
    )
    def test_long_conjugated_blocks_stay_split(self, entries, dense_calls):
        # their computed eigenvalues scatter by about (u ||A||)^(1/k), so the
        # split certifies at a coarser radius of the ladder
        pq = ExponentPair(2, 3)
        spec = JordanSpec(tuple(JordanEntry(ev, blocks) for ev, blocks in entries))
        for seed in range(3):
            a = matrix_from_spec(spec, conjugate_seed=seed)
            dimension = kernel_dimension(intertwiners(a, pq.p, pq.q))
            assert dimension == dense_dimension(*powers(a, pq)) == exact_dimension(spec, pq)
        assert (spec.n, spec.n) not in dense_calls

    def test_single_eigenvalue_solves_the_whole_operator(self, dense_calls):
        # one cluster: there is nothing to split
        pq = ExponentPair(2, 3)
        spec = JordanSpec((JordanEntry(RootOfUnity(0, 1), (2, 1, 1)),))
        for seed in range(3):
            a = matrix_from_spec(spec, conjugate_seed=seed)
            dimension = kernel_dimension(intertwiners(a, pq.p, pq.q))
            assert dimension == dense_dimension(*powers(a, pq)) == exact_dimension(spec, pq)
        assert dense_calls.count((spec.n, spec.n)) == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_conjugated_3_block_beside_cycles_stays_split(self, seed, dense_calls):
        # n = 17: before the radius ladder, the 3-block's doubtful cluster
        # sent the whole 289 x 289 operator to one SVD
        pq = ExponentPair(2, 3)
        cycles = [(1, 5), (4, 5), (2, 5), (3, 5), (1, 13), (8, 13), (12, 13), (5, 13)]
        cycles += [(k, 7) for k in range(1, 7)]
        spec = JordanSpec(
            tuple(JordanEntry(RootOfUnity(k, m), (1,)) for k, m in cycles)
            + (JordanEntry(RootOfUnity(0, 1), (3,)),)
        )
        assert spec.n == 17
        a = matrix_from_spec(spec, conjugate_seed=seed)
        kernel = intertwiners(a, pq.p, pq.q)
        assert kernel_dimension(kernel) == exact_dimension(spec, pq) == 17
        assert_kernel_residuals(*powers(a, pq), kernel_elements(kernel))
        assert (17, 17) not in dense_calls
        assert max(m_p * m_q for m_p, m_q in dense_calls) <= 9

    def test_large_input_never_calls_dense(self, dense_calls):
        pq = ExponentPair(2, 3)
        spec = cycle_spec(np.random.default_rng(40), pq, 40)
        assert spec.n >= 36
        a = matrix_from_spec(spec, conjugate_seed=40)
        kernel = intertwiners(a, pq.p, pq.q)
        assert kernel_dimension(kernel) == exact_dimension(spec, pq)
        assert_kernel_residuals(*powers(a, pq), kernel_elements(kernel))
        assert (spec.n, spec.n) not in dense_calls

    def test_cut_is_absolute_in_small_blocks(self):
        # 1x1 blocks: P_c - Q_c is rounding-sized, so a cut relative to the
        # block itself would call it rank 1
        p, q = np.array([[1.0 + 0j]]), np.array([[1.0 + 1e-15j]])
        assert matrixcore._pair_kernel(p, q, 4.0).shape[1] == 1
        operator = matrixcore._sylvester_operator(p, q)
        assert kernel_basis(operator, 4.0).shape[1] == 1
        assert kernel_basis(operator).shape[1] == 0

    def test_repeated_eigenvalue_pairs_without_an_operator(self, dense_calls):
        # eleven 1-blocks at 1 under (-1, 2), n = 24: the pair of that
        # cluster with itself is 1 * I on both sides, 121 dimensions
        # decided by the SVD-free bound instead of a 121 x 121 SVD
        pq = ExponentPair(-1, 2)
        spec = JordanSpec.from_json([
            {"eigenvalue": "0/1", "blocks": [1] * 11},
            {"eigenvalue": "1/3", "blocks": [1, 1]}, {"eigenvalue": "2/3", "blocks": [1, 1]},
            {"eigenvalue": "1/9", "blocks": [2]}, {"eigenvalue": "4/9", "blocks": [2]},
            {"eigenvalue": "7/9", "blocks": [2]}, {"eigenvalue": "2/9", "blocks": [1]},
            {"eigenvalue": "5/9", "blocks": [1]}, {"eigenvalue": "8/9", "blocks": [1]},
        ])
        assert spec.n == 24
        a = matrix_from_spec(spec, conjugate_seed=27)
        kernel = intertwiners(a, pq.p, pq.q)
        assert kernel_dimension(kernel) == exact_dimension(spec, pq)
        assert_kernel_residuals(*powers(a, pq), kernel_elements(kernel))
        assert (11, 11) not in dense_calls and (24, 24) not in dense_calls


def loop_clusters(values, threshold):
    """Reference: the pairwise-loop union-find the vectorized helper replaced."""
    k = len(values)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= threshold:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    clusters = sorted(groups.values(), key=lambda g: (values[g[0]].real, values[g[0]].imag))
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            gap = min(abs(values[a] - values[b]) for a in clusters[i] for b in clusters[j])
            if gap < 2.0 * threshold:
                return f"eigenvalue clusters separated by only {gap:.3e} at threshold {threshold:.3e}"
    return clusters


class TestClusterEigenvalues:
    def test_matches_loop_reference(self):
        # points on a coarse grid, jittered by up to 1.5 thresholds: chains,
        # ambiguous gaps and clean splits all occur
        rng = np.random.default_rng(9)
        for _ in range(2000):
            k = int(rng.integers(1, 12))
            values = rng.integers(0, 6, k) + 1j * rng.integers(0, 3, k) + rng.uniform(0, 1.5e-6, k)
            try:
                got = matrixcore._cluster_eigenvalues(values, 1e-6)
            except ClusteringAmbiguityError as exc:
                got = str(exc)
            assert got == loop_clusters(values, 1e-6)


class TestConjugacyResidual:
    def test_nondiag_solution(self, nondiag_fixture):
        a, b, _, _, _ = nondiag_fixture
        assert conjugacy_residual(b, mat_int_pow(a, 2), mat_int_pow(a, 3)) < 1e-12

    def test_largest_entry_of_difference(self):
        # B = I: the residual is max|X - Y| exactly
        x = np.diag([1.0, 2.0]).astype(complex)
        y = np.array([[1.0, 0.5], [0.0, -1.0]], dtype=complex)
        assert conjugacy_residual(np.eye(2), x, y) == 3.0

    def test_singular_b_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            conjugacy_residual(np.zeros((2, 2)), np.eye(2), np.eye(2))

    def test_exact_ill_conditioned_conjugator(self):
        # the exact B0 of the single-eigenvalue solver at d = 32 has cond ~ 4e17:
        # the solved form max|B0^-1 N B0 - M| is O(1), the inverse-free one is not
        solution = solve_single_eigenvalue(RootOfUnity(1, 2), [32], ExponentPair(1, 3))
        nil, b0, m = nilpotent_from_blocks(solution.block_sizes), solution.b0, solution.m_matrix
        assert np.linalg.cond(b0) > 1e16
        assert np.max(np.abs(np.linalg.solve(b0, nil @ b0) - m)) > 0.1
        assert conjugacy_residual(b0, nil, m) <= 1e-14

    def test_scale_invariant(self, nondiag_fixture):
        a, b, _, _, _ = nondiag_fixture
        a2, a3 = mat_int_pow(a, 2), mat_int_pow(a, 3)
        assert conjugacy_residual(1e6 * b, a2, a3) == pytest.approx(
            conjugacy_residual(b, a2, a3), rel=1e-6, abs=1e-16
        )


class TestFindInvertibleInSpan:
    def test_identity_span(self):
        found = find_invertible_in_span(span(np.eye(2)), seed=0)
        assert found is not None

    def test_nilpotent_span_has_none(self):
        assert find_invertible_in_span(span(J2), seed=0) is None

    def test_deterministic(self):
        kernel = span(np.eye(2), J2)
        a = find_invertible_in_span(kernel, seed=5)
        b = find_invertible_in_span(kernel, seed=5)
        assert np.array_equal(a, b)
        assert not np.allclose(a, find_invertible_in_span(kernel, seed=6))

    def test_conjugator_from_sylvester(self, nondiag_fixture):
        a, _, _, _, _ = nondiag_fixture
        a2, a3 = mat_int_pow(a, 2), mat_int_pow(a, 3)
        found = find_invertible_in_span(intertwiners(a, 2, 3), seed=0)
        assert found is not None
        assert np.max(np.abs(np.linalg.solve(found, a2 @ found) - a3)) < 1e-9

    def test_draw_lies_in_the_kernel(self, nondiag_fixture):
        # the factored draw is a combination of the materialized elements
        a, _, _, _, _ = nondiag_fixture
        kernel = intertwiners(a, 2, 3)
        found = find_invertible_in_span(kernel, seed=3)
        cols = np.stack([x.ravel() for x in kernel_elements(kernel)], axis=1)
        coeffs, *_ = np.linalg.lstsq(cols, found.ravel(), rcond=None)
        assert np.linalg.norm(cols @ coeffs - found.ravel()) < 1e-9 * np.linalg.norm(found)

    def test_empty_basis(self):
        with pytest.raises(ValueError):
            find_invertible_in_span([], seed=0)


class TestOneDrawDecides:
    """find_invertible_in_span draws once: a space with an invertible element
    has its singular elements on the zeros of a nonzero polynomial."""

    @pytest.fixture
    def invertibility_checks(self, monkeypatch):
        calls = []
        check = matrixcore.is_invertible

        def counting(m):
            calls.append(len(m))
            return check(m)

        monkeypatch.setattr(matrixcore, "is_invertible", counting)
        return calls

    def test_no_invertible_element_takes_one_check(self, invertibility_checks):
        pq = ExponentPair(2, 3)
        spec = defect_spec(np.random.default_rng(5), pq, "structure", 12)
        kernel = intertwiners(matrix_from_spec(spec, conjugate_seed=5), pq.p, pq.q)
        assert kernel and not powers_similar_general(spec, pq).similar
        for space in (span(J2), kernel):
            invertibility_checks.clear()
            assert find_invertible_in_span(space, seed=0) is None
            assert len(invertibility_checks) == 1

    @staticmethod
    def assert_draw_matches_verdict(spec, pq, a, seed):
        similar = powers_similar_general(spec, pq).similar
        p, q = powers(a, pq)
        kernel = intertwiners(a, pq.p, pq.q)
        found = find_invertible_in_span(kernel, seed=seed) if kernel else None
        assert (found is not None) == similar
        if similar:
            assert conjugacy_residual(found, p, q) < 1e-9

    @pytest.mark.parametrize("pq", PARITY_PAIRS, ids=str)
    @pytest.mark.parametrize("kind", ["similar", "structure", "spectrum"])
    def test_draw_matches_the_exact_verdict(self, pq, kind):
        rng = np.random.default_rng(abs(pq.p) * 100 + pq.q)
        for seed in range(4):
            spec = cycle_spec(rng, pq, 12) if kind == "similar" else defect_spec(rng, pq, kind, 12)
            assert powers_similar_general(spec, pq).similar == (kind == "similar")
            self.assert_draw_matches_verdict(spec, pq, matrix_from_spec(spec, conjugate_seed=seed), seed)

    @pytest.mark.parametrize("pq", PARITY_PAIRS, ids=str)
    @pytest.mark.parametrize("kind", ["similar", "structure", "spectrum"])
    def test_draw_matches_the_exact_verdict_under_non_unitary_conjugation(self, pq, kind):
        # W_j, the rows of [V_1 ... V_k]^-1, are then far from V_j^H
        rng = np.random.default_rng(7 * abs(pq.p) + pq.q)
        for seed in range(4):
            spec = cycle_spec(rng, pq, 12) if kind == "similar" else defect_spec(rng, pq, kind, 12)
            g = random_matrix(rng, spec.n)
            s = np.eye(spec.n) + 0.6 * g / np.linalg.norm(g, 2)
            self.assert_draw_matches_verdict(spec, pq, s @ matrix_from_spec(spec) @ np.linalg.inv(s), seed)


class TestFitPolynomialIn:
    def test_identity_pair(self):
        coeffs = fit_polynomial_in(np.eye(2), np.eye(2), 3)
        assert coeffs is not None and len(coeffs) == 1
        assert coeffs[0] == pytest.approx(1.0)

    def test_constant_target(self):
        coeffs = fit_polynomial_in(np.diag([1.0, -1.0]), np.eye(2), 3)
        assert coeffs is not None
        assert coeffs[0] == pytest.approx(1.0)
        assert len(coeffs) == 1

    def test_matrix_in_its_own_cube(self):
        # A from the 2x2 distinct-eigenvalue construction: A is a polynomial in A^3
        a = np.diag(
            [np.exp(2j * np.pi / 5), np.exp(8j * np.pi / 5)]
        )
        coeffs = fit_polynomial_in(mat_int_pow(a, 3), a, 1)
        assert coeffs is not None
        fitted = sum(c * mat_int_pow(mat_int_pow(a, 3), j) for j, c in enumerate(coeffs))
        assert np.max(np.abs(fitted - a)) < 1e-9

    def test_self_fit(self):
        rng = np.random.default_rng(2)
        s = random_matrix(rng, 3)
        coeffs = fit_polynomial_in(s, s, 3)
        assert coeffs is not None
        assert len(coeffs) == 2
        assert coeffs[0] == pytest.approx(0.0, abs=1e-10)
        assert coeffs[1] == pytest.approx(1.0, abs=1e-10)

    def test_unfittable(self):
        # a non-diagonal target cannot be a polynomial in a diagonal matrix
        assert fit_polynomial_in(np.diag([1.0, 2.0]), J2, 3) is None
        # S = I: the second Krylov column repeats the first, R_1 is exactly
        # singular, and the running residual alone would pass
        assert fit_polynomial_in(np.eye(2), J2, 1) is None

    @staticmethod
    def fit_inputs():
        """(S, T) = (A^q, A) for FIXTURE_SPECS and seeded cycle specs, as solve-b fits them."""
        for idx, spec in enumerate(FIXTURE_SPECS):
            a = matrix_from_spec(spec, conjugate_seed=idx)
            for pq in PARITY_PAIRS:
                if spec.zero_entry() is None or pq.q > 0:
                    yield mat_int_pow(a, pq.q), a
        for pq in PARITY_PAIRS:
            rng = np.random.default_rng(31 * abs(pq.p) + pq.q)
            for seed in range(6):
                a = matrix_from_spec(cycle_spec(rng, pq, 14), conjugate_seed=seed)
                yield mat_int_pow(a, pq.q), a

    def test_matches_the_per_degree_lstsq_loop(self):
        outcomes = set()
        for s, t in self.fit_inputs():
            threshold = VERIFY_TOL * np.linalg.norm(t)
            reference = lstsq_fit(s, t, len(s) - 1)
            coeffs = fit_polynomial_in(s, t, len(s) - 1)
            outcomes.add(coeffs is not None)
            if reference is None:
                assert coeffs is None
                continue
            assert coeffs is not None and len(coeffs) == len(reference)
            assert poly_residual(s, t, coeffs) <= threshold
            assert poly_residual(s, t, reference) <= threshold
        assert outcomes == {True, False}


def lstsq_fit(s, t, max_degree):
    """Reference: one fresh least-squares solve per degree, the loop the
    single QR factorization replaced."""
    threshold = VERIFY_TOL * max(np.linalg.norm(t), 1e-300)
    powers = [np.eye(len(s), dtype=complex)]
    for degree in range(max_degree + 1):
        if degree > 0:
            powers.append(powers[-1] @ s)
        cols = np.stack([p.ravel() for p in powers], axis=1)
        coeffs, *_ = np.linalg.lstsq(cols, t.ravel(), rcond=None)
        if np.linalg.norm(cols @ coeffs - t.ravel()) <= threshold:
            return [complex(c) for c in coeffs]
    return None


def poly_residual(s, t, coeffs):
    """||sum(c[j] S^j) - T||_F."""
    total, power = np.zeros_like(t), np.eye(len(s), dtype=complex)
    for c in coeffs:
        total, power = total + c * power, power @ s
    return np.linalg.norm(total - t)


class TestWeyrCharacteristic:
    def test_jordan_block(self):
        assert weyr_characteristic(J3, 0, 3, own_scale(J3, 0)) == [1, 2, 3]

    def test_identity(self):
        assert weyr_characteristic(np.eye(2), 1.0, 2, own_scale(np.eye(2), 1.0)) == [2, 2]

    def test_intro_fixture_powers(self, intro_matrix):
        # J3^3 = 0 exactly, so both A^3 and A^5 have a vanished nilpotent part
        a3 = mat_int_pow(intro_matrix, 3)
        a5 = mat_int_pow(intro_matrix, 5)
        assert weyr_characteristic(a3, 0, 3, own_scale(a3, 0)) == [3, 3, 3]
        assert weyr_characteristic(a5, 0, 3, own_scale(a5, 0)) == [3, 3, 3]
        # the similarity failure shows up at the invertible eigenvalues
        assert weyr_characteristic(a3, 1j, 2, own_scale(a3, 1j)) == [1, 2]
        assert weyr_characteristic(a5, 1j, 2, own_scale(a5, 1j)) == [2, 2]

    def test_exact_rank_oracle(self, intro_matrix):
        # independent oracle: sympy exact kernel dimensions over Gaussian rationals
        import sympy

        a3 = mat_int_pow(intro_matrix, 3)
        m = sympy.Matrix(
            [
                [sympy.nsimplify(z.real) + sympy.I * sympy.nsimplify(z.imag) for z in row]
                for row in a3.tolist()
            ]
        )
        shifted = m - sympy.I * sympy.eye(7)
        for k in (1, 2):
            exact_dim = 7 - (shifted**k).rank()
            assert weyr_characteristic(a3, 1j, 2, own_scale(a3, 1j))[k - 1] == exact_dim

    def test_similarity_invariance(self):
        rng = np.random.default_rng(4)
        base = np.zeros((5, 5), dtype=complex)
        base[:2, :2] = 2.0 * np.eye(2) + J2
        base[2:, 2:] = -1j * np.eye(3) + J3
        for _ in range(5):
            g = random_matrix(rng, 5)
            q, _ = np.linalg.qr(g)
            conj = q.conj().T @ base @ q
            for lam in (2.0, -1j):
                dims = weyr_characteristic(conj, lam, 3, own_scale(conj, lam))
                assert dims == weyr_characteristic(base, lam, 3, own_scale(base, lam))

    def test_bad_depth(self):
        with pytest.raises(ValueError):
            weyr_characteristic(J3, 0, 0, own_scale(J3, 0))


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 3)
        again = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(m, again)

    def test_same_bytes_as_the_per_entry_form(self):
        rng = np.random.default_rng(6)
        for n in (1, 3, 24):
            m = random_matrix(rng, n)
            m[rng.random((n, n)) < 0.3] = complex(1.0, -0.0)
            m[0, 0] = complex(-0.0, -0.0)
            per_entry = {
                "rows": n,
                "cols": n,
                "data": [[float(z.real), float(z.imag)] for z in m.ravel()],
            }
            assert json.dumps(matrix_to_json(m)) == json.dumps(per_entry)
            assert json.dumps(per_entry).count("[-0.0, -0.0]") == 1

    def test_length_validation(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

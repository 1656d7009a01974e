import json
import math
import os
import tempfile

import numpy as np
import pytest

from simpow import RANK_TOL, VERIFY_TOL, cli, matrixcore
from simpow.matrixcore import (
    ClusteringAmbiguityError,
    Split,
    conjugacy_residual,
    eigenspace_splits,
    kernel_basis,
    mat_int_pow,
    matrix_to_json,
    weyr_characteristic,
)
from simpow.scalar import ExponentPair, RootOfUnity
from simpow.similarity import JordanEntry, JordanSpec, matrix_from_spec, powers_similar_general
from simpow.solvers import solve_single_eigenvalue
from simpow.spectra import successor
from test_similarity import FIXTURE_SPECS, exact_dimension, integer_conjugate, integer_corpus

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
        with pytest.raises(ValueError, match="negative power of a singular matrix"):
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


def own_scale(m, lam):
    """The cut scale of M's own nested kernels at lam: ||M||_F + |lam|."""
    return np.linalg.norm(m) + abs(lam)


def solve_b(a, pq):
    """(spec, kernel_dimension, B or None) as solve-b finds them for the
    matrix file of A, through the route the command runs: the recovered
    spec with its certificates, its count and, when it is similar, its
    closed-form conjugator carried to A's basis."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "a.json")
        with open(path, "w") as fh:
            json.dump(matrix_to_json(a), fh)
        args = cli._parse_args(["solve-b", path, "-p", str(pq.p), "-q", str(pq.q)])
        report, spec, _, _ = cli._route(args, find_b=True)
    conjugator = report["conjugator"]
    b = None if conjugator["b"] is None else np.asarray(cli.matrix_from_json(conjugator["b"]))
    return spec, conjugator["kernel_dimension"], b


def assert_conjugates(a, pq, b):
    """B solves A^p B = B A^q within a tenth of the bound solve-b refuses at."""
    p, q = powers(a, pq)
    bound = VERIFY_TOL * (np.linalg.norm(p) + np.linalg.norm(q))
    assert conjugacy_residual(b, p, q) <= 0.1 * bound


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


PARITY_PAIRS = [ExponentPair(p, q) for p, q in [(2, 3), (1, 3), (3, 5), (-1, 2), (1, 2)]]


def dense_operator(p, q):
    """Oracle: the n^2 x n^2 operator kron(P, I) - kron(I, Q^T) and its rank
    cut RANK_TOL * (||P||_2 + ||Q||_2), a bound on its norm, so that an
    operator of rounding size is not judged by itself."""
    n = len(p)
    operator = np.kron(p, np.eye(n)) - np.kron(np.eye(n), q.T)
    return operator, RANK_TOL * (np.linalg.norm(p, 2) + np.linalg.norm(q, 2))


def dense_kernel(p, q):
    """The n x n matrices X with P X = X Q spanning the dense operator's null space."""
    operator, cut = dense_operator(p, q)
    _, s, vh = np.linalg.svd(operator)
    return [x.conj().reshape(len(p), len(p)) for x in vh[np.count_nonzero(s > cut) :]]


def dense_singular_values(p, q):
    """The singular values of the dense operator, and its cut."""
    operator, cut = dense_operator(p, q)
    return np.linalg.svd(operator, compute_uv=False), cut


def dense_dimension(p, q):
    """The nullity of the dense operator at its cut."""
    s, cut = dense_singular_values(p, q)
    return int(np.count_nonzero(s <= cut))


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


class TestStructuredKernel:
    """The conjugator route of a matrix file (the count of its recovered
    spec, and that spec's closed-form B in A's basis) against the dense
    n^2 x n^2 operator as an oracle."""

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
            spec, dimension, b = solve_b(a, pq)
            assert dimension == dense_dimension(*powers(a, pq))
            if b is not None:
                assert_conjugates(a, pq, b)

    @pytest.mark.parametrize("pq", PARITY_PAIRS, ids=str)
    def test_parity_on_conjugated_cycle_specs(self, pq):
        rng = np.random.default_rng(abs(pq.p) * 100 + pq.q)
        for seed in range(12):
            spec = cycle_spec(rng, pq, 16)
            a = matrix_from_spec(spec, conjugate_seed=seed)
            recovered, dimension, b = solve_b(a, pq)
            assert dimension == dense_dimension(*powers(a, pq)) == exact_dimension(spec, pq)
            assert recovered == spec
            assert_conjugates(a, pq, b)

    @pytest.mark.parametrize("pq", PARITY_PAIRS, ids=str)
    def test_parity_under_non_unitary_conjugation(self, pq):
        # A = S J S^-1 with S far from unitary: left and right eigenvectors differ
        rng = np.random.default_rng(7 * abs(pq.p) + pq.q)
        for _ in range(4):
            spec = cycle_spec(rng, pq, 12)
            g = random_matrix(rng, spec.n)
            s = np.eye(spec.n) + 0.6 * g / np.linalg.norm(g, 2)
            a = s @ matrix_from_spec(spec) @ np.linalg.inv(s)
            recovered, dimension, b = solve_b(a, pq)
            assert dimension == dense_dimension(*powers(a, pq)) == exact_dimension(spec, pq)
            assert recovered == spec
            assert_conjugates(a, pq, b)

    @pytest.mark.parametrize(
        "entries",
        [
            ((RootOfUnity(1, 5), (3,)), (RootOfUnity(4, 5), (3,))),
            ((RootOfUnity(1, 5), (4,)), (RootOfUnity(4, 5), (4,))),
            ((RootOfUnity(0, 1), (3, 1)), (RootOfUnity(1, 5), (1,)), (RootOfUnity(4, 5), (1,))),
        ],
        ids=["3-blocks", "4-blocks", "3-block-beside"],
    )
    def test_long_conjugated_blocks_stay_split(self, entries):
        # their computed eigenvalues scatter by about (u ||A||)^(1/k), so the
        # split certifies at a coarser radius of the ladder, and every chain
        # is built on its cluster's own block
        pq = ExponentPair(2, 3)
        spec = JordanSpec(tuple(JordanEntry(ev, blocks) for ev, blocks in entries))
        for seed in range(3):
            a = matrix_from_spec(spec, conjugate_seed=seed)
            recovered, dimension, b = solve_b(a, pq)
            assert dimension == dense_dimension(*powers(a, pq)) == exact_dimension(spec, pq)
            assert all(basis is not None for _, _, basis in recovered.certificates)
            assert_conjugates(a, pq, b)

    def test_single_eigenvalue_chains_on_the_whole_matrix(self):
        # one cluster: there is nothing to split, and the chains are taken
        # in the nested kernels of A - 1 itself
        pq = ExponentPair(2, 3)
        spec = JordanSpec((JordanEntry(RootOfUnity(0, 1), (2, 1, 1)),))
        for seed in range(3):
            a = matrix_from_spec(spec, conjugate_seed=seed)
            recovered, dimension, b = solve_b(a, pq)
            assert dimension == dense_dimension(*powers(a, pq)) == exact_dimension(spec, pq)
            assert [basis for _, _, basis in recovered.certificates] == [None]
            assert_conjugates(a, pq, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_conjugated_3_block_beside_cycles_stays_split(self, seed):
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
        recovered, dimension, b = solve_b(a, pq)
        assert dimension == exact_dimension(spec, pq) == 17
        assert all(basis is not None for _, _, basis in recovered.certificates)
        assert_conjugates(a, pq, b)

    def test_large_input(self):
        pq = ExponentPair(2, 3)
        spec = cycle_spec(np.random.default_rng(40), pq, 40)
        assert spec.n >= 36
        a = matrix_from_spec(spec, conjugate_seed=40)
        recovered, dimension, b = solve_b(a, pq)
        assert dimension == exact_dimension(spec, pq)
        assert all(basis is not None for _, _, basis in recovered.certificates)
        assert_conjugates(a, pq, b)

    def test_repeated_eigenvalue_pairs(self):
        # eleven 1-blocks at 1 under (-1, 2), n = 24: their chains are the
        # cluster's basis as it is, 121 dimensions counted from the spec
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
        recovered, dimension, b = solve_b(a, pq)
        assert recovered == spec
        assert dimension == exact_dimension(spec, pq)
        assert_conjugates(a, pq, b)


class TestSmallMatrixConjugators:
    """The conjugator route of a matrix file on small matrices whose
    intertwiners are known by hand, each against the dense operator."""

    def test_identity(self):
        # every X intertwines I^2 and I^3, and B is the identity itself
        a = np.eye(3)
        _, dimension, b = solve_b(a, ExponentPair(2, 3))
        assert dimension == dense_dimension(*powers(a, ExponentPair(2, 3))) == 9
        assert np.max(np.abs(b - np.eye(3))) < 1e-12

    def test_distinct_diagonal(self):
        # A = diag(1, -1) and A^3 = A: the intertwiners are the diagonal
        # matrices, and B is one of them
        a, pq = np.diag([1.0, -1.0]), ExponentPair(1, 3)
        _, dimension, b = solve_b(a, pq)
        assert dimension == dense_dimension(*powers(a, pq)) == 2
        assert np.max(np.abs(b - np.diag(np.diag(b)))) < 1e-12
        assert_conjugates(a, pq, b)

    def test_no_root_of_unity_has_no_intertwiner(self):
        # A^2 = diag(4, 9) and A^3 = diag(8, 27) share no eigenvalue
        a, pq = np.diag([2.0, 3.0]), ExponentPair(2, 3)
        _, dimension, b = solve_b(a, pq)
        assert dimension == dense_dimension(*powers(a, pq)) == 0
        assert b is None

    @pytest.mark.parametrize(
        "a, pair, dimension, similar",
        [(J2, (2, 3), 4, True), (J2, (3, 2), 4, True), (J3, (2, 3), 6, False)],
        ids=["J2", "J2-swapped", "J3"],
    )
    def test_nilpotent(self, a, pair, dimension, similar):
        # J2^2 = J2^3 = 0; J3^2 != 0 = J3^3, so their kernel holds no invertible B
        pq = ExponentPair(*pair)
        recovered, got, b = solve_b(a, pq)
        assert recovered.zero_entry() is not None
        assert got == dense_dimension(*powers(a, pq)) == dimension
        assert (b is not None) == similar
        if similar:
            assert_conjugates(a, pq, b)

    def test_singular_negative_exponent(self):
        with pytest.raises(ValueError, match="negative power of a singular matrix"):
            solve_b(J2, ExponentPair(-1, 2))


class TestEigenspaceSplits:
    """The ladder ends at its first certified rung; the chains of the
    conjugator are taken on the rung that recovery certifies."""

    # conjugated 3-blocks scatter their eigenvalues far beyond the finest
    # radius, which splits each into three clusters and cannot certify
    THREE_BLOCKS = JordanSpec(
        (JordanEntry(RootOfUnity(1, 5), (3,)), JordanEntry(RootOfUnity(4, 5), (3,)))
    )

    def test_ends_at_the_first_certified_rung(self):
        for seed in range(3):
            a = matrix_from_spec(self.THREE_BLOCKS, conjugate_seed=seed)
            splits = eigenspace_splits(a)
            assert len(splits) == 2
            assert len(splits[0].clusters) == 6 and splits[0].bases is None
            assert len(splits[1].clusters) == 2 and splits[1].bases is not None

    def test_one_cluster_ends_the_ladder(self):
        [split] = eigenspace_splits(np.eye(3))
        assert split.clusters == [[0, 1, 2]]

    def test_uncertified_split_takes_chains_on_the_whole_matrix(self):
        # Phi_5^2 + Phi_7 under integer operations (n = 14): no rung
        # certifies, so each cluster's chains come from the nested kernels
        # of A - lambda on all of A.  The count is exact, where the dense
        # operator's own cut keeps 24 directions
        pq = ExponentPair(2, 3)
        a, spec = integer_conjugate([(5, 2), (7, 1)], 40, seed=43)
        last = eigenspace_splits(a)[-1]
        assert isinstance(last, Split) and last.bases is None
        recovered, dimension, b = solve_b(a, pq)
        assert recovered == spec
        assert all(basis is None for _, _, basis in recovered.certificates)
        assert dimension == exact_dimension(spec, pq) == 14
        assert_conjugates(a, pq, b)


def generalized_eigenspace(a, vecs, members, lam, scale):
    """Reference: the split's basis of a cluster before the Newton-refined
    eigenvectors, its lone eigenvector, else the first nested kernel of
    A - lam*I of the cluster's dimension, each rank cut at RANK_TOL * scale;
    None when the dimensions overshoot or stop short."""
    mult = len(members)
    if mult < 2:
        return vecs[:, members]
    kernels = []
    weyr_characteristic(a, lam, mult, scale, kernels)
    for kernel in kernels:
        if kernel.shape[1] >= mult:
            return kernel if kernel.shape[1] == mult else None
    return None


def invariance_residual(a, q):
    aq = a @ q
    return float(np.linalg.norm(aq - q @ (q.conj().T @ aq)))


def separation(a, q):
    """sep(M, A_22) for orthonormal q: the smallest singular value of
    X -> A_22 X - X M, with M = q^H A q and A_22 = A on q's complement."""
    n, m = q.shape
    perp = np.linalg.qr(q, mode="complete")[0][:, m:]
    a22, mq = perp.conj().T @ a @ perp, q.conj().T @ a @ q
    op = np.kron(np.eye(m), a22) - np.kron(mq.T, np.eye(n - m))
    return float(np.linalg.svd(op, compute_uv=False)[-1])


def against_the_staircase(a):
    """Per cluster of two or more on every rung the split of A reaches:
    (the new basis, the staircase's, the sine of their largest principal
    angle, its perturbation bound 2 (||R_new|| + ||R_ref||) / sep, the
    certificate's scale ||A||_F + |c|), sine and bound None unless both
    certify (Stewart, SIAM Rev. 15, 1973: an orthonormal Q with residual R
    lies within 2 ||R|| / sep of an invariant subspace)."""
    values, vecs = np.linalg.eig(a)
    norm = float(np.linalg.norm(a))
    for split in eigenspace_splits(a):
        if not isinstance(split, Split) or len(split.clusters) == 1:
            continue
        bases = matrixcore._cluster_bases(a, vecs, split.clusters, split.centres, norm)
        for c, z, new in zip(split.clusters, split.centres, bases):
            if len(c) < 2:
                continue
            scale = norm + abs(z)
            ref = generalized_eigenspace(a, vecs, c, z, scale)
            if new is None or ref is None:
                yield new, ref, None, None, scale
                continue
            sine = float(np.linalg.norm(new - ref @ (ref.conj().T @ new), 2))
            residuals = invariance_residual(a, new) + invariance_residual(a, ref)
            yield new, ref, sine, 2 * residuals / separation(a, new), scale


# an n = 24 similar spec under (2,3) as the numeric benchmark draws them:
# whole successor cycles, one block multiset per cycle, 1/1 filling the rest
NUMERIC_STYLE = JordanSpec(tuple(
    JordanEntry(RootOfUnity(k, m), blocks)
    for members, blocks in [
        ([(1, 5), (4, 5)], (2, 1)),
        ([(1, 19), (11, 19), (7, 19)], (1, 1, 1)),
        ([(2, 5), (3, 5)], (2,)),
        ([(2, 19), (3, 19), (14, 19)], (1,)),
        ([(0, 1)], (1, 1)),
    ]
    for k, m in members
))


class TestClusterBases:
    """A cluster's basis is its Newton-refined eigenvectors, certified by
    their invariance residual; the nested kernels of A - c it replaced are
    the reference (generalized_eigenspace)."""

    def certified_alike(self, a):
        """The (sine, bound) of every cluster of two or more on the rungs
        of A's split, asserting that the new basis and the staircase's
        certify alike and that a new basis meets its own certificate."""
        found = []
        for new, ref, sine, bound, scale in against_the_staircase(a):
            assert (new is None) == (ref is None)
            if new is not None:
                assert invariance_residual(a, new) <= RANK_TOL * scale
            if sine is not None:
                found.append((new.shape[1], sine, bound))
        return found

    @pytest.mark.parametrize(
        "pq", [ExponentPair(2, 3), ExponentPair(3, 5), ExponentPair(-1, 2)], ids=str
    )
    def test_spans_the_staircase_kernel_on_cycles(self, pq):
        rng = np.random.default_rng(abs(pq.p) * 10 + pq.q)
        found = []
        for seed in range(10):
            found += self.certified_alike(matrix_from_spec(cycle_spec(rng, pq, 12), seed))
        assert len(found) > 10
        assert all(sine <= 1e-10 for _, sine, _ in found)

    def test_spans_the_staircase_kernel_at_n24(self):
        for seed in range(3):
            found = self.certified_alike(matrix_from_spec(NUMERIC_STYLE, conjugate_seed=seed))
            assert sorted(size for size, _, _ in found) == [2, 2, 2, 3, 3, 3, 3, 3]
            assert all(sine <= 1e-10 for _, sine, _ in found)

    def test_spans_the_staircase_kernel_on_the_integer_corpus(self):
        # where a cluster's invariant subspace is ill-conditioned the
        # staircase kernel itself is off by up to 0.1, so the angle is held
        # to the perturbation bound of the two residuals there, and the new
        # basis to its own invariance certificate (certified_alike)
        within = 0
        for seed in range(1000, 1240):
            for _, sine, bound in self.certified_alike(integer_corpus(seed)[0]):
                assert sine <= max(1e-10, bound)
                within += sine <= 1e-10
        assert within > 0

    @pytest.mark.parametrize("factor, certified", [(0.5, True), (2.0, False)])
    def test_certified_at_the_cut(self, factor, certified):
        # [e1, e2] misses invariance by R = t e3, and K is singular (A - 0 is
        # 0 on e3), so no step moves it: certified iff t <= RANK_TOL * scale
        t = factor * RANK_TOL
        a = np.zeros((3, 3), dtype=complex)
        a[2, 0] = t
        basis = matrixcore._generalized_eigenspace(a, np.eye(3, 2, dtype=complex), 0j, 1.0)
        assert (basis is not None) == certified

    def test_split_takes_no_staircase(self, monkeypatch):
        # on a certified split of n = 24 the one n x n SVD taken in the
        # split is the cond certificate of [V_1 ... V_k]: none of A - c_i
        # or its deflations, per cluster (one of A itself, for its 2-norm,
        # is allowed)
        a = matrix_from_spec(NUMERIC_STYLE, conjugate_seed=1)
        square, svd = [], np.linalg.svd

        def counted(m, *args, **kwargs):
            if m.shape == a.shape:
                square.append(np.array(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        [split] = eigenspace_splits(a)
        assert split.bases is not None and max(len(c) for c in split.clusters) == 3
        taken = [m for m in square if not np.array_equal(m, a)]
        assert len(taken) == 1 and np.array_equal(taken[0], np.hstack(split.bases))


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
        nil = matrix_from_spec(JordanSpec((JordanEntry(None, solution.block_sizes),)))
        b0, m = solution.b0, solution.m_matrix
        assert np.linalg.cond(b0) > 1e16
        assert np.max(np.abs(np.linalg.solve(b0, nil @ b0) - m)) > 0.1
        assert conjugacy_residual(b0, nil, m) <= 1e-14

    def test_scale_invariant(self, nondiag_fixture):
        a, b, _, _, _ = nondiag_fixture
        a2, a3 = mat_int_pow(a, 2), mat_int_pow(a, 3)
        assert conjugacy_residual(1e6 * b, a2, a3) == pytest.approx(
            conjugacy_residual(b, a2, a3), rel=1e-6, abs=1e-16
        )


class TestConjugatorMatchesVerdict:
    """A matrix file's B is present exactly when the verdict of its
    recovered spec is similar, and then it conjugates."""

    @staticmethod
    def assert_b_matches_verdict(spec, pq, a):
        similar = powers_similar_general(spec, pq).similar
        recovered, _, b = solve_b(a, pq)
        assert recovered == spec
        assert (b is not None) == similar
        if similar:
            assert_conjugates(a, pq, b)

    @pytest.mark.parametrize("pq", PARITY_PAIRS, ids=str)
    @pytest.mark.parametrize("kind", ["similar", "structure", "spectrum"])
    def test_b_matches_the_exact_verdict(self, pq, kind):
        rng = np.random.default_rng(abs(pq.p) * 100 + pq.q)
        for seed in range(4):
            spec = cycle_spec(rng, pq, 12) if kind == "similar" else defect_spec(rng, pq, kind, 12)
            assert powers_similar_general(spec, pq).similar == (kind == "similar")
            self.assert_b_matches_verdict(spec, pq, matrix_from_spec(spec, conjugate_seed=seed))

    @pytest.mark.parametrize("pq", PARITY_PAIRS, ids=str)
    @pytest.mark.parametrize("kind", ["similar", "structure", "spectrum"])
    def test_b_matches_the_exact_verdict_under_non_unitary_conjugation(self, pq, kind):
        # W_j, the rows of [V_1 ... V_k]^-1, are then far from V_j^H
        rng = np.random.default_rng(7 * abs(pq.p) + pq.q)
        for _ in range(4):
            spec = cycle_spec(rng, pq, 12) if kind == "similar" else defect_spec(rng, pq, kind, 12)
            g = random_matrix(rng, spec.n)
            s = np.eye(spec.n) + 0.6 * g / np.linalg.norm(g, 2)
            self.assert_b_matches_verdict(spec, pq, s @ matrix_from_spec(spec) @ np.linalg.inv(s))


class TestFitPolynomialIn:
    # complex operands, as every caller passes them
    def test_identity_pair(self):
        coeffs = fit_polynomial_in(np.eye(2, dtype=complex), np.eye(2, dtype=complex), 3)
        assert coeffs is not None and len(coeffs) == 1
        assert coeffs[0] == pytest.approx(1.0)

    def test_constant_target(self):
        coeffs = fit_polynomial_in(np.diag([1.0, -1.0]), np.eye(2, dtype=complex), 3)
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


def fit_polynomial_in(
    matrix_s: np.ndarray, target_t: np.ndarray, max_degree: int
) -> list[complex] | None:
    """Reference: coefficients c with sum(c[j] * S^j) = T, if such a
    polynomial exists, searched for degree by degree, as solve-b found
    its polynomial in A^q before solvers.polynomial_witness.

    One QR factorization K = QR of the vectorized powers S^0..S^d_max,
    d_max = min(max_degree, n - 1), serves every degree d: the least-squares residual over the first d + 1
    columns is r_d = r_(d-1) - q_d (q_d^H t).  At the first d where it
    passes VERIFY_TOL * ||T|| (Frobenius), R_d c = (Q^H t)[:d+1] is solved
    and ||K_d c - t|| checked again; a rank-deficient K_d can pass the
    running residual only.  Returns the coefficients of the smallest
    degree that passes, or None.
    """
    n = len(matrix_s)
    threshold = VERIFY_TOL * max(np.linalg.norm(target_t), 1e-300)
    powers = [np.eye(n, dtype=complex)]
    for _ in range(min(max_degree, n - 1)):  # S^n and up add nothing (Cayley-Hamilton)
        powers.append(powers[-1] @ matrix_s)
    krylov = np.stack([p.ravel() for p in powers], axis=1)
    vec_t = target_t.ravel()
    q, r = np.linalg.qr(krylov)
    projection = q.conj().T @ vec_t
    residual = vec_t.copy()
    for d in range(len(powers)):
        residual -= projection[d] * q[:, d]
        if np.linalg.norm(residual) > threshold:
            continue
        try:
            coeffs = np.linalg.solve(r[: d + 1, : d + 1], projection[: d + 1])
        except np.linalg.LinAlgError:  # an exactly dependent column: R_d is singular
            continue
        if np.linalg.norm(krylov[:, : d + 1] @ coeffs - vec_t) <= threshold:
            return [complex(c) for c in coeffs]
    return None


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


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, 3)
        again = np.asarray(cli.matrix_from_json(matrix_to_json(m)))
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
            cli.matrix_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})

import cmath
import math
import random

import numpy as np
import pytest

from simpow import RANK_TOL, VERIFY_TOL, matrixcore, similarity
from simpow.matrixcore import (
    ClusteringAmbiguityError,
    Split,
    conjugacy_residual,
    eigenspace_splits,
    mat_int_pow,
)
from simpow.scalar import (
    ExponentPair,
    RootOfUnity,
    _admissible_roots,
    mod_inverse,
    rou_pow,
    rou_to_complex,
)
from simpow.similarity import (
    FailureReason,
    JordanEntry,
    JordanSpec,
    matrix_from_spec,
    powers_similar_general,
    spec_from_matrix,
)
from simpow.solvers import build_cycle_instance, spec_conjugator
from simpow.spectra import successor

R = RootOfUnity


def entry(ev, *blocks):
    return JordanEntry(ev, tuple(blocks))


def cycle(lam, pq):
    """The successor cycle of lam, starting at lam."""
    members = [lam]
    while (nxt := successor(members[-1], pq)) != lam:
        members.append(nxt)
    return members


def recoverable(spec, pq):
    """The (eigenvalue, blocks) pairs of spec as spec_from_matrix reports them.

    A root of unity whose order divides no |q^t - p^t| (t <= n) is not an
    admissible eigenvalue and comes back complex; complex values are
    rounded to 6 decimals, so that a computed one compares equal.
    """
    out = set()
    for e in spec.entries:
        ev = e.eigenvalue
        if isinstance(ev, RootOfUnity):
            if ev not in _admissible_roots(rou_to_complex(ev), pq, spec.n, 1e-9):
                ev = rou_to_complex(ev)
        if isinstance(ev, complex):
            ev = complex(round(ev.real, 6), round(ev.imag, 6))
        out.add((ev, e.blocks))
    return out


def recover(a, pq):
    """spec_from_matrix on the splits of A, as `analyze` makes them."""
    return spec_from_matrix(a, pq, eigenspace_splits(a))


def numeric_verdict(a, pq):
    """The one route from a matrix to a verdict, as `analyze` takes it."""
    return powers_similar_general(recover(a, pq), pq)


class TestJordanSpec:
    def test_distinct_eigenvalues_enforced(self):
        with pytest.raises(ValueError):
            JordanSpec((entry(R(1, 5), 1), entry(R(1, 5), 2)))

    def test_size(self, intro_spec):
        assert intro_spec.n == 7

    def test_json_round_trip(self, intro_spec):
        assert JordanSpec.from_json(intro_spec.to_json()) == intro_spec

    def test_json_complex_eigenvalue(self):
        spec = JordanSpec((entry(0.5 + 0.25j, 2),))
        assert JordanSpec.from_json(spec.to_json()) == spec

    def test_equality_ignores_entry_order(self):
        spec = JordanSpec((entry(R(0, 1), 2), entry(R(1, 2), 1)))
        recovered = recover(matrix_from_spec(spec, conjugate_seed=4), ExponentPair(1, 3))
        assert recovered.entries == (entry(R(1, 2), 1), entry(R(0, 1), 2))
        assert recovered == spec
        assert hash(recovered) == hash(spec)
        assert recovered != JordanSpec((entry(R(0, 1), 1, 1), entry(R(1, 2), 1)))
        # the order is kept as given: it fixes the blocks of matrix_from_spec and to_json
        assert recovered.to_json() != spec.to_json()
        assert not np.array_equal(matrix_from_spec(recovered), matrix_from_spec(spec))


class TestMatrixFromSpec:
    def test_bytes_of_the_block_sum(self):
        # the reference: the direct sum of lambda*I + N, whose sum turns a
        # -0.0 part into 0.0; the benchmark's matrix files are built from it
        rng = random.Random(3)
        parts = [0.0, -0.0, 1.0, -2.5, 1e-300, 1e200]
        for case in range(400):
            entries = {}
            for _ in range(rng.randint(1, 4)):
                kind = rng.random()
                ev = (
                    None if kind < 0.2
                    else R(rng.randrange(30), rng.randint(1, 30)) if kind < 0.6
                    else complex(rng.choice(parts), rng.choice(parts))
                )
                entries.setdefault(ev, tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
            spec = JordanSpec(tuple(JordanEntry(ev, blocks) for ev, blocks in entries.items()))
            seed = case if case % 2 else None
            blocks = [
                similarity._ev_complex(e.eigenvalue) * np.eye(size, dtype=complex)
                + np.eye(size, k=1, dtype=complex)
                for e in spec.entries
                for size in e.blocks
            ]
            expected = matrixcore.block_diagonal(blocks)
            if seed is not None:
                g = np.random.default_rng(seed)
                shape = (spec.n, spec.n)
                q, _ = np.linalg.qr(g.standard_normal(shape) + 1j * g.standard_normal(shape))
                expected = q.conj().T @ expected @ q
            assert matrix_from_spec(spec, seed).tobytes() == expected.tobytes(), (case, spec)


class TestSpecFromMatrix:
    def test_identity(self, pq23):
        spec = recover(np.eye(3), pq23)
        assert spec.entries == (entry(R(0, 1), 1, 1, 1),)

    def test_jordan_block(self, pq23):
        spec = recover(np.eye(3, k=1, dtype=complex), pq23)
        assert spec.entries == (entry(None, 3),)

    def test_nondiag_matrix(self, nondiag_fixture, pq23):
        a, _, _, _, _ = nondiag_fixture
        spec = recover(a, pq23)
        by_ev = {e.eigenvalue: e.blocks for e in spec.entries}
        assert by_ev == {R(1, 5): (2,), R(4, 5): (2,)}

    def test_non_root_kept_complex(self, pq23):
        spec = recover(np.diag([2.0, 3.0]), pq23)
        kinds = {type(e.eigenvalue) for e in spec.entries}
        assert kinds == {complex}

    def test_clustering_ambiguity(self, pq23):
        # two eigenvalues separated by ~1.5x the threshold: too close to split
        gap = 1.5e-6
        with pytest.raises(ClusteringAmbiguityError):
            recover(np.diag([1.0, 1.0 + gap]), pq23)

    def test_intro_matrix_structure(self, intro_matrix, intro_spec):
        recovered = recover(intro_matrix, ExponentPair(3, 5))
        assert recovered == intro_spec

    def test_size_limit(self, pq23):
        with pytest.raises(ValueError):
            recover(np.eye(65), pq23)


class TestSpecFromMatrixHardInputs:
    """Conjugated inputs that need the exact order of every admissible root,
    or that scatter their computed eigenvalues far beyond rounding."""

    @pytest.mark.parametrize("p, q, n", [(2, 3, 12), (1, 2, 14)])
    def test_orders_past_2_pow_63(self, p, q, n):
        # the lcm of |q^t - p^t| over t <= n exceeds 2^63 for these n
        pq = ExponentPair(p, q)
        assert math.lcm(*(abs(q**t - p**t) for t in range(1, n + 1))) > 2**63
        inst = build_cycle_instance(n, pq, 1)
        spec = JordanSpec(tuple(entry(ev, 1) for ev in inst.spectrum))
        recovered = recover(matrix_from_spec(spec, conjugate_seed=n), pq)
        assert recovered == spec

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "pq, spec",
        [
            # a 3-block at 1 beside the cycle 1/5 -> 4/5 of 2-blocks
            ((2, 3), JordanSpec((entry(R(0, 1), 3), entry(R(1, 5), 2), entry(R(4, 5), 2)))),
            # a 4-block at 1 beside the cycle 1/4 -> 3/4 and a zero eigenvalue
            ((1, 3), JordanSpec(
                (entry(R(0, 1), 4), entry(R(1, 4), 1), entry(R(3, 4), 1), entry(None, 1)))),
            # a single eigenvalue: Weyr sequence [3, 4], blocks (2, 1, 1)
            ((2, 3), JordanSpec((entry(R(0, 1), 2, 1, 1),))),
            # 6-blocks at 1, and at +-i (the cycle 1/4 -> 3/4 of (1, 3))
            ((2, 3), JordanSpec((entry(R(0, 1), 6),))),
            ((1, 3), JordanSpec((entry(R(1, 4), 6), entry(R(3, 4), 6)))),
        ],
    )
    def test_conjugated_long_blocks(self, pq, spec, seed):
        pq = ExponentPair(*pq)
        recovered = recover(matrix_from_spec(spec, conjugate_seed=seed), pq)
        assert recovered == spec

    @pytest.mark.parametrize("delta", [3e-6, 1e-5])
    @pytest.mark.parametrize("seed", range(9))
    @pytest.mark.parametrize("pq, lam", [((2, 3), R(1, 5)), ((2, 3), R(1, 13)), ((1, 3), R(1, 4))])
    def test_near_root_kept_apart(self, pq, lam, seed, delta):
        # a cycle plus lam * e^(i delta): snapping the extra eigenvalue to a
        # root, or merging it into lam as a 2-block, would be a wrong spec
        pq = ExponentPair(*pq)
        extra = rou_to_complex(lam) * cmath.exp(1j * delta)
        spec = JordanSpec(tuple(entry(ev, 1) for ev in cycle(lam, pq)) + (entry(extra, 1),))
        try:
            recovered = recover(matrix_from_spec(spec, conjugate_seed=seed), pq)
        except ValueError:
            return  # refusing is allowed; a wrong spec is not
        assert recoverable(recovered, pq) == recoverable(spec, pq)


def _cycles(pq, max_order=30, max_len=8):
    """Successor cycles of the roots of unity of order <= max_order coprime to p*q."""
    seen, out = set(), []
    for m in range(1, max_order + 1):
        if math.gcd(m, pq.p * pq.q) != 1:
            continue
        for k in range(m):
            if R(k, m) not in seen:
                members = cycle(R(k, m), pq)
                seen.update(members)
                if len(members) <= max_len:
                    out.append(members)
    return out


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



def recovered_conjugator(a, pq):
    """B = V B_J V^-1 for the recovered spec of A, with B_J its closed form
    and V its Jordan basis, as solve-b builds it for a similar spec."""
    spec = recover(a, pq)
    return spec.from_jordan_basis(spec_conjugator(spec, pq))


def test_seeded_cycle_recovery():
    """Specs of whole successor cycles (blocks <= 5, n <= 16): recovery
    returns the generating spec or raises ValueError, never another spec,
    and the closed-form B of a recovered spec, carried to A's basis by its
    Jordan chains, solves A^p B = B A^q."""
    rng = random.Random(5)
    pairs = [ExponentPair(p, q) for p, q in [(2, 3), (1, 2), (-1, 2), (1, 3), (3, 5), (2, 5)]]
    cycles = {pq: _cycles(pq) for pq in pairs}
    cases, recovered = 600, 0
    for case in range(cases):
        pq = pairs[case % len(pairs)]
        entries, n = [], 0
        for members in rng.sample(cycles[pq], len(cycles[pq]))[:8]:
            blocks = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 2)))
            if n + len(members) * sum(blocks) <= 16:
                entries += [entry(ev, *blocks) for ev in members]
                n += len(members) * sum(blocks)
        spec = JordanSpec(tuple(entries))
        a = matrix_from_spec(spec, conjugate_seed=case)
        try:
            got = spec_from_matrix(a, pq, eigenspace_splits(a))
        except ValueError:
            continue
        assert got == spec, (pq, spec.to_json(), got.to_json())
        b = got.from_jordan_basis(spec_conjugator(got, pq))
        a_p, a_q = mat_int_pow(a, pq.p), mat_int_pow(a, pq.q)
        bound = VERIFY_TOL * (np.linalg.norm(a_p) + np.linalg.norm(a_q))
        assert conjugacy_residual(b, a_p, a_q) <= 0.1 * bound, case
        recovered += 1
    assert recovered >= 0.9 * cases


def cyclotomic(m):
    """Integer coefficients of Phi_m, lowest first: x^m - 1 divided exactly
    by Phi_d for every proper divisor d of m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            divisor, quotient = cyclotomic(d), []
            for top in range(len(poly) - 1, len(divisor) - 2, -1):
                c = poly[top]
                quotient.append(c)
                for i, x in enumerate(divisor):
                    poly[top - len(divisor) + 1 + i] -= c * x
            assert not any(poly)
            poly = quotient[::-1]
    return poly


def integer_conjugate(summands, ops, seed):
    """(A, spec): the direct sum of the companion matrices of Phi_m^k over
    summands (m, k), conjugated by ops seeded integer elementary operations
    (row i += c row j, then column j -= c column i), and its Jordan spec:
    each primitive m-th root gets one block of size k per summand."""
    polys = []
    for m, k in summands:
        poly = [1]
        for _ in range(k):
            poly = np.convolve(poly, cyclotomic(m)).tolist()
        polys.append(poly)
    a = np.zeros((sum(len(p) - 1 for p in polys),) * 2, dtype=np.int64)
    pos = 0
    for poly in polys:
        d = len(poly) - 1
        a[pos + 1 : pos + d, pos : pos + d - 1] = np.eye(d - 1, dtype=np.int64)
        a[pos : pos + d, pos + d - 1] = [-c for c in poly[:-1]]
        pos += d
    rng = random.Random(seed)
    for _ in range(ops):
        i, j = rng.sample(range(len(a)), 2)
        c = rng.choice((-2, -1, 1, 2))
        a[i, :] += c * a[j, :]
        a[:, j] -= c * a[:, i]
    blocks = {}
    for m, k in summands:
        for r in range(m):
            if math.gcd(r, m) == 1:
                blocks.setdefault(R(r, m), []).append(k)
    return a.astype(complex), JordanSpec(tuple(entry(ev, *b) for ev, b in blocks.items()))


def integer_corpus(seed):
    """(A, spec) of the seeded integer corpus: a direct sum of companion
    matrices of Phi_m^k, m in {5, 7, 13, 19} and k <= 3, with n <= 20,
    under 0-60 integer operations (integer_conjugate)."""
    rng = random.Random(seed)
    degree = {5: 4, 7: 6, 13: 12, 19: 18}
    summands, n = [], 0
    for _ in range(rng.randint(1, 4)):
        m, k = rng.choice(list(degree)), rng.randint(1, 3)
        if n + degree[m] * k <= 20:
            summands.append((m, k))
            n += degree[m] * k
    return integer_conjugate(summands or [(5, 1)], rng.randint(0, 60), seed)


class TestSplitCertificate:
    """spec_from_matrix certifies each cluster on its own block W_i A V_i
    when the split of A certifies, and on the whole of A when it does not."""

    def test_other_clusters_cannot_push_a_root_out(self):
        # case 340 of test_seeded_cycle_recovery: at 6/19 the 5-block at
        # 5/16, 0.021 away, leaves sigma_15(A - lambda I) = 3.8e-9 under the
        # whole-matrix cut 5.9e-9, and 87223/276206 certified instead
        pq = ExponentPair(3, 5)
        spec = JordanSpec(
            tuple(entry(R(k, 19), 1) for k in (4, 13, 9, 15, 6, 10))
            + (entry(R(3, 16), 5), entry(R(5, 16), 5))
        )
        assert recover(matrix_from_spec(spec, conjugate_seed=340), pq) == spec

    def test_cyclotomic(self):
        assert cyclotomic(1) == [-1, 1]
        assert cyclotomic(5) == [1, 1, 1, 1, 1]
        assert cyclotomic(12) == [1, 0, -1, 0, 1]

    def test_recovery_walks_the_ladder(self):
        # Phi_5 + Phi_7 under 40 integer operations, n = 10: the rungs are
        # uncertified, ambiguous and one cluster, and only the first recovers;
        # recovery on the last rung alone would refuse
        pq = ExponentPair(2, 3)
        a, spec = integer_conjugate([(5, 1), (7, 1)], 40, seed=6)
        splits = eigenspace_splits(a)
        assert [type(s) for s in splits] == [Split, ClusteringAmbiguityError, Split]
        assert len(splits[0].clusters) == 10 and splits[0].bases is None
        assert len(splits[-1].clusters) == 1
        assert spec_from_matrix(a, pq, splits) == spec
        with pytest.raises(ValueError, match="no point certifies the 10 eigenvalue"):
            spec_from_matrix(a, pq, splits[-1:])

    def test_uncertified_split_recovers_on_the_whole_matrix(self, monkeypatch):
        # Phi_5^2 + Phi_7 under 40 integer operations, n = 14, entries up to
        # 1.4e4: every cluster's basis has its size, but the stacked bases
        # are too ill-conditioned for the split to certify
        a, spec = integer_conjugate([(5, 2), (7, 1)], 40, seed=43)
        values, vecs = np.linalg.eig(a)
        splits = [s for s in eigenspace_splits(a) if isinstance(s, Split)]
        assert len(splits[0].clusters) == 10
        assert all(s.bases is None for s in splits)
        norm = np.linalg.norm(a)
        bases = matrixcore._cluster_bases(a, vecs, splits[0].clusters, splits[0].centres, norm)
        assert [v.shape[1] for v in bases] == [len(c) for c in splits[0].clusters]
        assert np.linalg.cond(np.hstack(bases)) > 1 / math.sqrt(matrixcore.RANK_TOL)
        sizes = []
        weyr = matrixcore.weyr_characteristic
        monkeypatch.setattr(
            matrixcore, "weyr_characteristic", lambda m, *args: sizes.append(len(m)) or weyr(m, *args)
        )
        assert recover(a, ExponentPair(2, 3)) == spec
        assert set(sizes) == {14}


def weyr_certified_entry(a, split, i, pq, norm):
    """Reference: similarity._certified_entry as it certified every cluster,
    a lone one included, by the Weyr sequence at each point."""
    basis = None if split.bases is None else split.bases[i]
    m = a if basis is None else split.blocks[i]
    mult, center = len(split.clusters[i]), split.centres[i]
    points = [None] if abs(center) <= split.tol else [
        *_admissible_roots(center, pq, len(a), split.tol), center
    ]
    for ev in points:
        lam, kernels = similarity._ev_complex(ev), []
        dims = matrixcore.weyr_characteristic(m, lam, mult + 1, norm + abs(lam), kernels)
        if dims[-1] == mult:
            entry = JordanEntry(ev, similarity._blocks_from_weyr(dims, mult))
            return entry, (m - lam * np.eye(len(m)), kernels, basis)
    raise ValueError("no point certifies")


def same_bits(x, y):
    """x and y are arrays of one shape and the same bits, signed zeros included."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


class TestLoneEigenvalue:
    """A lone eigenvalue of a certified split, whose block W_i A V_i is
    1x1, certifies by one comparison, the rank cut of its 1x1 SVD, with the
    certificate the Weyr sequence gave it."""

    def assert_same(self, a, split, i, pq):
        norm = float(np.linalg.norm(a))
        entry, (shifted, kernels, basis) = similarity._certified_entry(a, split, i, pq, norm)
        ref_entry, (ref_shifted, ref_kernels, ref_basis) = weyr_certified_entry(a, split, i, pq, norm)
        assert entry == ref_entry
        assert same_bits(shifted, ref_shifted) and basis is ref_basis
        assert len(kernels) == len(ref_kernels)
        assert all(same_bits(k, r) for k, r in zip(kernels, ref_kernels))
        return entry

    @pytest.mark.parametrize("pq", [ExponentPair(2, 3), ExponentPair(3, 5), ExponentPair(-1, 2)], ids=str)
    def test_as_the_weyr_sequence_on_cycles(self, pq):
        rng = random.Random(abs(pq.p) * 10 + pq.q)
        lone = 0
        for seed in range(12):
            spec = JordanSpec(tuple(
                entry(ev, *blocks)
                for members in rng.sample(_cycles(pq, max_len=4), 3)
                for blocks in [rng.choice([(1,), (1,), (2,), (1, 1)])]
                for ev in members
            ))
            a = matrix_from_spec(spec, conjugate_seed=seed)
            split = next(s for s in eigenspace_splits(a) if isinstance(s, Split))
            for i, cluster in enumerate(split.clusters):
                if len(cluster) == 1 and split.bases is not None:
                    self.assert_same(a, split, i, pq)
                    lone += 1
        assert lone > 30

    @pytest.mark.parametrize("factor, snapped", [(0.5, True), (2.0, False)])
    def test_at_the_cut(self, factor, snapped):
        # the block [z] of diag(z, 1/2) at factor times RANK_TOL * (||A||_F + 1)
        # from 1/5, admissible at n = 2: within the cut it certifies at the
        # root, past it at its own value
        pq, root, norm = ExponentPair(2, 3), R(1, 5), 3.0
        z = rou_to_complex(root) + factor * RANK_TOL * (norm + 1) * 1j
        a, eye = np.diag([z, 0.5]), np.eye(2, dtype=complex)
        split = Split(1e-6, [[0], [1]], [z, 0.5], [eye[:, :1], eye[:, 1:]], [a[:1, :1], a[1:, 1:]])
        entry, _ = similarity._certified_entry(a, split, 0, pq, norm)
        assert entry == JordanEntry(root if snapped else z, (1,))
        assert weyr_certified_entry(a, split, 0, pq, norm)[0] == entry


class TestPowersSimilarInvertible:
    def test_cycle_instance_is_similar(self, pq23):
        spec = JordanSpec((entry(R(1, 5), 1), entry(R(4, 5), 1)))
        verdict = powers_similar_general(spec, pq23)
        assert verdict.similar
        assert verdict.orbit_report is not None
        assert verdict.orbit_report.delta == 2

    def test_block_mismatch_in_orbit(self, pq23):
        spec = JordanSpec((entry(R(1, 5), 2), entry(R(4, 5), 1, 1)))
        verdict = powers_similar_general(spec, pq23)
        assert not verdict.similar
        assert verdict.failure_reason is FailureReason.JORDAN_STRUCTURE_MISMATCH

    def test_identity_spec(self, pq23):
        verdict = powers_similar_general(JordanSpec((entry(R(0, 1), 1, 1, 1),)), pq23)
        assert verdict.similar

    def test_non_root_of_unity(self, pq23):
        verdict = powers_similar_general(JordanSpec((entry(2.0 + 0j, 1),)), pq23)
        assert not verdict.similar
        assert verdict.failure_reason is FailureReason.NON_ROOT_OF_UNITY
        assert verdict.certificate.startswith("eigenvalue (2+0j) matches no admissible root of unity")

    def test_orbit_multiplicity_mismatch(self, pq23):
        # distinct values align under the action but multiplicities differ
        spec = JordanSpec((entry(R(1, 5), 2), entry(R(4, 5), 1)))
        verdict = powers_similar_general(spec, pq23)
        assert not verdict.similar
        assert verdict.failure_reason is FailureReason.ORBIT_MULTIPLICITY_MISMATCH

    def test_power_mismatch(self, pq23):
        spec = JordanSpec((entry(R(1, 3), 1),))
        verdict = powers_similar_general(spec, pq23)
        assert verdict.failure_reason is FailureReason.SPECTRA_POWER_MISMATCH

    def test_swap_symmetry(self, pq23):
        specs = [
            JordanSpec((entry(R(1, 5), 1), entry(R(4, 5), 1))),
            JordanSpec((entry(R(1, 5), 2), entry(R(4, 5), 1, 1))),
            JordanSpec((entry(R(0, 1), 2, 1),)),
            JordanSpec((entry(R(1, 3), 1),)),
        ]
        for spec in specs:
            a = powers_similar_general(spec, pq23)
            b = powers_similar_general(spec, pq23.swapped())
            assert a.similar == b.similar


class TestPowersSimilarGeneral:
    def test_intro_spec_35(self, intro_spec):
        verdict = powers_similar_general(intro_spec, ExponentPair(3, 5))
        assert not verdict.similar
        assert verdict.failure_reason is FailureReason.JORDAN_STRUCTURE_MISMATCH

    def test_intro_spec_37(self, intro_spec):
        assert powers_similar_general(intro_spec, ExponentPair(3, 7)).similar

    def test_nilpotent_too_deep(self):
        spec = JordanSpec((entry(None, 3),))
        verdict = powers_similar_general(spec, ExponentPair(2, 3))
        assert not verdict.similar
        assert verdict.failure_reason is FailureReason.NILPOTENT_PART_TOO_DEEP

    def test_nilpotent_within_depth(self):
        spec = JordanSpec((entry(None, 2),))
        assert powers_similar_general(spec, ExponentPair(2, 3)).similar

    def test_normalization_required(self, intro_spec):
        with pytest.raises(ValueError, match="singular case needs 1 <= p < q"):
            powers_similar_general(intro_spec, ExponentPair(5, 3))
        with pytest.raises(ValueError, match="singular case needs 1 <= p < q"):
            powers_similar_general(intro_spec, ExponentPair(-3, 5))

    def test_invertible_spec_any_signs(self, pq23):
        spec = JordanSpec((entry(R(1, 5), 1), entry(R(4, 5), 1)))
        assert powers_similar_general(spec, ExponentPair(3, 2)).similar


class TestPowersSimilarNumeric:
    def test_identity(self, pq23):
        assert numeric_verdict(np.eye(4), pq23).similar

    def test_intro_matrix(self, intro_matrix):
        assert not numeric_verdict(intro_matrix, ExponentPair(3, 5)).similar
        assert numeric_verdict(intro_matrix, ExponentPair(3, 7)).similar

    def test_generic_diagonalizable_is_not(self, pq23):
        # random eigenvalues are no roots of unity at all
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        verdict = numeric_verdict(a, pq23)
        assert not verdict.similar
        assert verdict.failure_reason is FailureReason.NON_ROOT_OF_UNITY


FIXTURE_SPECS = [
    JordanSpec((entry(R(1, 5), 1), entry(R(4, 5), 1))),
    JordanSpec((entry(R(1, 5), 2), entry(R(4, 5), 2))),
    JordanSpec((entry(R(1, 5), 2), entry(R(4, 5), 1, 1))),
    JordanSpec((entry(R(0, 1), 2, 1),)),
    JordanSpec((entry(R(1, 4), 1, 1), entry(R(3, 4), 2), entry(None, 2))),
    JordanSpec((entry(None, 2, 1), entry(R(0, 1), 2),)),
]


class TestStructuralNumericAgreement:
    @pytest.mark.parametrize("spec_idx", range(len(FIXTURE_SPECS)))
    def test_agreement(self, spec_idx, pq23):
        spec = FIXTURE_SPECS[spec_idx]
        structural = powers_similar_general(spec, pq23)
        recovered = recover(matrix_from_spec(spec, conjugate_seed=spec_idx), pq23)
        assert recoverable(recovered, pq23) == recoverable(spec, pq23)
        assert powers_similar_general(recovered, pq23).similar == structural.similar


class TestSoundness:
    @pytest.mark.parametrize("spec_idx", [0, 1, 3])
    def test_explicit_conjugator_exists(self, spec_idx, pq23):
        # positive verdicts are witnessed by an invertible intertwiner
        spec = FIXTURE_SPECS[spec_idx]
        verdict = powers_similar_general(spec, pq23)
        assert verdict.similar
        a = matrix_from_spec(spec, conjugate_seed=100 + spec_idx)
        ap, aq = mat_int_pow(a, pq23.p), mat_int_pow(a, pq23.q)
        b = recovered_conjugator(a, pq23)
        assert np.max(np.abs(np.linalg.solve(b, ap @ b) - aq)) < 1e-8


class TestRootOfIdentityConsequence:
    def test_diagonalizable_verdict_implies_power_relation(self, pq23):
        # diagonalizable solution: A^m = I for m = lcm of orders, and the
        # conjugate equals A^(alpha*q) with alpha*p = 1 mod m
        spec = JordanSpec((entry(R(1, 5), 1), entry(R(4, 5), 1)))
        assert powers_similar_general(spec, pq23).similar
        orders = [e.eigenvalue.order for e in spec.entries]
        m = np.lcm.reduce(orders)
        for e in spec.entries:
            assert rou_pow(e.eigenvalue, int(m)) == R(0, 1)
        alpha = mod_inverse(pq23.p, int(m))
        a = matrix_from_spec(spec)
        b = recovered_conjugator(a, pq23)
        c = np.linalg.solve(b, a @ b)
        assert np.max(np.abs(c - mat_int_pow(a, alpha * pq23.q))) < 1e-8


class TestJordanBasis:
    """spec_from_matrix keeps the nested kernels of each certificate, and
    the Jordan basis V built from them gives A V = V J with
    J = matrix_from_spec of the recovered spec."""

    SPECS = [
        JordanSpec((entry(R(1, 5), 3, 1), entry(R(4, 5), 3, 1))),
        JordanSpec((entry(R(0, 1), 4, 3, 2, 1, 1),)),
        JordanSpec((entry(None, 2, 2, 1), entry(R(1, 5), 2), entry(R(4, 5), 2))),
        JordanSpec((entry(R(1, 7), 1, 1, 1), entry(R(2, 7), 2, 2))),
    ]

    @pytest.mark.parametrize("spec_idx", range(len(SPECS)))
    def test_chains_in_block_order(self, spec_idx):
        spec = self.SPECS[spec_idx]
        for seed in range(3):
            a = matrix_from_spec(spec, conjugate_seed=seed)
            recovered = recover(a, ExponentPair(2, 3))
            assert recovered == spec
            v, j = recovered.jordan_basis(), matrix_from_spec(recovered)
            assert np.linalg.norm(a @ v - v @ j) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(v)
            assert np.linalg.cond(v) < 1e3
            x = np.random.default_rng(seed).standard_normal((spec.n, spec.n))
            assert np.allclose(recovered.from_jordan_basis(x), v @ x @ np.linalg.inv(v))

    def test_equal_to_the_plain_spec(self):
        spec = self.SPECS[0]
        recovered = recover(matrix_from_spec(spec, conjugate_seed=1), ExponentPair(2, 3))
        assert type(recovered) is not JordanSpec
        assert recovered == spec and hash(recovered) == hash(spec)
        assert recovered.to_json() == spec.to_json()

    def test_singular_basis_is_refused(self):
        # a basis that is not invertible at RANK_TOL ends as recovery's refusals do
        spec = self.SPECS[0]
        recovered = recover(matrix_from_spec(spec, conjugate_seed=1), ExponentPair(2, 3))
        shifted, kernels, basis = recovered.certificates[0]
        flat = (shifted, kernels, np.zeros_like(basis))
        broken = similarity.RecoveredSpec(recovered.entries, (flat,) + recovered.certificates[1:])
        with pytest.raises(ValueError, match="Jordan basis .* is singular"):
            broken.from_jordan_basis(np.eye(spec.n))

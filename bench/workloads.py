"""Seeded inputs for the three benchmark workloads.

``build(workload, seed, workdir)`` writes every spec and matrix file the
workload needs into ``workdir`` and returns the plan: the request list of
one pass, the known-defect probe set (numeric only), and for every request
what the checker needs to know.  Everything derives from the seed; the
program later sees only those files and argv lists.

The seed chooses eigenvalues, block structures, conjugations, exponent
signs and parameters, never the shape of the request list: every seed
gives the same commands at the same sizes, so the cost of a pass and the
size of its reports do not depend on the seed.

One input is derived by running the program once before timing starts:
the B of a numeric ``verify A B`` comes from a ``solve-b`` report.  All
others come from closed forms, computed with the checker's exact helpers
and never by simpow: the A, B of an exact ``verify`` are the cycle
instance of ``generate --k1``, the (u, rho) of ``word2 construct`` are
pairs that ``classify`` must list, and the matrices of ``word2 verify`` are
the triangular pair that ``construct`` must build.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from fractions import Fraction

import checker

# report_tail_ms percentile per workload, over every latency sample of the
# run: the highest of p90/p95/p99/p99.9 that has at least 10 samples beyond
# it in a 30 s run on 2 CPUs.  It is fixed, so that a faster program (more
# passes) reports the same quantile.  Each lies inside the costliest size
# class of its list: solve-b at n = 24 (4 of 36 numeric requests),
# nilpotent at d = 24 (4 of 71 exact requests) and classify with
# |r-r'|*|s-s'| > 1e4 (4 of 176 word2 requests).
TAIL_PERCENTILE = {"numeric": 95.0, "exact": 95.0, "word2": 99.0}

# Whether the latencies of a workload are given at the reference speed
# (reference.py).  The reference loop is interpreter work: it follows the
# machine's speed for exact and word2, whose time goes to the interpreter,
# but not for numeric, whose time goes to LAPACK.  There, scaling widened
# the run-to-run spread of the tail from 0.04 to 0.10 (bench/README.md).
SCALED = {"numeric": False, "exact": True, "word2": True}

# Block multisets with parts <= 2, by multiplicity.  Conjugated Jordan blocks
# of size >= 3 are a known defect of structure recovery; they appear only in
# the probe set.
_PARTITIONS = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(2, 1), (1, 1, 1)]}


def build(workload: str, seed: int, workdir: str) -> dict:
    builders = {"numeric": _numeric, "exact": _exact, "word2": _word2}
    return builders[workload](random.Random(f"{workload}:{seed}"), workdir)


def run_cli(argv: list[str]) -> tuple[int, dict]:
    """One in-process CLI call, as the input derivation uses it."""
    from simpow import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, json.loads(buf.getvalue())


def _write_json(workdir: str, name: str, data) -> str:
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump(data, fh)
    return name


# ---------------------------------------------------------------- numeric


def _orbits(p: int, q: int, max_len: int = 3, max_order: int = 60) -> list[tuple[str, ...]]:
    """Successor cycles k/m -> (k q p^-1)/m of roots of unity, as angle strings.

    Only cycles of length <= max_len with order m <= max_order coprime to p*q.
    """
    out = [("0/1",)]
    for m in range(2, max_order + 1):
        if math.gcd(m, abs(p * q)) != 1:
            continue
        step = (q * pow(p, -1, m)) % m
        seen: set[int] = set()
        for k in range(1, m):
            if math.gcd(k, m) != 1 or k in seen:
                continue
            cycle = [k]
            x = k * step % m
            while x != k and len(cycle) <= max_len:
                cycle.append(x)
                x = x * step % m
            seen.update(cycle)
            if x == k and len(cycle) <= max_len:
                out.append(tuple(f"{c}/{m}" for c in cycle))
    return out


def _similar_entries(rng, p: int, q: int, n: int, zero_ok: bool) -> dict:
    """Eigenvalue -> block sizes for an n x n spec with A^p similar to A^q.

    Whole successor cycles with one block multiset per cycle, optionally a
    zero eigenvalue with blocks <= p, and at least two distinct eigenvalues
    (a single conjugated eigenvalue is a known defect, kept for the probe).
    """
    entries: dict = {}
    left = n
    if zero_ok and 1 <= p < q and n >= 4 and rng.random() < 0.5:
        entries["zero"] = (2,) if p >= 2 and rng.random() < 0.5 else (1,)
        left -= sum(entries["zero"])
    orbits = _orbits(p, q)
    rng.shuffle(orbits)
    orbits.sort(key=lambda orb: len(orb) == 1)  # prefer cycles of length >= 2
    for orbit in orbits:
        mult_cap = min(3, left // len(orbit))
        if mult_cap < 1 or (len(orbit) == 1 and left <= 1):
            continue
        mult = rng.randint(1, mult_cap)
        blocks = rng.choice(_PARTITIONS[mult])
        for ev in orbit:
            entries[ev] = blocks
        left -= len(orbit) * mult
    if left:
        entries["0/1"] = tuple(sorted(entries.get("0/1", ()) + (1,) * left, reverse=True))
    return entries


def _defect_entries(rng, kind: str, p: int, q: int, n: int) -> dict:
    """An n x n spec whose p-th and q-th powers are not similar."""
    if kind == "deep":  # nilpotent block longer than p (needs p = 1: blocks stay <= 2)
        entries = _similar_entries(rng, p, q, n - 2, zero_ok=False)
        entries["zero"] = (2,)
        return entries
    long_cycles = [orb for orb in _orbits(p, q) if len(orb) >= 2]
    orbit = rng.choice(long_cycles)
    if kind == "structure":  # block structure not constant along a cycle
        size = 2 * len(orbit)
        odd = rng.randrange(len(orbit))
        defect = {ev: ((1, 1) if i == odd else (2,)) for i, ev in enumerate(orbit)}
    else:  # "spectrum": one member of a cycle without its successors
        size = 1
        defect = {rng.choice(orbit): (1,)}
    entries = {}
    rest = n - size
    while True:
        entries = _similar_entries(rng, p, q, rest, zero_ok=False)
        if not set(entries) & set(defect):
            break
    entries.update(defect)
    return entries


def _spec_json(entries: dict) -> list:
    return [{"eigenvalue": ev, "blocks": list(blocks)} for ev, blocks in sorted(entries.items())]


def _exact_verdict(spec_json: list, p: int, q: int) -> bool:
    from simpow.scalar import ExponentPair
    from simpow.similarity import JordanSpec, powers_similar_general

    return powers_similar_general(JordanSpec.from_json(spec_json), ExponentPair(p, q)).similar


def _matrix_file(workdir: str, name: str, spec_json: list, conj_seed: int) -> str:
    from simpow.matrixcore import matrix_to_json
    from simpow.similarity import JordanSpec, matrix_from_spec

    matrix = matrix_from_spec(JordanSpec.from_json(spec_json), conj_seed)
    return _write_json(workdir, name, matrix_to_json(matrix))


def _numeric_spec(rng, kind: str, p: int, q: int, n: int) -> tuple[list, bool]:
    if kind == "similar":
        entries = _similar_entries(rng, p, q, n, zero_ok=True)
    else:
        entries = _defect_entries(rng, kind, p, q, n)
    spec = _spec_json(entries)
    similar = _exact_verdict(spec, p, q)
    if similar != (kind == "similar"):
        raise AssertionError(f"generator built a {kind} spec with verdict {similar}: {spec}")
    return spec, similar


# (n, p, q, kind).  analyze recovers the structure from the matrix, which
# needs n below the order-bound overflow of the pair (n <= 8 for (3,5),
# n <= 10 for (2,3) and (1,3), n <= 13 for (1,2) and (-1,2)).
_ANALYZE = [
    (4, 2, 3, "similar"), (4, 1, 3, "deep"),
    (6, 3, 5, "similar"), (6, -1, 2, "spectrum"),
    (8, 1, 2, "similar"), (8, 2, 3, "structure"),
    (10, -1, 2, "similar"), (10, 1, 3, "structure"),
]
# solve-b works on any n: the n^2 x n^2 kernel SVD spans three decades here.
_SOLVE_B = [
    (8, 2, 3, "similar"), (8, 1, 3, "spectrum"),
    (12, 3, 5, "similar"), (12, -1, 2, "structure"),
    (16, 1, 3, "similar"), (16, 2, 3, "spectrum"),
    (20, -1, 2, "similar"), (20, 3, 5, "structure"),
    (24, 1, 2, "similar"), (24, 2, 3, "similar"), (24, 3, 5, "similar"), (24, -1, 2, "similar"),
]
# Known defects of structure recovery (see bench/README.md): each input is
# expected to fail today and is run once per pass outside the timed list.
_PROBE = [
    ("overflow", 12, 2, 3), ("overflow", 14, 1, 2),
    ("block3", 6, 2, 3), ("block4", 8, 1, 3),
    ("single", 4, 2, 3), ("single", 6, -1, 2),
]


def _numeric(rng, workdir: str) -> dict:
    requests, probe = [], []
    # The first request is the warm-up: a mid-size solve-b whose SVD is the
    # first multi-threaded BLAS call of the process.
    slots = [("solve-b",) + _SOLVE_B[2]] + [("analyze",) + s for s in _ANALYZE * 2]
    slots += [("solve-b",) + s for s in _SOLVE_B[:2] + _SOLVE_B[3:]]
    for idx, (cmd, n, p, q, kind) in enumerate(slots):
        spec, similar = _numeric_spec(rng, kind, p, q, n)
        matrix = _matrix_file(workdir, f"m{idx:02d}.json", spec, rng.randrange(2**31))
        argv = [cmd, matrix, "-p", str(p), "-q", str(q), "--seed", str(rng.randrange(1000))]
        if cmd == "analyze":
            argv.append("--find-b")
        check = {"spec": spec, "p": p, "q": q, "similar": similar, "matrix": matrix}
        requests.append({"kind": cmd, "argv": argv, "size": f"n={n}", "check": check})
        if cmd == "solve-b" and similar:
            rc, report = run_cli([cmd, os.path.join(workdir, matrix)] + argv[2:])
            b = report.get("conjugator", {}).get("b") if rc == 0 else None
            if b is None:
                raise RuntimeError(f"input derivation: solve-b found no conjugator for {spec}")
            b_file = _write_json(workdir, f"b{idx:02d}.json", b)
            requests.append({
                "kind": "verify",
                "argv": ["verify", matrix, b_file, "-p", str(p), "-q", str(q)],
                "size": f"n={n}",
                "check": {"a": matrix, "b": b_file, "p": p, "q": q},
            })
    for idx, (defect, n, p, q) in enumerate(_PROBE):
        if defect == "overflow":
            entries = _similar_entries(rng, p, q, n, zero_ok=False)
        elif defect.startswith("block"):
            size = int(defect[-1])
            entries = _similar_entries(rng, p, q, n - size, zero_ok=False)
            free = [orb[0] for orb in _orbits(p, q) if len(orb) == 1 and orb[0] not in entries]
            ev = rng.choice(free) if free else "0/1"
            entries[ev] = tuple(sorted(entries.get(ev, ()) + (size,), reverse=True))
        else:
            entries = {"0/1": (2,) + (1,) * (n - 2)}
        spec = _spec_json(entries)
        similar = _exact_verdict(spec, p, q)
        matrix = _matrix_file(workdir, f"k{idx:02d}.json", spec, rng.randrange(2**31))
        probe.append({
            "kind": "analyze",
            "defect": defect,
            "argv": ["analyze", matrix, "-p", str(p), "-q", str(q), "--find-b"],
            "size": f"n={n}",
            "check": {"spec": spec, "p": p, "q": q, "similar": similar, "matrix": matrix},
        })
    return {"requests": requests, "probe": probe}


# ------------------------------------------------------------------ exact


# (p, q, lambda, largest block d).  lambda^(q-p) = 1 in every row.
# One block of d = 32 for the size sweep; the tail percentile falls among
# the four at d = 24, which share (p, q, lambda) so that it does not depend
# on which of them comes second.  More d = 32 requests would leave too few
# passes in a run for the tail to hold 10 samples.
_NILPOTENT = [
    (1, 3, "1/2", 32),
    (2, 5, "1/3", 24), (2, 5, "1/3", 24), (2, 5, "1/3", 24), (2, 5, "1/3", 24),
    (2, 3, "0/1", 16), (-1, 2, "1/3", 16), (2, 5, "2/3", 16), (3, 5, "0/1", 8), (-1, 2, "0/1", 8),
    (3, 5, "1/2", 8),
]
# (p, q, n) for the list of valid k1; the report lists up to ~6e4 residues.
_GENERATE = [
    (2, 3, 10), (3, 5, 7), (1, 2, 14), (-1, 2, 13), (2, 5, 6),
    (2, 3, 8), (1, 2, 11), (3, 5, 5), (-1, 2, 9), (2, 3, 6), (1, 2, 7), (2, 5, 4),
]
# (p, q, n) for one cycle instance, read back through verify.  Their 48
# requests of 3-4 ms are 68% of the list, so that the median lies well
# inside them: with 16 instances (58%) it sat on the step up to the small
# generate lists and jumped between the two.
_INSTANCE = [
    (2, 3, 3), (2, 3, 4), (1, 2, 5), (1, 2, 6), (3, 5, 3), (3, 5, 4), (-1, 2, 4), (-1, 2, 5),
    (2, 5, 3), (1, 3, 4), (1, 3, 5), (2, 3, 5), (1, 2, 4), (-1, 2, 6), (2, 5, 4), (1, 3, 3),
    (1, 2, 3), (-1, 2, 3), (1, 2, 7), (-1, 2, 7), (2, 3, 3), (1, 3, 3), (2, 5, 3), (1, 3, 4),
]


def _valid_k1(n: int, p: int, q: int, k1: int) -> bool:
    modulus = abs(q**n - p**n)
    for z in range(1, n):
        if n % z == 0 and k1 % (modulus // abs(q**z - p**z)) == 0:
            return False
    return True


def _exact(rng, workdir: str) -> dict:
    instances, requests = [], []
    for idx, (p, q, n) in enumerate(_INSTANCE):
        instances += _instance_requests(rng, workdir, idx, p, q, n)
    for p, q, lam, d in _NILPOTENT:
        # a few small extra blocks: the cost stays set by the largest block
        blocks = [d] + sorted((rng.randint(1, max(1, d // 4)) for _ in range(rng.randint(0, 2))),
                              reverse=True)
        text = ",".join(map(str, blocks))
        requests.append({
            "kind": "nilpotent",
            "argv": ["nilpotent", "--lam", lam, "--blocks", text, "-p", str(p), "-q", str(q)],
            "size": f"d={d}",
            "check": {"lam": lam, "blocks": blocks, "p": p, "q": q},
        })
    for p, q, n in _GENERATE:
        requests.append({
            "kind": "generate",
            "argv": ["generate", "-n", str(n), "-p", str(p), "-q", str(q)],
            "size": f"Q={abs(q**n - p**n)}",
            "check": {"n": n, "p": p, "q": q},
        })
    # the warm-up request is a cycle instance, the most common request
    return {"requests": instances + requests, "probe": []}


def _instance_requests(rng, workdir: str, idx: int, p: int, q: int, n: int) -> list[dict]:
    """generate --k1 for one seeded valid k1, and verify of the A, B it reports."""
    requests = []
    modulus = abs(q**n - p**n)
    k1 = next(k for k in iter(lambda: rng.randrange(modulus), None) if _valid_k1(n, p, q, k))
    scale = ",".join(
        f"{rng.choice([-1, 1]) * rng.uniform(0.5, 2):.3f}{rng.choice('+-')}{rng.uniform(0, 1):.3f}j"
        for _ in range(n)
    )
    argv = ["generate", "-n", str(n), "-p", str(p), "-q", str(q), "--k1", str(k1), f"--scale={scale}"]
    requests.append({
        "kind": "generate-k1",
        "argv": argv,
        "size": f"Q={modulus}",
        "check": {"n": n, "p": p, "q": q, "k1": k1, "scale": scale},
    })
    # A = diag(exp(2 pi i k_u / Q)) along the successor cycle of k1, B = diag(scale) times the cycle shift
    step = q * pow(p, -1, modulus) % modulus
    k_seq = [k1 * pow(step, u, modulus) % modulus for u in range(n)]
    a = [[checker._rou(Fraction(k, modulus)) if i == j else 0.0 for j, k in enumerate(k_seq)] for i in range(n)]
    shift = [complex(part) for part in scale.split(",")]
    b = [[shift[i] if j == (i - 1) % n else 0.0 for j in range(n)] for i in range(n)]
    a_file = _write_json(workdir, f"a{idx:02d}.json", _matrix_json(a))
    b_file = _write_json(workdir, f"b{idx:02d}.json", _matrix_json(b))
    requests.append({
        "kind": "verify",
        "argv": ["verify", a_file, b_file, "-p", str(p), "-q", str(q)],
        "size": f"Q={modulus}",
        "check": {"a": a_file, "b": b_file, "p": p, "q": q},
    })
    return requests


# ------------------------------------------------------------------ word2


# (|r - r'|, |s - s'|) magnitudes of the classify shapes: the empty +-1
# cases, the continuum r = r', s = s' cases, and sizes up to a few hundred.
_SHAPES = (
    [(1, 4), (3, 1), (1, 1), (1, 9)]
    + [(0, 0), (0, 0)]
    + [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4), (4, 4), (5, 3), (3, 5), (5, 5),
       (6, 4), (4, 6), (6, 6), (7, 5), (5, 7), (8, 8), (9, 6), (6, 9), (10, 7), (7, 10),
       (11, 11), (12, 9), (9, 12), (12, 12)]
    + [(24, 20), (36, 30), (48, 40), (60, 50), (72, 64), (80, 70)]
    + [(200, 150), (260, 210), (330, 280), (400, 300)]
)
_PAIRS_PER_CLASSIFY = 2
_REDRAWS = 50  # draws of (r, r', s, s', eps) per shape before one without pairs is kept


def _jitter(rng, value: int) -> int:
    """value +- 3% (at least the value itself for small values)."""
    if value < 20:
        return value
    return value + rng.randint(-value // 33, value // 33)


def _exponents(rng, diff: int) -> tuple[int, int]:
    """(x, x') with |x - x'| = diff and gcd(x, x') = 1, both nonzero."""
    if diff == 0:
        x = rng.choice([-1, 1])
        return x, x
    while True:
        xp = rng.choice([-1, 1]) * rng.randint(1, 9)
        x = xp + rng.choice([-1, 1]) * diff
        if x != 0 and math.gcd(abs(x), abs(xp)) == 1:
            return x, xp


def _rs_label(product: int) -> str:
    """Decade of |r-r'|*|s-s'|, the cost driver of the word2 requests."""
    return "rs=0" if product == 0 else f"rs<1e{len(str(product))}"


def _shape_argv(shape: list[int]) -> list[str]:
    r, rp, s, sp, eps = shape
    return ["-r", str(r), "--rp", str(rp), "-s", str(s), "--sp", str(sp), "--eps", str(eps)]


def _classify_pairs(shape: list[int]) -> list[tuple[str, str]]:
    """The (u, rho) pairs ``word2 classify`` lists for a shape, computed without simpow.

    Both alpha branches in order, each cut at the report limit as classify
    cuts it; empty for the |r-r'|, |s-s'| <= 1 shapes.
    """
    r, rp, s, sp, eps = shape
    dr, ds = r - rp, s - sp
    if min(abs(dr), abs(ds)) < 2:
        return []
    pairs = []
    for alpha in (1, -1):
        us = checker._candidates(dr, alpha, r)
        rhos = checker._candidates(ds, -alpha * eps, s)
        if not checker._admissible_pairs(us, rhos, r, s):
            continue
        family = []
        for u in us:
            family += [(u, rho) for rho in rhos if checker._admissible_pairs([u], [rho], r, s)]
            if len(family) >= checker.MAX_REPORT:
                break
        pairs += family[:checker.MAX_REPORT]
    return pairs


def _triangular_pair(shape: list[int], u: str, rho: str, v: str) -> tuple[dict, dict]:
    """A = [[u, v], [0, 1/u]] and B = [[rho, 0], [sigma, 1/rho]] as matrix JSON.

    sigma*v = (-1 - u^2r rho^2s) / (u^r phi_r(u) rho^s phi_s(rho)), with
    t^k phi_k(t) = t (1 - t^2k) / (1 - t^2), evaluated on exact angles.
    """
    r, _, s, _, _ = shape
    a, b = checker._angle(u), checker._angle(rho)
    rou = checker._rou
    sigma_v = (-1.0 - rou(2 * r * a + 2 * s * b)) / (
        rou(a) * (1.0 - rou(2 * r * a)) / (1.0 - rou(2 * a))
        * rou(b) * (1.0 - rou(2 * s * b)) / (1.0 - rou(2 * b))
    )
    v = complex(v)
    return _matrix_json([[rou(a), v], [0.0, rou(-a)]]), _matrix_json([[rou(b), 0.0], [sigma_v / v, rou(-b)]])


def _matrix_json(rows) -> dict:
    flat = [complex(z) for row in rows for z in row]
    return {"rows": len(rows), "cols": len(rows[0]), "data": [[z.real, z.imag] for z in flat]}


def _word2(rng, workdir: str) -> dict:
    classify, construct, verify = [], [], []
    for dr, ds in _SHAPES:
        dr, ds = _jitter(rng, dr), _jitter(rng, ds)
        for _ in range(_REDRAWS):  # shapes with |r-r'|, |s-s'| >= 2 are drawn until they have pairs
            r, rp = _exponents(rng, dr)
            s, sp = _exponents(rng, ds)
            shape = [r, rp, s, sp, rng.choice([-1, 1])]
            pairs = _classify_pairs(shape)
            if pairs or min(dr, ds) < 2:
                break
        argv = ["word2", "classify"] + _shape_argv(shape)
        classify.append({"kind": "classify", "argv": argv, "size": _rs_label(dr * ds), "check": {"shape": shape}})
        for u, rho in rng.sample(pairs, min(_PAIRS_PER_CLASSIFY, len(pairs))):
            v = f"{rng.uniform(0.25, 2):.4f}{rng.choice('+-')}{rng.uniform(0, 1):.4f}j"
            argv = ["word2", "construct"] + _shape_argv(shape) + ["--u", u, "--rho", rho, "--v", v]
            idx = len(construct)
            construct.append({
                "kind": "construct", "argv": argv, "size": _rs_label(dr * ds),
                "check": {"shape": shape, "u": u, "rho": rho, "v": v},
            })
            a, b = _triangular_pair(shape, u, rho, v)
            a_file = _write_json(workdir, f"a{idx:03d}.json", a)
            b_file = _write_json(workdir, f"b{idx:03d}.json", b)
            verify.append({
                "kind": "word2-verify",
                "argv": ["word2", "verify", a_file, b_file] + _shape_argv(shape),
                "size": _rs_label(dr * ds),
                "check": {"shape": shape, "a": a_file, "b": b_file},
            })
    return {"requests": classify + construct + verify, "probe": []}

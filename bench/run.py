"""simpow benchmark: drives the simpow CLI the way a user does.

    python3 bench/run.py --workload {numeric,exact,word2} --seed N --seconds T --trace {0,1}

Run from the root of a source checkout; see bench/README.md for the
metrics, the workloads and what each per-layer number predicts.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it give the
environment, every metric with its unit, and the per-size breakdown.  The
same record goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SETUP_RUNS = 8  # cold starts before the timed loop, and as many after it
CHILD_TIMEOUT_S = 170


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pinned_env() -> dict:
    """Environment of every process that imports numpy: BLAS pinned to one thread.

    On a few shared CPUs a second BLAS thread keeps waiting for the other
    tenants of the machine: with two threads the numeric timings spread
    13-15% from run to run, with one thread 3%.
    """
    threads = "1"
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONHASHSEED="0")
    return env


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(_pinned_env()["OPENBLAS_NUM_THREADS"]),
        "nproc": _nproc(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _measure_setup(argv: list[str], workdir: Path, env: dict, warm: bool) -> list[float]:
    """Wall time of SETUP_RUNS fresh processes that import simpow.cli and send the warm-up request.

    With ``warm`` one unmeasured start comes first, so every measured one
    finds the same warm caches (bytecode, page cache) that a returning CLI
    user finds.
    """
    times = []
    for i in range(SETUP_RUNS + warm):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "setup", *argv],
            cwd=workdir, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed ({proc.returncode}): {proc.stderr.decode()[-2000:]}")
        if i or not warm:
            times.append(elapsed)
    return times


def _percentile(values: list[float], percentile: float) -> tuple[float, int]:
    """(nearest-rank percentile, number of values beyond it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _check_reports(plan: dict, result: dict, workdir: Path) -> tuple[list[list[str]], list[list[str]]]:
    import checker

    def check_all(requests, reports):
        problems = []
        for request, rep in zip(requests, reports):
            try:
                parsed = json.loads(rep["out"])
            except json.JSONDecodeError:
                parsed = None
            try:
                problems.append(checker.check(request, rep["rc"], parsed, str(workdir)))
            except Exception as exc:  # a malformed report is a failed report
                problems.append([f"checker: {exc!r}"])
        return problems

    return check_all(plan["requests"], result["first"]), check_all(plan["probe"], result["probe"])


def _e2e_metrics(plan: dict, result: dict, setup_times: list[float], percentile: float,
                 scaled: bool) -> tuple[dict, dict]:
    import reference

    passes = [p for p in result["passes"] if not p["traced"]]
    # With ``scaled``, every latency at the reference speed (reference.py):
    # the machine's speed swings up to 2x between minutes, a program change
    # does not move the reference loop.  Medians and percentiles over every
    # sample of the run, never minima: the fastest of a request's few
    # samples depends on whether one of them caught a fast spell.
    wall = result["latencies_ms"]
    latencies = [reference.scaled(times, p["ref_ms"]) if scaled else times for times, p in zip(wall, passes)]
    samples = [t for times in latencies for t in times]
    medians = [statistics.median(times) for times in zip(*latencies)]
    tail, beyond = _percentile(samples, percentile)
    wall_samples = [t for times in wall for t in times]
    report_bytes = sum(len(rep["out"].encode()) for rep in result["first"])
    metrics = {
        "reports_per_s": {"value": 1000.0 * len(medians) / sum(medians), "unit": "1/s"},
        "report_p50_ms": {"value": statistics.median(samples), "unit": "ms"},
        "report_tail_ms": {"value": tail, "unit": "ms"},
        "report_kb": {"value": report_bytes / 1024.0, "unit": "KiB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": result["maxrss_kb"] / 1024.0, "unit": "MiB"},
    }
    by_request: dict = {}
    for pass_times in latencies:
        for request, t in zip(plan["requests"], pass_times):
            by_request.setdefault(f"{request['kind']} {request['size']}", []).append(t)
    detail = {
        "p50_ms_by_kind_and_size": {key: statistics.median(v) for key, v in sorted(by_request.items())},
        "scaled_to_reference": scaled,
        "reference_ms": statistics.median([t for p in passes for t in p["ref_ms"]]),
        "wall_p50_ms": statistics.median(wall_samples),
        "wall_tail_ms": _percentile(wall_samples, percentile)[0],
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "latency_samples": len(samples),
        "passes": len(passes),
        "pass_seconds": [p["seconds"] for p in passes],
        "wall_reports_per_s": 1000.0 * len(medians) / sum(statistics.median(t) for t in zip(*wall)),
        "requests_per_pass": len(plan["requests"]),
        "setup_runs_s": setup_times,
        "warmup_s": result["warmup"]["seconds"],
    }
    return metrics, detail


def _per_layer_metrics(result: dict) -> tuple[dict, dict]:
    trace = result["trace"]
    per_pass = 1.0 / trace["traced_passes"]
    calls, counters, layer_self = trace["calls"], trace["counters"], trace["layer_self"]

    def seconds(name):
        return {"value": calls.get(name, [0, 0.0])[1] * per_pass, "unit": "s"}

    def count(name):
        return {"value": calls.get(name, [0])[0] * per_pass, "unit": "count"}

    def counter(name, unit="count"):
        return {"value": counters.get(name, 0.0) * per_pass, "unit": unit}

    def ratio(num, den):
        total = counters.get(den, 0.0)
        return {"value": counters.get(num, 0.0) / total if total else 0.0, "unit": "ratio"}

    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    traced_rate = sum(p["reports"] for p in traced) / sum(p["seconds"] for p in traced)
    untraced_rate = sum(p["reports"] for p in untraced) / sum(p["seconds"] for p in untraced)
    wall = sum(p["seconds"] for p in traced) * per_pass
    layers = sum(layer_self.values()) * per_pass
    metrics = {f"{layer}.self_s": {"value": layer_self.get(layer, 0.0) * per_pass, "unit": "s"}
               for layer in ("cli", "matrixcore", "similarity", "spectra", "scalar", "solvers", "equation2x2")}
    metrics.update({
        "cli.calls": count("cli.main"),
        "cli.errors": {"value": (counters.get("cli.errors", 0.0) + calls.get("cli.main", [0, 0, 0, 0])[3])
                       * per_pass, "unit": "count"},
        "matrixcore.matrix_to_json.s": seconds("matrixcore.matrix_to_json"),
        "matrixcore.matrix_from_json.s": seconds("matrixcore.matrix_from_json"),
        "matrixcore.sylvester_kernel.s": seconds("matrixcore.sylvester_kernel"),
        "matrixcore.sylvester_kernel.calls": count("matrixcore.sylvester_kernel"),
        "matrixcore.sylvester_kernel.gflop": counter("matrixcore.sylvester_kernel.gflop", "GFLOP"),
        "matrixcore.sylvester_kernel.mb": {"value": counters.get("matrixcore.sylvester_kernel.mb", 0.0),
                                           "unit": "MiB"},
        "matrixcore.weyr_characteristic.s": seconds("matrixcore.weyr_characteristic"),
        "matrixcore.rank_with_tol.calls": count("matrixcore.rank_with_tol"),
        "matrixcore.mat_int_pow.s": seconds("matrixcore.mat_int_pow"),
        "matrixcore.fit_polynomial_in.s": seconds("matrixcore.fit_polynomial_in"),
        "matrixcore.fit_polynomial_in.degrees_tried": counter("matrixcore.fit_polynomial_in.degrees_tried"),
        "similarity.spec_from_matrix.s": seconds("similarity.spec_from_matrix"),
        "similarity.spec_from_matrix.calls": count("similarity.spec_from_matrix"),
        "similarity.spec_from_matrix.errors": {
            "value": calls.get("similarity.spec_from_matrix", [0, 0, 0, 0])[3] * per_pass, "unit": "count"},
        "similarity.spec_mismatch": counter("similarity.spec_mismatch"),
        "similarity.powers_similar_general.s": seconds("similarity.powers_similar_general"),
        "spectra.order_bound.calls": count("spectra.order_bound"),
        "spectra.order_bound.overflows": counter("spectra.order_bound.overflows"),
        "spectra.successor.calls": count("spectra.successor"),
        "spectra.orbit_decomposition.s": seconds("spectra.orbit_decomposition"),
        "scalar.rou_pow.calls": count("scalar.rou_pow"),
        "scalar.phi_k.calls": count("scalar.phi_k"),
        "scalar.snap_to_root_of_unity.s": seconds("scalar.snap_to_root_of_unity"),
        "scalar.snap_to_root_of_unity.calls": count("scalar.snap_to_root_of_unity"),
        "solvers.solve_single_eigenvalue.s": seconds("solvers.solve_single_eigenvalue"),
        "solvers.enumerate_valid_k1.s": seconds("solvers.enumerate_valid_k1"),
        "solvers.enumerate_valid_k1.yield": ratio("solvers.enumerate_valid_k1.valid",
                                                  "solvers.enumerate_valid_k1.scanned"),
        "solvers.build_cycle_instance.s": seconds("solvers.build_cycle_instance"),
        "equation2x2.classify.s": seconds("equation2x2.classify"),
        "equation2x2.classify.calls": count("equation2x2.classify"),
        "equation2x2.classify.pair_yield": ratio("equation2x2.classify.pairs",
                                                 "equation2x2.classify.candidates"),
        "equation2x2.construct_solution.s": seconds("equation2x2.construct_solution"),
        "equation2x2.verify_word.s": seconds("equation2x2.verify_word"),
        "equation2x2.is_simultaneously_triangularizable.s": seconds(
            "equation2x2.is_simultaneously_triangularizable"),
        "trace.wall_s": {"value": wall, "unit": "s"},
        "trace.bench_overhead_s": {"value": wall - layers, "unit": "s"},
        "trace.reports_per_s": {"value": traced_rate, "unit": "1/s"},
        "trace.untraced_reports_per_s": {"value": untraced_rate, "unit": "1/s"},
        "trace.overhead_ratio": {"value": untraced_rate / traced_rate, "unit": "ratio"},
    })
    breakdown: dict = {}
    for layer, size, t in trace["by_size"]:
        breakdown.setdefault(layer, {})[size] = t * per_pass
    detail = {"traced_passes": trace["traced_passes"], "spans": trace["spans"],
              "self_s_by_size": breakdown}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("numeric", "exact", "word2"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "simpow" / "cli.py").is_file():
        print(f"error: no simpow sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    env = _pinned_env()
    os.environ.update(env)  # before numpy is imported here, for the input derivation
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import reference
    import simpow
    import workloads

    if Path(simpow.__file__).resolve().parent != ROOT / "src" / "simpow":
        print(f"error: imported simpow from {simpow.__file__}, not from this checkout", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = workloads.build(args.workload, args.seed, str(workdir))
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        setup_argv = plan["requests"][0]["argv"]
        setup_times = _measure_setup(setup_argv, workdir, env, warm=True)
        out_path = workdir / "result.json"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "run", str(plan_path), str(args.seconds),
             str(args.trace), str(out_path)],
            cwd=workdir, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            print(proc.stderr.decode()[-4000:], file=sys.stderr)
            return 1
        # a second window of cold starts, so that one busy spell of the
        # machine does not set the median
        setup_times += _measure_setup(setup_argv, workdir, env, warm=False)
        result = json.loads(out_path.read_text())
        problems, probe_problems = _check_reports(plan, result, workdir)
        spans_path = Path(str(out_path) + ".spans")
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if spans_path.exists():
            shutil.copyfile(spans_path, out_dir / f"{stem}.spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = len(result["latencies_ms"]) + sum(p["traced"] for p in result["passes"])
    bad = [i for i, p in enumerate(problems) if p or result["mismatches"][i]]
    attempted = runs * len(plan["requests"])
    failed = sum(runs if problems[i] else result["mismatches"][i] for i in bad)
    correct = not bad and result["warmup"]["rc"] == 0
    e2e, detail = _e2e_metrics(plan, result, setup_times, workloads.TAIL_PERCENTILE[args.workload],
                                workloads.SCALED[args.workload])
    detail["fail_ratio"] = failed / attempted
    detail["failures"] = [{"request": plan["requests"][i]["argv"], "problems": problems[i][:3],
                           "mismatched_passes": result["mismatches"][i]} for i in bad[:20]]
    detail["known_defects"] = [
        {"defect": req["defect"], "argv": req["argv"], "still_fails": bool(p), "problems": p[:2]}
        for req, p in zip(plan["probe"], probe_problems)
    ]
    record = {"workload": args.workload, "environment": _environment(args.seed),
              "e2e": e2e, "detail": detail}
    if args.trace:
        metrics, trace_detail = _per_layer_metrics(result)
        record.update(per_layer=metrics, trace=trace_detail)
    else:
        metrics = e2e
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    print("environment " + json.dumps(record["environment"]))
    if not args.trace:
        for name, m in e2e.items():
            print(f"{args.workload:8s} {name:16s} {m['value']:14.4f} {m['unit']}")
        print(f"{args.workload:8s} {'fail_ratio':16s} {detail['fail_ratio']:14.4f} ratio"
              f"  ({failed} of {attempted} reports)")
        print(f"{args.workload:8s} tail = p{detail['tail_percentile']:g} of {detail['latency_samples']} "
              f"samples ({detail['passes']} passes of {len(plan['requests'])} requests), "
              f"{detail['tail_samples_beyond']} beyond")
        if detail["scaled_to_reference"]:
            print(f"{args.workload:8s} latencies at the reference speed; wall clock: p50 "
                  f"{detail['wall_p50_ms']:.4f} ms, tail {detail['wall_tail_ms']:.4f} ms, "
                  f"{detail['wall_reports_per_s']:.4f} reports/s; reference loop "
                  f"{detail['reference_ms']:.4f} ms ({reference.REF_MS} ms at the reference speed)")
    still = sum(d["still_fails"] for d in detail["known_defects"])
    if plan["probe"]:
        print(f"{args.workload:8s} known defects still failing: {still} of {len(plan['probe'])} "
              f"({', '.join(sorted({d['defect'] for d in detail['known_defects'] if d['still_fails']}))})")
    for failure in detail["failures"]:
        print("FAILED " + json.dumps(failure))
    if args.trace:
        for name, m in metrics.items():
            print(f"{args.workload:8s} {name:48s} {m['value']:14.6g} {m['unit']}")
        print("self_s_by_size " + json.dumps(trace_detail["self_s_by_size"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

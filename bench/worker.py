"""The workload process: one client driving ``simpow.cli.main`` in a closed loop.

    python3 worker.py setup ARGV...            cold start: import, one report, exit
    python3 worker.py run PLAN SECONDS TRACE OUT

``run`` sends the warm-up request (the plan's first), then repeats whole
passes over the request list, each request only after the previous report
is back, until SECONDS are used up.  The CLI's stdout is captured, so JSON
encoding is part of every timed call.  With TRACE=1 the passes alternate
untraced and traced, and a traced pass also runs the known-defect probe
set, so the tracing overhead is measured on the same work.  After the
loop the probe set runs once, untimed.  Before every request, and after
the last of a pass, the reference loop (``reference.py``) runs once
outside the requests' time, so that each latency can be brought to the
reference speed.  OUT receives the first pass's reports, every latency,
every reference time and the trace summary.  The process starts no
threads of its own; the run script pins BLAS to one thread.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 4


def _call(main, argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, seconds) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed report, not a dead benchmark
            rc = 70
            out.write(json.dumps({"error": traceback.format_exc()}))
        elapsed = time.perf_counter() - start
    return rc, out.getvalue() or err.getvalue(), elapsed


def setup(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from simpow import cli

    rc, _, _ = _call(cli.main, argv)
    return rc


def run(plan_path: str, seconds: float, trace: bool, out_path: str) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    from reference import reference_ms
    from simpow import cli

    with open(plan_path) as fh:
        plan = json.load(fh)
    requests, probe = plan["requests"], plan["probe"]
    warm_rc, _, warm_s = _call(cli.main, requests[0]["argv"])

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    first: list[dict] = []
    latencies: list[list[float]] = []
    passes: list[dict] = []
    mismatches = [0] * len(requests)
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        batch = requests + probe if tracer is not None else requests
        if traced:
            tracer.install()
        pass_start = time.perf_counter()
        times, ref_times = [], []
        for i, request in enumerate(batch):
            ref_times.append(reference_ms())
            if traced:
                tracer.request_id = f"{len(passes)}:{i}"
                tracer.request = request
                tracer.size = request["size"]
            rc, out, elapsed = _call(cli.main, request["argv"])
            if i >= len(requests):
                continue
            times.append(elapsed * 1000.0)
            if not passes:
                first.append({"rc": rc, "out": out})
            elif out != first[i]["out"] or rc != first[i]["rc"]:
                mismatches[i] += 1
        ref_times.append(reference_ms())  # so that every request has one on both sides
        pass_seconds = time.perf_counter() - pass_start
        if traced:
            tracer.uninstall()
        passes.append({"seconds": pass_seconds, "traced": traced, "reports": len(batch),
                       "ref_ms": ref_times})
        if not traced:
            latencies.append(times)
        used = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and used + used / len(passes) > seconds:
            break
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe_reports = []
    for request in probe:
        rc, out, _ = _call(cli.main, request["argv"])
        probe_reports.append({"rc": rc, "out": out})

    result = {
        "warmup": {"rc": warm_rc, "seconds": warm_s},
        "passes": passes,
        "latencies_ms": latencies,
        "first": first,
        "mismatches": mismatches,
        "probe": probe_reports,
        "maxrss_kb": maxrss_kb,
        "trace": _trace_summary(tracer, passes) if tracer is not None else None,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    if tracer is not None:
        with open(out_path + ".spans", "w") as fh:
            json.dump(tracer.spans, fh)
    return 0


def _trace_summary(tracer, passes: list[dict]) -> dict:
    return {
        "traced_passes": sum(1 for p in passes if p["traced"]),
        "calls": dict(tracer.calls),
        "layer_self": dict(tracer.layer_self),
        "by_size": [[layer, size, t] for (layer, size), t in tracer.by_size.items()],
        "counters": dict(tracer.counters),
        "spans": len(tracer.spans),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"]:
        return setup(argv[1:])
    if argv[:1] == ["run"] and len(argv) == 5:
        return run(argv[1], float(argv[2]), argv[3] == "1", argv[4])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

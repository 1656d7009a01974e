"""The reference loop: a fixed piece of pure-Python work that measures how
fast the machine runs the interpreter at the moment.

On a host shared with other tenants the same requests take up to twice as
long in one minute as in the next, and a slow or fast spell can last a
whole run.  The worker runs this loop once before every request of a
pass and once after the last.  For the workloads whose time goes to the
interpreter (``workloads.SCALED``) each latency is then given at the
reference speed: multiplied by ``REF_MS`` over the mean time of the loop
just before and just after the request.  The loop touches no simpow
code, so a change to the program moves the scaled latencies as much as
the wall-clock ones.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

# What the loop takes at the reference speed: about its median between
# requests on the machine the benchmark was written on (x86_64, 2 shared
# CPUs, Python 3.11).
REF_MS = 0.30


def reference_ms() -> float:
    """Milliseconds of one run of the reference loop."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 25):  # exact arithmetic, as in solvers and scalar
        acc += Fraction(k, k * k + 1)
    json.dumps([[k * 0.5, -k / 3.0] for k in range(80)])  # report encoding, as in cli
    table = {str(k): [k, k * k] for k in range(120)}  # dicts and lists, as everywhere
    sorted(table.items(), key=lambda item: -item[1][1])
    return (time.perf_counter() - start) * 1000.0


def scaled(latencies: list[float], ref_times: list[float]) -> list[float]:
    """The latencies of one pass at the reference speed.

    ``ref_times[i]`` and ``ref_times[i + 1]`` are the loop's times just
    before and just after request ``i``; their mean is the machine's speed
    while the request ran.  Pass medians follow it less well: a 3 s pass
    spans several fast and slow spells.
    """
    return [t * 2.0 * REF_MS / (ref_times[i] + ref_times[i + 1]) for i, t in enumerate(latencies)]

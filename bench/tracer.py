"""Per-layer tracing from outside the program.

``Tracer`` wraps every public module-level function of the simpow layers
and patches the wrapper into every namespace that holds the function, so
``simpow.cli.sylvester_kernel``, the ``weyr_characteristic`` imported by
``simpow.similarity`` and the ``rank_with_tol`` that ``matrixcore`` calls
internally all go through it.  ``install`` and ``uninstall`` swap the
wrappers in and out, so untraced passes run the unpatched program.

Each call records a span (id, parent id, request id, name, start, end).
Hot scalar functions (``COUNTED``) record only calls and summed time.  A
call's self time is its duration minus the time of the wrapped calls it
made; self time is summed per layer and per (layer, request size).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

from checker import canonical_spec

LAYERS = ("cli", "matrixcore", "similarity", "spectra", "scalar", "solvers", "equation2x2")

COUNTED = {
    "matrixcore.as_matrix", "matrixcore.rank_with_tol", "matrixcore.is_invertible",
    "matrixcore.mat_int_pow", "spectra.successor", "spectra.multiset_power",
    "spectra.powers_equal",
} | {f"scalar.{name}" for name in (
    "rou_mul", "rou_pow", "rou_to_complex", "mod_inverse", "snap_to_root_of_unity", "phi_k",
)}


class Tracer:
    def __init__(self):
        package = importlib.import_module("simpow")
        modules = {layer: importlib.import_module(f"simpow.{layer}") for layer in LAYERS}
        self._namespaces = [package] + list(modules.values())
        self.request_id = None
        self.request: dict = {}
        self.size = ""
        self.spans: list[tuple] = []
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, total, self, errors
        self.layer_self: dict[str, float] = defaultdict(float)
        self.by_size: dict[tuple[str, str], float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [child time, span id] per active call
        self._next_span = 0
        self._wrapper_of: dict[int, object] = {}
        self._original_of: dict[int, object] = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrapper = self._wrap(obj, layer, f"{layer}.{name}")
                    self._wrapper_of[id(obj)] = wrapper
                    self._original_of[id(wrapper)] = obj

    def install(self):
        self._swap(self._wrapper_of)

    def uninstall(self):
        self._swap(self._original_of)

    def _swap(self, table: dict):
        for namespace in self._namespaces:
            for name, obj in list(vars(namespace).items()):
                replacement = table.get(id(obj))
                if replacement is not None:
                    setattr(namespace, name, replacement)

    def _wrap(self, fn, layer: str, qualname: str):
        counted = qualname in COUNTED
        counts_overflow = qualname == "spectra.order_bound"
        hook = _HOOKS.get(qualname)
        stack, calls, layer_self = self._stack, self.calls, self.layer_self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent_span = stack[-1][1] if stack else None
            if counted:
                span = parent_span
            else:
                span = self._next_span
                self._next_span += 1
            frame = [0.0, span]
            stack.append(frame)
            failed = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                entry = calls[qualname]
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
                layer_self[layer] += own
                self.by_size[(layer, self.size)] += own
                if failed is not None:
                    entry[3] += 1
                    if counts_overflow and type(failed).__name__ == "OrderBoundOverflowError":
                        self.counters["spectra.order_bound.overflows"] += 1
                if not counted:
                    self.spans.append((span, parent_span, self.request_id, qualname, start, end))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper


def _hook_main(tracer, args, kwargs, rc):
    if rc != 0:
        tracer.counters["cli.errors"] += 1


def _hook_sylvester(tracer, args, kwargs, result):
    # computed, not measured: a full complex SVD of the N x N operator,
    # N = n^2, is about 22 N^3 real operations times 4 for complex
    # arithmetic; the largest call's operator, U and V^H take 3 N^2
    # complex128 values
    big_n = args[0].shape[0] ** 2
    tracer.counters["matrixcore.sylvester_kernel.gflop"] += 88.0 * big_n**3 / 1e9
    footprint = 48.0 * big_n**2 / 2**20
    counters = tracer.counters
    counters["matrixcore.sylvester_kernel.mb"] = max(counters["matrixcore.sylvester_kernel.mb"], footprint)


def _hook_fit(tracer, args, kwargs, coeffs):
    max_degree = args[2] if len(args) > 2 else kwargs["max_degree"]
    tracer.counters["matrixcore.fit_polynomial_in.degrees_tried"] += (
        len(coeffs) if coeffs is not None else max_degree + 1
    )


def _hook_spec(tracer, args, kwargs, spec):
    expected = tracer.request.get("check", {}).get("spec")
    if expected is not None and canonical_spec(spec.to_json()) != canonical_spec(expected):
        tracer.counters["similarity.spec_mismatch"] += 1


def _hook_k1(tracer, args, kwargs, valid):
    n, pq = args[0], args[1]
    tracer.counters["solvers.enumerate_valid_k1.valid"] += len(valid)
    tracer.counters["solvers.enumerate_valid_k1.scanned"] += abs(pq.q**n - pq.p**n)


def _hook_classify(tracer, args, kwargs, result):
    for family in result.families:
        tracer.counters["equation2x2.classify.pairs"] += len(family.pairs)
        tracer.counters["equation2x2.classify.candidates"] += (
            len(family.u_candidates) * len(family.rho_candidates)
        )


_HOOKS = {
    "cli.main": _hook_main,
    "matrixcore.sylvester_kernel": _hook_sylvester,
    "matrixcore.fit_polynomial_in": _hook_fit,
    "similarity.spec_from_matrix": _hook_spec,
    "solvers.enumerate_valid_k1": _hook_k1,
    "equation2x2.classify": _hook_classify,
}

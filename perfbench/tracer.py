"""Spans around the public functions of each polywalk layer.

`install()` replaces every binding of a spanned function: the defining
module's, every other polywalk module that imported it by name, and every
class attribute that is the same function object (`MPoly.__rmul__` is
`__mul__`).  Spans nest on a stack per thread, so the self time of a span
is its duration minus the time its child spans cover.  A spanned name (or
layer module) the package no longer has is skipped and reads as zero
calls.  Call `install()` after the package is imported.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

SPANS = (
    ("poly", "MPoly.eval"),
    ("poly", "PolyVector.eval_int"),
    ("poly", "MPoly.substitute"),
    ("poly", "MPoly.__mul__"),
    ("poly", "MPoly.integer_valued"),
    ("reals", "dot_frac"),
    ("reals", "constant_digits"),
    ("walks", "Walk.orbit_poly"),
    ("walks", "Walk.compose"),
    ("walks", "Walk.reparam"),
    ("walks", "Walk.apply"),
    ("walks", "preserves"),
    ("generators", "unipotent_walk"),
    ("generators", "xy_minus_P_walks"),
    ("generators", "bogolubov_walk"),
    ("generators", "signature_form_walks"),
    ("fleeing", "construct_fleeing_walk"),
    ("fleeing", "orbit_polynomials"),
    ("fleeing", "affine_annihilator"),
    ("fleeing", "is_fleeing"),
    ("lab", "twisted_search"),
    ("lab", "BohrSet.contains_difference"),
    ("lab", "WindowSet.contains_difference"),
    ("lab", "weyl_sum"),
    ("lab", "weyl_sum_rational"),
    ("ergodic", "empirical_average"),
    ("ergodic", "q_p_closed_form"),
    ("ergodic", "correlation_average"),
    ("ergodic", "TorusSystem.orbit_fracs"),
    ("cli", "main"),
)

ORACLES = ("lab.BohrSet.contains_difference", "lab.WindowSet.contains_difference")


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, name in SPANS]


class Tracer:
    def __init__(self):
        self.lock = threading.Lock()
        self.local = threading.local()
        self.calls = {key: 0 for key in span_names()}
        self.self_s = {key: 0.0 for key in span_names()}
        self.digit_requests: set = set()
        self.certificates = 0
        self.found = 0
        self.oracle_raised = 0

    def wrap(self, key: str, fn):
        observe = getattr(self, "_observe_" + key.rsplit(".", 1)[-1], None)
        oracle = key in ORACLES

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(self.local, "stack", None)
            if stack is None:
                stack = self.local.stack = []
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if oracle and type(exc).__name__ == "IndeterminateError":
                    with self.lock:
                        self.oracle_raised += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self.lock:
                    self.calls[key] += 1
                    self.self_s[key] += elapsed - children
            if observe is not None:
                observe(args, result)
            return result

        return span

    # counters observed at the same boundaries as the spans

    def _observe_constant_digits(self, args, result):
        with self.lock:
            self.digit_requests.add((args[0], args[1]))

    def _observe_construct_fleeing_walk(self, args, result):
        with self.lock:
            self.certificates += 1

    def _observe_twisted_search(self, args, result):
        if result.found():
            with self.lock:
                self.found += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        """(value, unit) of every span's calls and self time, then the
        derived counts."""
        out: dict[str, tuple[float, str]] = {}
        for key in span_names():
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_s"] = (self.self_s[key], "s")
        queries = sum(self.calls[k] for k in ORACLES)
        out["reals.max_precision"] = (
            max((p for _, p in self.digit_requests), default=0), "digits")
        out["reals.digit_engine_runs"] = (len(self.digit_requests), "count")
        out["fleeing.base_retries"] = (
            self.calls["fleeing.is_fleeing"] - self.certificates, "count")
        out["lab.oracle_raised"] = (self.oracle_raised, "count")
        out["lab.hits_per_query"] = (self.found / queries if queries else 0.0, "ratio")
        return out


def install(package: str = "polywalk") -> Tracer:
    tracer = Tracer()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    for layer, name in SPANS:
        module = sys.modules.get(f"{package}.{layer}")
        key = f"{layer}.{name}"
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(module, cls_name, None)
            original = getattr(cls, "__dict__", {}).get(attr)
            if original is None:
                continue
            wrapper = tracer.wrap(key, original)
            for alias, value in list(vars(cls).items()):
                if value is original:
                    setattr(cls, alias, wrapper)
            continue
        original = getattr(module, name, None)
        if original is None:
            continue
        wrapper = tracer.wrap(key, original)
        for mod in modules:
            for alias, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, alias, wrapper)
    return tracer

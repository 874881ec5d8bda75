"""Span accounting from wrappers around public layer functions.

Nothing in the program changes: the ``install_*`` functions replace public
functions and registry attributes with timing wrappers inside one
benchmark-owned process.  Each wrapper records a span per call; spans
nest on a stack, so a layer's *self* time is its span time minus the
time of the wrapped calls made inside it.  Spans are folded into
per-layer ``[calls, total_s, self_s]`` totals as they close.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # Spans nest per thread (the service runs units on a worker
        # thread while its event loop admits jobs); totals are shared.
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                with self._lock:
                    record = self.layers[layer]
                    record[0] += 1
                    record[1] += took
                    record[2] += took - child[0]
                if stack:
                    stack[-1][0] += took

        traced.__wrapped_layer__ = layer
        return traced

    def patch(self, owner, name: str, layer: str) -> None:
        """Wrap ``owner.name`` in place (modules, classes, frozen records)."""
        current = getattr(owner, name)
        if getattr(current, "__wrapped_layer__", None) is not None:
            return
        wrapped = self.wrap(layer, current)
        try:
            setattr(owner, name, wrapped)
        except AttributeError:  # frozen dataclass instance (AppSpec)
            object.__setattr__(owner, name, wrapped)

    def reset(self) -> None:
        """Start empty (also used in a freshly forked worker, where the
        parent's totals and a possibly held lock were inherited)."""
        self.layers = defaultdict(lambda: [0, 0.0, 0.0])
        self._local = threading.local()
        self._lock = threading.Lock()

    def snapshot(self) -> dict:
        with self._lock:
            return {k: list(v) for k, v in self.layers.items()}


def install_program_layers(tracer: Tracer) -> None:
    """Wrap the sparse / apps / core / engine / evaluation entry points."""
    from repro.engine import available_apps, get_app
    from repro.engine.dispatch import Runtime
    from repro.evaluation import harness
    from repro.sparse import corpus

    tracer.patch(corpus, "load_dataset", "sparse.corpus")
    tracer.patch(harness, "run_suite", "evaluation.harness")
    tracer.patch(Runtime, "schedule_for", "core.plan")
    tracer.patch(Runtime, "run_launch", "engine.launch")
    for name in available_apps():
        spec = get_app(name)
        tracer.patch(spec, "driver", "apps.driver")
        for attr, layer in (
            ("sweep_problem", "apps.problem"),
            ("oracle", "apps.oracle"),
            ("match", "apps.validate"),
            ("sample_check", "apps.validate"),
        ):
            if getattr(spec, attr) is not None:
                tracer.patch(spec, attr, layer)
        for kernel in list(spec.baselines):
            spec.baselines[kernel] = tracer.wrap(
                "apps.baseline", spec.baselines[kernel]
            )


def layer_metrics(layers: dict, passes: int) -> dict:
    """Per-pass per-layer figures from summed ``[calls, total, self]``."""

    def get(name):
        return layers.get(name, [0, 0.0, 0.0])

    def per(value):
        return value / passes

    plan, launch = get("core.plan"), get("engine.launch")
    return {
        "sparse.corpus_s": per(get("sparse.corpus")[1]),
        "sparse.datasets_built": per(get("sparse.corpus")[0]),
        "apps.problem_s": per(get("apps.problem")[1]),
        "apps.oracle_s": per(get("apps.oracle")[1]),
        "apps.validate_s": per(get("apps.validate")[1]),
        "apps.baseline_s": per(get("apps.baseline")[1]),
        "apps.driver_self_s": per(get("apps.driver")[2]),
        "core.plan_s": per(plan[1]),
        "core.plan_calls": per(plan[0]),
        "core.plan_us_per_call": plan[1] / plan[0] * 1e6 if plan[0] else 0.0,
        "engine.launches": per(launch[0]),
        "engine.launch_s": per(launch[1]),
        "engine.launch_us_per_launch": (
            launch[1] / launch[0] * 1e6 if launch[0] else 0.0
        ),
        "evaluation.harness_self_s": per(get("evaluation.harness")[2]),
    }


def self_seconds(layers: dict) -> float:
    """Sum of every layer's self time (for ``trace.unaccounted_s``)."""
    return sum(record[2] for record in layers.values())


def merge(into: dict, layers: dict) -> None:
    for name, (calls, total, own) in layers.items():
        record = into.setdefault(name, [0, 0.0, 0.0])
        record[0] += calls
        record[1] += total
        record[2] += own


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p50") or name.endswith("_ms_total"):
        return "ms"
    if name.endswith("_us_per_call") or name.endswith("_us_per_launch"):
        return "us"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "share"
    return "count"

"""One sweep pass in a fresh process (the frontier-sweep and corpus-sweep
workloads spawn one per pass).

    python e2ebench/sweep_pass.py --probe
    python e2ebench/sweep_pass.py --plan PLAN_JSON --seed N [--trace]
                                  [--fail-unit APP:DATASET]

Prints ``{"ready": ...}`` once ``repro`` is imported and its app registry
loaded (the benchmark times spawn -> ready as ``setup_s``), then the
start-up's host speed as ``{"yardstick_s": ...}`` (see
``common.Yardstick``); ``--probe`` exits there.  Otherwise it runs the
plan -- a list of ``{"app", "scale", "datasets", "kernels"}`` groups --
one (app, dataset) unit at a time through ``run_suite(executor="serial",
validate=True)`` and prints one JSON line per unit (with the yardstick
time taken right before it), then ``{"done": ...}`` with the pass's wall
time and mean yardstick time.  Each app's datasets
are expanded from the corpus first, as ``repro sweep`` does, so an app's
first row waits for its corpus build.  The yardstick runs before every
unit; its time is left out of the unit, first-row and pass times.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from common import Yardstick, emit


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--plan", default="[]")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--fail-unit", default=None)
    args = parser.parse_args()

    from repro.engine import available_apps

    available_apps()
    emit({"ready": True})
    yardstick = Yardstick()
    emit({"yardstick_s": statistics.median(yardstick() for _ in range(5))})
    if args.probe:
        return 0

    from repro.engine import global_plan_cache
    from repro.evaluation import harness

    from tracing import Tracer, install_program_layers

    tracer = Tracer()
    if args.trace:
        install_program_layers(tracer)
    clock = time.perf_counter
    laps = []
    pass_start = clock()
    for group in json.loads(args.plan):
        app, kernels = group["app"], group["kernels"]
        app_start = clock()
        app_laps = 0.0
        try:
            # As ``repro sweep`` does: expand the app's corpus, then run it.
            datasets = harness.expand_datasets(
                app, scale=group["scale"], names=group["datasets"]
            )
        except Exception as exc:  # every unit of the app fails
            datasets = [None] * len(group["datasets"])
            corpus_error = exc
        first = True
        for name, dataset in zip(group["datasets"], datasets):
            record = {"app": app, "dataset": name, "cells": len(kernels)}
            laps.append(yardstick())
            app_laps += laps[-1]
            start = clock()
            try:
                if dataset is None:
                    raise corpus_error
                if args.fail_unit == f"{app}:{name}":
                    raise RuntimeError("injected unit failure")
                rows = harness.run_suite(
                    kernels, app=app, datasets=[dataset], seed=args.seed,
                    executor="serial", validate=True,
                )
                if len(rows) != len(kernels):
                    raise RuntimeError(f"{len(rows)} rows for {len(kernels)} kernels")
            except Exception as exc:  # a failed unit is counted, the pass goes on
                record["error"] = f"{type(exc).__name__}: {exc}"[:300]
                record["mismatch"] = isinstance(exc, AssertionError)
                emit(record)
                continue
            done = clock()
            record["unit_ms"] = (done - start) * 1e3
            record["yardstick_s"] = laps[-1]
            if first:
                record["first_row_ms"] = (done - app_start - app_laps) * 1e3
                first = False
            record["rows"] = [[row.kernel, row.elapsed] for row in rows]
            emit(record)
    done = {"done": True, "pass_s": clock() - pass_start - sum(laps),
            "yardstick_s": statistics.fmean(laps)}
    if args.trace:
        cache = global_plan_cache().info()
        done["trace"] = tracer.snapshot()
        done["plan_cache"] = [cache["hits"], cache["hits"] + cache["misses"]]
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())

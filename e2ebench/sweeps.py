"""The frontier-sweep and corpus-sweep workloads.

A run is a whole number of passes over a fixed (app, dataset) unit list;
every pass runs in a fresh ``sweep_pass.py`` process.  Passes start while
the next one is expected to end within ``--seconds`` (at least
``min_passes``, so every ``*_p90`` has ten samples beyond it).  Start-up
probes (``sweep_pass.py --probe``) run before every pass and after the
last one, each once no other program process is alive, so ``setup_s``
samples are spread over the run.  Every wall time is scaled to the
reference host speed measured in its own process (``common.Yardstick``):
a unit's time by the yardstick timed right before it, a pass's wall and
first-row times by the pass's mean yardstick time, a start-up by the
yardstick timed right after it.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

from common import (
    YARDSTICK_S,
    default_kernels,
    derive_seed,
    more_passes,
    python_child,
    rows_digest,
    wait_quiet,
)
from report import BenchError, Result
from tracing import layer_metrics, layer_unit, merge, self_seconds


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    apps: tuple
    scale: str
    #: Untraced passes a run needs for ten unit samples beyond the p90
    #: (frontier-sweep has 62 units per pass, corpus-sweep 144).
    min_passes: int
    #: Start-up probes before each pass.
    probes: int


FRONTIER = SweepWorkload("frontier-sweep", ("bfs", "sssp"), "smoke", 2, 1)
CORPUS = SweepWorkload(
    "corpus-sweep", ("spmv", "histogram", "spmm", "spmttkrp"), "standard", 1, 2
)


def unit_plan(workload: SweepWorkload, tiny: bool) -> list[dict]:
    """The fixed unit list: every corpus dataset each app accepts."""
    from repro.engine import get_app
    from repro.evaluation.harness import expand_datasets

    plan = []
    for app in workload.apps:
        # Acceptance is a shape test (graph apps need square inputs), and
        # every corpus builder scales rows and columns together, so the
        # cheap smoke corpus names the same datasets as any other scale.
        names = [d.name for d in expand_datasets(app, scale="smoke")]
        plan.append({
            "app": app,
            "scale": "smoke" if tiny else workload.scale,
            "datasets": names[:3] if tiny else names,
            "kernels": default_kernels(get_app(app)),
        })
    return plan


def pooled(passes: list[dict], key: str) -> list:
    return [value for p in passes for value in p[key]]


def _quiet() -> None:
    if wait_quiet():
        raise BenchError("a sweep process left processes behind")


def _startup(child, setup: list) -> bool:
    """Time spawn -> ready and append it, scaled by the yardstick the child
    times right after; False if the child did not get ready."""
    if not child.readline().startswith('{"ready"'):
        return False
    took = time.perf_counter() - child.start
    speed = json.loads(child.readline() or "{}").get("yardstick_s")
    if not speed:
        return False
    setup.append(took * YARDSTICK_S / speed)
    return True


def _probe(setup: list) -> None:
    _quiet()
    child = python_child("sweep_pass.py", "--probe")
    try:
        ready = _startup(child, setup)
        code, _ = child.finish()
    finally:
        child.kill()
    if code != 0 or not ready:
        raise BenchError(f"start-up probe failed (exit {code})")


def run(workload: SweepWorkload, *, seed: int, seconds: float, trace: bool,
        passes: int | None = None, tiny: bool = False,
        fail_unit: str | None = None) -> Result:
    plan = unit_plan(workload, tiny)
    plan_json = json.dumps(plan)
    run_seed = derive_seed(seed, workload.name)
    # Untraced and traced passes alternate in a traced run.
    min_passes = max(2, workload.min_passes) if trace else workload.min_passes
    per_pass_cells = sum(len(g["datasets"]) * len(g["kernels"]) for g in plan)

    setup: list[float] = []
    samples: list[dict] = []  # one per completed untraced pass
    traced_walls: list[float] = []
    attempted = failed = ok_cells = 0
    mismatch = False
    reference: dict = {}
    nondeterministic = []
    peak_rss = 0.0
    layers: dict = {}
    plan_cache = [0, 0]
    self_total = 0.0
    model_ms = []
    started = time.monotonic()
    index = 0

    while more_passes(index, passes, min_passes, started, seconds):
        for _ in range(workload.probes):
            _probe(setup)
        traced = trace and index % 2 == 1
        argv = ["--plan", plan_json, "--seed", str(run_seed)]
        if traced:
            argv.append("--trace")
        if fail_unit:
            argv += ["--fail-unit", fail_unit]
        _quiet()
        child = python_child("sweep_pass.py", *argv)
        index += 1
        try:
            if not _startup(child, setup):
                raise BenchError("sweep pass failed to start")
            records = [json.loads(line) for line in child.proc.stdout]
            code, _ = child.finish()
        finally:
            child.kill()
        peak_rss = max(peak_rss, child.maxrss_mb)
        done = records.pop() if records and "done" in records[-1] else None
        scale = YARDSTICK_S / done["yardstick_s"] if done else 1.0
        stats = {"cells": 0, "jobs": 0, "unit_ms": [], "first_row_ms": []}
        seen = 0
        pass_model_ms = 0.0
        for rec in records:
            seen += rec["cells"]
            attempted += rec["cells"]
            if "error" in rec:
                failed += rec["cells"]
                mismatch |= rec["mismatch"]
                continue
            ok_cells += rec["cells"]
            stats["cells"] += rec["cells"]
            stats["jobs"] += 1
            stats["unit_ms"].append(rec["unit_ms"] * YARDSTICK_S / rec["yardstick_s"])
            if "first_row_ms" in rec:
                stats["first_row_ms"].append(
                    (rec["app"], rec["first_row_ms"] * scale)
                )
            key = (rec["app"], rec["dataset"])
            rows = [tuple(r) for r in rec["rows"]]
            pass_model_ms += sum(r[1] for r in rows)
            if reference.setdefault(key, rows) != rows:
                nondeterministic.append(key)
        model_ms.append(pass_model_ms)
        if code != 0 or done is None:
            missing = per_pass_cells - seen
            attempted += missing
            failed += missing
            continue
        if traced:
            traced_walls.append(done["pass_s"])
            merge(layers, done["trace"])
            plan_cache[0] += done["plan_cache"][0]
            plan_cache[1] += done["plan_cache"][1]
            self_total += self_seconds(done["trace"])
        else:
            stats["raw_s"] = done["pass_s"]
            stats["wall_s"] = done["pass_s"] * scale
            samples.append(stats)
    _probe(setup)

    digest_rows = [
        (app, kernel, dataset, elapsed)
        for (app, dataset), rows in reference.items()
        for kernel, elapsed in rows
    ]
    result = Result(
        attempted=attempted,
        failed=failed,
        validated=ok_cells,
        correct=ok_cells > 0 and not mismatch and not nondeterministic,
        details={
            "passes": index,
            "cells_per_pass": per_pass_cells,
            "units_per_pass": sum(len(g["datasets"]) for g in plan),
            "digest": rows_digest(digest_rows),
            "digest_rows": len(digest_rows),
            "nondeterministic_units": [list(k) for k in nondeterministic],
        },
    )
    if not ok_cells:
        return result
    if not samples:
        raise BenchError("no untraced pass completed")
    if not trace:
        wall = sum(p["wall_s"] for p in samples)
        raw = sum(p["raw_s"] for p in samples)
        result.details["pass_s"] = [round(p["raw_s"], 3) for p in samples]
        # Per pass, how much slower than the reference host it ran, and the
        # unscaled throughput: the scaled metrics can be undone from these.
        result.details["host_slowdown"] = [
            round(p["raw_s"] / p["wall_s"], 3) for p in samples
        ]
        result.details["unscaled_cells_per_s"] = sum(
            p["cells"] for p in samples) / raw
        result.metric("setup_s", statistics.median(setup), "s", n=len(setup))
        result.metric("cells_per_s", sum(p["cells"] for p in samples) / wall, "1/s")
        result.timing("unit_ms", pooled(samples, "unit_ms"), "ms")
        # Apps differ (and the first app of a pass also pays the process's
        # cold start), so pooled first rows are multimodal: take each
        # app's median, then their mean.
        first_rows = {}
        for p in samples:
            for app, ms in p["first_row_ms"]:
                first_rows.setdefault(app, []).append(ms)
        result.metric(
            "first_row_ms_p50",
            statistics.fmean(statistics.median(v) for v in first_rows.values()),
            "ms", n=sum(len(v) for v in first_rows.values()),
        )
        # A sweep submits each unit as one job: the job figures are the
        # unit figures.
        result.metric("jobs_per_s", sum(p["jobs"] for p in samples) / wall, "1/s")
        result.timing("job_ms", pooled(samples, "unit_ms"), "ms")
        result.metric("peak_rss_mb", peak_rss, "MB")
        result.metric("ok_share", ok_cells / attempted, "share")
        return result

    traced_passes = len(traced_walls)
    if not traced_passes:
        raise BenchError("no traced pass completed")
    for name, value in layer_metrics(layers, traced_passes).items():
        result.metric(name, value, layer_unit(name))
    result.metric("engine.plan_cache_hit_ratio",
                  plan_cache[0] / plan_cache[1] if plan_cache[1] else 0.0,
                  "share", base=plan_cache[1] / traced_passes)
    result.metric("gpusim.model_ms_total", statistics.median(model_ms), "ms")
    traced_mean = statistics.fmean(traced_walls)
    untraced_mean = statistics.fmean(p["raw_s"] for p in samples)
    result.metric("trace.overhead_share", traced_mean / untraced_mean - 1.0,
                  "share", base=untraced_mean)
    result.metric("trace.unaccounted_s",
                  traced_mean - self_total / traced_passes, "s")
    for name in SERVICE_ONLY:
        result.metric(name, 0.0, layer_unit(name), note="not on this path")
    return result


#: Per-layer metrics only the serve-mix workload exercises.
SERVICE_ONLY = (
    "service.admit_ms_p50", "service.queue_ms_p50", "service.stream_ms_p50",
    "service.jobs_rejected", "worker_pool.map_shards_s",
    "worker_pool.shm_reuse_ratio", "worker_pool.oracle_reuse_ratio",
    "worker_pool.stolen_share", "worker_pool.retries",
)

"""The serve-mix workload: ``repro serve --width 2`` under two closed-loop
clients.

A run is a whole number of rounds, started like sweep passes (see
``sweeps.py``; at least ``MIN_ROUNDS``).  Each round starts a fresh service
process, lets two :class:`~repro.service.SweepClient` connections (one
thread each, in this process) work through a fixed job list -- every
client submits its next job only after the previous one is done -- then
drains the service with SIGTERM.  Jobs are smoke-scale sweeps of
``JOB_DATASETS`` with the default kernels and rotate over every
registered app; every ``FRESH_EVERY``-th job of a client uses a fresh
seed derived from the workload seed, which forces problem and oracle
cache misses.  Extra start-up probes (start, answer ``status``, drain)
run before each round and after the last, while no other program process
is alive.  A service that exits non-zero or leaves a process or a
``/dev/shm`` segment behind is an unclean teardown, a failed operation.
While the jobs run, a third thread times the yardstick every
``SAMPLE_EVERY_S``; a round's load-phase times (round wall, job, unit and
first-row times) are scaled by its mean (see ``common.Yardstick``).
"""

from __future__ import annotations

import statistics
import sys
import threading
import time

from common import (
    BENCH,
    YARDSTICK_S,
    Child,
    Yardstick,
    default_kernels,
    derive_seed,
    more_passes,
    percentile,
    program_env,
    rows_digest,
    shm_names,
    wait_quiet,
)
from report import BenchError, Result
from tracing import layer_metrics, layer_unit, merge

WIDTH = 2
CLIENTS = 2
JOB_DATASETS = ("tiny_band_128", "tiny_poisson_512", "small_power_1k")
JOBS_PER_CLIENT = 17
FRESH_EVERY = 4
#: Rounds a run needs for ten ``job_ms`` samples beyond the p90.
MIN_ROUNDS = 3
PROBES = 2
#: The yardstick (about 1 ms of one core) runs this often during a round.
SAMPLE_EVERY_S = 0.05


def job_lists(seed: int, round_index: int, tiny: bool) -> list[list[dict]]:
    from repro.engine import available_apps, get_app

    apps = available_apps()
    datasets = list(JOB_DATASETS[:1] if tiny else JOB_DATASETS)
    per_client = 4 if tiny else JOBS_PER_CLIENT
    lists = []
    for client in range(CLIENTS):
        jobs = []
        for j in range(per_client):
            app = apps[(j + client * len(apps) // CLIENTS) % len(apps)]
            fresh = j % FRESH_EVERY == FRESH_EVERY - 1
            job_seed = (
                derive_seed(seed, "fresh", round_index, client, j) if fresh
                else derive_seed(seed, "base")
            )
            jobs.append({
                "app": app,
                "kernels": default_kernels(get_app(app)),
                "scale": "smoke",
                "datasets": datasets,
                "seed": job_seed,
                "validate": True,
            })
        lists.append(jobs)
    return lists


class Service:
    """One service process: started, timed to ready, drained, checked."""

    def __init__(self, traced: bool, env: dict | None):
        self.shm_before = shm_names()
        if traced:
            argv = [sys.executable, str(BENCH / "serve_launcher.py")]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        argv += ["--width", str(WIDTH), "--port", "0", "--host", "127.0.0.1"]
        self.child = Child(argv, env)
        #: Span totals of the pool workers and of the service process.
        self.traces: list[dict] = []
        self.service_trace: dict = {}
        #: Worker plan-cache ``[hits, lookups]``, reported as workers exit.
        self.plan_cache = [0, 0]
        try:
            line = self.child.readline()
            if not line.startswith("repro serve listening on"):
                raise BenchError(f"service failed to start: {line!r}")
            self.port = int(line.strip().rsplit(":", 1)[1])
            from repro.service import SweepClient

            with SweepClient("127.0.0.1", self.port, timeout=30) as client:
                client.status()
        except BaseException:
            self.child.kill()
            raise
        self.setup_s = time.perf_counter() - self.child.start

    def info(self) -> dict:
        from repro.service import SweepClient

        with SweepClient("127.0.0.1", self.port, timeout=30) as client:
            return client.info()

    def stop(self) -> bool:
        """SIGTERM drain; clean means exit code 0 and no process or shm
        segment left behind."""
        import json

        self.child.terminate()
        code, rest = self.child.finish(timeout=60)
        for line in rest.splitlines():
            if line.startswith('{"trace"'):
                record = json.loads(line)
                self.traces.append(record["trace"])
                if record["process"] == "service":
                    self.service_trace = record["trace"]
                if "plan_cache" in record:
                    self.plan_cache[0] += record["plan_cache"][0]
                    self.plan_cache[1] += record["plan_cache"][1]
        stray = wait_quiet()
        leaked = shm_names() - self.shm_before
        return code == 0 and not stray and not leaked


def _client_loop(port: int, jobs: list[dict], out: list) -> None:
    from repro.service import JobRejected, ServiceError, SweepClient
    from repro.service.protocol import row_from_wire

    clock = time.perf_counter
    client = SweepClient("127.0.0.1", port, timeout=60)
    try:
        for job in jobs:
            rec = {"job": job, "ok": False, "done": False}
            out.append(rec)
            submit = clock()
            try:
                accepted = client.submit(job)
            except JobRejected as exc:
                rec["rejected"] = exc.reason
                continue
            except (ServiceError, OSError) as exc:
                rec["error"] = repr(exc)
                client.close()
                continue
            rec["admit_ms"] = (clock() - submit) * 1e3
            prev = accepted_at = clock()
            first = None
            current = None
            rows, units, errors = [], [], 0
            try:
                for message in client.stream(accepted):
                    now = clock()
                    kind = message["type"]
                    if kind == "done":
                        rec["done"] = True
                        rec["status"] = message.get("status")
                        rec["job_ms"] = (now - submit) * 1e3
                        break
                    dataset = (message["row"]["dataset"] if kind == "row"
                               else message.get("dataset"))
                    if first is None:
                        first = now
                    if dataset != current:
                        current = dataset
                        units.append((now - prev) * 1e3)
                        prev = now
                    if kind == "row":
                        rows.append(row_from_wire(message["row"]))
                    else:
                        errors += 1
            except (ServiceError, OSError) as exc:
                rec["error"] = repr(exc)
                client.close()
                continue
            expected = len(job["datasets"]) * len(job["kernels"])
            rec["rows"] = rows
            rec["unit_ms"] = units
            if first is not None:
                rec["first_row_ms"] = (first - submit) * 1e3
                rec["queue_ms"] = (first - accepted_at) * 1e3
                if rec["done"]:
                    rec["stream_ms"] = rec["job_ms"] - rec["first_row_ms"]
            rec["ok"] = (rec["done"] and rec["status"] == "ok" and not errors
                         and len(rows) == expected)
    finally:
        client.close()


def _sample(stop: threading.Event, laps: list) -> None:
    yardstick = Yardstick()
    while not stop.wait(SAMPLE_EVERY_S):
        laps.append(yardstick())


def _load(port: int, jobs: list[list[dict]]) -> tuple[float, list[dict], float]:
    """One closed-loop client thread per job list; wall time, records and
    the mean yardstick time while they ran."""
    outs = [[] for _ in jobs]
    threads = [
        threading.Thread(target=_client_loop, args=(port, client_jobs, out))
        for client_jobs, out in zip(jobs, outs)
    ]
    laps: list[float] = []
    stop = threading.Event()
    sampler = threading.Thread(target=_sample, args=(stop, laps))
    sampler.start()
    start = time.perf_counter()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
    finally:
        stop.set()
        sampler.join()
    if not laps:
        laps.append(Yardstick()())
    return wall, [rec for out in outs for rec in out], statistics.fmean(laps)


def run(*, seed: int, seconds: float, trace: bool, passes: int | None = None,
        tiny: bool = False, service_env: dict | None = None) -> Result:
    env = program_env()
    env.update(service_env or {})
    # Untraced and traced rounds alternate in a traced run.
    min_rounds = 2 if trace else MIN_ROUNDS
    setup: list[float] = []
    records: list[dict] = []
    untraced_rounds: list[dict] = []
    traced_walls: list[float] = []
    traced_records: list[dict] = []
    teardowns = unclean = 0
    peak_rss = 0.0
    layers: dict = {}
    dispatch_s = 0.0
    pool = {}
    plan_cache = [0, 0]
    model_ms = []
    planned = 0

    def probe() -> None:
        nonlocal teardowns, unclean
        svc = Service(False, env)
        setup.append(svc.setup_s)
        teardowns += 1
        unclean += not svc.stop()

    started = time.monotonic()
    rounds = 0
    while more_passes(rounds, passes, min_rounds, started, seconds):
        index = rounds
        rounds += 1
        for _ in range(PROBES):
            probe()
        traced = trace and index % 2 == 1
        jobs = job_lists(seed, index, tiny)
        planned += sum(map(len, jobs))
        svc = Service(traced, env)
        try:
            setup.append(svc.setup_s)
            wall, round_records, lap = _load(svc.port, jobs)
            info = svc.info() if traced else None
        finally:
            teardowns += 1
            unclean += not svc.stop()
        peak_rss = max(peak_rss, svc.child.maxrss_mb)
        records.extend(round_records)
        if not traced:
            untraced_rounds.append({"raw_s": wall, "scale": YARDSTICK_S / lap,
                                    "records": round_records})
            continue
        traced_walls.append(wall)
        traced_records.extend(round_records)
        for trace_totals in svc.traces:
            merge(layers, trace_totals)
        dispatch_s += svc.service_trace.get("evaluation.harness", [0, 0.0])[1]
        plan_cache[0] += svc.plan_cache[0]
        plan_cache[1] += svc.plan_cache[1]
        for key, value in info["executor"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                pool[key] = pool.get(key, 0) + value
        model_ms.append(sum(row.elapsed for rec in round_records
                            for row in rec.get("rows", ())))
    probe()

    # Correctness: identical job specs must stream identical rows (cache
    # hits against misses, across service instances), and base-seed jobs
    # must match a direct serial library run.
    by_spec: dict = {}
    mismatched = []
    for rec in records:
        if not rec["ok"]:
            continue
        key = (rec["job"]["app"], rec["job"]["seed"])
        if by_spec.setdefault(key, rec["rows"]) != rec["rows"]:
            mismatched.append(key)
    base_seed = derive_seed(seed, "base")
    direct_rows = []
    for (app, job_seed), rows in sorted(by_spec.items()):
        if job_seed != base_seed:
            continue
        direct = _direct_rows(app, rows, job_seed)
        direct_rows.extend((r.app, r.kernel, r.dataset, r.elapsed) for r in direct)
        if direct != rows:
            mismatched.append((app, job_seed))

    ok_jobs = sum(rec["ok"] for rec in records)
    cells = sum(len(rec.get("rows", ())) for rec in records)
    attempted = planned + teardowns
    failed = (planned - ok_jobs) + unclean
    result = Result(
        attempted=attempted,
        failed=failed,
        validated=cells,
        correct=cells > 0 and not mismatched,
        details={
            "passes": rounds,
            "jobs_per_pass": planned // rounds,
            "service_teardowns": teardowns,
            "unclean_teardowns": unclean,
            "digest": rows_digest(direct_rows),
            "digest_rows": len(direct_rows),
            "mismatched_specs": [list(k) for k in mismatched],
        },
    )
    if not cells:
        return result
    if not trace:
        wall = sum(r["raw_s"] * r["scale"] for r in untraced_rounds)
        result.details["round_s"] = [round(r["raw_s"], 3) for r in untraced_rounds]
        # Per round, how much slower than the reference host it ran, and
        # the unscaled throughput: the scaled metrics can be undone from these.
        result.details["host_slowdown"] = [
            round(1.0 / r["scale"], 3) for r in untraced_rounds
        ]
        measured = [(rec, r["scale"]) for r in untraced_rounds
                    for rec in r["records"]]
        cells = sum(len(rec.get("rows", ())) for rec, _ in measured)
        result.details["unscaled_cells_per_s"] = cells / sum(
            r["raw_s"] for r in untraced_rounds)
        result.metric("setup_s", statistics.median(setup), "s", n=len(setup))
        result.metric("cells_per_s", cells / wall, "1/s")
        result.timing("unit_ms", [u * scale for rec, scale in measured
                                  for u in rec.get("unit_ms", ())], "ms")
        result.timing("first_row_ms", [rec["first_row_ms"] * scale
                                       for rec, scale in measured
                                       if "first_row_ms" in rec], "ms", p90=False)
        measured_done = [(rec, scale) for rec, scale in measured if rec["done"]]
        result.metric("jobs_per_s", len(measured_done) / wall, "1/s")
        result.timing("job_ms", [rec["job_ms"] * scale
                                 for rec, scale in measured_done], "ms")
        result.metric("peak_rss_mb", peak_rss, "MB")
        result.metric("ok_share", (attempted - failed) / attempted, "share")
        return result

    traced_rounds = len(traced_walls)
    for name, value in layer_metrics(layers, traced_rounds).items():
        result.metric(name, value, layer_unit(name))
    result.metric("engine.plan_cache_hit_ratio",
                  plan_cache[0] / plan_cache[1] if plan_cache[1] else 0.0,
                  "share", base=plan_cache[1] / traced_rounds)
    result.metric("gpusim.model_ms_total", statistics.median(model_ms), "ms")

    def p50(key):
        values = [rec[key] for rec in traced_records if key in rec]
        return percentile(values, 50) if values else 0.0

    result.metric("service.admit_ms_p50", p50("admit_ms"), "ms")
    result.metric("service.queue_ms_p50", p50("queue_ms"), "ms")
    result.metric("service.stream_ms_p50", p50("stream_ms"), "ms")
    result.metric("service.jobs_rejected",
                  sum("rejected" in rec for rec in traced_records) / traced_rounds,
                  "count")
    result.metric("worker_pool.map_shards_s",
                  layers.get("worker_pool.map_shards", [0, 0.0])[1] / traced_rounds, "s")

    def ratio(name, hit, *others):
        base = pool.get(hit, 0) + sum(pool.get(o, 0) for o in others)
        result.metric(name, pool.get(hit, 0) / base if base else 0.0, "share",
                      base=base / traced_rounds)

    ratio("worker_pool.shm_reuse_ratio", "shm_reused", "shm_published")
    ratio("worker_pool.oracle_reuse_ratio", "oracle_reused", "oracle_published")
    ratio("worker_pool.stolen_share", "stolen_shards", "sticky_shards")
    result.metric("worker_pool.retries", pool.get("batch_retries", 0) / traced_rounds,
                  "count")
    traced_wall = statistics.fmean(traced_walls)
    untraced_wall = statistics.fmean(r["raw_s"] for r in untraced_rounds)
    result.metric("trace.overhead_share", traced_wall / untraced_wall - 1.0, "share",
                  base=untraced_wall)
    # The service's threads overlap, so self times do not add up to the
    # wall time; what no span covers is the time no unit was executing.
    result.metric("trace.unaccounted_s", traced_wall - dispatch_s / traced_rounds, "s",
                  note="round wall time with no unit executing")
    return result


def _direct_rows(app: str, served: list, job_seed: int) -> list:
    from repro.engine import get_app
    from repro.evaluation.harness import expand_datasets, run_suite

    datasets = sorted({row.dataset for row in served}, key=JOB_DATASETS.index)
    return run_suite(
        default_kernels(get_app(app)), app=app,
        datasets=expand_datasets(app, scale="smoke", names=datasets),
        seed=job_seed, executor="serial", validate=True,
    )

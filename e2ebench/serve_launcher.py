"""``repro serve`` with span wrappers installed (the traced serve-mix run).

    python e2ebench/serve_launcher.py --width 2 --port 0

Installs the tracing wrappers, then runs the CLI's ``serve`` command in
this process.  Pool workers forked from it inherit the wrappers and print
their own totals as one ``{"trace": ...}`` line when they exit; the
service prints its totals the same way after draining.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.util
import os
import sys

from common import emit
from tracing import Tracer, install_program_layers


def _in_worker(tracer: Tracer) -> None:
    tracer.reset()
    multiprocessing.util.Finalize(None, _dump, args=(tracer,), exitpriority=10)


def _dump(tracer: Tracer) -> None:
    from repro.engine import global_plan_cache

    cache = global_plan_cache().info()
    line = json.dumps({
        "trace": tracer.snapshot(),
        "process": "worker",
        "plan_cache": [cache["hits"], cache["hits"] + cache["misses"]],
    }) + "\n"
    os.write(1, line.encode())


def main() -> int:
    from repro import cli
    from repro.engine.worker_pool import SweepExecutor
    from repro.service import server

    tracer = Tracer()
    install_program_layers(tracer)
    tracer.patch(server, "run_suite", "evaluation.harness")
    tracer.patch(SweepExecutor, "map_shards", "worker_pool.map_shards")
    if multiprocessing.get_start_method(allow_none=True) in (None, "fork"):
        multiprocessing.util.register_after_fork(tracer, _in_worker)
    code = cli.main(["serve", *sys.argv[1:]])
    emit({"trace": tracer.snapshot(), "process": "service"})
    return code


if __name__ == "__main__":
    sys.exit(main())

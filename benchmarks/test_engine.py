"""Engine bench: compiled vs simt vs vector wall-clock per app.

The compiled engine exists to stop interpreting kernels in Python: the
SIMT engine walks every (thread, tile, atom) triple through the
schedule's iterators, while the compiled engine runs one JIT-compiled
(or vectorized) kernel body and materializes the schedule's per-thread
loads in closed form.  This bench measures that gap as host wall-clock
per app and records it in ``BENCH_engine.json`` at the repo root; CI
floors ``compiled_over_simt`` at 10x (the measured gap is orders of
magnitude larger -- tripping the floor means the compiled path started
interpreting again, not that the runner was slow).

Runs in smoke mode by default.  Environment knobs scale it up:
``REPRO_BENCH_ENGINE_N`` (matrix dimension), ``REPRO_BENCH_ENGINE_REPS``
(timed repetitions of the fast engines).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.engine import (
    ExecutionContext,
    clear_compilation_cache,
    compilation_cache_stats,
    numba_available,
    run_app,
)
from repro.engine.registry import get_app
from repro.sparse.csr import CsrMatrix

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_engine.json"

BENCH_N = int(os.environ.get("REPRO_BENCH_ENGINE_N", "256"))
BENCH_REPS = int(os.environ.get("REPRO_BENCH_ENGINE_REPS", "3"))

#: Apps timed by the bench: the SpMV centerpiece plus one multi-launch
#: graph app and the minimal app (three distinct kernel shapes).  The
#: full 9-app parity matrix lives in tests/test_compiled_engine.py; the
#: bench keeps the simt leg affordable.
BENCH_APPS = ["spmv", "histogram", "bfs"]

#: CI floor: compiled must beat the interpreted SIMT engine by at least
#: this factor on total wall-clock.
COMPILED_OVER_SIMT_FLOOR = 10.0


def _bench_matrix(n: int, seed: int = 11) -> CsrMatrix:
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 0.10) * rng.standard_normal((n, n))
    dense[0, :] = rng.standard_normal(n) * (rng.random(n) < 0.7)  # heavy row
    return CsrMatrix.from_dense(dense)


def _time_engine(app: str, matrix: CsrMatrix, engine: str, reps: int) -> float:
    """Best-of-``reps`` wall seconds for one (app, engine) run."""
    spec = get_app(app)
    best = float("inf")
    for _ in range(reps):
        problem = spec.sweep_problem(matrix, 7)
        t0 = time.perf_counter()
        run_app(app, problem, ctx=ExecutionContext(engine=engine, policy="merge_path"))
        best = min(best, time.perf_counter() - t0)
    return best


def test_engine_speedup():
    matrix = _bench_matrix(BENCH_N)
    clear_compilation_cache()

    walls: dict[str, dict[str, float]] = {}
    for app in BENCH_APPS:
        walls[app] = {
            # One interpreted rep is plenty: simt dominates the bench's
            # wall-clock as it is.
            "simt": _time_engine(app, matrix, "simt", reps=1),
            "compiled": _time_engine(app, matrix, "compiled", reps=BENCH_REPS),
            "vector": _time_engine(app, matrix, "vector", reps=BENCH_REPS),
        }

    total = {
        eng: sum(walls[app][eng] for app in BENCH_APPS)
        for eng in ("simt", "compiled", "vector")
    }
    per_app_speedup = {
        app: round(walls[app]["simt"] / walls[app]["compiled"], 2)
        for app in BENCH_APPS
    }
    compiled_over_simt = total["simt"] / total["compiled"]

    payload = {
        "benchmark": "engine_comparison",
        "apps": BENCH_APPS,
        "matrix_n": BENCH_N,
        "nnz": matrix.nnz,
        "reps": BENCH_REPS,
        "numba": numba_available(),
        "wall_s": {
            app: {eng: round(t, 6) for eng, t in engines.items()}
            for app, engines in walls.items()
        },
        "total_wall_s": {eng: round(t, 6) for eng, t in total.items()},
        "compiled_over_simt": round(compiled_over_simt, 2),
        "compiled_over_simt_per_app": per_app_speedup,
        "compiled_over_vector": round(
            total["vector"] / total["compiled"], 3
        ),
        "compilation_cache": compilation_cache_stats(),
        "floor": COMPILED_OVER_SIMT_FLOOR,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\n=== BENCH_engine.json ===\n{json.dumps(payload, indent=2)}")

    # The whole point of the engine: at least one order of magnitude
    # over the interpreter in total (measured ~17x without numba); each
    # app individually gets half the floor's headroom against runner
    # noise (bfs replans per frontier, the fixed cost both engines pay).
    assert compiled_over_simt >= COMPILED_OVER_SIMT_FLOOR, payload
    for app in BENCH_APPS:
        assert walls[app]["simt"] / walls[app]["compiled"] >= \
            COMPILED_OVER_SIMT_FLOOR / 2, (app, payload)
    # Steady-state sweeps reuse compiled plans: repeated reps must hit.
    assert compilation_cache_stats()["hits"] >= 1

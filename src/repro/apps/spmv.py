"""Sparse matrix-vector multiplication: ``y = A @ x`` (Listing 3).

The paper's benchmark application.  The computation itself is four lines;
everything else is load balancing -- which is exactly the disparity the
framework removes.  Under this abstraction the same kernel body runs under
*every* schedule in the library (a one-identifier change, Section 6.2),
and -- since the execution-engine refactor -- under every *engine* too:
the declaration below is consumed unchanged by the vectorized planner
path and the thread-by-thread SIMT interpreter.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..core.work import WorkSpec
from ..engine import (
    AppSpec,
    CompiledKernel,
    ExecutionContext,
    Runtime,
    declare_kernel_effects,
    input_vector,
    register_app,
    register_jit_warmup,
    run_app,
)
from ..sparse.csr import CsrMatrix
from .common import AppResult, check_dense_vector, spmv_costs, tile_charges

__all__ = ["spmv", "spmv_reference", "spmv_driver"]


def _spmv_arrays(row_offsets, col_indices, values, x):
    """The whole SpMV over flat arrays (shared by oracle and engines)."""
    num_rows = row_offsets.shape[0] - 1
    y = np.zeros(num_rows)
    row_ids = np.repeat(
        np.arange(num_rows, dtype=np.int64), np.diff(row_offsets)
    )
    np.add.at(y, row_ids, values * x[col_indices])
    return y


def _spmv_scalar(row_offsets, col_indices, values, x):
    """Flat-loop SpMV (jit-able); float ops in the same order as
    :func:`_spmv_arrays`' scatter-add, so results agree bit-for-bit."""
    num_rows = row_offsets.shape[0] - 1
    y = np.zeros(num_rows)
    for row in range(num_rows):
        acc = 0.0
        for nz in range(row_offsets[row], row_offsets[row + 1]):
            acc += values[nz] * x[col_indices[nz]]
        y[row] = acc
    return y


def _spmv_example_args() -> tuple:
    offsets = np.array([0, 1, 2], dtype=np.int64)
    cols = np.array([0, 1], dtype=np.int64)
    vals = np.array([1.0, 2.0])
    return offsets, cols, vals, np.array([1.0, 1.0])


register_jit_warmup("spmv", _spmv_scalar, _spmv_example_args)
declare_kernel_effects("spmv", "spmv", scalar_fn=_spmv_scalar)


def spmv_reference(matrix: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Pure NumPy oracle (no scheduling, no simulation)."""
    x = check_dense_vector(x, matrix.num_cols)
    return _spmv_arrays(matrix.row_offsets, matrix.col_indices, matrix.values, x)


def spmv(
    matrix: CsrMatrix,
    x: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
    locality: bool = False,
) -> AppResult:
    """Load-balanced SpMV on the simulated GPU.

    Parameters
    ----------
    ctx:
        An :class:`~repro.engine.context.ExecutionContext` -- the single
        execution-selection argument: the engine (``"vector"`` corpus
        scale, ``"simt"`` thread-by-thread ground truth, ``"multi_gpu"``
        device partitioning; see :func:`repro.engine.available_engines`),
        the device spec, the launch override and the schedule policy (a
        registered schedule name, ``"heuristic"`` (Section 6.2 selector),
        ``"oracle_best"``, or a pre-built
        :class:`~repro.core.schedule.Schedule`; default ``merge_path``).
    locality:
        Enable the future-work cache model for the x-vector gathers
        (:mod:`repro.gpusim.cache`); off by default to match the paper's
        locality-agnostic evaluation.
    """
    x = check_dense_vector(x, matrix.num_cols)
    problem = SimpleNamespace(matrix=matrix, x=x, locality=locality)
    return run_app("spmv", problem, ctx=ctx)


def spmv_driver(problem, rt: Runtime) -> AppResult:
    """The registered SpMV declaration: work, costs, result, kernel body."""
    matrix, x = problem.matrix, problem.x
    locality = getattr(problem, "locality", False)
    work = WorkSpec.from_csr(matrix)
    working_set = float(x.nbytes) if locality else None
    costs = spmv_costs(rt.spec, gather_working_set_bytes=working_set)
    sched = rt.schedule_for(work, matrix=matrix, kernel="spmv", costs=costs)

    def compute() -> np.ndarray:
        return spmv_reference(matrix, x)

    def kernel():
        """Listing 3's kernel body, executed thread-by-thread.

        Schedules that split tiles across threads (merge-path,
        nonzero-split) or across lanes (warp/block/group/lrb) combine
        partial sums with an atomic -- the simulator linearizes atomics,
        so the result is exact up to float summation order.
        """
        y = np.zeros(matrix.num_rows)
        values, col_indices = matrix.values, matrix.col_indices
        atom_c, tile_c = tile_charges(sched, costs)
        owns_fully = getattr(sched, "owns_tile_fully", None)

        def body(ctx):
            # -- Listing 3: consume rows, then atoms, through the schedule. --
            for row in sched.tiles(ctx):
                acc = 0.0
                n = 0
                for nz in sched.atoms(ctx, row):
                    acc += values[nz] * x[col_indices[nz]]
                    n += 1
                ctx.charge(n * atom_c + tile_c)
                if n == 0 and owns_fully is None:
                    continue
                if owns_fully is not None and owns_fully(ctx, row):
                    y[row] = acc
                else:
                    # Lane-parallel / partial-tile threads contribute partials.
                    ctx.atomic_add(y, row, acc)

        return body, lambda: y

    output, stats = rt.run_launch(
        sched,
        costs,
        compute=compute,
        kernel=kernel,
        compiled=CompiledKernel(
            label="spmv",
            args=(matrix.row_offsets, matrix.col_indices, matrix.values, x),
            vector_fn=_spmv_arrays,
            scalar_fn=_spmv_scalar,
        ),
        kernel_label="spmv",
        extras={"app": "spmv", "locality": locality},
    )
    return AppResult(output=output, stats=stats, schedule=sched.name)


def _sweep_problem(matrix: CsrMatrix, seed: int) -> SimpleNamespace:
    return SimpleNamespace(
        matrix=matrix, x=input_vector(matrix.num_cols, seed), locality=False
    )


def _sample_check(problem, output, seed: int, samples: int = 8) -> bool:
    """Independent sampled dense check: re-derive a few output rows
    directly from the CSR slices (per-row ``dot``), a different reduction
    path than both the oracle's and compute()'s scatter-add."""
    matrix, x = problem.matrix, problem.x
    y = np.asarray(output, dtype=np.float64)
    if y.shape != (matrix.num_rows,):
        return False
    rng = np.random.default_rng(seed)
    rows = rng.choice(matrix.num_rows, size=min(samples, matrix.num_rows),
                      replace=False)
    for r in rows:
        lo, hi = matrix.row_offsets[r], matrix.row_offsets[r + 1]
        expected = float(
            np.dot(matrix.values[lo:hi], x[matrix.col_indices[lo:hi]])
        )
        if not np.isclose(y[r], expected, rtol=1e-9, atol=1e-12):
            return False
    return True


def _cub_baseline(problem, spec):
    from ..baselines.cub_spmv import cub_spmv

    return cub_spmv(problem.matrix, problem.x, spec)


def _cusparse_baseline(problem, spec):
    from ..baselines.cusparse_spmv import cusparse_spmv

    return cusparse_spmv(problem.matrix, problem.x, spec)


register_app(
    AppSpec(
        name="spmv",
        driver=spmv_driver,
        default_schedule="merge_path",
        oracle=lambda p: spmv_reference(p.matrix, p.x),
        sweep_problem=_sweep_problem,
        sample_check=_sample_check,
        baselines={"cub": _cub_baseline, "cusparse": _cusparse_baseline},
        description="sparse matrix-vector multiply y = A @ x (Listing 3)",
    )
)

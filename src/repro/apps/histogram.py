"""Degree histogram: the smallest useful irregular kernel.

Bins every tile by its atom count with one atomic increment per tile --
a two-line "user computation" that nevertheless exercises the whole
pipeline (work definition, schedule, execution).  Used by the quickstart
example and as the minimal app in integration tests.

Under the SIMT engine the kernel reconstructs each tile's atom count by
*consuming its atoms through the schedule* (each thread contributes the
atoms it was assigned with an atomic), so partial-tile schedules like
merge-path remain exact; the binning itself happens in the finalize
step, like a trailing ``bincount`` launch.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..core.schedule import WorkCosts
from ..core.schedules.lrb import lrb_bins
from ..core.work import WorkSpec
from ..engine import (
    AppSpec,
    CompiledKernel,
    ExecutionContext,
    Runtime,
    declare_kernel_effects,
    register_app,
    register_jit_warmup,
    run_app,
)
from ..gpusim.arch import GpuSpec
from ..sparse.csr import CsrMatrix
from .common import AppResult, tile_charges

__all__ = ["degree_histogram", "degree_histogram_reference", "histogram_driver"]


def _bin_counts(counts: np.ndarray) -> np.ndarray:
    """LRB-bin an atom-count array into the histogram (shared by the
    reference and the SIMT finalize, so the two can never desynchronize)."""
    bins = lrb_bins(counts)
    num_bins = int(bins.max()) + 1 if bins.size else 1
    return np.bincount(bins, minlength=num_bins).astype(np.int64)


def _histogram_arrays(row_offsets):
    """The whole histogram over the flat extent array."""
    return _bin_counts(np.diff(row_offsets))


def _histogram_scalar(row_offsets):
    """Flat-loop histogram (jit-able, integer-exact).

    Bins by ``bit_length(count)`` -- the scalar identity of LRB's
    ``ceil(log2(n + 1))`` binning -- so the result equals
    :func:`_histogram_arrays` exactly.
    """
    num_rows = row_offsets.shape[0] - 1
    max_bin = 0
    for row in range(num_rows):
        n = row_offsets[row + 1] - row_offsets[row]
        bin_id = 0
        while n > 0:
            bin_id += 1
            n >>= 1
        if bin_id > max_bin:
            max_bin = bin_id
    hist = np.zeros(max_bin + 1, dtype=np.int64)
    for row in range(num_rows):
        n = row_offsets[row + 1] - row_offsets[row]
        bin_id = 0
        while n > 0:
            bin_id += 1
            n >>= 1
        hist[bin_id] += 1
    return hist


def _histogram_example_args() -> tuple:
    return (np.array([0, 1, 3], dtype=np.int64),)


register_jit_warmup("histogram", _histogram_scalar, _histogram_example_args)
declare_kernel_effects("histogram", "histogram", scalar_fn=_histogram_scalar)


def degree_histogram_reference(matrix: CsrMatrix) -> np.ndarray:
    """Pure NumPy oracle: LRB-binned row-length histogram."""
    return _histogram_arrays(matrix.row_offsets)


def degree_histogram(
    matrix: CsrMatrix,
    *,
    ctx: ExecutionContext | None = None,
) -> AppResult:
    """Histogram of ``ceil(log2(row_length + 1))`` bins (LRB's binning).

    ``ctx`` is the single execution-selection argument
    (:class:`~repro.engine.context.ExecutionContext`; default schedule:
    ``thread_mapped``).
    """
    problem = SimpleNamespace(matrix=matrix)
    return run_app("histogram", problem, ctx=ctx)


def _histogram_costs(spec: GpuSpec) -> WorkCosts:
    c = spec.costs
    return WorkCosts(
        atom_cycles=0.0,  # the histogram never touches individual atoms
        tile_cycles=c.global_load_coalesced + c.alu + c.atomic,
        tile_reduction=False,
    )


def histogram_driver(problem, rt: Runtime) -> AppResult:
    """The registered degree-histogram declaration."""
    matrix = problem.matrix
    work = WorkSpec.from_csr(matrix, label="histogram")
    costs = _histogram_costs(rt.spec)
    sched = rt.schedule_for(work, matrix=matrix, kernel="histogram", costs=costs)

    def compute() -> np.ndarray:
        return degree_histogram_reference(matrix)

    def kernel():
        counts = np.zeros(matrix.num_rows)
        atom_c, tile_c = tile_charges(sched, costs)

        def body(ctx):
            for row in sched.tiles(ctx):
                n = 0
                for _nz in sched.atoms(ctx, row):
                    n += 1
                ctx.charge(n * atom_c + tile_c)
                if n:
                    ctx.atomic_add(counts, row, n)

        def finalize() -> np.ndarray:
            return _bin_counts(counts.astype(np.int64))

        return body, finalize

    output, stats = rt.run_launch(
        sched,
        costs,
        compute=compute,
        kernel=kernel,
        compiled=CompiledKernel(
            label="histogram",
            args=(matrix.row_offsets,),
            vector_fn=_histogram_arrays,
            scalar_fn=_histogram_scalar,
        ),
        kernel_label="histogram",
        extras={"app": "degree_histogram"},
    )
    return AppResult(output=output, stats=stats, schedule=sched.name)


def _sample_check(problem, output, seed: int, samples: int = 8) -> bool:
    """Independent sampled dense check: recount sampled bins with a
    scalar ``int.bit_length`` binning over raw ``row_offsets`` diffs --
    no ``lrb_bins``, no ``bincount`` -- so the histogram is validated
    against a formulation that shares nothing with the reference."""
    from collections import Counter

    matrix = problem.matrix
    hist = np.asarray(output, dtype=np.int64)
    if hist.ndim != 1 or hist.size == 0:
        return False
    # bit_length(n) == ceil(log2(n + 1)) for n >= 0: the LRB bin id.
    # One pass builds the per-bin recount; the sampled bins then compare
    # in O(1) each.
    bins = Counter(
        int(x).bit_length() for x in np.diff(matrix.row_offsets)
    )
    if bins and max(bins) >= hist.size:
        return False
    rng = np.random.default_rng(seed)
    sampled = rng.integers(0, hist.size, size=min(samples, hist.size))
    return all(int(hist[b]) == bins[b] for b in set(sampled.tolist()))


register_app(
    AppSpec(
        name="histogram",
        driver=histogram_driver,
        default_schedule="thread_mapped",
        oracle=lambda p: degree_histogram_reference(p.matrix),
        sweep_problem=lambda matrix, seed: SimpleNamespace(matrix=matrix),
        sample_check=_sample_check,
        description="LRB-binned row-degree histogram (minimal app)",
    )
)

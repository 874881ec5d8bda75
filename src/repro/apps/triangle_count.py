"""Triangle counting via per-edge neighbor-list intersection.

The workload behind Logarithmic Radix Binning in the related work: tiles
are vertices, atoms are edges, and each atom's work is an intersection of
two sorted adjacency lists -- per-atom costs proportional to the degree
sum, making this the stress test for atom-cost-aware schedules like LRB.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..core.schedule import WorkCosts
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

__all__ = ["triangle_count", "triangle_count_reference", "triangle_count_driver"]


def _upper_triangle(adjacency: CsrMatrix) -> CsrMatrix:
    """Keep edges (u, v) with v > u (each triangle counted once).

    Vectorized: the strict upper triangle is a mask over the expanded
    (row, col) pairs; a ``unique`` over linearized keys dedupes *and*
    sorts, so each row's neighbor list comes out sorted-unique (the
    invariant the intersection kernels rely on).
    """
    n_rows, n_cols = adjacency.shape
    rows = np.repeat(
        np.arange(n_rows, dtype=np.int64), adjacency.row_lengths()
    )
    cols = adjacency.col_indices
    mask = cols > rows
    keys = np.unique(rows[mask] * np.int64(n_cols) + cols[mask])
    sel_rows = keys // n_cols
    sel_cols = keys % n_cols
    lengths = np.bincount(sel_rows, minlength=n_rows).astype(np.int64)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return CsrMatrix.from_arrays(
        offsets, sel_cols, np.ones(sel_cols.size), adjacency.shape
    )


def _triangle_count_arrays(row_offsets, col_indices, num_rows, num_cols):
    """Vectorized intersection counting over the upper triangle's arrays.

    A triangle (u, v, w) with u < v < w is an edge (u, v) plus a wedge w
    in N(v) with (u, w) also an edge.  Expand every (edge, wedge)
    candidate and test membership with one searchsorted over the
    linearized (row, col) keys -- sorted because rows are sorted and
    each row's neighbor list is sorted-unique.  O(P log E) for P
    candidate pairs, no per-row Python loop.
    """
    offs, cols = row_offsets, col_indices
    if cols.size == 0:
        return 0
    n = np.int64(num_cols)
    deg = np.diff(offs)
    u_of_edge = np.repeat(np.arange(num_rows, dtype=np.int64), deg)
    wedge_counts = deg[cols]  # |N(v)| per edge (u, v)
    if int(wedge_counts.sum()) == 0:
        return 0
    keys = u_of_edge * n + cols
    # Chunk the edge range so peak scratch stays bounded: heavy-tailed
    # graphs expand to Theta(sum_of_wedges) candidates, which at full
    # corpus scale must not materialize all at once.
    budget = 1 << 22
    count = 0
    bounds = np.concatenate(([0], np.cumsum(wedge_counts)))
    lo = 0
    while lo < wedge_counts.size:
        hi = int(np.searchsorted(bounds, bounds[lo] + budget, side="left"))
        hi = max(hi, lo + 1)
        wc = wedge_counts[lo:hi]
        total = int(wc.sum())
        if total == 0:
            lo = hi
            continue
        starts = np.zeros(wc.size, dtype=np.int64)
        np.cumsum(wc[:-1], out=starts[1:])
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, wc)
        w = cols[np.repeat(offs[cols[lo:hi]], wc) + within]
        queries = np.repeat(u_of_edge[lo:hi], wc) * n + w
        pos = np.searchsorted(keys, queries)
        pos_clipped = np.minimum(pos, keys.size - 1)
        found = (pos < keys.size) & (keys[pos_clipped] == queries)
        count += int(found.sum())
        lo = hi
    return count


def _triangle_count_scalar(row_offsets, col_indices, num_rows, num_cols):
    """Flat-loop triangle count (jit-able): classic two-pointer sorted
    intersection per upper-triangle edge.  Integer-exact, so it agrees
    with :func:`_triangle_count_arrays` by construction."""
    count = 0
    for u in range(num_rows):
        for e in range(row_offsets[u], row_offsets[u + 1]):
            v = col_indices[e]
            i = row_offsets[u]
            j = row_offsets[v]
            i_end = row_offsets[u + 1]
            j_end = row_offsets[v + 1]
            while i < i_end and j < j_end:
                cu = col_indices[i]
                cv = col_indices[j]
                if cu == cv:
                    count += 1
                    i += 1
                    j += 1
                elif cu < cv:
                    i += 1
                else:
                    j += 1
    return count


def _triangle_count_example_args() -> tuple:
    # The 3-cycle's upper triangle: edges (0,1), (0,2), (1,2).
    offsets = np.array([0, 2, 3, 3], dtype=np.int64)
    cols = np.array([1, 2, 2], dtype=np.int64)
    return offsets, cols, 3, 3


register_jit_warmup(
    "intersect", _triangle_count_scalar, _triangle_count_example_args
)
declare_kernel_effects(
    "triangle_count", "intersect", scalar_fn=_triangle_count_scalar
)


def triangle_count_reference(adjacency: CsrMatrix) -> int:
    """Oracle via the dense trace formula ``tr(A^3) / 6`` on the
    symmetrized, binarized adjacency."""
    d = (adjacency.to_dense() != 0).astype(np.float64)
    d = np.maximum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return int(round(np.trace(d @ d @ d) / 6.0))


def _intersection_costs(spec: GpuSpec, mean_degree: float) -> WorkCosts:
    c = spec.costs
    # Each atom (edge u->v) walks min(deg(u), deg(v)) ~ mean_degree items
    # of two sorted lists.
    per_item = 2 * c.global_load_coalesced + c.alu
    return WorkCosts(
        atom_cycles=max(1.0, mean_degree) * per_item,
        tile_cycles=c.global_load_coalesced,
        tile_reduction=True,
    )


def triangle_count(
    adjacency: CsrMatrix,
    *,
    ctx: ExecutionContext | None = None,
) -> AppResult:
    """Load-balanced triangle count of an (interpreted-as-)undirected graph.

    The input is symmetrized and binarized internally; self-loops are
    dropped.  Defaults to the LRB schedule per the related work's usage.
    ``ctx`` is the single execution-selection argument
    (:class:`~repro.engine.context.ExecutionContext`).
    """
    if adjacency.num_rows != adjacency.num_cols:
        raise ValueError("triangle counting requires a square adjacency")
    problem = SimpleNamespace(adjacency=adjacency)
    return run_app("triangle_count", problem, ctx=ctx)


def triangle_count_driver(problem, rt: Runtime) -> AppResult:
    """The registered triangle-count declaration.

    Count: for each directed edge (u, v) in the upper triangle,
    ``|N+(u) /\\ N+(v)|`` using sorted-list intersections.
    """
    adjacency = problem.adjacency
    if adjacency.num_rows != adjacency.num_cols:
        raise ValueError("triangle counting requires a square adjacency")
    # Symmetrize/binarize, then reduce to the upper triangle (host prep).
    upper = _upper_triangle(_symmetrized(adjacency))

    work = WorkSpec.from_csr(upper, label="triangles")
    mean_deg = upper.nnz / max(1, upper.num_rows)
    costs = _intersection_costs(rt.spec, mean_deg)
    sched = rt.schedule_for(work, matrix=upper, kernel="intersect", costs=costs)

    def compute() -> int:
        return _triangle_count_arrays(
            upper.row_offsets, upper.col_indices, upper.num_rows, upper.num_cols
        )

    def kernel():
        total = np.zeros(1)
        col_indices = upper.col_indices
        atom_c, tile_c = tile_charges(sched, costs)

        def body(ctx):
            for u in sched.tiles(ctx):
                nu, _ = upper.row_slice(int(u))
                found = 0
                n = 0
                for e in sched.atoms(ctx, u):
                    nv, _ = upper.row_slice(int(col_indices[e]))
                    found += np.intersect1d(nu, nv, assume_unique=True).size
                    n += 1
                ctx.charge(n * atom_c + tile_c)
                if found:
                    ctx.atomic_add(total, 0, found)

        return body, lambda: int(total[0])

    output, stats = rt.run_launch(
        sched,
        costs,
        compute=compute,
        kernel=kernel,
        compiled=CompiledKernel(
            label="intersect",
            args=(
                upper.row_offsets, upper.col_indices,
                upper.num_rows, upper.num_cols,
            ),
            vector_fn=_triangle_count_arrays,
            scalar_fn=_triangle_count_scalar,
        ),
        kernel_label="intersect",
        extras={"app": "triangle_count"},
    )
    return AppResult(
        output=output,
        stats=stats,
        schedule=sched.name,
        extras={"upper_edges": upper.nnz},
    )


def _symmetrized(adjacency: CsrMatrix) -> CsrMatrix:
    from ..sparse.convert import coo_to_csr, csr_to_coo
    from ..sparse.coo import CooMatrix

    coo = csr_to_coo(adjacency)
    keep = coo.rows != coo.cols
    rows = np.concatenate([coo.rows[keep], coo.cols[keep]])
    cols = np.concatenate([coo.cols[keep], coo.rows[keep]])
    sym = CooMatrix.from_arrays(
        rows, cols, np.ones(rows.size), adjacency.shape
    ).sum_duplicates()
    ones = CooMatrix.from_arrays(sym.rows, sym.cols, np.ones(sym.nnz), sym.shape)
    return coo_to_csr(ones)


register_app(
    AppSpec(
        name="triangle_count",
        driver=triangle_count_driver,
        default_schedule="lrb",
        oracle=lambda p: triangle_count_reference(p.adjacency),
        sweep_problem=lambda matrix, seed: SimpleNamespace(adjacency=matrix),
        match=lambda output, expected: int(output) == int(expected),
        accepts=lambda matrix: matrix.num_rows == matrix.num_cols,
        description="per-edge neighbor-intersection triangle counting",
    )
)

"""Single-source shortest path (Listing 5).

A data-centric, frontier-based SSSP: each iteration relaxes every outgoing
edge of the frontier with an atomicMin on the tentative distances, and
vertices whose distance improved form the next frontier.  The relaxation
is four lines; the load balancing -- the part that dominates SSSP's GPU
performance (Section 5.3) -- is whatever schedule the caller names,
straight from the same library the SpMV benchmark uses.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

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
from ..sparse.graph import CsrGraph
from .common import AppResult
from .traversal import graph_sweep_problem, run_frontier_loop

__all__ = ["sssp", "sssp_reference", "sssp_driver"]


def _sssp_relax_arrays(edge_sources, edge_targets, edge_weights, dist, n):
    """One SSSP advance over the expanded edge frontier (vectorized).

    Mutates ``dist`` in place (the atomicMin of Listing 5) and returns
    the improved-vertex mask.
    """
    candidate = dist[edge_sources] + edge_weights
    before = dist[edge_targets].copy()
    np.minimum.at(dist, edge_targets, candidate)
    improved = dist[edge_targets] < before
    next_mask = np.zeros(n, dtype=bool)
    next_mask[edge_targets[improved]] = True
    return next_mask


def _sssp_relax_scalar(edge_sources, edge_targets, edge_weights, dist, n):
    """Flat-loop SSSP advance (jit-able).

    Three passes mirror the vectorized form's dataflow exactly:
    candidates and "before" distances are snapshotted from the
    pre-update ``dist`` (a frontier vertex may also be a target this
    iteration), the mins apply in edge order (``minimum.at``'s
    sequential semantics), and the mask derives from the post-update
    distances -- bit-for-bit equal to :func:`_sssp_relax_arrays`.
    """
    num_edges = edge_sources.shape[0]
    candidate = np.empty(num_edges)
    before = np.empty(num_edges)
    for e in range(num_edges):
        candidate[e] = dist[edge_sources[e]] + edge_weights[e]
        before[e] = dist[edge_targets[e]]
    for e in range(num_edges):
        t = edge_targets[e]
        if candidate[e] < dist[t]:
            dist[t] = candidate[e]
    next_mask = np.zeros(n, dtype=np.bool_)
    for e in range(num_edges):
        if dist[edge_targets[e]] < before[e]:
            next_mask[edge_targets[e]] = True
    return next_mask


def _sssp_example_args() -> tuple:
    sources = np.array([0, 0], dtype=np.int64)
    targets = np.array([1, 2], dtype=np.int64)
    weights = np.array([1.0, 2.0])
    dist = np.array([0.0, np.inf, np.inf])
    return sources, targets, weights, dist, 3


register_jit_warmup("sssp", _sssp_relax_scalar, _sssp_example_args)
declare_kernel_effects("sssp", "advance", scalar_fn=_sssp_relax_scalar)


def sssp_reference(graph: CsrGraph, source: int) -> np.ndarray:
    """Dijkstra oracle (binary heap, pure Python; for validation)."""
    import heapq

    n = graph.num_vertices
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    csr = graph.csr
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        lo, hi = csr.row_offsets[u], csr.row_offsets[u + 1]
        for e in range(lo, hi):
            v = int(csr.col_indices[e])
            nd = d + float(csr.values[e])
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def sssp(
    graph: CsrGraph,
    source: int,
    *,
    ctx: ExecutionContext | None = None,
    max_iterations: int | None = None,
) -> AppResult:
    """Load-balanced SSSP on the simulated GPU.

    Edge weights must be non-negative.  Returns the distance array; the
    stats compose every frontier launch, one load-balanced kernel per
    iteration (Listing 5's outer loop).  ``ctx`` is the single
    execution-selection argument
    (:class:`~repro.engine.context.ExecutionContext`; default schedule:
    ``group_mapped``).
    """
    problem = SimpleNamespace(
        graph=graph, source=source, max_iterations=max_iterations
    )
    return run_app("sssp", problem, ctx=ctx)


def sssp_driver(problem, rt: Runtime) -> AppResult:
    """The registered SSSP declaration: Listing 5's relaxation, twice."""
    graph, source = problem.graph, problem.source
    max_iterations = getattr(problem, "max_iterations", None)
    if graph.num_edges and graph.csr.values.min() < 0:
        raise ValueError("SSSP requires non-negative edge weights")
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    dist = np.full(n, np.inf)
    dist[source] = 0.0

    def relax(frontier, edge_sources, edge_targets, edge_weights):
        # Listing 5's body, vectorized: atomicMin(dist[neighbor], ...)
        return _sssp_relax_arrays(
            edge_sources, edge_targets, edge_weights, dist, n
        )

    def relax_edge(ctx, src, dst, weight, next_mask):
        # Scalar Listing 5 body: atomicMin, then flag on improvement.
        candidate = dist[src] + weight
        old = ctx.atomic_min(dist, dst, candidate)
        if candidate < old:
            next_mask[dst] = True

    def make_compiled(iteration, frontier, edge_sources, edge_targets,
                      edge_weights):
        return CompiledKernel(
            label="advance",
            args=(edge_sources, edge_targets, edge_weights, dist, n),
            vector_fn=_sssp_relax_arrays,
            scalar_fn=_sssp_relax_scalar,
        )

    iterations, stats = run_frontier_loop(
        graph,
        source,
        relax,
        relax_edge=relax_edge,
        make_compiled=make_compiled,
        rt=rt,
        max_iterations=max_iterations,
    )
    return AppResult(
        output=dist,
        stats=stats,
        schedule=rt.schedule_label(),
        extras={"iterations": len(iterations), "trace": iterations},
    )


def _sample_check(problem, output, seed: int, samples: int = 8) -> bool:
    """Independent relaxation audit over the raw CSR arrays.

    Dijkstra-free: one vectorized pass checks the triangle inequality on
    *every* edge (no relaxable edge remains -- the Bellman-Ford fixed
    point), then each sampled reached vertex must have a predecessor
    edge that *achieves* its distance.  O(nnz + samples * nnz) per call.
    """
    graph, source = problem.graph, problem.source
    csr = graph.csr
    n = graph.num_vertices
    dist = np.asarray(output, dtype=np.float64)
    if dist.shape != (n,) or dist[source] != 0.0 or np.any(dist < 0):
        return False
    row_ids = np.repeat(np.arange(n, dtype=np.int64), csr.row_lengths())
    rng = np.random.default_rng(seed)
    if csr.nnz:
        src_d = dist[row_ids]
        finite = np.isfinite(src_d)
        slack = (
            dist[csr.col_indices[finite]] - (src_d[finite] + csr.values[finite])
        )
        if np.any(slack > 1e-9):
            return False
    reached = np.nonzero(np.isfinite(dist) & (np.arange(n) != source))[0]
    if reached.size:
        for v in rng.choice(reached, size=min(samples, reached.size),
                            replace=False):
            v = int(v)
            in_edges = np.nonzero(csr.col_indices == v)[0]
            candidates = dist[row_ids[in_edges]] + csr.values[in_edges]
            if candidates.size == 0 or not np.isclose(
                candidates.min(), dist[v], rtol=1e-9, atol=1e-12
            ):
                return False
    return True


register_app(
    AppSpec(
        name="sssp",
        driver=sssp_driver,
        default_schedule="group_mapped",
        oracle=lambda p: sssp_reference(p.graph, p.source),
        sweep_problem=graph_sweep_problem,
        accepts=lambda matrix: matrix.num_rows == matrix.num_cols,
        sample_check=_sample_check,
        description="frontier-based single-source shortest paths",
    )
)

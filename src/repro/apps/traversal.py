"""Frontier-based graph traversal: the substrate for BFS and SSSP.

The paper's data-centric graph kernels (Listing 5) are built on a
*neighborhood traversal*: each iteration launches one load-balanced kernel
whose tiles are the frontier's vertices and whose atoms are their outgoing
edges.  The per-iteration WorkSpec is rebuilt from the frontier -- which is
exactly why graph workloads are so imbalance-prone (frontier degree
distributions are arbitrary) and why reusing SpMV's schedules here is the
paper's headline composability result.

Each frontier advance is described to the engine layer as one launch:
algorithms supply a vectorized ``relax`` (NumPy over the whole edge
frontier; the vector engine's functional path) and optionally a scalar
``relax_edge`` (one edge at a time; the SIMT engine's kernel body).  The
loop itself is engine-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.schedule import WorkCosts
from ..core.work import WorkSpec
from ..engine import Runtime
from ..gpusim.arch import GpuSpec
from ..gpusim.cost_model import KernelStats
from ..sparse.graph import CsrGraph
from .common import tile_charges

__all__ = [
    "FrontierIteration",
    "traversal_costs",
    "advance_workspec",
    "run_frontier_loop",
    "graph_sweep_problem",
]


def graph_sweep_problem(matrix, seed: int):
    """Lift a square corpus matrix into a traversal problem (source 0).

    Shared by the BFS and SSSP registrations: weights are taken as
    absolute values so any corpus matrix satisfies SSSP's non-negativity
    requirement.
    """
    from types import SimpleNamespace

    from ..sparse.csr import CsrMatrix

    graph = CsrGraph(
        csr=CsrMatrix.from_arrays(
            matrix.row_offsets,
            matrix.col_indices,
            np.abs(matrix.values),
            matrix.shape,
            validate=False,
        )
    )
    return SimpleNamespace(graph=graph, source=0, max_iterations=None)


def traversal_costs(spec: GpuSpec) -> WorkCosts:
    """Per-edge cost of a relaxation: neighbor/weight loads, a gather of
    the distance, an atomicMin, and a frontier-flag store."""
    c = spec.costs
    return WorkCosts(
        atom_cycles=(
            c.global_load_coalesced  # neighbor id
            + c.global_load_coalesced  # edge weight
            + c.global_load_random  # dist[source or neighbor] gather
            + c.global_store  # out_frontier flag
        ),
        tile_cycles=c.global_load_coalesced,  # row extent of the vertex
        tile_reduction=False,
        atom_atomic=True,  # the atomicMin of Listing 5
        # 4B neighbor + 8B weight + 8B dist + 1B frontier flag; 4B extent.
        atom_bytes=21.0,
        tile_bytes=4.0,
    )


def advance_workspec(graph: CsrGraph, frontier: np.ndarray) -> WorkSpec:
    """WorkSpec of one frontier: tiles = frontier vertices, atoms = edges."""
    degrees = graph.out_degrees()[frontier]
    return WorkSpec.from_counts(degrees, label="frontier")


@dataclass
class FrontierIteration:
    """One advance step's bookkeeping (for tests and traces)."""

    iteration: int
    frontier_size: int
    edges: int
    stats: KernelStats


def run_frontier_loop(
    graph: CsrGraph,
    source: int,
    relax,
    *,
    relax_edge=None,
    make_compiled=None,
    rt: Runtime,
    max_iterations: int | None = None,
):
    """Generic level-synchronous frontier loop.

    ``relax(frontier, edge_sources, edge_targets, edge_weights)`` must
    return a boolean mask over vertices marking the next frontier.  The
    function handles the vectorized edge expansion and the per-iteration
    load-balanced timing; algorithms (BFS, SSSP) supply only the relaxation
    -- the "user-defined computation" stage of the abstraction.

    ``relax_edge(ctx, src, dst, weight, next_mask)`` is the scalar form of
    the same relaxation, consumed one edge at a time by the SIMT engine's
    interpreted kernel; it must mark improved vertices in ``next_mask``.
    Algorithms that omit it run on the vector engine only.

    ``make_compiled(iteration, frontier, edge_sources, edge_targets,
    edge_weights)`` builds the iteration's
    :class:`~repro.engine.compiled.CompiledKernel` for the compiled
    engine; the per-iteration factory exists because each advance closes
    over a fresh edge expansion.  Kernels are labelled ``"advance"`` for
    per-kernel engine overrides.

    ``rt`` carries the engine/schedule/device selection.

    Returns ``(iterations, total_stats)``.
    """
    if not 0 <= source < graph.num_vertices:
        raise ValueError(f"source {source} out of range")
    csr = graph.csr
    n = graph.num_vertices
    frontier = np.asarray([source], dtype=np.int64)
    iterations: list[FrontierIteration] = []
    total_stats: KernelStats | None = None
    limit = max_iterations if max_iterations is not None else graph.num_vertices + 1
    costs = traversal_costs(rt.spec)

    for it in range(limit):
        if frontier.size == 0:
            break
        work = advance_workspec(graph, frontier)
        if work.num_atoms == 0 and work.num_tiles == 0:  # pragma: no cover
            break

        # Vectorized edge expansion of the frontier.  Atom id e of this
        # iteration's WorkSpec indexes these arrays directly.
        degrees = csr.row_lengths()[frontier]
        edge_sources = np.repeat(frontier, degrees)
        starts = csr.row_offsets[frontier]
        total_edges = int(degrees.sum())
        offs = np.zeros(frontier.size, dtype=np.int64)
        np.cumsum(degrees[:-1], out=offs[1:])
        within = np.arange(total_edges, dtype=np.int64) - np.repeat(offs, degrees)
        edge_ids = np.repeat(starts, degrees) + within
        edge_targets = csr.col_indices[edge_ids]
        edge_weights = csr.values[edge_ids]

        sched = rt.schedule_for(work, matrix=csr, kernel="advance", costs=costs)

        def compute():
            return relax(frontier, edge_sources, edge_targets, edge_weights)

        kernel = None
        if relax_edge is not None:

            def kernel():
                next_mask = np.zeros(n, dtype=bool)
                atom_c, tile_c = tile_charges(sched, costs)

                def body(ctx):
                    # Listing 5's pattern: edges through the schedule, the
                    # owning vertex recovered implicitly via the tile.
                    for tile in sched.tiles(ctx):
                        m = 0
                        for e in sched.atoms(ctx, tile):
                            relax_edge(
                                ctx,
                                int(edge_sources[e]),
                                int(edge_targets[e]),
                                float(edge_weights[e]),
                                next_mask,
                            )
                            m += 1
                        ctx.charge(m * atom_c + tile_c)

                return body, lambda: next_mask

        compiled = None
        if make_compiled is not None:
            compiled = make_compiled(
                it, frontier, edge_sources, edge_targets, edge_weights
            )

        next_mask, stats = rt.run_launch(
            sched,
            costs,
            compute=compute,
            kernel=kernel,
            compiled=compiled,
            kernel_label="advance",
            extras={"app": "traversal", "iteration": it},
        )
        total_stats = stats if total_stats is None else total_stats + stats

        iterations.append(
            FrontierIteration(
                iteration=it,
                frontier_size=int(frontier.size),
                edges=total_edges,
                stats=stats,
            )
        )
        frontier = np.nonzero(next_mask)[0].astype(np.int64)

    if total_stats is None:
        # Degenerate single-vertex graph: charge one empty launch.
        total_stats = KernelStats(
            elapsed_ms=rt.spec.cycles_to_ms(rt.spec.costs.kernel_launch_cycles),
            makespan_cycles=rt.spec.costs.kernel_launch_cycles,
            grid_dim=1,
            block_dim=32,
            occupancy=0.0,
            simt_efficiency=1.0,
            utilization=0.0,
            tail_fraction=0.0,
            total_thread_cycles=0.0,
        )
    return iterations, total_stats

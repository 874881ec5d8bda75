#!/usr/bin/env python3
"""Data-centric graph analytics on the load-balancing abstraction.

The paper's Section 5.3 claim: the *same* schedules that balance sparse
linear algebra balance graph traversal, because both are tiles+atoms
workloads.  This example runs SSSP (Listing 5), BFS, PageRank and
triangle counting on two structurally opposite graphs:

* a road-network-like graph (near-uniform degrees: any schedule works);
* a social-network-like graph (power-law degrees: schedule choice is
  decisive, exactly as for SpMV).

Run:  python examples/graph_analytics.py
"""

import numpy as np

from repro import bfs, pagerank, sssp, triangle_count
from repro.engine import ExecutionContext
from repro.sparse import CsrGraph, coo_to_csr, csr_to_coo
from repro.sparse import generators as gen


def road_network(n: int = 4000) -> CsrGraph:
    """Banded adjacency: every junction connects to a few neighbours."""
    return CsrGraph(gen.banded(n, 2, seed=1))


def social_network(n_scale: int = 12) -> CsrGraph:
    """R-MAT graph: hubs with thousands of followers next to leaves."""
    csr = gen.rmat(n_scale, 8, seed=2)
    coo = csr_to_coo(csr)
    keep = coo.rows != coo.cols  # drop self-loops
    import dataclasses

    coo = dataclasses.replace(
        coo, rows=coo.rows[keep], cols=coo.cols[keep], values=coo.values[keep]
    )
    return CsrGraph(coo_to_csr(coo))


def profile(name: str, graph: CsrGraph) -> None:
    stats = graph.csr.degree_stats()
    print(f"\n== {name}: {graph.num_vertices} vertices, {graph.num_edges} edges, "
          f"degree CV = {stats['cv']:.2f} ==")

    print(f"{'app':<12} {'schedule':<16} {'model ms':>10} {'iterations':>11}")
    for schedule in ("thread_mapped", "group_mapped", "merge_path"):
        r = sssp(graph, 0, ctx=ExecutionContext(policy=schedule))
        print(f"{'sssp':<12} {schedule:<16} {r.elapsed_ms:>10.4f} "
              f"{r.extras['iterations']:>11}")

    r = bfs(graph, 0, ctx=ExecutionContext(policy="group_mapped"))
    reach = int((r.output >= 0).sum())
    print(f"{'bfs':<12} {'group_mapped':<16} {r.elapsed_ms:>10.4f} "
          f"{r.extras['iterations']:>11}   ({reach} reachable)")

    r = pagerank(graph.csr, ctx=ExecutionContext(policy="merge_path"))
    top = int(np.argmax(r.output))
    print(f"{'pagerank':<12} {'merge_path':<16} {r.elapsed_ms:>10.4f} "
          f"{r.extras['iterations']:>11}   (top vertex: {top})")

    r = triangle_count(graph.csr, ctx=ExecutionContext(policy="lrb"))
    print(f"{'triangles':<12} {'lrb':<16} {r.elapsed_ms:>10.4f} "
          f"{'-':>11}   ({r.output} triangles)")


def main() -> None:
    profile("road network (uniform)", road_network())
    profile("social network (power law)", social_network())
    print("\nOn the uniform graph, schedule choice barely matters; on the")
    print("power-law graph, the balanced schedules pull decisively ahead --")
    print("the same story as SpMV, with zero graph-specific balancing code.")


if __name__ == "__main__":
    main()

"""repro: a Python reproduction of "A Programming Model for GPU Load
Balancing" (Osama, Porumbescu & Owens, PPoPP 2023) on a simulated GPU.

Quickstart::

    import numpy as np
    from repro import spmv, load_dataset
    from repro.engine import ExecutionContext

    dataset = load_dataset("power_a19")
    x = np.ones(dataset.cols)
    result = spmv(dataset.matrix, x, ctx=ExecutionContext(policy="merge_path"))
    print(result.elapsed_ms, result.stats.simt_efficiency)

Packages:

* :mod:`repro.gpusim` -- the simulated-GPU substrate (SIMT interpreter +
  analytic cost model);
* :mod:`repro.sparse` -- CSR/CSC/COO formats, MatrixMarket IO, corpus;
* :mod:`repro.core` -- the load-balancing abstraction (iterators, ranges,
  work specs, schedules, heuristic);
* :mod:`repro.engine` -- the unified execution layer (app registry,
  vector/SIMT engine dispatch, plan cache, deterministic seeding);
* :mod:`repro.apps` -- SpMV/SpMM/SpGEMM, BFS/SSSP, PageRank, triangles;
* :mod:`repro.baselines` -- hardwired CUB and vendor-model comparators;
* :mod:`repro.evaluation` -- the harness for every table and figure.
"""

from .apps import bfs, pagerank, spgemm, spmm, spmv, sssp, triangle_count
from .core import (
    LaunchParams,
    Schedule,
    WorkCosts,
    WorkSpec,
    available_schedules,
    make_schedule,
    select_schedule,
)
from .engine import available_apps, get_app, run_app
from .gpusim import AMD_WARP64, TINY_GPU, V100, GpuSpec, KernelStats
from .sparse import (
    CooMatrix,
    CscMatrix,
    CsrGraph,
    CsrMatrix,
    build_corpus,
    load_dataset,
    random_graph,
    read_mtx,
    write_mtx,
)

__version__ = "1.0.0"

__all__ = [
    "bfs",
    "pagerank",
    "spgemm",
    "spmm",
    "spmv",
    "sssp",
    "triangle_count",
    "LaunchParams",
    "Schedule",
    "WorkCosts",
    "WorkSpec",
    "available_schedules",
    "make_schedule",
    "select_schedule",
    "available_apps",
    "get_app",
    "run_app",
    "AMD_WARP64",
    "TINY_GPU",
    "V100",
    "GpuSpec",
    "KernelStats",
    "CooMatrix",
    "CscMatrix",
    "CsrGraph",
    "CsrMatrix",
    "build_corpus",
    "load_dataset",
    "random_graph",
    "read_mtx",
    "write_mtx",
    "__version__",
]

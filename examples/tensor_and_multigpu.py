#!/usr/bin/env python3
"""Beyond the paper's evaluation: tensors and multiple GPUs.

Two extension surfaces built on the same abstraction:

1. **Sparse MTTKRP** (Section 3.3's tensor contractions): mode-0 slices
   are tiles, tensor nonzeros are atoms -- every SpMV schedule applies
   unchanged, and the related work's F-COO "equal nonzeros per thread"
   format becomes simply the ``nonzero_split`` *schedule*.
2. **Multi-GPU** (Section 8's future work): the merge-path partitioner
   applied one level up, splitting the tile set across devices.

Run:  python examples/tensor_and_multigpu.py
"""

import numpy as np

from repro.apps.common import spmv_costs
from repro.apps.spmttkrp import spmttkrp, spmttkrp_reference
from repro.core import WorkSpec
from repro.engine import ExecutionContext
from repro.gpusim import V100, multi_gpu_plan
from repro.sparse.tensor import random_tensor


def tensor_demo() -> None:
    print("== Sparse MTTKRP (3-way tensor x Khatri-Rao product) ==")
    tensor = random_tensor((5000, 64, 64), 150_000, skew=0.9, seed=0)
    counts = tensor.slice_counts()
    print(f"tensor {tensor.shape}, {tensor.nnz} nnz, "
          f"slice-degree CV = {counts.std() / counts.mean():.2f}")
    rng = np.random.default_rng(1)
    b = rng.uniform(size=(64, 16))
    c = rng.uniform(size=(64, 16))
    expected = spmttkrp_reference(tensor, b, c)

    print(f"{'schedule':<16} {'model ms':>10}")
    for schedule in ("thread_mapped", "nonzero_split", "merge_path"):
        r = spmttkrp(tensor, b, c, ctx=ExecutionContext(policy=schedule))
        assert np.allclose(r.output, expected)
        print(f"{schedule:<16} {r.elapsed_ms:>10.4f}")
    print("nonzero_split reproduces F-COO's balance as a *schedule*, with")
    print("no special storage format.\n")


def multigpu_demo() -> None:
    print("== Multi-GPU split (future work, Section 8) ==")
    skewed = np.random.default_rng(2).permutation(
        np.concatenate([np.full(32, 100_000), np.full(60_000, 3)])
    )
    work = WorkSpec.from_counts(skewed, label="skewed")
    costs = spmv_costs(V100)

    print(f"{'devices':>8} {'partition':<12} {'model ms':>10} {'imbalance':>10}")
    for n in (1, 2, 4, 8):
        for strategy in ("tiles", "merge_path"):
            plan = multi_gpu_plan(
                work, costs, num_devices=n, partition=strategy
            )
            print(f"{n:>8} {strategy:<12} {plan.elapsed_ms:>10.4f} "
                  f"{plan.device_imbalance:>10.3f}")
    print("the merge-path partitioner balances devices that an equal-tile")
    print("split cannot -- the same algorithm, one level up the hierarchy.")


if __name__ == "__main__":
    tensor_demo()
    multigpu_demo()

"""Tests for the CUB and cuSparse comparator models."""

import numpy as np
import pytest

from repro.baselines.cub_spmv import cub_spmv
from repro.baselines.cusparse_spmv import (
    CUSPARSE_ANALYSIS_CYCLES,
    VECTOR_DISPATCH_MEAN_NNZ,
    cusparse_spmv,
)
from repro.baselines.reference import dense_spmv_oracle
from repro.engine import ExecutionContext
from repro.sparse import generators as gen


def _x(m, seed=0):
    return np.random.default_rng(seed).uniform(size=m.num_cols)


class TestCubSpmv:
    def test_correct(self):
        m = gen.power_law(200, 200, 5.0, seed=1)
        x = _x(m)
        y, stats = cub_spmv(m, x)
        np.testing.assert_allclose(y, dense_spmv_oracle(m, x), rtol=1e-12)
        assert stats.elapsed_ms > 0

    def test_merge_path_dispatch_default(self):
        m = gen.poisson_random(100, 100, 4.0, seed=2)
        _, stats = cub_spmv(m, _x(m))
        assert stats.extras["dispatch"] == "merge_path"

    def test_single_column_heuristic(self):
        # Section 6.1: CUB launches a specialized thread-mapped kernel for
        # single-column matrices.
        m = gen.single_column(500, 0.5, seed=3)
        y, stats = cub_spmv(m, _x(m))
        assert stats.extras["dispatch"] == "thread_mapped_spvv"
        np.testing.assert_allclose(y, dense_spmv_oracle(m, _x(m)))

    def test_spvv_heuristic_wins_on_single_column(self):
        """The paper's Figure 2 finding: CUB beats the framework's
        merge-path on sparse vectors because of this special case."""
        from repro.apps.spmv import spmv

        m = gen.single_column(4000, 0.5, seed=4)
        x = _x(m)
        _, cub_stats = cub_spmv(m, x)
        ours = spmv(m, x, ctx=ExecutionContext(policy="merge_path"))
        assert cub_stats.elapsed_ms < ours.elapsed_ms

    def test_hardwired_not_slower_than_abstraction(self):
        """Figure 2's premise: the framework's merge-path pays a small
        overhead relative to the fused CUB kernel on identical work."""
        from repro.apps.spmv import spmv

        for seed in range(3):
            m = gen.power_law(2000, 2000, 8.0, seed=seed)
            x = _x(m, seed)
            _, cub_stats = cub_spmv(m, x)
            ours = spmv(m, x, ctx=ExecutionContext(policy="merge_path"))
            assert cub_stats.elapsed_ms <= ours.elapsed_ms * 1.001
            # ... but the overhead stays small (the paper's claim).
            assert ours.elapsed_ms <= cub_stats.elapsed_ms * 1.10

    def test_rejects_bad_x(self):
        m = gen.diagonal(5)
        with pytest.raises(ValueError):
            cub_spmv(m, np.ones(4))


class TestCusparseSpmv:
    def test_correct(self):
        m = gen.rmat(7, 6, seed=5)
        x = _x(m)
        y, stats = cusparse_spmv(m, x)
        np.testing.assert_allclose(y, dense_spmv_oracle(m, x), rtol=1e-12)

    def test_scalar_dispatch_short_rows(self):
        m = gen.uniform_random(100, 100, 2, seed=6)
        assert m.nnz / m.num_rows < VECTOR_DISPATCH_MEAN_NNZ
        _, stats = cusparse_spmv(m, _x(m))
        assert stats.extras["dispatch"] == "csr_scalar"

    def test_vector_dispatch_long_rows(self):
        m = gen.uniform_random(100, 400, 32, seed=7)
        _, stats = cusparse_spmv(m, _x(m))
        assert stats.extras["dispatch"] == "csr_vector"

    def test_fixed_overhead_dominates_tiny(self):
        m = gen.diagonal(16, seed=8)
        _, stats = cusparse_spmv(m, _x(m))
        assert stats.makespan_cycles >= CUSPARSE_ANALYSIS_CYCLES

    def test_loses_to_merge_path_on_skew(self):
        """Figure 3/4's driving mechanism: no intra-row splitting, so a
        few mega-rows serialize the vendor kernel."""
        from repro.apps.spmv import spmv

        m = gen.dense_row_outliers(3000, 3000, 3, 4, 2500, seed=9)
        x = _x(m)
        _, vendor = cusparse_spmv(m, x)
        ours = spmv(m, x, ctx=ExecutionContext(policy="merge_path"))
        assert vendor.elapsed_ms > 3 * ours.elapsed_ms

    def test_competitive_on_large_regular(self):
        """...but the vendor model must NOT be a strawman: on large
        regular matrices both sides sit near the bandwidth floor."""
        from repro.apps.spmv import spmv

        m = gen.uniform_random(20000, 20000, 32, seed=10)
        x = _x(m)
        _, vendor = cusparse_spmv(m, x)
        ours = spmv(m, x, ctx=ExecutionContext(policy="merge_path"))
        assert vendor.elapsed_ms < 1.8 * ours.elapsed_ms

    def test_rejects_bad_x(self):
        m = gen.diagonal(5)
        with pytest.raises(ValueError):
            cusparse_spmv(m, np.ones(6))

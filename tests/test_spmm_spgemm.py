"""Tests for SpMM (Listing 4) and SpGEMM (Gustavson two-pass)."""

import numpy as np
import pytest

from repro.apps.spgemm import spgemm, spgemm_reference
from repro.apps.spmm import spmm, spmm_costs, spmm_reference
from repro.engine import ExecutionContext
from repro.gpusim.arch import TINY_GPU, V100
from repro.sparse import generators as gen


def _b(matrix, n_cols=6, seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, size=(matrix.num_cols, n_cols))


class TestSpmm:
    @pytest.mark.parametrize(
        "schedule", ["thread_mapped", "merge_path", "group_mapped", "warp_mapped"]
    )
    def test_correct_under_schedules(self, schedule):
        m = gen.power_law(40, 30, 4.0, seed=2)
        b = _b(m)
        r = spmm(m, b, ctx=ExecutionContext(policy=schedule))
        np.testing.assert_allclose(r.output, m.to_dense() @ b, rtol=1e-9)

    def test_reference_matches_dense(self):
        m = gen.poisson_random(25, 20, 3.0, seed=3)
        b = _b(m, 4)
        np.testing.assert_allclose(spmm_reference(m, b), m.to_dense() @ b)

    def test_simt_engine(self):
        m = gen.poisson_random(24, 24, 2.0, seed=4)
        b = _b(m, 3)
        r = spmm(
            m,
            b,
            ctx=ExecutionContext(engine="simt", spec=TINY_GPU, policy="merge_path"),
        )
        np.testing.assert_allclose(r.output, m.to_dense() @ b, rtol=1e-9)

    def test_costs_scale_with_columns(self):
        c4 = spmm_costs(V100, 4)
        c8 = spmm_costs(V100, 8)
        assert c8.atom_cycles == pytest.approx(2 * c4.atom_cycles)
        assert c8.atom_bytes > c4.atom_bytes

    def test_elapsed_grows_with_columns(self):
        m = gen.poisson_random(500, 500, 8.0, seed=5)
        t4 = spmm(m, _b(m, 4)).elapsed_ms
        t32 = spmm(m, _b(m, 32)).elapsed_ms
        assert t32 > t4

    def test_rejects_mismatched_b(self):
        m = gen.diagonal(5)
        with pytest.raises(ValueError, match="dense matrix"):
            spmm(m, np.ones((4, 2)))

    def test_one_loop_away_from_spmv(self):
        """Listing 4's claim: SpMM with a single B column equals SpMV."""
        from repro.apps.spmv import spmv

        m = gen.poisson_random(30, 30, 3.0, seed=6)
        x = _b(m, 1)
        r_mm = spmm(m, x, ctx=ExecutionContext(policy="merge_path"))
        r_mv = spmv(m, x[:, 0], ctx=ExecutionContext(policy="merge_path"))
        np.testing.assert_allclose(r_mm.output[:, 0], r_mv.output, rtol=1e-9)


class TestSpgemm:
    def test_reference_matches_dense(self):
        a = gen.poisson_random(20, 15, 2.0, seed=7)
        b = gen.poisson_random(15, 25, 2.0, seed=8)
        c = spgemm_reference(a, b)
        np.testing.assert_allclose(c.to_dense(), a.to_dense() @ b.to_dense())

    @pytest.mark.parametrize("schedule", ["merge_path", "group_mapped"])
    def test_app_correct(self, schedule):
        a = gen.poisson_random(18, 18, 2.5, seed=9)
        b = gen.poisson_random(18, 18, 2.5, seed=10)
        r = spgemm(a, b, ctx=ExecutionContext(policy=schedule))
        np.testing.assert_allclose(
            r.output.to_dense(), a.to_dense() @ b.to_dense(), rtol=1e-9
        )

    def test_matches_scipy(self):
        scipy_sparse = pytest.importorskip("scipy.sparse")
        a = gen.power_law(30, 30, 3.0, seed=11)
        b = gen.power_law(30, 30, 3.0, seed=12)
        sa = scipy_sparse.csr_matrix((a.values, a.col_indices, a.row_offsets), a.shape)
        sb = scipy_sparse.csr_matrix((b.values, b.col_indices, b.row_offsets), b.shape)
        r = spgemm(a, b)
        np.testing.assert_allclose(
            r.output.to_dense(), (sa @ sb).toarray(), rtol=1e-9
        )

    def test_two_kernel_stats_composed(self):
        a = gen.poisson_random(20, 20, 2.0, seed=13)
        r = spgemm(a, a)
        # The composed stats must exceed a single launch's overhead
        # (count kernel + compute kernel = two launches).
        assert r.stats.makespan_cycles > 2 * V100.costs.kernel_launch_cycles
        assert r.extras["intermediate_products"] >= r.output.nnz

    def test_dimension_check(self):
        a = gen.poisson_random(5, 6, 1.0, seed=14)
        with pytest.raises(ValueError, match="inner dimensions"):
            spgemm(a, a)

    def test_empty_product(self):
        from repro.sparse.csr import CsrMatrix

        a = CsrMatrix.empty((4, 4))
        r = spgemm(a, a)
        assert r.output.nnz == 0

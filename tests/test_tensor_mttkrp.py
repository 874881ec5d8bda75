"""Tests for sparse tensors and the MTTKRP application."""

import numpy as np
import pytest

from repro.apps.spmttkrp import mttkrp_costs, spmttkrp, spmttkrp_reference
from repro.engine import ExecutionContext
from repro.gpusim.arch import V100
from repro.sparse.tensor import SparseTensor3, random_tensor


def _factors(shape, rank, seed=0):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(-1, 1, size=(shape[1], rank)),
        rng.uniform(-1, 1, size=(shape[2], rank)),
    )


class TestSparseTensor:
    def test_construction_sorts_by_mode0(self):
        t = SparseTensor3.from_arrays(
            [2, 0, 1], [0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0], (3, 3, 3)
        )
        np.testing.assert_array_equal(t.i, [0, 1, 2])
        assert t.nnz == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            SparseTensor3.from_arrays([9], [0], [0], [1.0], (2, 2, 2))
        with pytest.raises(ValueError, match="identical"):
            SparseTensor3.from_arrays([0, 1], [0], [0], [1.0], (2, 2, 2))

    def test_slice_counts_and_offsets(self):
        t = SparseTensor3.from_arrays(
            [0, 0, 2], [0, 1, 2], [0, 1, 0], [1.0, 1.0, 1.0], (3, 3, 3)
        )
        np.testing.assert_array_equal(t.slice_counts(), [2, 0, 1])
        np.testing.assert_array_equal(t.slice_offsets(), [0, 2, 2, 3])

    def test_to_dense_accumulates_duplicates(self):
        t = SparseTensor3.from_arrays(
            [0, 0], [1, 1], [1, 1], [2.0, 3.0], (1, 2, 2)
        )
        assert t.to_dense()[0, 1, 1] == 5.0

    def test_random_tensor_skew(self):
        flat = random_tensor((200, 20, 20), 4000, skew=0.0, seed=1)
        skewed = random_tensor((200, 20, 20), 4000, skew=0.8, seed=1)
        cv = lambda t: t.slice_counts().std() / max(t.slice_counts().mean(), 1e-9)  # noqa: E731
        assert cv(skewed) > 2 * cv(flat)

    def test_random_tensor_deterministic(self):
        a = random_tensor((10, 10, 10), 50, seed=3)
        b = random_tensor((10, 10, 10), 50, seed=3)
        np.testing.assert_array_equal(a.values, b.values)


class TestMttkrp:
    def test_reference_matches_einsum(self):
        t = random_tensor((15, 12, 10), 300, seed=4)
        b, c = _factors(t.shape, 5)
        expected = np.einsum("ijk,jr,kr->ir", t.to_dense(), b, c)
        np.testing.assert_allclose(spmttkrp_reference(t, b, c), expected)

    @pytest.mark.parametrize(
        "schedule", ["thread_mapped", "merge_path", "group_mapped", "nonzero_split"]
    )
    def test_app_correct_under_schedules(self, schedule):
        t = random_tensor((30, 16, 16), 500, skew=0.6, seed=5)
        b, c = _factors(t.shape, 4)
        r = spmttkrp(t, b, c, ctx=ExecutionContext(policy=schedule))
        expected = np.einsum("ijk,jr,kr->ir", t.to_dense(), b, c)
        np.testing.assert_allclose(r.output, expected, rtol=1e-9)

    def test_costs_scale_with_rank(self):
        assert mttkrp_costs(V100, 32).atom_cycles == pytest.approx(
            2 * mttkrp_costs(V100, 16).atom_cycles
        )

    def test_schedule_choice_matters_on_skew(self):
        t = random_tensor((5000, 32, 32), 200_000, skew=0.9, seed=6)
        b, c = _factors(t.shape, 16)
        t_thread = spmttkrp(
            t,
            b,
            c,
            ctx=ExecutionContext(policy="thread_mapped"),
        ).elapsed_ms
        t_merge = spmttkrp(
            t,
            b,
            c,
            ctx=ExecutionContext(policy="merge_path"),
        ).elapsed_ms
        assert t_merge < t_thread

    def test_factor_validation(self):
        t = random_tensor((5, 6, 7), 20, seed=7)
        b, c = _factors(t.shape, 3)
        with pytest.raises(ValueError, match="factor B"):
            spmttkrp(t, b[:-1], c)
        with pytest.raises(ValueError, match="factor C"):
            spmttkrp(t, b, c[:-1])
        with pytest.raises(ValueError, match="ranks disagree"):
            spmttkrp(t, b, c[:, :2])

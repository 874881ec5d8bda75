"""The artifact's sanity check (paper appendix A.3.1).

The original: ``bin/loops.spmv.merge_path -m chesapeake.mtx --validate``
expecting ``Dimensions: 39 x 39 (340) / Errors: 0``.  Our stand-in
``datasets/chesapeake.mtx`` has the same dimensions and nnz.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.apps.spmv import spmv
from repro.baselines.reference import dense_spmv_oracle
from repro.engine import ExecutionContext
from repro.sparse.convert import coo_to_csr
from repro.sparse.mtx_io import read_mtx

DATASET = Path(__file__).resolve().parent.parent / "datasets" / "chesapeake.mtx"


@pytest.fixture(scope="module")
def chesapeake():
    return coo_to_csr(read_mtx(DATASET))


class TestSanityCheck:
    def test_dataset_shipped(self):
        assert DATASET.exists()

    def test_dimensions_match_paper(self, chesapeake):
        # "Dimensions : 39 x 39 (340)"
        assert chesapeake.shape == (39, 39)
        assert chesapeake.nnz == 340

    def test_symmetric_expansion(self, chesapeake):
        d = chesapeake.to_dense()
        np.testing.assert_array_equal(d, d.T)

    def test_merge_path_spmv_zero_errors(self, chesapeake):
        # "Errors : 0" under --validate.
        x = np.random.default_rng(0).uniform(size=39)
        result = spmv(chesapeake, x, ctx=ExecutionContext(policy="merge_path"))
        errors = int(
            np.sum(~np.isclose(result.output, dense_spmv_oracle(chesapeake, x)))
        )
        assert errors == 0

    def test_elapsed_reported(self, chesapeake):
        # "Elapsed (ms): ..." -- a positive model time is reported.
        x = np.ones(39)
        result = spmv(chesapeake, x, ctx=ExecutionContext(policy="merge_path"))
        assert result.elapsed_ms > 0

    def test_all_schedules_validate(self, chesapeake):
        from repro.core.schedule import available_schedules

        x = np.random.default_rng(1).uniform(size=39)
        expected = dense_spmv_oracle(chesapeake, x)
        for name in available_schedules():
            result = spmv(chesapeake, x, ctx=ExecutionContext(policy=name))
            np.testing.assert_allclose(result.output, expected, rtol=1e-9)

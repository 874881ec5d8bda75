"""Tests for the locality/cache model (paper future work, Section 8)."""

import numpy as np
import pytest

from repro.apps.spmv import spmv
from repro.engine import ExecutionContext
from repro.gpusim.arch import V100
from repro.gpusim.cache import (
    CacheModel,
    L2_V100_BYTES,
    effective_gather_cost,
    gather_hit_rate,
)
from repro.sparse import generators as gen


class TestHitRate:
    def test_resident_working_set_always_hits(self):
        assert gather_hit_rate(1024, L2_V100_BYTES) == 1.0
        assert gather_hit_rate(L2_V100_BYTES, L2_V100_BYTES) == 1.0

    def test_overflow_degrades_proportionally(self):
        assert gather_hit_rate(2 * L2_V100_BYTES, L2_V100_BYTES) == pytest.approx(0.5)
        assert gather_hit_rate(10 * L2_V100_BYTES, L2_V100_BYTES) == pytest.approx(0.1)

    def test_monotone_in_working_set(self):
        rates = [
            gather_hit_rate(w, L2_V100_BYTES)
            for w in np.logspace(3, 9, 20)
        ]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            gather_hit_rate(-1, 10)
        with pytest.raises(ValueError):
            gather_hit_rate(10, 0)


class TestCacheModel:
    def test_gather_cost_interpolates(self):
        m = CacheModel(capacity_bytes=1000, hit_cycles=5.0, miss_cycles=25.0)
        assert m.gather_cycles(500) == pytest.approx(5.0)
        assert m.gather_cycles(2000) == pytest.approx(0.5 * 5 + 0.5 * 25)

    def test_effective_cost_bounded_by_spec_extremes(self):
        small = effective_gather_cost(V100, 1024)
        huge = effective_gather_cost(V100, 10**10)
        assert small < huge
        assert huge <= V100.costs.global_load_random + 1e-9


class TestSpmvLocality:
    def test_small_vector_gets_faster_with_locality(self):
        # x easily fits in L2 -> cheaper gathers -> faster (or equal when
        # the bandwidth floor binds).
        m = gen.power_law(3000, 3000, 40.0, 1.8, seed=1)
        x = np.ones(m.num_cols)
        base = spmv(m, x, ctx=ExecutionContext(policy="thread_mapped")).elapsed_ms
        loc = spmv(
            m,
            x,
            locality=True,
            ctx=ExecutionContext(policy="thread_mapped"),
        ).elapsed_ms
        assert loc <= base

    def test_huge_vector_unaffected(self):
        # Working set far beyond L2: locality model converges to the
        # pessimistic default.
        m = gen.poisson_random(2_000_000, 2_000_000, 1.0, seed=2)
        x = np.ones(m.num_cols)
        base = spmv(m, x, ctx=ExecutionContext(policy="merge_path")).elapsed_ms
        loc = spmv(
            m,
            x,
            locality=True,
            ctx=ExecutionContext(policy="merge_path"),
        ).elapsed_ms
        assert loc == pytest.approx(base, rel=0.15)

    def test_locality_orthogonal_to_assignment(self):
        """The future-work requirement: locality changes costs, never the
        schedule's assignment (results identical, extras flagged)."""
        m = gen.power_law(200, 200, 4.0, seed=3)
        x = np.random.default_rng(0).uniform(size=m.num_cols)
        a = spmv(m, x, ctx=ExecutionContext(policy="group_mapped"))
        b = spmv(m, x, locality=True, ctx=ExecutionContext(policy="group_mapped"))
        np.testing.assert_array_equal(a.output, b.output)
        assert b.stats.extras["locality"] is True
        assert a.stats.extras["locality"] is False

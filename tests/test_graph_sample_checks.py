"""Tests for the graph apps' independent sampled validation audits.

``AppSpec.sample_check`` for bfs/sssp/pagerank re-derives per-vertex
invariants straight from the raw CSR arrays -- a code path disjoint from
both the oracles (queue BFS, heap Dijkstra, dense power iteration) and
the drivers.  These tests pin that the audits accept correct outputs on
every sweepable dataset and reject corrupted ones, and that the sweep
``--validate`` path runs them.
"""

import numpy as np
import pytest

from repro.engine import DEFAULT_SEED, ExecutionContext, get_app, run_app
from repro.gpusim.arch import TINY_GPU
from repro.sparse import generators as gen
from repro.sparse.corpus import build_corpus

GRAPH_APPS = ("bfs", "sssp", "pagerank")


@pytest.fixture
def matrix():
    return gen.power_law(48, 48, 3.0, 1.8, seed=9)


class TestRegistration:
    @pytest.mark.parametrize("app_name", GRAPH_APPS)
    def test_graph_apps_declare_sample_check(self, app_name):
        assert get_app(app_name).sample_check is not None


class TestAcceptCorrectOutputs:
    @pytest.mark.parametrize("app_name", GRAPH_APPS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_oracle_output_passes(self, app_name, matrix, seed):
        app = get_app(app_name)
        problem = app.sweep_problem(matrix, DEFAULT_SEED)
        expected = app.oracle(problem)
        assert app.sample_check(problem, expected, seed)

    @pytest.mark.parametrize("app_name", GRAPH_APPS)
    def test_engine_output_passes(self, app_name, matrix):
        app = get_app(app_name)
        problem = app.sweep_problem(matrix, DEFAULT_SEED)
        result = run_app(app, problem, ctx=ExecutionContext(spec=TINY_GPU))
        assert app.sample_check(problem, result.output, 123)

    @pytest.mark.parametrize("app_name", GRAPH_APPS)
    def test_every_smoke_dataset_passes(self, app_name):
        """The audit must hold on every dataset the sweep will feed it."""
        app = get_app(app_name)
        for ds in build_corpus("smoke"):
            if app.accepts is not None and not app.accepts(ds.matrix):
                continue
            problem = app.sweep_problem(ds.matrix, DEFAULT_SEED)
            expected = app.oracle(problem)
            assert app.sample_check(problem, expected, 7), ds.name


class TestRejectCorruptedOutputs:
    def _corruptions(self, app_name, output, problem):
        n = output.shape[0]
        bad_shape = output[:-1].copy()
        if app_name == "bfs":
            off_by_one = output.copy()
            reached = np.nonzero(output > 0)[0]
            off_by_one[reached[0]] += 1
            zeroed = output.copy()
            zeroed[problem.source] = 1
            return [bad_shape, off_by_one, zeroed]
        if app_name == "sssp":
            scaled = output.copy()
            finite = np.isfinite(scaled) & (np.arange(n) != problem.source)
            scaled[np.nonzero(finite)[0][0]] *= 1.5
            negative = output.copy()
            negative[problem.source] = -1.0
            return [bad_shape, scaled, negative]
        # pagerank
        shifted = output.copy()
        shifted[0] += 0.05
        unnormalized = output * 2.0
        return [bad_shape, shifted, unnormalized]

    @pytest.mark.parametrize("app_name", GRAPH_APPS)
    def test_corruptions_rejected(self, app_name, matrix):
        app = get_app(app_name)
        problem = app.sweep_problem(matrix, DEFAULT_SEED)
        good = app.oracle(problem)
        for i, bad in enumerate(self._corruptions(app_name, good, problem)):
            rejected = not any(
                app.sample_check(problem, bad, seed) for seed in range(6)
            )
            assert rejected, f"{app_name} corruption #{i} escaped the audit"


class TestWiredIntoSweepValidate:
    def test_validate_runs_graph_audits(self, monkeypatch):
        """sweep --validate actually invokes the graph sample checks."""
        import dataclasses

        from repro.evaluation import harness

        calls = []
        app = get_app("bfs")
        real = app.sample_check

        def counting(problem, output, seed):
            calls.append(seed)
            return real(problem, output, seed)

        patched = dataclasses.replace(app, sample_check=counting)
        monkeypatch.setattr(harness, "get_app", lambda name: patched)
        harness.run_suite(
            ["group_mapped"], app="bfs", scale="smoke", limit=2, validate=True
        )
        assert calls

    def test_failing_audit_fails_the_cell(self, monkeypatch):
        import dataclasses

        from repro.evaluation import harness

        patched = dataclasses.replace(
            get_app("sssp"), sample_check=lambda *a: False
        )
        monkeypatch.setattr(harness, "get_app", lambda name: patched)
        with pytest.raises(AssertionError, match="sampled dense check failed"):
            harness.run_suite(
                ["group_mapped"], app="sssp", scale="smoke", limit=1,
                validate=True,
            )

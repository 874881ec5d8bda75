"""The application registry: each app declared exactly once.

An :class:`AppSpec` is the framework-side record of one application --
its driver (the declaration of work, costs and kernel body, written
against :class:`~repro.engine.dispatch.Runtime` only), its oracle, how
to derive a sweep problem from a corpus matrix, and any hardwired
baseline implementations it competes against.  Registering the spec is
what makes an application sweepable: the harness, the CLI and the parity
tests all enumerate :func:`available_apps` instead of hand-listing
modules.

:func:`run_app` is the single entry point every public app function
(``spmv(...)``, ``bfs(...)``, ...) delegates to: it builds the Runtime
from the caller's :class:`~repro.engine.context.ExecutionContext` and
invokes the driver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .dispatch import Runtime

__all__ = [
    "AppSpec",
    "register_app",
    "get_app",
    "available_apps",
    "run_app",
    "default_match",
]


def default_match(output: Any, expected: Any) -> bool:
    """Default output validation: dense ``allclose`` at oracle tolerance."""
    if hasattr(output, "to_dense"):
        output = output.to_dense()
    if hasattr(expected, "to_dense"):
        expected = expected.to_dense()
    return bool(
        np.allclose(
            np.asarray(output, dtype=np.float64),
            np.asarray(expected, dtype=np.float64),
            rtol=1e-9,
            atol=1e-12,
        )
    )


@dataclass(frozen=True)
class AppSpec:
    """Everything the framework needs to know about one application.

    Attributes
    ----------
    driver:
        ``driver(problem, runtime) -> AppResult``.  The whole application:
        builds WorkSpecs, resolves schedules via ``runtime.schedule_for``
        and executes kernels via ``runtime.run_launch`` -- never touching
        an engine name.
    oracle:
        ``oracle(problem) -> expected output`` (pure NumPy/CPU reference).
    sweep_problem:
        ``sweep_problem(matrix, seed) -> problem``: derive a deterministic
        problem instance from a corpus CSR matrix, for harness sweeps.
    match:
        ``match(output, expected) -> bool`` -- output validation predicate.
    baselines:
        Hardwired comparator kernels by name (e.g. SpMV's ``cub``):
        ``fn(problem, spec) -> (output, stats)``.
    accepts:
        Optional predicate over the input matrix restricting which corpus
        datasets the app can sweep (e.g. graph apps need square inputs).
    sample_check:
        ``sample_check(problem, output, seed) -> bool`` -- a *second*,
        genuinely independent validation: re-derives a seeded sample of
        the output entries directly from the problem data
        (O(samples * row_nnz) for per-row outputs; one cheap linear
        pass for aggregate outputs like the histogram), through a
        different code path than both the oracle and the vector
        engine's ``compute()``.  Used by the
        harness's ``--validate`` so the vector path is never compared
        only against the function that produced it.
    """

    name: str
    driver: Callable[[Any, Runtime], Any]
    default_schedule: str = "merge_path"
    oracle: Callable[[Any], Any] | None = None
    sweep_problem: Callable[[Any, int], Any] | None = None
    match: Callable[[Any, Any], bool] = default_match
    baselines: dict = field(default_factory=dict)
    accepts: Callable[[Any], bool] | None = None
    sample_check: Callable[[Any, Any, int], bool] | None = None
    description: str = ""


_APPS: dict[str, AppSpec] = {}


def register_app(spec: AppSpec) -> AppSpec:
    """Add an application to the global registry (import-time hook)."""
    if spec.name in _APPS:
        raise ValueError(f"app {spec.name!r} already registered")
    _APPS[spec.name] = spec
    return spec


def _ensure_registered() -> None:
    # Importing the apps package registers every built-in application.
    from .. import apps  # noqa: F401


def available_apps() -> list[str]:
    """Names of every registered application."""
    _ensure_registered()
    return sorted(_APPS)


def get_app(name: str) -> AppSpec:
    """Look up a registered application by name."""
    _ensure_registered()
    if name not in _APPS:
        raise KeyError(f"unknown app {name!r}; available: {available_apps()}")
    return _APPS[name]


def run_app(
    app: str | AppSpec, problem: Any, *, ctx: "ExecutionContext | None" = None
):
    """Run one application through the engine dispatcher.

    ``ctx`` is the single execution-selection argument: an
    :class:`~repro.engine.context.ExecutionContext` bundling engine,
    device spec, schedule policy, launch override and schedule options
    (``None`` = :data:`~repro.engine.context.DEFAULT_CONTEXT`).  A
    context without a schedule policy falls back to the app's registered
    default.
    """
    from .context import DEFAULT_CONTEXT

    app_spec = app if isinstance(app, AppSpec) else get_app(app)
    context = DEFAULT_CONTEXT if ctx is None else ctx
    runtime = context.runtime(default_schedule=app_spec.default_schedule)
    return app_spec.driver(problem, runtime)

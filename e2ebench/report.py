"""A run's result and the report lines the benchmark prints."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from common import percentile


class BenchError(RuntimeError):
    """The benchmark could not produce a result (no program, crashed
    harness, ...): exit non-zero without printing one."""


@dataclass
class Result:
    attempted: int
    failed: int
    validated: int
    correct: bool
    details: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    #: Per-metric sample counts, bases and notes (printed, not judged).
    notes: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str, *, n: int | None = None,
               beyond: int | None = None, base: float | None = None,
               note: str | None = None) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        extra = {k: v for k, v in (("n", n), ("beyond", beyond), ("base", base),
                                   ("note", note))
                 if v is not None}
        if extra:
            self.notes[name] = extra

    def timing(self, prefix: str, values: list, unit: str, p90: bool = True) -> None:
        """``<prefix>_p50`` (and ``_p90``, with the count of samples beyond
        it) with the sample count."""
        if not values:
            raise BenchError(f"no samples for {prefix}")
        self.metric(f"{prefix}_p50", percentile(values, 50), unit, n=len(values))
        if p90:
            value = percentile(values, 90)
            self.metric(f"{prefix}_p90", value, unit, n=len(values),
                        beyond=sum(v > value for v in values))

    def lines(self, header: dict) -> list[str]:
        report = {**header, **self.details, "validated_cells": self.validated,
                  "samples": self.notes}
        final = {
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": self.metrics,
        }
        return ["report " + json.dumps(report, sort_keys=True), json.dumps(final)]

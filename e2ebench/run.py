"""End-to-end benchmark of the reproduction (see ``README.md`` here and
``BENCHMARK.json`` at the repository root).

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints a ``report`` line (environment stamp, pass and sample counts, the
``(app, kernel, dataset, elapsed)`` row digest) and, last, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
``--passes``, ``--tiny`` and ``--fail-unit`` shrink a run or break one unit
on purpose, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import os
import sys

from common import SRC, fingerprint, program_available
from report import BenchError

WORKLOADS = ("frontier-sweep", "corpus-sweep", "serve-mix")


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 passes: int | None = None, tiny: bool = False,
                 fail_unit: str | None = None):
    import serve_mix
    import sweeps

    if name == "serve-mix":
        return serve_mix.run(seed=seed, seconds=seconds, trace=trace,
                             passes=passes, tiny=tiny)
    workload = {"frontier-sweep": sweeps.FRONTIER, "corpus-sweep": sweeps.CORPUS}[name]
    return sweeps.run(workload, seed=seed, seconds=seconds, trace=trace,
                      passes=passes, tiny=tiny, fail_unit=fail_unit)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--fail-unit", default=None,
                        help="APP:DATASET unit the sweep pass fails on purpose")
    args = parser.parse_args(argv)

    if not program_available():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    # Hermetic: no REPRO_* knob reaches this process or the program's.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    try:
        result = run_workload(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), passes=args.passes, tiny=args.tiny,
            fail_unit=args.fail_unit,
        )
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not result.validated:
        print("no validated cell: every unit failed", file=sys.stderr)
        return 1
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": fingerprint()}
    for line in result.lines(header):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

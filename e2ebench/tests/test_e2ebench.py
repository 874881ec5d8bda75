"""The benchmark's own tests: tiny runs of every workload.

    python -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("engine.launches", "core.plan_calls", "sparse.datasets_built",
          "gpusim.model_ms_total")


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str], str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--seed", "3", "--seconds", "1",
         *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def tiny(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    code, lines, err = bench("--workload", workload, "--trace", str(trace),
                             "--tiny", "--passes", "2", *extra)
    assert code == 0, err
    assert lines[-2].startswith("report ")
    return json.loads(lines[-2][len("report "):]), json.loads(lines[-1])


def test_benchmark_json_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for path in SPEC["paths"]:
        assert (ROOT / path).is_dir()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    report, result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
    env = report["env"]
    assert {"python", "numpy", "numba", "nproc", "commit", "src_sha256"} <= set(env)
    assert report["digest_rows"] > 0
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
        for name in ("unit_ms_p90", "job_ms_p90", "setup_s"):
            assert report["samples"][name]["n"] >= 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_scaled_throughput_undoes_to_wall_time(workload):
    report, result = tiny(workload, 0)
    raw = report.get("pass_s") or report["round_s"]
    slowdown = report["host_slowdown"]
    assert len(slowdown) == len(raw) == 2 and min(slowdown) > 0
    scaled = result["metrics"]["cells_per_s"]["value"]
    unscaled = report["unscaled_cells_per_s"]
    # Both divide the same cells by the raw and by the scaled pass times.
    assert scaled / unscaled == pytest.approx(
        sum(raw) / sum(r / s for r, s in zip(raw, slowdown)), rel=0.01)


def test_yardstick_times_cpu_work():
    import common

    yardstick = common.Yardstick()
    laps = [yardstick() for _ in range(5)]
    assert all(0 < lap < 1.0 for lap in laps)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_match_untraced_and_repeat(workload):
    plain_report, plain = tiny(workload, 0)
    traced_report, traced = tiny(workload, 1)
    again_report, again = tiny(workload, 1)
    assert traced["attempted"] == plain["attempted"]
    assert traced_report["digest"] == plain_report["digest"]
    assert traced_report["validated_cells"] == plain_report["validated_cells"]
    for name in COUNTS:
        assert traced["metrics"][name]["value"] > 0
        assert traced["metrics"][name] == again["metrics"][name], name


def test_injected_sweep_failure_lowers_ok_share():
    report, result = tiny("frontier-sweep", 0, "--fail-unit", "bfs:tiny_diag_32")
    assert result["correct"] is True
    assert result["failed"] == 2 * 3  # one unit of three kernels, two passes
    assert 0 < result["metrics"]["ok_share"]["value"] < 1


def test_injected_serve_fault_lowers_ok_share():
    import serve_mix

    result = serve_mix.run(seed=3, seconds=1, trace=False, passes=1, tiny=True,
                           service_env={"REPRO_FAULTS": "serve.dispatch:err@2"})
    assert result.failed == 1
    assert result.correct
    assert 0 < result.metrics["ok_share"]["value"] < 1
    assert result.details["unclean_teardowns"] == 0


def test_wait_quiet_kills_a_leftover_program_process():
    import common

    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"],
                             env=common.program_env())
    try:
        assert common.live_program_pids() == [child.pid]
        assert common.wait_quiet(timeout=0.2) == 1
        assert child.wait(timeout=10) == -signal.SIGKILL
        assert common.live_program_pids() == []
    finally:
        child.kill()
        child.wait()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)

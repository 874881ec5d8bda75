"""Shared plumbing: paths, the hermetic program environment, child
processes with their resource usage, percentiles and the run stamp."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SHM_DIR = Path("/dev/shm")

#: The kernel list the CLI sweeps by default: three schedules plus the
#: app's own baselines.
DEFAULT_SCHEDULES = ("merge_path", "thread_mapped", "group_mapped")

#: Every program process gets this variable, and the pool workers it
#: starts inherit it, so :func:`live_program_pids` finds them even after
#: they were reparented.
TAG_VAR = "E2EBENCH_RUN"
RUN_TAG = f"{os.getpid()}-{time.time_ns()}"


def program_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def program_env() -> dict:
    """Environment for every program process: no ``REPRO_*`` knob leaks in
    (faults, plan persistence, cache budgets), the package comes from the
    checkout's ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONHASHSEED"] = "0"
    env[TAG_VAR] = RUN_TAG
    return env


def live_program_pids() -> list[int]:
    """Live processes carrying this run's tag (zombies have no environ)."""
    needle = f"{TAG_VAR}={RUN_TAG}".encode()
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/environ", "rb") as handle:
                environ = handle.read()
        except OSError:  # gone, or not ours to read
            continue
        if needle in environ.split(b"\0"):
            pids.append(int(entry.name))
    return pids


def wait_quiet(timeout: float = 10.0) -> int:
    """Wait until no program process of this run is alive.

    Returns how many had to be killed because they outlived ``timeout``
    (a teardown that left processes behind)."""
    deadline = time.monotonic() + timeout
    while pids := live_program_pids():
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            while live_program_pids():
                time.sleep(0.01)
            return len(pids)
        time.sleep(0.01)
    return 0


def default_kernels(app_spec) -> list[str]:
    return list(DEFAULT_SCHEDULES) + sorted(app_spec.baselines)


def derive_seed(*parts) -> int:
    """A 31-bit seed from the workload seed and a path of labels."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


class Child:
    """A program process whose exit status and peak RSS (including its own
    reaped children, e.g. pool workers) are collected with ``wait4``."""

    def __init__(self, argv: list[str], env: dict | None = None):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env if env is not None else program_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        self.returncode: int | None = None
        self.maxrss_mb = 0.0

    def readline(self) -> str:
        return self.proc.stdout.readline()

    def _signal(self, sig: int) -> None:
        # ``os.kill``, not ``Popen.send_signal``: the latter polls, and a
        # poll would reap the process before ``wait4`` reads its usage.
        if self.returncode is None:
            try:
                os.kill(self.proc.pid, sig)
            except ProcessLookupError:
                pass

    def wait(self, timeout: float = 60.0) -> int:
        """Reap the process; kill it when it outlives ``timeout``."""
        if self.returncode is not None:
            return self.returncode
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self._signal(signal.SIGKILL)
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.returncode = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.returncode
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        return self.returncode

    def finish(self, timeout: float = 60.0) -> tuple[int, str]:
        """Read the rest of stdout, then reap."""
        rest = self.proc.stdout.read()
        self.proc.stdout.close()
        return self.wait(timeout), rest

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        """Last-resort cleanup on an error path."""
        if self.returncode is None:
            self._signal(signal.SIGKILL)
            self.wait(10.0)


def more_passes(done: int, fixed: int | None, min_passes: int,
                started: float, seconds: float) -> bool:
    """Whether a run starts another pass: ``fixed`` passes when given,
    else at least ``min_passes`` and then while the next pass, as long as
    the mean one so far, is expected to end within ``seconds``."""
    if fixed is not None:
        return done < fixed
    if done < min_passes:
        return True
    elapsed = time.monotonic() - started
    return elapsed + elapsed / done <= seconds


#: The yardstick's time on the reference host; the sweeps scale their
#: wall times to that host's speed (see :class:`Yardstick`).
YARDSTICK_S = 1e-3


class Yardstick:
    """A fixed slice of interpreter and small-array numpy work (about
    ``YARDSTICK_S`` on the 2-core VM the benchmark was tuned on), timed
    in the process whose wall times it scales.  It is timed in thread CPU
    time, so waiting for a busy core does not count: it measures how fast
    the core runs, not how loaded the program keeps it.

    That host shares its cores with other tenants: how fast a core runs
    swings by up to 1.5x within seconds and drifts over minutes, so raw
    wall times of one workload spread by 15-30% between runs.  Timed
    between the units of work (or, in serve-mix, every
    ``SAMPLE_EVERY_S`` while the jobs run), the slice runs at the speed
    the work ran at, and wall times times ``YARDSTICK_S`` over the slice's
    mean time over the same pass or round come out as if the host ran at
    one fixed speed.  The slice is the benchmark's code, not the
    program's, so a change to the program moves the scaled times as much
    as the wall times."""

    def __init__(self) -> None:
        import numpy

        rng = numpy.random.default_rng(0)
        self._values = rng.random(4096)
        self._index = rng.integers(0, 4096, 4096)

    def __call__(self) -> float:
        """One timed slice, in seconds."""
        import numpy as np

        start = time.thread_time()
        total, table = 0, {}
        for i in range(6000):
            total += i * i
            table[i & 63] = total
        for _ in range(20):
            np.searchsorted(np.cumsum(self._values[self._index]), 0.5)
        return time.thread_time() - start


def python_child(script: str, *args: str, env: dict | None = None) -> Child:
    return Child([sys.executable, str(BENCH / script), *args], env=env)


def shm_names() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def src_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def fingerprint() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": src_hash(),
    }


def emit(record: dict) -> None:
    """One JSON line on stdout (the child-to-benchmark channel)."""
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def rows_digest(rows) -> str:
    """Digest of ``(app, kernel, dataset, elapsed)`` rows; ``elapsed`` is
    the modelled GPU time, so a modelled-clock change moves it."""
    digest = hashlib.sha256()
    for row in sorted(rows):
        digest.update(repr(row).encode())
    return digest.hexdigest()[:16]

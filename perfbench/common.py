"""Shared plumbing for the default-path benchmark: paths, child processes,
statistics and the result line.

Every child process is started with the interpreter running the benchmark
(``sys.executable``) and ``PYTHONPATH`` pointing at the checkout's ``src``,
so the program under test is always the source tree next to this directory.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PY = sys.executable

# How long a child may take to print its first line before the run fails.
SPAWN_TIMEOUT_S = 60.0


def require_source() -> None:
    """Exit with code 2, printing no result, unless the program is present."""
    if not (SRC / "repro" / "cli.py").is_file():
        sys.stderr.write(
            f"perfbench: no program source at {SRC}/repro; run from a checkout "
            "of the repository\n"
        )
        sys.exit(2)


def pin_to_one_cpu() -> int:
    """Run this process, and every child it starts, on one CPU.

    The program is single-threaded in effect, and the calibration samples
    (see calibration.py) then measure the CPU the work runs on, whatever
    its neighbours are doing.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_program() -> None:
    """Make ``import repro`` resolve to the checkout's source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # Installed users have bytecode caches; the benchmark warms them first.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@contextmanager
def work_dir() -> Iterator[Path]:
    """A private scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".perfbench-work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass


# -- child processes -----------------------------------------------------------


def spawn(args: Sequence[str], **kwargs) -> subprocess.Popen:
    return subprocess.Popen(
        list(args), cwd=str(ROOT), env=child_env(), **kwargs
    )


def read_first_line(proc: subprocess.Popen, timeout: float = SPAWN_TIMEOUT_S) -> str:
    """The child's first stdout line; kills the child if it never comes."""
    import selectors

    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        if not selector.select(timeout):
            stop(proc)
            raise RuntimeError(f"child {proc.args!r} printed nothing in {timeout}s")
    line = proc.stdout.readline()
    if not line:
        stop(proc)
        raise RuntimeError(f"child {proc.args!r} exited before its first line")
    return line.decode("utf-8") if isinstance(line, bytes) else line


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> int:
    """Interrupt a child (servers shut down on SIGINT) and wait for it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdout, proc.stderr, proc.stdin):
        if stream is not None:
            stream.close()
    return proc.returncode


class Measured(NamedTuple):
    """One child run to completion."""

    started: float  # perf_counter just before the spawn
    ended: float  # perf_counter just after the reap
    code: int
    output: bytes  # stdout and stderr together
    rss_mb: float  # the child's own peak RSS (ru_maxrss from wait4)

    @property
    def wall(self) -> float:
        return self.ended - self.started


def run_measured(args: Sequence[str]) -> Measured:
    started = time.perf_counter()
    proc = spawn(args, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    output = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return Measured(started, ended, proc.returncode, output, usage.ru_maxrss / 1024.0)


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def time_until_line(args: Sequence[str], repeats: int,
                    samples: Optional[list] = None) -> List[Tuple[float, float]]:
    """Spawn ``args`` ``repeats`` times: ``(when, seconds)`` from spawn to the
    first line.  With ``samples``, a burst of calibration samples follows
    each."""
    out = []
    for _ in range(repeats):
        started = time.perf_counter()
        proc = spawn(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        read_first_line(proc)
        out.append((started, time.perf_counter() - started))
        stop(proc)
        if samples is not None:
            calibration.sample(samples)
    return out


def time_to_exit(args: Sequence[str], repeats: int,
                 samples: Optional[list] = None) -> List[Tuple[float, float]]:
    """Spawn ``args`` ``repeats`` times: ``(when, seconds)`` from spawn to
    reap.  With ``samples``, a burst of calibration samples follows each."""
    out = []
    for _ in range(repeats):
        run = run_measured(args)
        if run.code != 0:
            raise RuntimeError(f"{args!r} exited {run.code}: {run.output[-500:]!r}")
        out.append((run.started, run.wall))
        if samples is not None:
            calibration.sample(samples)
    return out


def import_cost_ms(repeats: int = 5) -> float:
    """``cli.import_ms``: fresh ``import repro.cli`` minus a bare interpreter."""
    with_import = time_to_exit([PY, "-c", "import repro.cli"], repeats)
    bare = time_to_exit([PY, "-c", "pass"], repeats)
    return (median([s for _, s in with_import]) - median([s for _, s in bare])) * 1e3


# -- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (the numpy default) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- output --------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def note(text: str) -> None:
    """Human-readable progress and context, on stderr."""
    sys.stderr.write(text.rstrip("\n") + "\n")
    sys.stderr.flush()


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
        sort_keys=True,
    )


class Outcome:
    """What one workload run produced: answers checked plus metric values."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, dict] = {}
        self.samples: Dict[str, int] = {}
        # Metric -> the percentile a tail metric reports.
        self.tails: Dict[str, int] = {}
        # How many identical rounds the timed loop ran: fig2-batch passes or
        # cli-oneshot sweeps over the programs.
        self.rounds = 0
        # Calibration (see calibration.py): the samples' count and median,
        # the whole-run factor (per-layer times) and the windowed scaler
        # (end-to-end times).
        self.calibration_samples = 0
        self.calibration_median_ms = 0.0
        self.scale = 1.0
        self.scaler: Optional[calibration.Scaler] = None
        # Metric -> its value before scaling, for the stderr report.
        self.raw: Dict[str, float] = {}
        self.properties: Dict[str, float] = {}

    def check(self, ok: bool, what: Optional[str] = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if what is not None and self.failed <= 5:
                note(f"perfbench: wrong answer: {what}")

    def put(self, name: str, value: float, unit: str, samples: Optional[int] = None) -> None:
        self.metrics[name] = metric(value, unit)
        if samples is not None:
            self.samples[name] = samples

    def calibrate(self, samples: Sequence[calibration.Sample]) -> None:
        self.calibration_samples = len(samples)
        self.calibration_median_ms = median([s for _, s in samples]) * 1e3
        self.scale = calibration.factor(samples)
        self.scaler = calibration.Scaler(samples)

    def put_times(self, name: str, timed: Sequence[Tuple[float, float]], pct: float,
                  unit: str) -> None:
        """A percentile of ``(when, value)`` timings, each scaled to the
        nominal machine speed by the calibration samples around it."""
        self.raw[name] = percentile([value for _, value in timed], pct)
        self.put(name, percentile(self.scaler.scale(timed), pct), unit, len(timed))
        if pct != 50:
            self.tails[name] = int(pct)

    def put_rate(self, name: str, raw_rate: float, timed: Sequence[Tuple[float, float]]) -> None:
        """A measured rate, scaled by the factor its ``timed`` work saw."""
        measured = sum(value for _, value in timed)
        effective = sum(self.scaler.scale(timed)) / measured
        self.raw[name] = raw_rate
        self.put(name, raw_rate / effective, "1/s", len(timed))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

"""Shared pieces of the benchmark: paths, statistics, environment, output."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

#: every numeric thread pool runs one thread, so a run's CPU use is the
#: workload's own processes and nothing a library decided to spawn
THREAD_POOL_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: set-up repetitions per run; ``setup_s`` reports their median
SETUP_REPEATS = 3


def pin_thread_pools() -> None:
    """Pin numeric thread pools to one thread (before NumPy is imported)."""
    for var in THREAD_POOL_VARS:
        os.environ[var] = "1"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class OpResult:
    """What one timed operation produced.

    ``units`` counts verified work units, ``attempted``/``failed`` count
    the samples the workload checks (records, cells, reads or jobs), and
    ``latencies`` holds per-sample latencies in seconds.
    """

    units: int = 0
    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def merge(self, other: "OpResult") -> None:
        self.units += other.units
        self.attempted += other.attempted
        self.failed += other.failed
        self.latencies += other.latencies
        self.problems += other.problems

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked sample; record a failure when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def p90_supported(count: int) -> bool:
    """Whether at least ten samples lie beyond the 90th percentile."""
    return count - int(count * 0.9) >= 10


#: a timed phase may run past ``--seconds``, up to this factor, to collect
#: enough latency samples for a 90th percentile
MAX_OVERRUN = 3.0


def phase_done(elapsed: float, seconds: float, samples: int, p90: bool) -> bool:
    """Whether a timed phase may stop after ``elapsed`` seconds; with
    ``p90`` only once its ``samples`` support a 90th percentile."""
    if elapsed >= seconds * MAX_OVERRUN:
        return True
    return elapsed >= seconds and (not p90 or p90_supported(samples))


def peak_rss_parts_mb() -> tuple[float, float]:
    """Peak RSS of this process and of its largest waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc_size() -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = (-1, "unknown")
    for index in sorted(base.glob("index*")):
        try:
            level = int((index / "level").read_text().strip())
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction" and level > best[0]:
            best = (level, f"L{level} {size}")
    return best[1]


def environment(seed: int, trace: bool, workload: str) -> dict:
    """The environment block printed with every result."""
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "llc": _llc_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pools": {var: os.environ.get(var) for var in THREAD_POOL_VARS},
        "setup_repeats": SETUP_REPEATS,
    }


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux),
    so ``stop_children`` can wait for grandchildren too."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def _children() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Children still running get ``grace`` seconds, then SIGTERM, then
    SIGKILL. The multiprocessing resource tracker, which shared-memory
    rings start and which otherwise outlives this process, is shut down
    once no other child can still hold its pipe.
    """
    import signal
    import time
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    while True:
        pids = [p for p in _children() if p != tracker._pid]
        if not pids:
            break
        deadline = time.monotonic() + grace
        for sig in (None, signal.SIGTERM, signal.SIGKILL):
            if sig is not None:
                for pid in pids:
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
                deadline = time.monotonic() + 5.0
            while pids and time.monotonic() < deadline:
                pids = [p for p in pids if not _reaped(p)]
                time.sleep(0.01)
            if not pids:
                break
        if sig is signal.SIGKILL:
            for pid in pids:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
    if tracker._pid is not None:
        tracker._stop()


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result line: the last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }), flush=True)


def note(text: str) -> None:
    """Human-readable report lines (everything before the result line)."""
    print(text, flush=True)


def fail(message: str, code: int = 2) -> None:
    print(f"error: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)

"""Shared helpers for the end-to-end benchmark: paths, RSS sampling, stats."""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Scratch space inside the checkout (gitignored); every run uses and
#: removes a fresh subdirectory.
WORK_ROOT = os.path.join(REPO_ROOT, ".e2ebench_work")


class SetupError(RuntimeError):
    """The program under test is missing or unusable."""


def use_repo_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SetupError(f"program sources not found under {SRC_DIR}")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC_DIR + os.sep):
        raise SetupError(f"imported repro from {repro.__file__}, not {SRC_DIR}")


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for child processes running the checkout's program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env.update(extra)
    return env


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))  # ceil(q/100 * n)
    return float(ordered[min(rank, len(ordered)) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``q``-th."""
    if count == 0:
        return 0
    rank = max(1, int(-(-q * count // 100)))
    return count - rank


def _peak_rss_kb(pid: int) -> int:
    """The process's own RSS high-water mark (``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _descendants(pid: int) -> List[int]:
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children", encoding="ascii") as handle:
                    kids = [int(k) for k in handle.read().split()]
            except (OSError, ValueError):
                continue
            found.extend(kids)
            frontier.extend(kids)
    return found


class RssSampler:
    """Peak summed RSS of this process and all its descendants.

    A background thread sums each live process's own RSS high-water mark
    across the process tree every ``interval`` seconds and keeps the
    largest sum, so pool workers and a served child count; a process's
    peak between two samples is not missed.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        root = os.getpid()
        total = sum(_peak_rss_kb(pid) for pid in [root, *_descendants(root)])
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0


def now() -> float:
    return time.perf_counter()


def host_steal_s() -> float:
    """CPU time the hypervisor took from this VM so far, summed over CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class CheckFailed(AssertionError):
    """An output check of a workload failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)

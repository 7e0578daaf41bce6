"""Host-side measurement: the reference kernel, CPU steal and the environment record.

This module imports nothing from ``repro``.  The reference kernel measures the
host, not the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import multiprocessing
import os
import platform
import resource
import statistics
import time
import tracemalloc
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any

import numpy as np


class ReferenceKernel:
    """A fixed unit of host work, 12-15 ms, timed between program ops.

    The benchmark samples it right after every simulation step or service
    epoch, while the program is idle, and divides program seconds by it.
    Host drift (CPU steal from co-tenants, frequency changes, memory
    contention) slows both and cancels in the ratio, while program cost
    does not.  The work mixes what the program's time is made of, in five
    parts of 1-3 ms each: an in-place numpy sort, an interpreter loop, a random
    gather and a streaming sum over a 16 MB array, and ``np.unique`` on
    int64 keys.  The mix tracked run-to-run drift better than any one part
    (``perfbench/NOTES.md`` has the measurements).

    One sample varies by 10-20% on a shared host, more than the drift it is
    there to track.  So an op is divided by the median of the samples taken
    within :data:`WINDOW_S` seconds of it, not by its neighbours alone.
    """

    #: Samples this close to an op (in seconds) form its divisor.
    WINDOW_S = 2.5

    def __init__(self, repeats: int = 3) -> None:
        rng = np.random.default_rng(20150531)
        self._keys = rng.random(300_000)
        self._work = np.empty_like(self._keys)
        self._big = rng.random(2_000_000)
        self._gather = rng.integers(0, self._big.size, 150_000)
        self._ints = rng.integers(0, 2**40, 15_000)
        self._repeats = repeats
        #: ``(perf_counter at the end of the sample, kernel seconds)``.
        self.samples: list[tuple[float, float]] = []
        self._once()  # the first call is cold and would skew the first op

    def _once(self) -> float:
        started = time.perf_counter()
        np.copyto(self._work, self._keys)
        self._work.sort()
        sum(k & 7 for k in range(60_000))
        self._big[self._gather].sum()
        self._big.sum()
        np.unique(self._ints)
        return time.perf_counter() - started

    def sample(self) -> None:
        """Time the kernel now: the median of ``repeats`` back-to-back runs."""
        seconds = statistics.median(self._once() for _ in range(self._repeats))
        self.samples.append((time.perf_counter(), seconds))

    def median_seconds(self) -> float:
        return statistics.median(seconds for _, seconds in self.samples)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds for an op that ran from ``start`` to ``end``.

        Callers sample right before and right after every op, so the
        window always holds at least those two samples.
        """
        near = [
            seconds
            for at, seconds in self.samples
            if start - self.WINDOW_S <= at <= end + self.WINDOW_S
        ]
        return statistics.median(near)

    def normalised(self, ops: list[tuple[float, float]]) -> list[float]:
        """Each ``(start, wall)`` op's wall in units of the reference kernel."""
        return [wall / self.scale(start, start + wall) for start, wall in ops]


class HeapTrimmer:
    """Returns freed heap pages to the OS between ops (glibc ``malloc_trim``).

    Without it, memory freed by one set-up or op stays resident in the
    allocator's arenas and counts toward the next one's peak RSS.  A no-op
    where the C library has no ``malloc_trim``.
    """

    def __init__(self) -> None:
        name = ctypes.util.find_library("c")
        libc = ctypes.CDLL(name) if name else None
        self._trim = getattr(libc, "malloc_trim", None)
        if self._trim is not None:
            self._trim.argtypes = [ctypes.c_size_t]
            self._trim.restype = ctypes.c_int

    def __call__(self) -> None:
        if self._trim is not None:
            self._trim(0)


class HeapPeak:
    """The most memory allocated at once inside a ``with`` block, in MiB.

    Traced with ``tracemalloc``, which sees numpy's array buffers as well as
    Python objects, and counts only what the block allocates: memory that
    is live when the block starts is left out.  Unlike peak RSS, the figure
    does not depend on how the C allocator reuses or returns freed pages.
    Tracing slows allocation, so the block is never a timed one.
    """

    mib = 0.0

    def __enter__(self) -> HeapPeak:
        tracemalloc.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.mib = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()


def stop_child_processes() -> None:
    """Stop every process this one started and wait until each has ended.

    The program's shared-memory publications start ``multiprocessing``'s
    resource tracker, a helper process that would otherwise outlive the
    run (and stay behind as a zombie where nothing reaps orphans).  Call
    it from an ``atexit`` handler registered before the program is
    imported: handlers run last-in first-out, so this one runs after the
    program's own exit handlers, which may still unlink shared memory
    through the tracker.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    # The tracker has no public stop; ``_stop`` closes its pipe and waits for it.
    resource_tracker._resource_tracker._stop()  # noqa: SLF001


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line of ``/proc/stat``.

    Returns ``(0, 0)`` where the file is missing (non-Linux hosts).
    """
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0, 0
    values = [int(value) for value in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest and guest_nice (fields 9, 10) are already counted in user/nice.
    return steal, sum(values[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """CPU steal as a share of the elapsed ticks between two :func:`cpu_ticks`."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def peak_rss_mib() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="ascii").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict[str, Any]:
    """What ``repro.obs.environment_info`` leaves out: the CPU model and the CPUs used."""
    return {
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
    }

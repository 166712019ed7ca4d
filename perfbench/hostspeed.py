"""Host-speed normalisation of timed intervals.

On a shared 2-vCPU host the interpreter's speed drifts by up to 2x within
seconds (a fixed pure-Python loop, timed once a second for 40 s, took
250-500 ms), and process CPU time drifts with wall time, so it is not
contention for the CPU that a CPU-time clock could ignore. No bound of
25 % can hold on raw wall-clock rates there.

Every timed interval is therefore scaled by the host's speed measured
next to it: a fixed reference kernel (a pure-Python set-associative LRU
cache model, the same kind of work the simulator does, but none of its
code) is timed before and after the interval, and the interval is
multiplied by ``NOMINAL_KERNEL_S / mean(kernel before, kernel after)``.
A scaled second is a second on a host that runs the kernel in
``NOMINAL_KERNEL_S``; on such a host the scaled figures equal wall-clock
ones. The kernel is benchmark code, so a change to the program moves
scaled figures as it moves wall-clock ones at equal host speed.

That holds only while the kernel has its CPU to itself. The whole run is
pinned to one CPU, so CPU work of the program left running during a
kernel timing (a busy event loop, work after a response, a background
thread) would slow the kernel and the measured interval alike, and
scaling would divide it out. Each kernel timing therefore checks that
the program ran for less than ``1 - MIN_CPU_SHARE`` of its wall time:
the other threads of this process and every thread of its descendant
processes (serve-mix: the server and its pool worker). A timing that
fails is *contended*: the intervals next to it are scaled by the timing
on their other side alone, or stay unscaled (raw wall-clock) if that one
was contended too, and :data:`COUNTS` counts it so the run can report it.
Time the host takes from the CPU (steal, other tenants) is not the
program's and does not make a timing contended: it slows kernel and
interval alike, which is what the scaling is for.
"""

from __future__ import annotations

import math
import os
import time

#: Kernel duration that defines a nominal (undisturbed) host second.
NOMINAL_KERNEL_S = 0.006
#: The program may run for at most ``1 - MIN_CPU_SHARE`` of a kernel
#: timing's wall time beside it.
MIN_CPU_SHARE = 0.9
#: Kernel timings of this process, and how many of them were contended.
COUNTS = {"timings": 0, "contended": 0}

_SETS = 64
_WAYS = 8
_ACCESSES = 6000


def kernel() -> int:
    """A fixed pure-Python LRU cache model over a fixed address stream."""
    tags = [[-1] * _WAYS for _ in range(_SETS)]
    stamps = [[0] * _WAYS for _ in range(_SETS)]
    where = {}
    hits = 0
    x = 12345
    for now in range(1, _ACCESSES + 1):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        block = (x >> 7) & 0x3FFF
        s = block & (_SETS - 1)
        way = where.get(block)
        if way is not None and tags[s][way] == block:
            hits += 1
        else:
            row = stamps[s]
            way = row.index(min(row))
            old = tags[s][way]
            if old >= 0:
                where.pop(old, None)
            tags[s][way] = block
            where[block] = way
        stamps[s][way] = now
    return hits


def pin_one_cpu() -> int:
    """Keep this process, and every thread and process it starts, on one
    CPU, so the kernel times the CPU the measured work runs on (the two
    vCPUs of this host drift independently)."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def tree_pids(pid: int) -> list:
    """``pid`` and all its descendants."""
    pids = []
    stack = [pid]
    while stack:
        current = stack.pop()
        pids.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    stack.extend(int(c) for c in handle.read().split())
        except (OSError, ValueError):
            continue
    return pids


def cpu_ns(pids) -> int:
    """CPU time run so far, in ns, by every thread of ``pids``."""
    total = 0
    for pid in pids:
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                    total += int(handle.read().split()[0])
            except (OSError, ValueError, IndexError):
                continue
    return total


def _program_cpu_s(children) -> float:
    """CPU seconds run so far by this process's other threads and by
    ``children``."""
    return (time.process_time() - time.thread_time()
            + cpu_ns(children) / 1e9)


def kernel_s() -> float:
    """Wall seconds of one kernel run, or NaN if it was contended: the
    program (this process's other threads, its descendant processes) ran
    for more than ``1 - MIN_CPU_SHARE`` of that time."""
    children = tree_pids(os.getpid())[1:]
    others = _program_cpu_s(children)
    start = time.perf_counter()
    kernel()
    wall = time.perf_counter() - start
    others = _program_cpu_s(children) - others
    COUNTS["timings"] += 1
    if others > (1 - MIN_CPU_SHARE) * wall:
        COUNTS["contended"] += 1
        return math.nan
    return wall


def factor_between(before_s: float, after_s: float) -> float:
    """Scale factor for an interval between two kernel timings. A
    contended timing is left out; if both were, the interval stays
    unscaled (factor 1)."""
    clean = [t for t in (before_s, after_s) if not math.isnan(t)]
    if not clean:
        return 1.0
    return NOMINAL_KERNEL_S / (sum(clean) / len(clean))


class HostClock:
    """Host-speed factors for consecutive timed intervals.

    Call :meth:`factor` right after each interval and multiply the
    interval by it: the kernel runs once per call, outside the interval,
    and each factor uses the kernel timings just before and just after
    its interval."""

    def __init__(self):
        self.last = kernel_s()

    def factor(self) -> float:
        now = kernel_s()
        factor = factor_between(self.last, now)
        self.last = now
        return factor

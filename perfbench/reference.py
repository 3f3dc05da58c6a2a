"""A host-speed gauge: a fixed computation that shares a CPU with the workload.

Usage (from ``run.py``)::

    python3 perfbench/reference.py <cpu>

Pins itself to ``<cpu>``, lowers its priority to nice 19 and runs a
fixed kernel in a loop.  Each line read on standard input is answered
with one line: the number of kernels completed so far and the CPU
seconds the process has used.  Kernels per CPU second over an interval
is the speed the host gave that CPU in the interval.

On a shared host the speed a process gets drifts by 2x over minutes and
by 20% within a second.  At nice 19, in the workload's session (so the
same scheduling group), the gauge gets a few per cent of the CPU in
slices of a few milliseconds spread over the whole interval, so it sees
the same host as the workload.  It imports nothing from the repository,
so no change to the program under test can make it faster or slower.
"""

from __future__ import annotations

import heapq
import os
import sys
import threading
import time

_completed = 0


def kernel() -> int:
    """A few microseconds of interpreter work like the simulator's: a
    small event heap and dict updates, on a working set that stays in
    cache."""
    heap = []
    for i in range(60):
        heapq.heappush(heap, (i * 7919) % 101)
    counts = {}
    while heap:
        v = heapq.heappop(heap)
        counts[v] = counts.get(v, 0) + 1
    return len(counts)


def _answer() -> None:
    for _ in sys.stdin:
        print(_completed, time.process_time(), flush=True)
    os._exit(0)


def main() -> int:
    global _completed
    os.sched_setaffinity(0, {int(sys.argv[1])})
    os.nice(19)
    threading.Thread(target=_answer, daemon=True).start()
    while True:
        kernel()
        _completed += 1


if __name__ == "__main__":
    sys.exit(main())

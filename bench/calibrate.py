"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared host the same replicate can take twice as long from one minute
to the next. The kernel does the kind of work the simulator and the counter
do (heap operations, string formatting and splitting, dict updates) and
uses no rollcall code, so a change to the program never changes its time.
The benchmark times it beside its own work and scales its rates to a host
on which the kernel takes exactly REFERENCE_S. Host slowdowns then cancel,
and changes to the program do not.
"""

from __future__ import annotations

import heapq
import time

REFERENCE_S = 0.010  # the kernel's time on the scale the rates are quoted at


def kernel() -> int:
    heap: list[tuple[int, int, str]] = []
    tally: dict[str, int] = {}
    for i in range(4000):
        heapq.heappush(heap, ((i * 7919) % 1000, i, f"REPORT CAL {i % 10} n{i:08d}"))
    while heap:
        at, _i, line = heapq.heappop(heap)
        nonce = line.split(" ")[3]
        tally[nonce] = tally.get(nonce, 0) + at
    return len(tally)


def host_factor() -> float:
    """Kernel time over REFERENCE_S: above 1 when the host runs slow."""
    started = time.perf_counter()
    kernel()
    return (time.perf_counter() - started) / REFERENCE_S

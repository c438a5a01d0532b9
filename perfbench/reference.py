"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark's host is a share of a busy machine: the same pure-Python
loop takes 60 ms in one second and 95 ms a few seconds later, and the
slow spells last long enough to move a whole run.  So the benchmark
times this kernel between ops and reports each op's time scaled to a
fixed reference speed: ``elapsed * REF_S / kernel time``, with the kernel
time taken as the mean of the samples just before and just after.

The kernel is a min-max Dijkstra over a small seeded grid, written here
and sharing no code with floodgraph, so no change to the program moves
it.  It runs with the garbage collector off and keeps a working set of a
few hundred kilobytes, so the program's heap does not slow it down.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

# Kernel time of one sample at the reference speed, a typical sample on a
# 2-vCPU x86-64 host under Python 3.11 (samples there ranged 4-7 ms).
# Scaled times are wall times at the speed where a sample takes this long.
REF_S = 0.005
SIDE = 40

_rng = random.Random(1305)
_WEIGHT = {(r, c): _rng.randrange(50) for r in range(SIDE) for c in range(SIDE)}
_NEIGHBOURS = {
    (r, c): [(r + dr, c + dc) for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
             if 0 <= r + dr < SIDE and 0 <= c + dc < SIDE]
    for r in range(SIDE) for c in range(SIDE)
}


def kernel() -> int:
    """Min-max path levels from one corner; returns the sum of the levels."""
    level: dict[tuple[int, int], int] = {}
    heap = [(_WEIGHT[0, 0], (0, 0))]
    while heap:
        value, node = heapq.heappop(heap)
        if node in level:
            continue
        level[node] = value
        for other in _NEIGHBOURS[node]:
            if other not in level:
                heapq.heappush(heap, (max(value, _WEIGHT[other]), other))
    return sum(level.values())


def sample() -> float:
    """The faster of two timed kernel runs, in seconds, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` seconds at the reference speed, given the samples around it."""
    return elapsed * REF_S / ((before + after) / 2)

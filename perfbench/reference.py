"""Fixed reference loop that gauges the host's current interpreter speed.

``run.py`` runs it right after each cell, once the cell's garbage is
collected, with the collector off, so the simulator's heap enters it
only through the one live result and no change to ``src/`` moves it.
"""

import gc
import heapq
import time

ITEMS = 2_000


class _Event:
    __slots__ = ("time", "seq", "tag")

    def __init__(self, time_, seq, tag):
        self.time, self.seq, self.tag = time_, seq, tag


def reference_loop() -> int:
    """Fixed interpreter work shaped like a discrete-event loop."""
    heap, tally = [], {}
    for i in range(ITEMS):
        event = _Event(i * 7919 % 10007, i, str(i & 255))
        heapq.heappush(heap, (event.time, event.seq, event))
        tally[event.tag] = tally.get(event.tag, 0) + 1
    total = 0
    while heap:
        total += heapq.heappop(heap)[0] & 7
    return total


def cpu_per_loop(budget: float) -> float:
    """CPU seconds per loop, over loops run for at least ``budget``."""
    gc.disable()
    try:
        loops, cpu0 = 0, time.process_time()
        while not loops or time.process_time() - cpu0 < budget:
            reference_loop()
            loops += 1
        return (time.process_time() - cpu0) / loops
    finally:
        gc.enable()

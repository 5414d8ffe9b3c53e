"""Discrete-event simulation kernel.

A small, fast, from-scratch, callback-only DES engine:

- :class:`~repro.sim.core.Simulator` — binary-heap event loop with
  deterministic FIFO tie-breaking for simultaneous events.  Periodic
  work (monitor periods, engine ticks, chaos drivers) is a callback
  that reschedules itself.
- :class:`~repro.sim.events.Event` — a one-shot waitable, used by
  :class:`~repro.sim.resources.Semaphore` to hand slots to waiters.
- :mod:`~repro.sim.resources` — semaphores, the virtual-time token
  bucket, and the O(1) "next-free-time"
  :class:`~repro.sim.resources.Pipeline` used to model NIC and CPU
  service stages.
- :mod:`~repro.sim.stats` — counters and latency reservoirs.
"""

from repro.sim.core import Simulator
from repro.sim.events import Event
from repro.sim.resources import Pipeline, Semaphore, TokenBucket
from repro.sim.stats import Counter, LatencyReservoir

__all__ = [
    "Counter",
    "Event",
    "LatencyReservoir",
    "Pipeline",
    "Semaphore",
    "Simulator",
    "TokenBucket",
]

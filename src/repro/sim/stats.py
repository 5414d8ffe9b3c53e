"""Measurement probes: counters and latency reservoirs.

These are deliberately simulation-agnostic containers; the experiment
harness decides what to record and when to reset for warm-up windows.
"""

from __future__ import annotations

import math
from typing import List


class Counter:
    """A monotonically increasing event counter with window support."""

    __slots__ = ("total", "_window_start")

    def __init__(self) -> None:
        self.total = 0
        self._window_start = 0

    def add(self, n: int = 1) -> None:
        """Count ``n`` more events."""
        self.total += n

    def mark_window(self) -> None:
        """Start a new measurement window at the current total."""
        self._window_start = self.total

    @property
    def in_window(self) -> int:
        """Events counted since the last :meth:`mark_window`."""
        return self.total - self._window_start


class LatencyReservoir:
    """Latency sample collector with percentile queries.

    Stores every sample up to ``max_samples``; past that, applies
    deterministic decimation (keeps every k-th sample) so percentile
    queries stay cheap and memory bounded while remaining reproducible.
    """

    def __init__(self, max_samples: int = 200_000):
        if max_samples < 100:
            raise ValueError("max_samples too small for meaningful percentiles")
        self.max_samples = max_samples
        self._samples: List[float] = []
        self._stride = 1
        self._skip = 0
        self.count = 0
        self._sum = 0.0

    def record(self, latency: float) -> None:
        """Record one latency sample (seconds)."""
        self.count += 1
        self._sum += latency
        self._skip += 1
        if self._skip >= self._stride:
            self._skip = 0
            self._samples.append(latency)
            if len(self._samples) >= self.max_samples:
                # Halve the resolution: keep every other retained sample.
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        """Mean over *all* recorded samples (not just retained ones)."""
        return self._sum / self.count if self.count else math.nan

    def percentile(self, pct: float) -> float:
        """The ``pct`` percentile (0-100) over retained samples."""
        if not self._samples:
            return math.nan
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        ordered = sorted(self._samples)
        rank = (pct / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(rank))
        hi = int(math.ceil(rank))
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1 - frac) + ordered[hi] * frac

    def summary(self) -> dict:
        """Mean / p99 / p99.9 in one dict (seconds)."""
        return {
            "mean": self.mean,
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
            "count": self.count,
        }

    def reset(self) -> None:
        """Drop all samples (start of measurement window)."""
        self._samples.clear()
        self._stride = 1
        self._skip = 0
        self.count = 0
        self._sum = 0.0

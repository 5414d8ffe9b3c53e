"""Per-layer host cost from one profiled run, grouped by ``repro.<package>``.

A layer is a package under ``src/repro`` (``sim``, ``rdma``, ``core``,
...).  Python functions belong to the layer of their file.  Builtins and
non-repro Python (the standard library) are charged to the layer that
called them, split by the self time each caller spent in them (the usual
call-graph-profiler assumption), except that ``heapq`` is always
charged to ``sim``, whose event heap it is.  Time the collector spends
in a pause is taken out of the layer that triggered it and reported as
``gc``.  Everything the profile cannot place (the benchmark's own
frames, profiler overhead, packages not in ``PACKAGES``) is ``other``.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import sys
import time
from collections import defaultdict
from typing import Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC_REPRO = os.path.join(os.path.dirname(HERE), "src", "repro") + os.sep

#: The packages of ``src/repro`` some workload enters; each gets
#: ``<pkg>.self_s`` and ``<pkg>.calls`` (zero on a workload that never
#: enters it).  Time in any other package lands in ``other``.
PACKAGES = (
    "cluster", "common", "core", "faults", "fluid", "globalqos", "hunt",
    "kvstore", "rdma", "sim", "telemetry", "tenancy", "workloads",
)

OTHER = "other"


class LayerProfiler:
    """cProfile plus collector callbacks, enabled around each cell."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.gc_collections = 0
        self.gc_pause = 0.0
        self.gc_by_layer: Dict[str, float] = defaultdict(float)
        self._gc_started = 0.0
        self._file_layer: Dict[str, Optional[str]] = {}

    def __enter__(self) -> "LayerProfiler":
        gc.callbacks.append(self._on_gc)
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        gc.callbacks.remove(self._on_gc)

    # -- collector pauses -------------------------------------------------
    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_started
        self.gc_collections += 1
        self.gc_pause += pause
        frame = sys._getframe(1)
        layer = None
        while frame is not None and layer is None:
            layer = self.layer_of(frame.f_code.co_filename)
            frame = frame.f_back
        self.gc_by_layer[layer or OTHER] += pause

    # -- attribution ------------------------------------------------------
    def layer_of(self, filename: str) -> Optional[str]:
        """The layer a file belongs to; None for code charged to callers."""
        try:
            return self._file_layer[filename]
        except KeyError:
            pass
        layer: Optional[str] = None
        if filename.startswith(SRC_REPRO):
            parts = filename[len(SRC_REPRO):].split(os.sep)
            layer = parts[0] if len(parts) > 1 else OTHER
        elif filename.startswith(HERE):
            layer = OTHER
        self._file_layer[filename] = layer
        return layer

    def _own_layer(self, func) -> Optional[str]:
        filename, _line, name = func
        if filename == "~":
            return "sim" if "heapq" in name else None
        return self.layer_of(filename)

    def attribute(self):
        """``(self_wall_by_layer, calls_by_layer, calls_by_function)``.

        Self time is in profiler (wall) seconds with collector pauses
        already removed; ``calls_by_function`` maps ``"file:name"``
        suffixes to call counts for the counters the benchmark reads.
        """
        stats = pstats.Stats(self.profile).stats
        shares: Dict[tuple, Dict[str, float]] = {}
        visiting = set()

        def share(func) -> Dict[str, float]:
            if func in shares:
                return shares[func]
            own = self._own_layer(func)
            if own is not None:
                shares[func] = {own: 1.0}
                return shares[func]
            if func in visiting or func not in stats:
                return {OTHER: 1.0}
            visiting.add(func)
            callers = stats[func][4]
            weights = {c: v[2] for c, v in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: v[1] for c, v in callers.items()}
                total = sum(weights.values())
            result: Dict[str, float] = defaultdict(float)
            if total <= 0:
                result[OTHER] = 1.0
            else:
                for caller, weight in weights.items():
                    for layer, part in share(caller).items():
                        result[layer] += part * weight / total
            visiting.discard(func)
            shares[func] = dict(result)
            return shares[func]

        self_wall: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        by_function: Dict[str, int] = {}
        for func, (_cc, nc, tt, _ct, _callers) in stats.items():
            for layer, part in share(func).items():
                self_wall[layer] += tt * part
            own = self._own_layer(func)
            if own is not None and func[0] != "~":
                calls[own] += nc
                key = f"{os.path.basename(func[0])}:{func[2]}"
                by_function[key] = by_function.get(key, 0) + nc
        for layer, pause in self.gc_by_layer.items():
            self_wall[layer] = max(0.0, self_wall[layer] - pause)
        return dict(self_wall), dict(calls), by_function

"""Workload trace recording and replay.

The paper's evaluation *replays* YCSB-generated 4 KB reads against the
data node.  This module makes that replay explicit and reproducible:

- :func:`record_trace` materializes a workload (key generator + timing
  model) into a list of timestamped :class:`TraceOp` entries;
- :func:`save_trace` / :func:`load_trace` persist traces as JSON lines
  so a run can be archived and replayed bit-identically elsewhere;
- :class:`TraceReplayApp` issues a trace against a submitter at the
  recorded timestamps (an open loop, like the constant-rate pattern).

Timestamps are relative to the replay start, so a trace recorded at
paper scale can be replayed under any time dilation by passing
``time_scale``.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Callable, Iterable, List, Optional

from repro.common.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class TraceOp:
    """One trace entry: when, what, where."""

    time: float  # seconds from trace start
    op: str  # "read" | "update" | "insert"
    key: int

    def to_json(self) -> str:
        """One JSON line."""
        return json.dumps({"t": self.time, "op": self.op, "key": self.key})

    @classmethod
    def from_json(cls, line: str) -> "TraceOp":
        """Parse one JSON line."""
        data = json.loads(line)
        return cls(time=float(data["t"]), op=str(data["op"]),
                   key=int(data["key"]))


def record_trace(
    workload,
    count: int,
    rate_ops: float,
) -> List[TraceOp]:
    """Materialize ``count`` ops from a YCSB workload at ``rate_ops``.

    Ops are evenly spaced (the constant-rate timing model); pass the
    result through :func:`jitter_trace` for exponential spacing.
    """
    if count < 1:
        raise ConfigError(f"count must be >= 1, got {count}")
    if rate_ops <= 0:
        raise ConfigError(f"rate_ops must be positive, got {rate_ops}")
    spacing = 1.0 / rate_ops
    return [
        TraceOp(time=i * spacing, op=op, key=key)
        for i, (op, key) in enumerate(workload.stream(count))
    ]


def jitter_trace(trace: Iterable[TraceOp], seed: int = 0) -> List[TraceOp]:
    """Re-space a trace with exponential (Poisson) inter-arrivals of the
    same mean rate — a more realistic open-loop arrival process."""
    from repro.common.rng import make_rng

    trace = list(trace)
    if len(trace) < 2:
        return trace
    mean_gap = (trace[-1].time - trace[0].time) / (len(trace) - 1)
    rng = make_rng(seed, "trace-jitter")
    out = []
    clock = trace[0].time
    for entry in trace:
        out.append(dataclasses.replace(entry, time=clock))
        clock += rng.expovariate(1.0 / mean_gap) if mean_gap > 0 else 0.0
    return out


def save_trace(trace: Iterable[TraceOp], path: str) -> int:
    """Write a trace as JSON lines; returns the entry count."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for entry in trace:
            fh.write(entry.to_json() + "\n")
            count += 1
    return count


def load_trace(path: str) -> List[TraceOp]:
    """Read a JSON-lines trace; validates monotone timestamps."""
    trace = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            entry = TraceOp.from_json(line)
            if trace and entry.time < trace[-1].time:
                raise ConfigError(
                    f"{path}:{line_no}: timestamps must be non-decreasing"
                )
            trace.append(entry)
    return trace


class TraceReplayApp:
    """Replays a trace against a submitter at its recorded timestamps.

    ``time_scale`` divides every timestamp (replaying a paper-scale
    trace under time dilation K means ``time_scale=K``).  Reads go
    through ``submit``; updates/inserts through ``submit_write`` when
    given, else they are counted as skipped.
    """

    def __init__(
        self,
        sim,
        trace: List[TraceOp],
        submit: Callable,
        submit_write: Optional[Callable] = None,
        time_scale: float = 1.0,
        on_complete: Optional[Callable] = None,
    ):
        if time_scale <= 0:
            raise ConfigError(f"time_scale must be positive, got {time_scale}")
        self.sim = sim
        self.trace = trace
        self.submit = submit
        self.submit_write = submit_write
        self.time_scale = time_scale
        self.on_complete = on_complete
        self.issued = 0
        self.completed = 0
        self.skipped_writes = 0
        self.in_flight = 0
        self._completion_cb = self._completed  # bound once, not per I/O
        start = sim.now
        for entry in trace:
            sim.schedule_at(start + entry.time / time_scale,
                            self._fire, entry)

    @property
    def done(self) -> bool:
        """True when every issued op has completed."""
        return self.issued == len(self.trace) - self.skipped_writes \
            and self.in_flight == 0

    def _fire(self, entry: TraceOp) -> None:
        if entry.op != "read" and self.submit_write is None:
            self.skipped_writes += 1
            return
        self.issued += 1
        self.in_flight += 1
        submit = self.submit if entry.op == "read" else self.submit_write
        submit(entry.key, self._completion_cb)

    def _completed(self, ok: bool, _value, latency: float) -> None:
        self.in_flight -= 1
        self.completed += 1
        if self.on_complete is not None:
            self.on_complete(ok, latency)

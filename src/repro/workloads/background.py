"""Background (congestion) traffic outside Haechi's domain.

The paper's Set-4 experiments inject network load the QoS monitor
cannot see: burst I/Os from jobs that hold no tokens.  A
:class:`BackgroundJob` drives a closed loop of one-sided reads against
the data node during configurable active windows, consuming target-NIC
capacity and thereby shifting the capacity available to Haechi clients.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.workloads.patterns import BURST_WINDOW


class BackgroundJob:
    """A token-less traffic source with an on/off schedule.

    Two injection modes:

    - closed loop (default): keeps ``window`` burst I/Os outstanding
      while active, grabbing whatever share NIC arbitration yields;
    - rate-controlled (``rate_ops`` set): issues one-sided reads at a
      fixed rate while active, consuming a *known* slice of data-node
      capacity — the mode the Set-4 benches use so the induced capacity
      shift is a controlled parameter.
    """

    def __init__(
        self,
        sim,
        kv,
        schedule: List[Tuple[float, float]],
        window: int = BURST_WINDOW,
        rate_ops: Optional[float] = None,
        key: int = 0,
    ):
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        if rate_ops is not None and rate_ops <= 0:
            raise ConfigError(f"rate_ops must be positive, got {rate_ops}")
        for start, end in schedule:
            if end <= start:
                raise ConfigError(f"bad active window ({start}, {end})")
        self.sim = sim
        self.kv = kv
        self.window = window
        self.rate_ops = rate_ops
        self.key = key
        self.active = False
        self.in_flight = 0
        self.total_completed = 0
        self._epoch = 0  # invalidates stale rate ticks across windows
        self._completion_cb = self._completed  # bound once, not per I/O
        for start, end in schedule:
            sim.schedule_at(max(start, sim.now), self._activate)
            sim.schedule_at(max(end, sim.now), self._deactivate)

    def _activate(self) -> None:
        self.active = True
        self._epoch += 1
        if self.rate_ops is None:
            self._pump()
        else:
            self._rate_tick(self._epoch)

    def _deactivate(self) -> None:
        self.active = False  # in-flight I/Os drain without reissue

    # -- closed loop ----------------------------------------------------
    def _pump(self) -> None:
        while self.active and self.in_flight < self.window:
            self._issue()

    def _completed(self, _ok: bool, _value, _latency: float) -> None:
        self.in_flight -= 1
        self.total_completed += 1
        if self.rate_ops is None:
            self._pump()

    # -- rate controlled -------------------------------------------------
    def _rate_tick(self, epoch: int) -> None:
        if not self.active or epoch != self._epoch:
            return
        self._issue()
        self.sim.schedule(1.0 / self.rate_ops, self._rate_tick, epoch)

    def _issue(self) -> None:
        self.in_flight += 1
        self.kv.get_onesided(self.key, self._completion_cb, touch_memory=False)

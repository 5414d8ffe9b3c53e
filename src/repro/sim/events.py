"""The one waitable of the DES kernel.

An :class:`Event` is a one-shot waitable: callbacks registered before it
triggers run (in registration order) when it does.  The kernel is
callback-only; an event is how :class:`~repro.sim.resources.Semaphore`
passes a slot to a parked waiter (the fabric model's send-queue depth,
:mod:`repro.rdma.cc`).

Events deliberately carry very little state (``__slots__``) because the
RDMA hot path allocates one per posted work request.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional


class Event:
    """A one-shot waitable.

    The lifecycle is: *pending* -> ``succeed(value)`` or ``fail(exc)`` ->
    callbacks run.  Triggering twice is a programming error and raises
    :class:`RuntimeError`.
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "triggered")

    def __init__(self, sim: "Simulator"):  # noqa: F821 (forward ref)
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self.triggered = False

    @property
    def value(self) -> Any:
        """The success value (``None`` until triggered)."""
        return self._value

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exc is None

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, if the event failed."""
        return self._exc

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event triggers.

        If the event has already triggered, ``fn`` runs immediately.
        """
        if self.triggered:
            fn(self)
        else:
            self.callbacks.append(fn)

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        self._trigger(value, None)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event as failed with ``exc``."""
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._trigger(None, exc)
        return self

    def _trigger(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self._value = value
        self._exc = exc
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:
            fn(self)

"""The KV client: one-sided and two-sided GET/PUT paths."""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Optional

from repro.common.errors import StoreError
from repro.common.types import OpType
from repro.kvstore import protocol
from repro.kvstore.records import RecordLayout, decode_record, encode_record
from repro.rdma.dispatch import CompletionRouter, TypeDispatcher
from repro.rdma.qp import QueuePair
from repro.rdma.verbs import WCStatus, WorkCompletion, WorkRequest

# Completion callbacks receive (ok, value, latency_seconds).
IOCallback = Callable[[bool, object, float], None]


class KVClient:
    """Client-side access to a remote :class:`~repro.kvstore.server.DataNode`.

    One-sided operations translate a key to a remote slot address using
    the locally known :class:`RecordLayout` and issue a single RDMA
    READ/WRITE — the data node CPU is never involved.  Two-sided
    operations send an RPC and wait for the server's response message.

    The layout is obtained with :meth:`connect` (a two-sided handshake)
    or injected directly by the cluster builder.
    """

    def __init__(
        self,
        name: str,
        qp: QueuePair,
        dispatcher: TypeDispatcher,
        layout: Optional[RecordLayout] = None,
        data_rkey: Optional[int] = None,
        rpc_deadline: Optional[float] = None,
    ):
        self.name = name
        self.qp = qp
        self.sim = qp.sim
        self.router = CompletionRouter(qp.cq)
        self.layout = layout
        self.data_rkey = data_rkey
        # Per-op deadline for two-sided RPCs: a request whose response
        # never arrives (dropped SEND, crashed server) is swept at
        # posted_at + rpc_deadline and fails through its own callback
        # instead of leaking the pending entry and hanging the caller.
        # None disables sweeping (trusted fault-free deployments only).
        self.rpc_deadline = rpc_deadline
        self.rpcs_timed_out = 0
        # Tenancy attribution tag: a bound TenantHierarchy stamps the
        # owning tenant here so traces and rollups can attribute
        # one-sided I/O without a per-op lookup.  None when no
        # hierarchy is configured.
        self.tenant: Optional[str] = None
        self._req_ids = itertools.count(1)
        self._pending_rpcs: Dict[int, tuple] = {}  # req_id -> (callback, posted_at)
        dispatcher.register(protocol.GetResponse, self._on_get_response)
        dispatcher.register(protocol.PutResponse, self._on_put_response)
        dispatcher.register(protocol.ConnectResponse, self._on_connect_response)
        self._connect_callback: Optional[Callable] = None
        # One-sided completion handlers, bound once: every GET/PUT WR
        # points at one of these (see get_onesided_wr).
        self._io_handler = self._finish_io
        self._checked_read_handler = self._finish_read_checked

    # ------------------------------------------------------------------
    # Connection handshake
    # ------------------------------------------------------------------
    def connect(self, on_connected: Callable[[], None]) -> None:
        """Fetch the store layout from the server, then call back."""
        self._connect_callback = on_connected
        wr = WorkRequest(
            opcode=OpType.SEND,
            payload=protocol.ConnectRequest(client_name=self.name),
            size=protocol.GET_REQUEST_SIZE,
        )
        self.qp.post_send(wr)

    def _on_connect_response(self, msg: protocol.ConnectResponse, _reply_qp) -> None:
        self.layout = RecordLayout(
            base_addr=msg.base_addr,
            num_slots=msg.num_slots,
            slot_size=msg.slot_size,
        )
        self.data_rkey = msg.data_rkey
        callback, self._connect_callback = self._connect_callback, None
        if callback is not None:
            callback()

    def _require_layout(self) -> RecordLayout:
        if self.layout is None or self.data_rkey is None:
            raise StoreError(f"client {self.name} is not connected (no layout)")
        return self.layout

    # ------------------------------------------------------------------
    # One-sided path
    # ------------------------------------------------------------------
    def get_onesided(
        self, key: int, on_complete: IOCallback, touch_memory: bool = True,
        span=None, sample: bool = True,
    ) -> int:
        """Fetch the record for ``key`` with a single RDMA READ.

        ``span`` attaches an existing telemetry span (the engine passes
        its own, already carrying the queueing stage); with
        ``sample=True`` and no span, the client samples one from the
        attached telemetry hub, so bare (QoS-less) callers are traced
        too.
        """
        wr = self.get_onesided_wr(key, on_complete, touch_memory, span)
        if span is None and sample:
            telemetry = self.sim.telemetry
            if telemetry is not None:
                wr.span = telemetry.data_span("onesided_read", self.name, key)
        return self.qp.post_send(wr)

    def get_onesided_wr(
        self, key: int, on_complete: IOCallback, touch_memory: bool = True,
        span=None, on_completion: Optional[Callable] = None,
    ) -> WorkRequest:
        """Build (but do not post) the READ work request for ``key``.

        The WR carries ``on_complete`` as its ``context`` and this
        client's completion handler (bound once, in ``__init__``) as its
        ``on_completion``, so a GET allocates no per-op closure.  A
        caller that wraps completions (the QoS engine) passes its own
        ``on_completion`` handler; it receives the WorkCompletion,
        ``on_complete`` included as ``wc.context``, and translates it
        with :meth:`read_result`.  The chain-mode engine path hands
        unposted WRs to ``QueuePair.post_chain``.
        """
        layout = self._require_layout()
        if on_completion is None:
            on_completion = (self._checked_read_handler if touch_memory
                             else self._io_handler)
        return WorkRequest(
            opcode=OpType.READ,
            size=layout.slot_size,
            remote_addr=layout.slot_addr(key),
            rkey=self.data_rkey,
            touch_memory=touch_memory,
            span=span,
            on_completion=on_completion,
            context=on_complete,
        )

    def read_result(self, wc: WorkCompletion) -> tuple:
        """``(ok, value, latency)`` of a touch-memory READ completion.

        ``value`` is ``(version, payload)`` on success, else the error.
        The slot image must hold the key the READ addressed (or 0, an
        unmaterialized store); the key is recovered from the echoed
        ``remote_addr`` through this client's layout.
        """
        latency = wc.completed_at - wc.posted_at
        if wc.status is not WCStatus.SUCCESS:
            return False, wc.error, latency
        slot_key, version, payload = decode_record(wc.value)
        layout = self.layout
        key = (wc.remote_addr - layout.base_addr) // layout.slot_size
        if slot_key not in (key, 0):  # 0 = unmaterialized store
            return False, f"bad slot key {slot_key}", latency
        return True, (version, payload), latency

    # Per-client completion handlers; the caller's callback is the WR
    # context.  _finish_io serves WRITEs and timing-only READs (every
    # bulk benchmark); wc.ok/wc.latency are Python-level properties, so
    # it reads status and timestamps directly.
    def _finish_io(self, wc: WorkCompletion) -> None:
        latency = wc.completed_at - wc.posted_at
        if wc.status is WCStatus.SUCCESS:
            wc.context(True, None, latency)
        else:
            wc.context(False, wc.error, latency)

    def _finish_read_checked(self, wc: WorkCompletion) -> None:
        ok, value, latency = self.read_result(wc)
        wc.context(ok, value, latency)

    def put_onesided(
        self,
        key: int,
        payload: Optional[bytes],
        on_complete: IOCallback,
        touch_memory: bool = True,
        span=None,
        sample: bool = True,
    ) -> int:
        """Overwrite the record for ``key`` with a single RDMA WRITE.

        With ``touch_memory=False`` the write is timing-only and
        ``payload`` may be None.
        """
        layout = self._require_layout()
        data = None
        if touch_memory:
            if payload is None:
                raise StoreError("put_onesided with touch_memory requires a payload")
            data = encode_record(key, version=0, payload=payload)
        if span is None and sample:
            telemetry = self.sim.telemetry
            if telemetry is not None:
                span = telemetry.data_span("onesided_write", self.name, key)
        wr = WorkRequest(
            opcode=OpType.WRITE,
            size=layout.slot_size,
            remote_addr=layout.slot_addr(key),
            rkey=self.data_rkey,
            payload=data,
            touch_memory=touch_memory,
            span=span,
            on_completion=self._io_handler,
            context=on_complete,
        )
        return self.qp.post_send(wr)

    # ------------------------------------------------------------------
    # Two-sided path
    # ------------------------------------------------------------------
    def get_twosided(self, key: int, on_complete: IOCallback,
                     span=None, sample: bool = True) -> int:
        """Fetch the record for ``key`` via a server-CPU RPC."""
        req_id = next(self._req_ids)
        if span is None and sample:
            telemetry = self.sim.telemetry
            if telemetry is not None:
                span = telemetry.data_span("twosided_get", self.name, key)
        self._track_rpc(req_id, on_complete, span)
        wr = WorkRequest(
            opcode=OpType.SEND,
            payload=protocol.GetRequest(req_id=req_id, key=key, span=span),
            size=protocol.GET_REQUEST_SIZE,
            span=span,
        )
        self.qp.post_send(wr)
        return req_id

    def put_twosided(
        self,
        key: int,
        payload: bytes,
        on_complete: IOCallback,
        client_version: int = 0,
        span=None,
        sample: bool = True,
    ) -> int:
        """Store ``payload`` under ``key`` via a server-CPU RPC.

        A ``client_version`` > 0 makes the request idempotent
        server-side, so a retry after a timeout cannot double-apply.
        """
        req_id = next(self._req_ids)
        if span is None and sample:
            telemetry = self.sim.telemetry
            if telemetry is not None:
                span = telemetry.data_span("twosided_put", self.name, key)
        self._track_rpc(req_id, on_complete, span)
        wr = WorkRequest(
            opcode=OpType.SEND,
            payload=protocol.PutRequest(
                req_id=req_id, key=key, payload=payload,
                client_id=self.name, client_version=client_version,
                span=span,
            ),
            size=protocol.PUT_REQUEST_HEADER_SIZE + len(payload),
            span=span,
        )
        self.qp.post_send(wr)
        return req_id

    @property
    def pending_rpc_count(self) -> int:
        """Two-sided requests still waiting for a response."""
        return len(self._pending_rpcs)

    def _track_rpc(self, req_id: int, on_complete: IOCallback,
                   span=None) -> None:
        self._pending_rpcs[req_id] = (on_complete, self.sim.now, span)
        if self.rpc_deadline is not None:
            self.sim.schedule(self.rpc_deadline, self._sweep_rpc, req_id)

    def _sweep_rpc(self, req_id: int) -> None:
        """Fail an RPC whose response never arrived (deadline passed)."""
        entry = self._pending_rpcs.pop(req_id, None)
        if entry is None:
            return  # the response made it in time
        callback, posted_at, span = entry
        if span is not None:
            span.finish(self.sim.now, ok=False, error="rpc deadline exceeded")
        self.rpcs_timed_out += 1
        callback(False, "rpc deadline exceeded", self.sim.now - posted_at)

    def _on_get_response(self, msg: protocol.GetResponse, _reply_qp) -> None:
        entry = self._pending_rpcs.pop(msg.req_id, None)
        if entry is None:
            return
        callback, posted_at, span = entry
        if span is not None:
            span.finish(self.sim.now, ok=True)
        callback(True, (msg.version, msg.payload), self.sim.now - posted_at)

    def _on_put_response(self, msg: protocol.PutResponse, _reply_qp) -> None:
        entry = self._pending_rpcs.pop(msg.req_id, None)
        if entry is None:
            return
        callback, posted_at, span = entry
        if span is not None:
            span.finish(self.sim.now, ok=True)
        callback(True, msg.version, self.sim.now - posted_at)

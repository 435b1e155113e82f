"""A bounded pool of :class:`~repro.server.client.StoreClient`\\ s.

Threads borrow a connected client with :meth:`ClientPool.acquire` (a
context manager); the pool lazily dials up to ``size`` connections and
blocks further borrowers until one is returned — the client-side mirror
of the server's bounded connection count.  A client whose borrow ended
in a transport error is discarded and replaced on the next acquire, so
one torn connection never poisons the pool.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager

from repro.errors import ProtocolError, StoreError
from repro.obs.metrics import MetricsRegistry
from repro.server.client import StoreClient


class ClientPool:
    def __init__(self, host: str, port: int, size: int = 4,
                 branch: str = "main", timeout: float = 30.0,
                 metrics: MetricsRegistry | None = None):
        if size < 1:
            raise StoreError("pool size must be at least 1")
        self.host = host
        self.port = port
        self.size = size
        self.branch = branch
        self.timeout = timeout
        self._slots: queue.Queue = queue.Queue()
        for _ in range(size):
            self._slots.put(None)  # None = permission to dial
        self._lock = threading.Lock()
        self._open: list[StoreClient] = []
        self._closed = False
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_evicted = self.metrics.counter("pool.evicted")
        self._c_dials = self.metrics.counter("pool.dials")
        self._c_discards = self.metrics.counter("pool.discards")

    def _dial(self) -> StoreClient:
        client = StoreClient(self.host, self.port, branch=self.branch,
                             timeout=self.timeout)
        self._c_dials.inc()
        with self._lock:
            self._open.append(client)
        return client

    @contextmanager
    def acquire(self):
        """Borrow a client; returns it to the pool on clean exit,
        discards it (freeing the slot for a fresh dial) when the block
        raised a transport error.

        A pooled client is validated before it is handed out
        (:meth:`StoreClient.is_stale` — one non-blocking peek, no
        round trip): a connection whose socket died while idle (server
        restart, idle-timeout close, network partition) is silently
        evicted and replaced by a fresh dial instead of surfacing a
        stale-socket error to the borrower."""
        if self._closed:
            raise StoreError("pool is closed")
        slot = self._slots.get()
        if slot is not None and slot.is_stale():
            self._discard(slot)
            self._c_evicted.inc()
            slot = None
        if slot is None:
            try:
                slot = self._dial()
            except BaseException:
                # A failed dial must not consume the slot, or a down
                # server would permanently shrink the pool and
                # eventually deadlock every borrower.
                self._slots.put(None)
                raise
        client = slot
        try:
            yield client
        except (ProtocolError, OSError):
            self._discard(client)
            self._slots.put(None)
            raise
        else:
            self._slots.put(client)

    def _discard(self, client: StoreClient) -> None:
        self._c_discards.inc()
        with self._lock:
            if client in self._open:
                self._open.remove(client)
        client.close()

    def close(self) -> None:
        self._closed = True
        with self._lock:
            clients, self._open = self._open, []
        for client in clients:
            client.close()

    def __enter__(self) -> "ClientPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

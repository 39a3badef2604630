"""In-process transport: per-node mailboxes with wire-level accounting.

Each registered node owns a :class:`queue.Queue` mailbox.  ``send`` enqueues
a message and bumps the message counter; ``request`` additionally blocks on
a private reply queue.  Counting happens at the transport, so the message
totals of Figures 14-15 are *observed*, not computed.

Everything but the mailbox registry lives in
:class:`~repro.net.reliability.Transport`, shared with the TCP transport:
the counters, the fault boundary (every send passes through a
:class:`~repro.faults.injector.FaultInjector`, which may drop, delay or
duplicate the message) and bounded retry with exponential backoff +
jitter (:class:`~repro.faults.retry.RetryPolicy`).  Timeout and backoff
penalties are charged to the retried message's *virtual* arrival time,
so recovery costs show up in the latency figures without slowing the
real clock.
"""

from __future__ import annotations

import queue
from typing import Dict, List

from repro.net.reliability import GatherResult, Transport, TransportClosed
from repro.prototype.messages import Message

__all__ = ["GatherResult", "InProcessTransport", "TransportClosed"]


class InProcessTransport(Transport):
    """Registry of node mailboxes; counters, fault verdicts and retry
    come from :class:`~repro.net.reliability.Transport` (same
    parameters)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._mailboxes: Dict[int, "queue.Queue[Message]"] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, node_id: int) -> "queue.Queue[Message]":
        with self._lock:
            if node_id in self._mailboxes:
                raise ValueError(f"node {node_id} already registered")
            mailbox: "queue.Queue[Message]" = queue.Queue()
            self._mailboxes[node_id] = mailbox
            return mailbox

    def deregister(self, node_id: int) -> None:
        with self._lock:
            self._mailboxes.pop(node_id, None)

    def node_ids(self) -> List[int]:
        with self._lock:
            return sorted(self._mailboxes)

    def __contains__(self, node_id: int) -> bool:
        with self._lock:
            return node_id in self._mailboxes

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _resolve(self, dest: int) -> "queue.Queue[Message]":
        mailbox = self._mailboxes.get(dest)
        if mailbox is None:
            raise TransportClosed(f"node {dest} is not registered")
        return mailbox

    def _deliver(
        self, mailbox: "queue.Queue[Message]", message: Message, copies: int
    ) -> None:
        for _ in range(copies):
            mailbox.put(message)

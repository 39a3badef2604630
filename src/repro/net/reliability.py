"""Transport-agnostic reliability: the shared :class:`Transport` base,
bounded retry with backoff, partial multicast results, and the shared
unreachable-peer vocabulary.

Both transports (:class:`~repro.prototype.transport.InProcessTransport`
and :class:`~repro.net.tcp.TcpTransport`) subclass :class:`Transport`,
which owns everything they have in common: the four wire counters
(``messages_sent``, ``replies_received``, ``retries``, ``exhausted``),
the fault-injector verdict in ``send`` (drop / delay / duplicate), the
``transport_retry*`` metric families, ``request`` / ``gather``, and the
wire-adapter surface the retry drivers below call:

``dispatch_attempt(dest, message, count)``
    Arm the reply path and put one attempt on the wire.  Returns True
    when the attempt was delivered, False when the fault layer is known
    to have dropped it (the driver then skips the real-clock wait), and
    raises :class:`TransportClosed` when the destination is gone.
``collect_reply(message, timeout_s)``
    Block up to ``timeout_s`` for the attempt's reply; None on timeout.
``reply_received(count)``
    Accounting hook: one reply arrived (``count=False`` for harness
    pings that stay off the wire totals).
``retry_attempt(message, backoff_s)``
    Build the re-sent attempt (fresh copy, later virtual arrival).
``next_backoff(retry_index)``
    Draw the next backoff from the policy (the transport owns the seeded
    RNG so instrumenting one transport never perturbs another).
``note_retry(backoff_s)`` / ``note_exhausted(count)``
    Counter hooks.

A subclass supplies only where a message goes: ``_resolve(dest)``
(find the destination or raise :class:`TransportClosed`; called with
the counter lock held, *before* the send is counted) and
``_deliver(target, message, copies)`` (hand ``copies`` copies to the
destination; may still raise :class:`TransportClosed`, *after* the
send was counted).  The counters and the fault boundary are therefore
the same on both transports by construction.

:func:`reliable_request` / :func:`reliable_gather` stay free functions
over any object with the adapter surface.  They reproduce the original
in-process loop *exactly* — attempt ordering, one backoff draw per retry
wave, shared per-wave gather deadline — so the retry/exhausted totals
under a seeded fault plan are pinned by a regression test.
"""

from __future__ import annotations

import dataclasses
import queue
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.faults.injector import FaultInjector, NULL_INJECTOR
from repro.faults.retry import DEFAULT_RETRY, RetryPolicy


class TransportClosed(Exception):
    """Raised when sending to a deregistered or unreachable node."""


@dataclass
class GatherResult:
    """Outcome of one multicast: what answered, what did not.

    A missing destination is *not* an error: callers degrade (fall back to
    a wider broadcast, proceed with partial coverage) instead of aborting.

    Attributes
    ----------
    replies:
        ``{dest: reply}`` for every destination that answered.
    missing:
        Destinations that never replied within the retry budget.
    unreachable:
        Destinations whose endpoint is gone (crashed / deregistered
        nodes in-process, connection-refused peers over TCP).
    """

    replies: Dict[int, object] = field(default_factory=dict)
    missing: Tuple[int, ...] = ()
    unreachable: Tuple[int, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.missing and not self.unreachable

    def __len__(self) -> int:
        return len(self.replies)


def reliable_request(
    wire,
    policy: RetryPolicy,
    dest: int,
    message,
    timeout_s: float,
    count: bool = True,
):
    """Send one request with bounded retry; return the reply.

    Raises :class:`TimeoutError` once the attempt budget is exhausted and
    propagates :class:`TransportClosed` from the wire (a vanished
    destination is a different failure than a silent one).
    """
    attempt = message
    for index in range(policy.max_attempts):
        delivered = wire.dispatch_attempt(dest, attempt, count)
        reply = None
        if delivered:
            reply = wire.collect_reply(attempt, timeout_s)
        if reply is not None:
            wire.reply_received(count)
            return reply
        if index + 1 >= policy.max_attempts:
            break
        backoff = wire.next_backoff(index)
        wire.note_retry(backoff)
        attempt = wire.retry_attempt(attempt, backoff)
    wire.note_exhausted(1)
    raise TimeoutError(
        f"no reply from node {dest} for {message.kind.value} "
        f"(request {message.request_id}) after "
        f"{policy.max_attempts} attempt(s)"
    )


def reliable_gather(
    wire,
    policy: RetryPolicy,
    dests: Iterable[int],
    build_message: Callable[[int], object],
    timeout_s: float,
) -> GatherResult:
    """Multicast with per-wave shared deadline and bounded retry.

    All destinations of one attempt wave share a single deadline — the
    total real wait is bounded by ``timeout_s`` per wave, not
    ``len(dests) x timeout_s`` — and destinations that stay silent are
    retried with backoff.  Unreachable destinations (wire raised
    :class:`TransportClosed`) are reported, never raised.
    """
    replies: Dict[int, object] = {}
    unreachable: List[int] = []
    # dest -> (in-flight message, delivered?)
    pending: Dict[int, Tuple[object, bool]] = {}

    def dispatch(dest: int, message) -> None:
        try:
            delivered = wire.dispatch_attempt(dest, message, True)
        except TransportClosed:
            unreachable.append(dest)
            return
        pending[dest] = (message, delivered)

    for dest in dests:
        dispatch(dest, build_message(dest))

    for index in range(policy.max_attempts):
        # Collect this wave against one shared deadline.  Replies land
        # concurrently in per-dest reply paths, so draining them one by
        # one against the common deadline still bounds the total wait.
        deadline = time.monotonic() + timeout_s
        for dest in list(pending):
            message, delivered = pending[dest]
            if not delivered:
                continue  # known-dropped: no reply will ever come
            remaining = deadline - time.monotonic()
            reply = wire.collect_reply(message, max(0.0, remaining))
            if reply is None:
                continue
            replies[dest] = reply
            del pending[dest]
            wire.reply_received(True)
        if not pending or index + 1 >= policy.max_attempts:
            break
        backoff = wire.next_backoff(index)
        for dest in sorted(pending):
            message, _ = pending.pop(dest)
            wire.note_retry(backoff)
            dispatch(dest, wire.retry_attempt(message, backoff))

    if pending:
        wire.note_exhausted(len(pending))
    return GatherResult(
        replies=replies,
        missing=tuple(sorted(pending)),
        unreachable=tuple(sorted(unreachable)),
    )


class Transport:
    """Counters, fault boundary and retry surface shared by both transports.

    Parameters
    ----------
    default_timeout_s:
        Real-clock wait per request attempt when no explicit timeout is
        given.
    injector:
        Fault layer consulted on every send; defaults to the zero-overhead
        :data:`~repro.faults.injector.NULL_INJECTOR`.
    retry:
        Retry/backoff policy for ``request`` and ``gather``.
    metrics:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when given,
        retries and exhaustions become counters and backoffs a histogram.
    """

    def __init__(
        self,
        default_timeout_s: float = 30.0,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
        metrics=None,
    ) -> None:
        self._lock = threading.Lock()
        self._default_timeout = default_timeout_s
        self.injector: FaultInjector = (
            injector if injector is not None else NULL_INJECTOR
        )
        self.retry: RetryPolicy = retry if retry is not None else DEFAULT_RETRY
        # Jitter draws are seeded so a seeded soak reproduces its backoffs.
        self._retry_rng = random.Random(0)
        self._messages_sent = 0
        self._replies_received = 0
        self._retries = 0
        self._exhausted = 0
        self._retries_counter = None
        self._exhausted_counter = None
        self._backoff_hist = None
        if metrics is not None:
            self._retries_counter = metrics.counter(
                "transport_retries_total",
                "Request attempts re-sent after a reply timed out.",
            )
            self._exhausted_counter = metrics.counter(
                "transport_retry_exhausted_total",
                "Requests/multicast legs that ran out of retry attempts.",
            )
            self._backoff_hist = metrics.histogram(
                "transport_retry_backoff_ms",
                "Backoff (virtual milliseconds) charged before each retry.",
            ).labels()

    # ------------------------------------------------------------------
    # Destination hooks (per transport)
    # ------------------------------------------------------------------
    def _resolve(self, dest: int):
        """Return the delivery target for ``dest`` or raise
        :class:`TransportClosed`.  Called with ``self._lock`` held."""
        raise NotImplementedError

    def _deliver(self, target, message, copies: int) -> None:
        """Hand ``copies`` copies of ``message`` to ``target``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def messages_sent(self) -> int:
        with self._lock:
            return self._messages_sent

    @property
    def replies_received(self) -> int:
        with self._lock:
            return self._replies_received

    @property
    def retries(self) -> int:
        with self._lock:
            return self._retries

    @property
    def exhausted(self) -> int:
        with self._lock:
            return self._exhausted

    def reset_counters(self) -> None:
        with self._lock:
            self._messages_sent = 0
            self._replies_received = 0
            self._retries = 0
            self._exhausted = 0

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dest: int, message, count: bool = True) -> bool:
        """One-way send (counted as one message unless ``count=False``,
        which is reserved for harness-level synchronization pings).

        Returns True when the message was handed to the destination;
        False when the fault layer dropped it.  A dropped message still
        counts as sent — it went on the wire and vanished there.
        """
        with self._lock:
            target = self._resolve(dest)
            if count:
                self._messages_sent += 1
        copies = 1
        if self.injector.enabled:
            verdict = self.injector.on_send(dest, message)
            if not verdict.deliver:
                return False
            if verdict.delay_s:
                message.arrival_vtime += verdict.delay_s
            copies = verdict.copies
        self._deliver(target, message, copies)
        return True

    def request(
        self,
        dest: int,
        message,
        timeout_s: Optional[float] = None,
        count: bool = True,
    ):
        """Send and block for the reply (request + reply = 2 messages).

        A lost reply is retried up to ``retry.max_attempts`` total sends
        with exponential backoff; :class:`TimeoutError` is raised only
        once the budget is exhausted.  Messages the fault layer is known
        to have dropped skip the real-clock wait — the timeout is charged
        to the retry's virtual arrival time instead.
        """
        timeout = timeout_s if timeout_s is not None else self._default_timeout
        return reliable_request(self, self.retry, dest, message, timeout, count)

    def gather(
        self,
        dests: Iterable[int],
        build_message: Callable[[int], object],
        timeout_s: Optional[float] = None,
    ) -> GatherResult:
        """Multicast: send to every dest, then gather whatever replies.

        ``build_message(dest)`` constructs each request (so every request
        carries its own reply queue).  All destinations share one deadline
        per attempt wave — total real wait is bounded by the timeout, not
        ``len(dests) × timeout`` — and destinations that stay silent are
        retried with backoff.  The result carries the collected replies
        *plus* the set of silent/unreachable destinations, so callers can
        degrade (e.g. escalate to the global broadcast) instead of
        aborting and discarding replies already received.
        """
        timeout = timeout_s if timeout_s is not None else self._default_timeout
        return reliable_gather(self, self.retry, dests, build_message, timeout)

    # ------------------------------------------------------------------
    # Wire adapter driven by reliable_request / reliable_gather
    # ------------------------------------------------------------------
    def dispatch_attempt(self, dest: int, message, count: bool) -> bool:
        """Arm a fresh reply queue and put one attempt on the wire."""
        message.reply_to = queue.Queue()
        return self.send(dest, message, count=count)

    def collect_reply(self, message, timeout_s: float):
        try:
            return message.reply_to.get(timeout=timeout_s)
        except queue.Empty:
            return None

    def reply_received(self, count: bool) -> None:
        with self._lock:
            if count:
                self._messages_sent += 1  # the reply on the wire
            self._replies_received += 1

    def next_backoff(self, retry_index: int) -> float:
        with self._lock:
            return self.retry.backoff_s(retry_index, self._retry_rng)

    def note_retry(self, backoff_s: float) -> None:
        with self._lock:
            self._retries += 1
        if self._retries_counter is not None:
            self._retries_counter.inc()
            self._backoff_hist.observe(backoff_s * 1000.0)

    def note_exhausted(self, count: int) -> None:
        with self._lock:
            self._exhausted += count
        if self._exhausted_counter is not None:
            self._exhausted_counter.inc(count)

    def retry_attempt(self, message, backoff_s: float):
        """The re-sent attempt: same request, later virtual arrival.

        The failed attempt's timeout and the backoff are virtual-clock
        costs (the client *waited* that long before re-sending).
        """
        return dataclasses.replace(
            message,
            reply_to=None,
            arrival_vtime=message.arrival_vtime + self.retry.timeout_s + backoff_s,
        )

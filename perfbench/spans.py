"""Outside-in span recording for the traced benchmark run.

The program carries no instrumentation of its own.  For the traced run
the benchmark replaces selected public functions of each layer with
wrappers that open a span around the call.  A span carries its name,
start, end and parent (the innermost span open on the caller thread).
A layer's *self time* is its span's duration minus the part of that
interval its child spans cover; summed by name, self times partition the
root span's wall time exactly.

Spans opened on another thread (the TCP transport decodes replies on its
event-loop thread) take as parent the innermost span open on the thread
that created the recorder.  With one caller and one request in flight,
that is the request the decoded reply answers.

Spans are folded into per-name totals as they close, so a long traced
run holds only the open spans in memory.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


def covered_ns(start: int, end: int, intervals: Sequence[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


class _Frame:
    __slots__ = ("name", "start", "parent", "children")

    def __init__(self, name: str, start: int, parent: Optional["_Frame"]) -> None:
        self.name = name
        self.start = start
        self.parent = parent
        self.children: List[Tuple[int, int]] = []


class SpanRecorder:
    """Opens and closes spans, and keeps per-name totals.

    ``clock`` returns integer nanoseconds; tests pass a fake one.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._owner = threading.get_ident()
        self._stack: List[_Frame] = []
        self.self_ns: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        #: Free-form tallies the wrappers' observers add to.
        self.tallies: Dict[str, float] = {}

    def enter(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(name, self._clock(), parent)
        if threading.get_ident() == self._owner:
            self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        end = self._clock()
        if threading.get_ident() == self._owner:
            popped = self._stack.pop()
            if popped is not frame:
                raise RuntimeError(
                    f"span {frame.name!r} closed out of order "
                    f"(innermost open span is {popped.name!r})"
                )
        duration = end - frame.start
        own = duration - covered_ns(frame.start, end, frame.children)
        name = frame.name
        self.self_ns[name] = self.self_ns.get(name, 0) + own
        self.total_ns[name] = self.total_ns.get(name, 0) + duration
        self.calls[name] = self.calls.get(name, 0) + 1
        if frame.parent is not None:
            frame.parent.children.append((frame.start, end))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def tally(self, key: str, amount: float = 1) -> None:
        self.tallies[key] = self.tallies.get(key, 0) + amount

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9


Observer = Callable[[SpanRecorder, tuple, dict, object], None]


def traced(recorder: SpanRecorder, name: str, fn, observe: Optional[Observer] = None):
    """``fn`` wrapped in a span named ``name``; ``observe`` sees each call's
    arguments and result after the span closes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = recorder.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(frame)
        if observe is not None:
            observe(recorder, args, kwargs, result)
        return result

    return wrapper


def _count(key: str) -> Observer:
    def observe(recorder, args, kwargs, result) -> None:
        recorder.tally(key)

    return observe


def _query(recorder, args, kwargs, result) -> None:
    level = result.level.label
    recorder.tally(f"core.query.level.{'L4' if level == 'L4-negative' else level}")
    recorder.tally("core.query.messages", result.messages)
    recorder.tally("core.query.false_forwards", result.false_forwards)


def _verify_batch_keys(recorder, args, kwargs, result) -> None:
    recorder.tally("core.verify_batch.keys", len(args[2]))


def _mutation_batch(recorder, args, kwargs, result) -> None:
    recorder.tally("core.apply_mutation_batch.mutations", len(args[2]))
    recorder.tally("core.apply_mutation_batch.conflicts", result.conflicts)


def _rename(recorder, args, kwargs, result) -> None:
    cluster = args[0]
    recorder.tally("core.rename.renamed", result)
    recorder.tally(
        "core.rename.scanned", sum(s.file_count for s in cluster.servers.values())
    )


#: (span name, module, class or None for a module-level name, attributes,
#: observer).  Module-level names are patched where the caller looks them
#: up: ``repro.gateway.client`` and ``repro.net.tcp`` import them by name.
LAYER_PLAN = (
    ("gateway", "repro.gateway.client", "MetadataClient",
     ("lookup_tick", "pump", "create", "delete", "rename"), None),
    ("gateway.admission", "repro.gateway.admission", "FairAdmissionController",
     ("submit_tick", "pump"), None),
    ("gateway.cache", "repro.gateway.cache", "GatewayCache",
     ("get", "peek", "put", "put_negative", "invalidate", "invalidate_subtree",
      "invalidate_home"), None),
    ("gateway.shield", "repro.gateway.hotspot", "HotspotDetector",
     ("observe", "is_hot", "hot_keys"), None),
    ("gateway.shield", "repro.gateway.cache", "GatewayCache",
     ("pin",), _count("gateway.shield.pin_calls")),
    ("gateway.coalesce", "repro.gateway.client", None, ("coalesce",), None),
    ("gateway.coalesce", "repro.gateway.coalesce", "HomeBatcher", ("plan",), None),
    ("gateway.writeback", "repro.gateway.client", "MetadataClient",
     ("maybe_flush", "flush_barrier"), None),
    ("gateway.writeback", "repro.gateway.writeback", "MutationBuffer",
     ("enqueue", "requeue", "settle", "get", "paths_under", "homes",
      "pending_for", "oldest_age", "drain_home", "drain_paths"), None),
    ("core.query", "repro.core.cluster", "GHBACluster", ("query",), _query),
    ("core.group.multicast_query", "repro.core.group", "Group",
     ("multicast_query",), None),
    ("core.verify_batch", "repro.core.cluster", "GHBACluster",
     ("verify_batch",), _verify_batch_keys),
    ("core.apply_mutation_batch", "repro.core.cluster", "GHBACluster",
     ("apply_mutation_batch",), _mutation_batch),
    ("core.insert", "repro.core.cluster", "GHBACluster", ("insert_file",), None),
    ("core.delete", "repro.core.cluster", "GHBACluster", ("delete_file",), None),
    ("core.rename", "repro.core.cluster", "GHBACluster", ("rename_subtree",), _rename),
    ("bloom.lru_array", "repro.bloom.arrays", "LRUBloomFilterArray", ("query",), None),
    ("bloom.segment_array", "repro.bloom.arrays", "BloomFilterArray",
     ("query", "query_into"), None),
    ("net.tcp.request", "repro.net.tcp", "TcpTransport", ("request",), None),
    ("net.codec.encode", "repro.net.tcp", None, ("encode_body",), None),
    ("net.codec.decode", "repro.net.tcp", None, ("decode_body",), None),
)


@contextmanager
def layers_traced(recorder: SpanRecorder, plan=LAYER_PLAN) -> Iterator[None]:
    """Install the wrappers of ``plan`` for the duration of the block."""
    restore = []
    try:
        for name, module_name, class_name, attrs, observe in plan:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            for attr in attrs:
                original = owner.__dict__[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, traced(recorder, name, original, observe))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

"""``repro.net``: a real network substrate for the prototype protocol.

The prototype's message layer was transport-shaped from the start — every
protocol step is a :class:`~repro.prototype.messages.Message` delivered by
a transport object exposing ``send`` / ``request`` / ``gather``.  This
package supplies the second implementation of that surface:

- :mod:`repro.net.reliability` — the :class:`~repro.net.reliability.
  Transport` base of both transports (counters, fault verdict, retry
  hooks), the transport-agnostic retry/backoff driver, and the shared
  :class:`~repro.net.reliability.GatherResult` /
  :class:`~repro.net.reliability.TransportClosed` vocabulary.
- :mod:`repro.net.codec` — a versioned, length-prefixed, deterministic
  binary wire format for every :class:`~repro.prototype.messages.
  MessageKind` payload (stdlib only).
- :mod:`repro.net.tcp` — :class:`~repro.net.tcp.TcpTransport`, an asyncio
  TCP transport with per-peer connection pooling and bounded outbound
  queues, speaking the codec and driving the same fault injector and
  retry policy as the in-process transport.
- :mod:`repro.net.supervisor` — launches each MDS as a real OS process
  (``python -m repro.net serve``) wired together by a static port map.
- :mod:`repro.net.bench` — the multi-process wall-clock bench behind
  ``python -m repro.gateway bench --transport tcp``.

The in-process transport remains the deterministic tier-1 harness; this
package is where real serialization cost, real backpressure, and
wall-clock numbers come from.

Submodules are resolved lazily (PEP 562) so that importing
``repro.prototype`` — whose transport uses only the reliability layer —
never pays for asyncio.
"""

_EXPORTS = {
    "CodecError": "repro.net.codec",
    "decode_body": "repro.net.codec",
    "decode_frame": "repro.net.codec",
    "encode_body": "repro.net.codec",
    "encode_frame": "repro.net.codec",
    "GatherResult": "repro.net.reliability",
    "TransportClosed": "repro.net.reliability",
    "PortMap": "repro.net.tcp",
    "TcpTransport": "repro.net.tcp",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)

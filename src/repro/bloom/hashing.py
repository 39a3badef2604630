"""Hash families for Bloom filters.

The paper assumes ``k`` independent hash functions per filter.  We derive them
with the classic Kirsch-Mitzenmacher *double hashing* construction,
``h_i(x) = h1(x) + i * h2(x) mod m``, which preserves the asymptotic
false-positive behaviour of truly independent hashes while needing only two
base digests.  The base digests come from ``hashlib.blake2b`` with distinct
keys, so two :class:`HashFamily` instances built with the same parameters
produce identical indices — a property the replica machinery relies on
(a Bloom filter replica must probe the same bits as the original).

Hot-path machinery (DESIGN.md §15)
----------------------------------
Hashing dominates probe cost once the bit tests themselves collapse to
int ops, so this module adds two layers on top of the construction:

* **Interning** — :func:`shared_family` returns one canonical
  :class:`HashFamily` per ``(num_hashes, num_bits, seed)``.  Every filter
  of the same geometry (all L1 LRU filters, all L2 segment replicas of a
  group, every server's global replica) shares one instance, and
  therefore one probe cache: a key hashed once while probing server 1's
  replica is free at servers 2..N.
* **Probe cache** — :meth:`HashFamily.probe` memoizes
  ``item -> (indices, mask)`` where ``mask`` is the OR of ``1 << index``.
  A membership test against a packed :class:`~repro.bloom.bitvector.BitVector`
  is then ``(bits & mask) == mask`` — no per-index loop at all.  The
  cache is bounded; on overflow the oldest half (dict insertion order)
  is dropped in one slice.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

#: Per-family bound on memoized probes.  Sized to hold the hot set of the
#: bench workloads (thousands of distinct paths) with slack.  Each entry
#: keeps a full-width probe mask of about ``num_bits / 8`` bytes (18-20 KB
#: at the default 160 000-bit filter), so a full cache holds over 1 GB
#: per geometry; a process that probes many distinct paths grows by
#: about 20 KB per path until the bound is reached.
PROBE_CACHE_CAPACITY = 1 << 16


def _digest64(data: bytes, salt: bytes) -> int:
    """Return a 64-bit digest of ``data`` salted with ``salt``."""
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8, key=salt).digest(), "big"
    )


class HashFamily:
    """``k`` index functions over ``[0, m)`` via double hashing.

    Parameters
    ----------
    num_hashes:
        Number of index functions (``k``).
    num_bits:
        Size of the target bit space (``m``).
    seed:
        Integer seed; families with equal ``(num_hashes, num_bits, seed)``
        are interchangeable.
    """

    __slots__ = (
        "_num_hashes",
        "_num_bits",
        "_seed",
        "_salt1",
        "_salt2",
        "_probe_cache",
    )

    def __init__(self, num_hashes: int, num_bits: int, seed: int = 0) -> None:
        if num_hashes <= 0:
            raise ValueError(f"num_hashes must be positive, got {num_hashes}")
        if num_bits <= 0:
            raise ValueError(f"num_bits must be positive, got {num_bits}")
        self._num_hashes = num_hashes
        self._num_bits = num_bits
        self._seed = seed
        self._salt1 = seed.to_bytes(8, "big", signed=True) + b"\x01"
        self._salt2 = seed.to_bytes(8, "big", signed=True) + b"\x02"
        self._probe_cache: Dict[object, Tuple[Tuple[int, ...], int]] = {}

    @property
    def num_hashes(self) -> int:
        return self._num_hashes

    @property
    def num_bits(self) -> int:
        return self._num_bits

    @property
    def seed(self) -> int:
        return self._seed

    def _encode(self, item: object) -> bytes:
        if isinstance(item, bytes):
            return item
        if isinstance(item, str):
            return item.encode("utf-8")
        if isinstance(item, int):
            return item.to_bytes(16, "big", signed=True)
        raise TypeError(
            f"items must be str, bytes or int, got {type(item).__name__}"
        )

    def _compute(self, item: object) -> Tuple[Tuple[int, ...], int]:
        data = self._encode(item)
        h1 = _digest64(data, self._salt1)
        h2 = _digest64(data, self._salt2)
        # An even h2 could cycle through a strict subset of positions when m
        # is even; forcing it odd keeps the probe sequence well distributed.
        h2 |= 1
        m = self._num_bits
        indices = tuple((h1 + i * h2) % m for i in range(self._num_hashes))
        mask = 0
        for index in indices:
            mask |= 1 << index
        return indices, mask

    def probe(self, item: object) -> Tuple[Tuple[int, ...], int]:
        """Return (and memoize) ``(indices, mask)`` for ``item``.

        ``mask`` is the OR of ``1 << i`` over the ``k`` indices — the
        single-int form consumed by
        :meth:`~repro.bloom.bitvector.BitVector.contains_mask`.
        """
        cache = self._probe_cache
        entry = cache.get(item)
        if entry is None:
            if len(cache) >= PROBE_CACHE_CAPACITY:
                # Drop the oldest (insertion-ordered) half in one pass.
                for key in list(cache)[: PROBE_CACHE_CAPACITY // 2]:
                    del cache[key]
            entry = self._compute(item)
            # bytes/str/int keys only (enforced by _encode), so the item
            # itself is a safe, hashable cache key.
            cache[item] = entry
        return entry

    def mask(self, item: object) -> int:
        """The packed probe mask of ``item`` (memoized)."""
        entry = self._probe_cache.get(item)
        if entry is None:
            entry = self.probe(item)
        return entry[1]

    def indices(self, item: object) -> List[int]:
        """Return the ``k`` bit indices for ``item``."""
        return list(self.probe(item)[0])

    def cache_info(self) -> Tuple[int, int]:
        """``(entries, capacity)`` of the probe cache (for introspection)."""
        return len(self._probe_cache), PROBE_CACHE_CAPACITY

    def parameters(self) -> Tuple[int, int, int]:
        """Return ``(num_hashes, num_bits, seed)``."""
        return (self._num_hashes, self._num_bits, self._seed)

    def is_compatible(self, other: "HashFamily") -> bool:
        """True if both families map items to identical index sequences."""
        return self.parameters() == other.parameters()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return self.parameters() == other.parameters()

    def __hash__(self) -> int:
        return hash(self.parameters())

    def __repr__(self) -> str:
        return (
            f"HashFamily(num_hashes={self._num_hashes}, "
            f"num_bits={self._num_bits}, seed={self._seed})"
        )


# ----------------------------------------------------------------------
# Interning — one family (and one probe cache) per geometry
# ----------------------------------------------------------------------
_SHARED_FAMILIES: Dict[Tuple[int, int, int], HashFamily] = {}


def shared_family(num_hashes: int, num_bits: int, seed: int = 0) -> HashFamily:
    """Return the canonical :class:`HashFamily` for this geometry.

    Filters share hash state purely by value (`parameters()`), so handing
    every same-geometry filter the same instance is semantically
    invisible — it only fuses their probe caches, which is exactly what
    the replica fan-out wants: the L3 multicast probes ~N replicas of
    identical geometry with the same key.
    """
    key = (num_hashes, num_bits, seed)
    family = _SHARED_FAMILIES.get(key)
    if family is None:
        family = HashFamily(num_hashes, num_bits, seed)
        _SHARED_FAMILIES[key] = family
    return family

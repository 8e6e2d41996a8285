"""Bloom filters used by the Morpheus hit/miss predictor.

A Bloom filter answers set-membership queries with no false negatives and a
tunable false-positive rate.  The paper sizes each filter at 32 bytes
(256 bits) per extended LLC set and uses two filters per set, cleared
alternately (§4.1.2).
"""

from __future__ import annotations

import hashlib
from typing import Iterable


def bloom_mask(key: int, num_bits: int, num_hashes: int) -> int:
    """The ``num_hashes`` bits of a ``num_bits``-bit filter that ``key`` sets, as one integer.

    Double hashing over a blake2b digest of the key.  The mask is a pure
    function of its arguments, so callers that see a key repeatedly may
    memoise it.
    """
    if key < 0:
        raise ValueError("keys must be non-negative")
    digest = hashlib.blake2b(int(key).to_bytes(16, "little", signed=False), digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    bits = 0
    for i in range(num_hashes):
        bits |= 1 << ((h1 + i * h2) % num_bits)
    return bits


class BloomFilter:
    """A standard (non-counting) Bloom filter over integer keys.

    Args:
        size_bytes: Bit-array size in bytes (32 in the paper).
        num_hashes: Number of hash functions.
    """

    def __init__(self, size_bytes: int = 32, num_hashes: int = 4) -> None:
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.size_bytes = size_bytes
        self.num_bits = size_bytes * 8
        self.num_hashes = num_hashes
        self._bits = 0
        self._insertions = 0

    def mask(self, key: int) -> int:
        """The bits ``key`` sets, as one integer (see :func:`bloom_mask`).

        Filters of the same size and hash count share masks, so a key hashed
        once can be inserted into several of them (:meth:`insert_mask`).
        """
        return bloom_mask(key, self.num_bits, self.num_hashes)

    def insert_mask(self, mask: int) -> None:
        """Insert the key whose :meth:`mask` is ``mask``."""
        self._bits |= mask
        self._insertions += 1

    def insert(self, key: int) -> None:
        """Insert ``key`` into the filter."""
        self.insert_mask(self.mask(key))

    def query_mask(self, mask: int) -> bool:
        """Whether the key whose :meth:`mask` is ``mask`` *may* be in the set."""
        return self._bits & mask == mask

    def query(self, key: int) -> bool:
        """Return True if ``key`` *may* be in the set (never a false negative)."""
        return self.query_mask(self.mask(key))

    def insert_all(self, keys: Iterable[int]) -> None:
        """Insert every key in ``keys``."""
        for key in keys:
            self.insert(key)

    def clear(self) -> None:
        """Reset the filter to empty."""
        self._bits = 0
        self._insertions = 0

    @property
    def insertions(self) -> int:
        """Number of insert operations since the last clear."""
        return self._insertions

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits currently set (a proxy for the false-positive rate)."""
        return bin(self._bits).count("1") / self.num_bits

    def __contains__(self, key: int) -> bool:
        return self.query(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(size_bytes={self.size_bytes}, num_hashes={self.num_hashes}, "
            f"fill={self.fill_ratio:.3f})"
        )

"""Identifier space for the overlay: an m-bit ring with consistent hashing.

SOS routes through a Chord ring (paper §2, ref [2]); Chord places nodes and
keys on a circular identifier space of size ``2**bits`` using a cryptographic
hash. This module provides the hashing and the modular-interval arithmetic
every Chord operation relies on.
"""

from __future__ import annotations

import hashlib
import numbers

from repro.errors import ConfigurationError

#: Default identifier width. 32 bits is ample for simulated overlays of
#: tens of thousands of nodes while keeping identifiers readable.
DEFAULT_ID_BITS = 32

#: Widest identifier space. Node ids, keys and finger starts
#: ``id + 2**(bits - 1)`` are int64 end to end, so they must fit in it.
MAX_ID_BITS = 62


class IdentifierSpace:
    """An ``m``-bit circular identifier space with SHA-1 based hashing.

    ``bits`` lies in ``[1, MAX_ID_BITS]``: every identifier, and every
    sum and difference of two, fits in int64.

    Examples
    --------
    >>> space = IdentifierSpace(8)
    >>> space.size
    256
    >>> space.contains(space.hash_key("target:example"))
    True
    """

    def __init__(self, bits: int = DEFAULT_ID_BITS) -> None:
        if not isinstance(bits, int) or isinstance(bits, bool):
            raise ConfigurationError(f"bits must be an integer, got {bits!r}")
        if not 1 <= bits <= MAX_ID_BITS:
            raise ConfigurationError(
                f"bits must be in [1, {MAX_ID_BITS}], got {bits}"
            )
        self.bits = bits
        self.size = 1 << bits

    def hash_key(self, key: str) -> int:
        """Map an arbitrary string key onto the ring (consistent hashing)."""
        digest = hashlib.sha1(key.encode("utf-8")).digest()
        return int.from_bytes(digest, "big") % self.size

    def contains(self, identifier: int) -> bool:
        """True when ``identifier`` is a valid point on this ring: an
        integer (Python or numpy) in ``[0, size)``."""
        return (
            isinstance(identifier, numbers.Integral)
            and 0 <= identifier < self.size
        )

    def validate(self, identifier: int) -> int:
        """Return ``identifier`` as a Python int, or raise if it is not a
        point on the ring."""
        if not self.contains(identifier):
            raise ConfigurationError(
                f"identifier {identifier!r} outside ring of size {self.size}"
            )
        return int(identifier)

    def distance(self, start: int, end: int) -> int:
        """Clockwise distance from ``start`` to ``end``."""
        return (end - start) % self.size

    def in_open_interval(self, value: int, start: int, end: int) -> bool:
        """True when ``value`` lies in the clockwise-open interval
        ``(start, end)`` on the ring.

        The interval wraps; when ``start == end`` it covers the whole ring
        minus the endpoint (Chord's convention for a single-node ring).
        """
        if start == end:
            return value != start
        return self.distance(start, value) > 0 and self.distance(
            start, value
        ) < self.distance(start, end)

    def in_half_open_interval(self, value: int, start: int, end: int) -> bool:
        """True when ``value`` lies in the clockwise interval ``(start, end]``.

        This is the successor-ownership test: the node with identifier
        ``end`` owns exactly the keys in ``(predecessor, end]``.
        """
        if start == end:
            return True
        return 0 < self.distance(start, value) <= self.distance(start, end)

    def finger_start(self, node_id: int, index: int) -> int:
        """Start of the ``index``-th finger interval: ``node + 2**index``."""
        if not 0 <= index < self.bits:
            raise ConfigurationError(
                f"finger index {index} out of range [0, {self.bits})"
            )
        return (node_id + (1 << index)) % self.size

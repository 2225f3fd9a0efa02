"""Hop-by-hop verification: nodes only forward traffic from legitimate
lower-layer nodes (paper §2).

The real SOS uses IPsec tunnels between consecutive layers; we model the
same admission semantics with per-layer HMAC keys. A node at layer ``i``
stamps outgoing packets with a MAC under layer ``i``'s key; a node at layer
``i+1`` verifies both that the MAC checks out *and* that the issuer really
is enrolled at layer ``i``. Traffic that fails either check — e.g. injected
by an attacker who knows node addresses but not keys — is dropped.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from typing import Dict, Iterable, Set

from repro.errors import ProtocolError


class HopAuthenticator:
    """Issues and verifies per-layer MACs for hop admission.

    Layer 0 represents admitted clients (the SOAP layer verifies client
    credentials before injecting traffic into the overlay).
    """

    def __init__(self, layers: int, seed_material: bytes = b"") -> None:
        if layers < 1:
            raise ProtocolError("need at least one layer")
        self._keys: Dict[int, bytes] = {}
        for layer in range(0, layers + 1):
            if seed_material:
                key = hashlib.sha256(seed_material + layer.to_bytes(4, "big")).digest()
            else:
                key = secrets.token_bytes(32)
            self._keys[layer] = key
        self._members: Dict[int, Set[int]] = {layer: set() for layer in self._keys}

    @property
    def layers(self) -> int:
        """Highest SOS layer with a key (excludes the client pseudo-layer 0)."""
        return max(self._keys)

    def enroll(self, layer: int, member_id: int) -> None:
        """Register ``member_id`` as a legitimate layer member."""
        self.enroll_many(layer, (member_id,))

    def enroll_many(self, layer: int, member_ids: Iterable[int]) -> None:
        """Register many legitimate members of ``layer`` at once."""
        self._check_layer(layer)
        self._members[layer].update(member_ids)

    def issue(self, layer: int, issuer_id: int, packet_id: int) -> bytes:
        """MAC a packet on behalf of ``issuer_id`` at ``layer``.

        Raises :class:`ProtocolError` if the issuer is not enrolled —
        an attacker cannot obtain stamps for nodes it has not broken into.
        """
        self._check_layer(layer)
        if issuer_id not in self._members[layer]:
            raise ProtocolError(
                f"node {issuer_id} is not enrolled at layer {layer}"
            )
        return self._mac(layer, issuer_id, packet_id)

    def verify(self, layer: int, issuer_id: int, packet_id: int, mac: bytes) -> bool:
        """Check a MAC allegedly issued at ``layer`` by ``issuer_id``.

        Returns False (rather than raising) on any mismatch: wrong key,
        forged issuer, or an issuer that is not a layer member.
        """
        self._check_layer(layer)
        if issuer_id not in self._members[layer]:
            return False
        expected = self._mac(layer, issuer_id, packet_id)
        return hmac.compare_digest(expected, mac)

    def _mac(self, layer: int, issuer_id: int, packet_id: int) -> bytes:
        message = issuer_id.to_bytes(8, "big") + packet_id.to_bytes(8, "big")
        return hmac.new(self._keys[layer], message, hashlib.sha256).digest()

    def _check_layer(self, layer: int) -> None:
        if layer not in self._keys:
            raise ProtocolError(
                f"unknown layer {layer}; valid layers are 0..{self.layers}"
            )

"""Packets flowing through the SOS overlay.

A :class:`Packet` records its originator, the protected target, an opaque
payload, and the verified hop trail — each forwarding node appends itself
after the next hop has verified the previous hop's MAC. The trail is what
integration tests assert on (one node per layer, strictly ascending).
"""

from __future__ import annotations

import dataclasses
import enum
import itertools
from typing import List, Optional, Tuple

_SEQUENCE = itertools.count(1)


class FailureCause(str, enum.Enum):
    """Taxonomy of delivery failures, machine-matchable unlike the
    human-readable ``failure_reason`` strings."""

    ACCESS_POINTS_EXHAUSTED = "access-points-exhausted"
    NEIGHBORS_EXHAUSTED = "neighbors-exhausted"
    AUTH_FAILED = "auth-failed"
    FILTER_REJECTED = "filter-rejected"


@dataclasses.dataclass
class Packet:
    """A client message traversing the overlay toward the target."""

    source: str
    target: str
    payload: bytes = b""
    packet_id: int = dataclasses.field(default_factory=lambda: next(_SEQUENCE))
    hop_trail: List[int] = dataclasses.field(default_factory=list)
    mac: Optional[bytes] = None
    mac_issuer: Optional[int] = None

    def record_hop(self, node_id: int) -> None:
        """Append a verified forwarding hop."""
        self.hop_trail.append(node_id)

    @property
    def hops(self) -> Tuple[int, ...]:
        return tuple(self.hop_trail)

    def stamp(self, issuer: int, mac: bytes) -> None:
        """Attach the MAC the next hop will verify."""
        self.mac_issuer = issuer
        self.mac = mac


@dataclasses.dataclass(frozen=True)
class DeliveryReceipt:
    """Outcome of attempting to deliver a packet to the target.

    ``attempts`` counts every neighbor pick made along the way (one per
    hop when nothing fails); ``retries`` counts picks that hit a bad node
    and were retried under a :class:`~repro.resilience.retry.RetryPolicy`;
    ``backoff_total`` is the simulated time spent waiting between
    retries. ``failure_cause`` classifies failures machine-readably;
    ``failure_reason`` stays the human-readable message.
    """

    packet_id: int
    delivered: bool
    hop_trail: Tuple[int, ...]
    failure_reason: Optional[str] = None
    failure_cause: Optional[FailureCause] = None
    attempts: int = 0
    retries: int = 0
    backoff_total: float = 0.0

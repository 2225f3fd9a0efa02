"""Overlay node model.

An :class:`OverlayNode` is one of the ``N`` hosts in the overlay population.
A subset of them is enrolled into the SOS system and given a role
(:class:`~repro.sos.roles.Role`); the rest are plain overlay members the SOS
nodes hide among. Nodes track their *health* — the attack simulator marks
them compromised (broken into) or congested — and their SOS neighbor table
(identities of next-layer nodes), which is exactly what a successful
break-in disclosed to the attacker.

Since the struct-of-arrays refactor an :class:`OverlayNode` is a thin
*view*: its state lives in an :class:`~repro.overlay.arrays.OverlayStore`
column set and every property read/write goes straight to the columns, so
object-API consumers and array-path consumers always see the same state.
Standalone construction (``OverlayNode(node_id=5, address="n")``) still
works — it allocates a private single-row store.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from repro.errors import ConfigurationError
from repro.overlay import arrays as _arrays


class NodeHealth(str, enum.Enum):
    """Health of an overlay node under attack and benign churn.

    ``GOOD`` nodes route normally. ``COMPROMISED`` nodes were broken into
    (the attacker read their neighbor table; they no longer route).
    ``CONGESTED`` nodes are flooded and drop everything. Both compromised
    and congested nodes are *bad* in the paper's terminology.
    ``CRASHED`` nodes suffered a benign failure (process crash, host
    reboot, partition) independent of the attack; they drop traffic like
    congested nodes but disclose nothing, and benign recovery restores
    them without re-keying.
    """

    GOOD = "good"
    COMPROMISED = "compromised"
    CONGESTED = "congested"
    CRASHED = "crashed"

    @property
    def is_bad(self) -> bool:
        return self is not NodeHealth.GOOD


#: Enum ↔ int8 column code translation (declaration order == code order).
_HEALTH_BY_CODE: Tuple[NodeHealth, ...] = (
    NodeHealth.GOOD,
    NodeHealth.COMPROMISED,
    NodeHealth.CONGESTED,
    NodeHealth.CRASHED,
)
_CODE_BY_HEALTH = {health: code for code, health in enumerate(_HEALTH_BY_CODE)}


class OverlayNode:
    """A host in the overlay population (view over store columns).

    Attributes
    ----------
    node_id:
        Position on the identifier ring (unique within a network).
    address:
        Human-readable address, e.g. ``"node-417"``.
    sos_layer:
        1-based SOS layer this node serves in, or ``None`` for plain overlay
        members. The filter ring uses layer ``L+1``.
    neighbors:
        Identifiers of this node's next-layer SOS neighbors (its routing
        table toward the target) — the secret a break-in discloses.
    health:
        Current health; see :class:`NodeHealth`.
    """

    __slots__ = ("_store", "_row", "node_id", "address")

    def __init__(
        self,
        node_id: int,
        address: str,
        sos_layer: Optional[int] = None,
        neighbors: Tuple[int, ...] = (),
        health: NodeHealth = NodeHealth.GOOD,
    ) -> None:
        self._validate(node_id, sos_layer)
        store = _arrays.OverlayStore([node_id])
        object.__setattr__(self, "_store", store)
        object.__setattr__(self, "_row", 0)
        object.__setattr__(self, "node_id", node_id)
        object.__setattr__(self, "address", address)
        if sos_layer is not None:
            store.set_layer(0, sos_layer)
        if neighbors:
            store.set_neighbors(0, tuple(neighbors))
        if health is not NodeHealth.GOOD:
            store.set_health(0, _CODE_BY_HEALTH[health])

    @staticmethod
    def _validate(node_id: int, sos_layer: Optional[int]) -> None:
        if not isinstance(node_id, int) or isinstance(node_id, bool):
            raise ConfigurationError(f"node_id must be an int, got {node_id!r}")
        if node_id < 0:
            raise ConfigurationError(f"node_id must be >= 0, got {node_id}")
        if sos_layer is not None and sos_layer < 1:
            raise ConfigurationError(
                f"sos_layer must be >= 1 or None, got {sos_layer}"
            )

    @classmethod
    def _from_store(
        cls, store: "_arrays.OverlayStore", row: int, address: str
    ) -> "OverlayNode":
        """Wrap an existing store row (no validation — store rows are valid)."""
        node = cls.__new__(cls)
        object.__setattr__(node, "_store", store)
        object.__setattr__(node, "_row", row)
        object.__setattr__(node, "node_id", int(store.ids[row]))
        object.__setattr__(node, "address", address)
        return node

    def __setattr__(self, name: str, value: object) -> None:
        # node_id/address are fixed at construction; sos_layer/neighbors/
        # health route through the property setters below.
        if name in ("node_id", "address"):
            raise AttributeError(f"{name} is read-only on overlay node views")
        object.__setattr__(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OverlayNode(node_id={self.node_id}, address={self.address!r}, "
            f"sos_layer={self.sos_layer}, neighbors={self.neighbors}, "
            f"health={self.health!r})"
        )

    # ------------------------------------------------------------------
    # Column-backed attributes
    # ------------------------------------------------------------------
    @property
    def sos_layer(self) -> Optional[int]:
        layer = self._store.get_layer(self._row)
        return layer if layer != _arrays.NO_LAYER else None

    @sos_layer.setter
    def sos_layer(self, value: Optional[int]) -> None:
        if value is not None and value < 1:
            raise ConfigurationError(f"sos_layer must be >= 1 or None, got {value}")
        self._store.set_layer(
            self._row, _arrays.NO_LAYER if value is None else int(value)
        )

    @property
    def neighbors(self) -> Tuple[int, ...]:
        return self._store.neighbors_of(self._row)

    @neighbors.setter
    def neighbors(self, value: Tuple[int, ...]) -> None:
        self._store.set_neighbors(self._row, tuple(value))

    @property
    def health(self) -> NodeHealth:
        return _HEALTH_BY_CODE[self._store.get_health(self._row)]

    @health.setter
    def health(self, value: NodeHealth) -> None:
        self._store.set_health(self._row, _CODE_BY_HEALTH[value])

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def is_good(self) -> bool:
        """True when the node can still route traffic."""
        return self._store.get_health(self._row) == _arrays.HEALTH_GOOD

    @property
    def is_bad(self) -> bool:
        """True when broken-into or congested (cannot route)."""
        return self._store.get_health(self._row) != _arrays.HEALTH_GOOD

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def congest(self) -> None:
        """Flood the node. Compromised nodes stay compromised (the paper's
        attacker never wastes congestion resources on nodes it owns)."""
        if self._store.get_health(self._row) == _arrays.HEALTH_COMPROMISED:
            return
        self._store.set_health(self._row, _arrays.HEALTH_CONGESTED)

    def crash(self) -> bool:
        """Benign failure: a GOOD node goes down without disclosing anything.

        Compromised and congested nodes are already unroutable, so a crash
        on them is absorbed (returns False); the fault injector uses the
        return value to decide whether a recovery needs scheduling.
        """
        if self._store.get_health(self._row) != _arrays.HEALTH_GOOD:
            return False
        self._store.set_health(self._row, _arrays.HEALTH_CRASHED)
        return True

    def restore(self) -> bool:
        """Benign recovery: undo a crash, never attack damage.

        Returns True when the node actually came back; repairing
        compromised or congested nodes is the defender's job
        (:meth:`recover`), because it implies re-keying.
        """
        if self._store.get_health(self._row) != _arrays.HEALTH_CRASHED:
            return False
        self._store.set_health(self._row, _arrays.HEALTH_GOOD)
        return True

    def recover(self) -> None:
        """Restore the node to good health (used by repair experiments)."""
        self._store.set_health(self._row, _arrays.HEALTH_GOOD)

    def set_neighbors(self, neighbors: Tuple[int, ...]) -> None:
        """Install the SOS next-layer neighbor table."""
        self._store.set_neighbors(self._row, tuple(neighbors))

"""Result of executing an attack against a concrete deployment."""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.attacks.knowledge import AttackerKnowledge


@dataclasses.dataclass(frozen=True)
class AttackOutcome:
    """What an executed attack did to a deployment.

    Per-layer dictionaries are keyed by 1-based layer (``L+1`` = filters),
    mirroring the analytical model's per-layer sets so Monte Carlo results
    can be compared term by term against the derivation.
    """

    broken_per_layer: Dict[int, int]
    congested_per_layer: Dict[int, int]
    rounds_executed: int
    break_in_attempts: int
    congestion_spent: int
    knowledge: AttackerKnowledge

    @property
    def total_broken(self) -> int:
        """``N_B`` — successfully compromised overlay nodes."""
        return sum(self.broken_per_layer.values())

    def bad_per_layer(self) -> Dict[int, int]:
        """``s_i`` — bad nodes per layer (broken + congested)."""
        layers = set(self.broken_per_layer) | set(self.congested_per_layer)
        return {
            layer: self.broken_per_layer.get(layer, 0)
            + self.congested_per_layer.get(layer, 0)
            for layer in sorted(layers)
        }

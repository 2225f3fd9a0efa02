"""Design-space exploration for the generalized SOS architecture.

The paper's punchline (§5): layering and mapping degree pull in opposite
directions — more layers and fewer neighbors resist break-in attacks, fewer
layers and more neighbors resist congestion — so the right design depends
on the anticipated attack mix. This module operationalizes that:

* :func:`enumerate_designs` — build the (L, mapping, distribution) grid;
* :func:`evaluate_designs` — score every design against a set of attack
  scenarios (worst case or weighted average across scenarios);
* :func:`tradeoff_frontier` — Pareto frontier between resilience to a
  break-in-heavy scenario and a congestion-heavy scenario, exhibiting the
  trade-off the paper describes qualitatively.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.architecture import MAX_LAYERS, SOSArchitecture
from repro.core.attack_models import OneBurstAttack, SuccessiveAttack
from repro.core.distributions import NodeDistribution
from repro.core.model import evaluate
from repro.errors import ConfigurationError

Attack = Union[OneBurstAttack, SuccessiveAttack]

#: The mapping-policy names the paper's evaluation sweeps.
DEFAULT_MAPPINGS: Tuple[str, ...] = (
    "one-to-one",
    "one-to-two",
    "one-to-five",
    "one-to-half",
    "one-to-all",
)


@dataclasses.dataclass(frozen=True)
class DesignScore:
    """One evaluated design point."""

    architecture: SOSArchitecture
    per_scenario: Dict[str, float]
    aggregate: float

    @property
    def label(self) -> str:
        return (
            f"L={self.architecture.layers} "
            f"{self.architecture.mapping_policy.label} "
            f"{NodeDistribution(self.architecture.distribution).value}"
        )


def enumerate_designs(
    layers: Iterable[int] = range(1, 9),
    mappings: Sequence[str] = DEFAULT_MAPPINGS,
    distributions: Sequence[Union[str, NodeDistribution]] = ("even",),
    total_overlay_nodes: int = 10_000,
    sos_nodes: int = 100,
    filters: int = 10,
) -> List[SOSArchitecture]:
    """Materialize the design grid, silently skipping infeasible points
    (e.g. skewed distributions that starve a layer below one node). A
    layer count above :data:`~repro.core.architecture.MAX_LAYERS` is out
    of range, not infeasible, so it raises instead."""
    designs = []
    for layer_count in layers:
        if layer_count > MAX_LAYERS:
            raise ConfigurationError(
                f"layers must be <= {MAX_LAYERS}, got {layer_count}"
            )
        for mapping in mappings:
            for distribution in distributions:
                try:
                    designs.append(
                        SOSArchitecture(
                            layers=layer_count,
                            mapping=mapping,
                            distribution=distribution,
                            total_overlay_nodes=total_overlay_nodes,
                            sos_nodes=sos_nodes,
                            filters=filters,
                        )
                    )
                except ConfigurationError:
                    continue
    if not designs:
        raise ConfigurationError("design grid is empty")
    return designs


def evaluate_designs(
    designs: Sequence[SOSArchitecture],
    scenarios: Dict[str, Attack],
    aggregate: str = "min",
    weights: Optional[Dict[str, float]] = None,
) -> List[DesignScore]:
    """Score every design against every attack scenario.

    ``aggregate`` is ``"min"`` (robust / worst-case, default) or ``"mean"``
    (optionally weighted by ``weights``). The design x scenario cross is
    evaluated in one batch (:mod:`repro.perf.batch`).
    """
    if not scenarios:
        raise ConfigurationError("need at least one attack scenario")
    if aggregate not in ("min", "mean"):
        raise ConfigurationError(f"aggregate must be 'min' or 'mean', got {aggregate!r}")
    names = list(scenarios)
    from repro.perf.batch import evaluate_batch

    flat_designs = [d for d in designs for _ in names]
    flat_attacks = [scenarios[name] for _ in designs for name in names]
    values = evaluate_batch(flat_designs, flat_attacks)
    per_design = [
        {
            name: float(values[row * len(names) + column])
            for column, name in enumerate(names)
        }
        for row in range(len(designs))
    ]
    scores = []
    for design, per_scenario in zip(designs, per_design):
        if aggregate == "min":
            value = min(per_scenario.values())
        else:
            if weights:
                total_weight = sum(weights.get(name, 0.0) for name in per_scenario)
                if total_weight <= 0:
                    raise ConfigurationError("weights must have positive total")
                value = (
                    sum(
                        weights.get(name, 0.0) * ps
                        for name, ps in per_scenario.items()
                    )
                    / total_weight
                )
            else:
                value = sum(per_scenario.values()) / len(per_scenario)
        scores.append(
            DesignScore(architecture=design, per_scenario=per_scenario, aggregate=value)
        )
    scores.sort(key=lambda s: s.aggregate, reverse=True)
    return scores


@dataclasses.dataclass(frozen=True)
class FrontierPoint:
    """A Pareto-optimal design on the break-in/congestion plane."""

    architecture: SOSArchitecture
    break_in_resilience: float
    congestion_resilience: float

    @property
    def label(self) -> str:
        return (
            f"L={self.architecture.layers} "
            f"{self.architecture.mapping_policy.label}"
        )


def tradeoff_frontier(
    designs: Sequence[SOSArchitecture],
    break_in_attack: Optional[Attack] = None,
    congestion_attack: Optional[Attack] = None,
) -> List[FrontierPoint]:
    """Pareto frontier between break-in and congestion resilience.

    Default scenarios follow the paper's evaluation: a break-in-heavy
    successive attack (``N_T = 2000``) and a heavy pure-congestion burst
    (``N_C = 6000``).
    """
    break_in_attack = break_in_attack or SuccessiveAttack(
        break_in_budget=2000, congestion_budget=2000
    )
    congestion_attack = congestion_attack or OneBurstAttack(
        break_in_budget=0, congestion_budget=6000
    )
    points = [
        FrontierPoint(
            architecture=design,
            break_in_resilience=evaluate(design, break_in_attack).p_s,
            congestion_resilience=evaluate(design, congestion_attack).p_s,
        )
        for design in designs
    ]
    frontier = [
        p
        for p in points
        if not any(
            (
                q.break_in_resilience >= p.break_in_resilience
                and q.congestion_resilience >= p.congestion_resilience
                and (
                    q.break_in_resilience > p.break_in_resilience
                    or q.congestion_resilience > p.congestion_resilience
                )
            )
            for q in points
        )
    ]
    frontier.sort(key=lambda p: p.break_in_resilience)
    return frontier

"""The closed loop: detect → traceback → targeted repair.

:class:`DetectionRepairLoop` runs a multi-phase flooding campaign
against one deployment. Each phase simulates the flood with a fresh
:class:`~repro.detection.monitor.TrafficMonitor` attached, then lets a
:class:`~repro.repair.defender.RepairingDefender` act between phases:

* ``mode="none"`` — no repair; the flood persists (lower bound).
* ``mode="oracle"`` — the defender is fed the ground-truth flood
  targets (:class:`~repro.detection.feed.OracleFloodDetector`), the
  omniscient upper bound matching the paper's defender.
* ``mode="detected"`` — the defender sees only what the monitor
  flagged (:class:`~repro.detection.feed.MonitorBackedDetector`):
  detection latency and false positives are paid for real.

Repairing a flooded node models re-keying + re-wiring: the attacker's
flood was aimed at the node's overlay identity, so once repaired the
node leaves the active flood set for subsequent phases (its capacity is
no longer consumed by attack traffic). Repairing a false positive
spends defender capacity for nothing — the cost the detection-driven
curve pays relative to the oracle.

Seeding follows the library-wide discipline: one
:class:`~numpy.random.SeedSequence` fans out into deployment, target
selection, defender, and per-phase simulation streams, so phase 0 is
bit-comparable across modes (they diverge only through repair).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, List, Optional, Set, Tuple

import numpy as np

from repro.core.architecture import SOSArchitecture
from repro.detection.feed import MonitorBackedDetector, OracleFloodDetector
from repro.detection.marking import (
    AttackGraph,
    MarkCollector,
    MarkingConfig,
    build_attack_graph,
)
from repro.detection.monitor import MonitorConfig, TrafficMonitor
from repro.errors import DetectionError
from repro.perf.compiled import TIERS
from repro.repair.policy import RepairPolicy
from repro.repair.defender import RepairingDefender
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    flood_layer,
)
from repro.sos.deployment import SOSDeployment
from repro.utils.seeding import make_rng

if TYPE_CHECKING:  # lazy: repro.scenarios imports this module's classes
    from repro.scenarios.spec import ScenarioSpec

__all__ = ["PhaseOutcome", "LoopResult", "DetectionRepairLoop", "LOOP_MODES"]

LOOP_MODES = ("none", "oracle", "detected")


@dataclasses.dataclass(frozen=True)
class PhaseOutcome:
    """What one flood phase delivered and what the defender did about it.

    ``flagged`` is what the monitor's change-point detection reported
    (recorded in every mode — observation is free); ``repaired`` is what
    the defender actually acted on, which depends on the mode.
    """

    phase: int
    delivery_ratio: float
    flooded: Tuple[int, ...]
    flagged: Tuple[int, ...]
    repaired: Tuple[int, ...]
    #: Injection-schedule identity markers (legitimate packets sent and
    #: attack packets absorbed) — bit-identical across tiers and against
    #: the event-driven oracle on a matched (spec, seed).
    sent: int = 0
    attack_packets: int = 0

    @property
    def false_positives(self) -> Tuple[int, ...]:
        """Flagged nodes that were not actually under flood."""
        under_flood = set(self.flooded)
        return tuple(n for n in self.flagged if n not in under_flood)


@dataclasses.dataclass
class LoopResult:
    """Full outcome of a multi-phase detection/repair campaign."""

    mode: str
    outcomes: List[PhaseOutcome]
    initial_targets: Tuple[int, ...]
    graph: Optional[AttackGraph]
    collector: Optional[MarkCollector]
    #: Name of the :class:`~repro.scenarios.spec.ScenarioSpec` that drove
    #: the campaign (None for classic flood_layer campaigns).
    scenario: Optional[str] = None

    @property
    def final_delivery(self) -> float:
        return self.outcomes[-1].delivery_ratio

    @property
    def delivery_per_phase(self) -> List[float]:
        return [outcome.delivery_ratio for outcome in self.outcomes]

    @property
    def total_repaired(self) -> int:
        return sum(len(outcome.repaired) for outcome in self.outcomes)


class DetectionRepairLoop:
    """Drive repeated flood phases with between-phase repair.

    Parameters mirror the packet-sim experiment harnesses: the
    architecture and sim config define the scenario, the monitor config
    tunes detection, the policy bounds repair (its
    ``detection_probability`` must be 1 — probabilistic detection is the
    *detector's* job here), and an optional marking config additionally
    collects packet marks during phase 0 for traceback analysis.
    """

    def __init__(
        self,
        architecture: SOSArchitecture,
        sim_config: PacketSimConfig,
        monitor_config: MonitorConfig,
        policy: RepairPolicy,
        marking_config: Optional[MarkingConfig] = None,
        seed: Optional[int] = None,
        tier: Optional[str] = None,
    ) -> None:
        if policy.is_noop:
            raise DetectionError(
                "repair policy is a no-op (detection_probability <= 0); "
                "detector-driven repair needs detection_probability=1.0"
            )
        if tier is not None:
            if tier not in TIERS:
                raise DetectionError(
                    f"tier must be one of {TIERS}, got {tier!r}"
                )
            sim_config = dataclasses.replace(sim_config, tier=tier)
        self.architecture = architecture
        self.sim_config = sim_config
        self.monitor_config = monitor_config
        self.policy = policy
        self.marking_config = marking_config
        self.seed = seed
        self.tier = tier

    def run(
        self,
        mode: str = "detected",
        phases: int = 3,
        flood_layer_index: int = 1,
        flood_fraction: float = 0.5,
    ) -> LoopResult:
        """Run ``phases`` flood phases under the given repair ``mode``."""
        if mode not in LOOP_MODES:
            raise DetectionError(
                f"mode must be one of {LOOP_MODES}, got {mode!r}"
            )
        if phases < 1:
            raise DetectionError(f"phases must be >= 1, got {phases}")
        seeds = np.random.SeedSequence(self.seed).spawn(3 + phases)
        deployment = SOSDeployment.deploy(
            self.architecture, rng=make_rng(seeds[0])
        )
        targets = flood_layer(
            deployment,
            flood_layer_index,
            flood_fraction,
            rng=make_rng(seeds[1]),
        )

        graph: Optional[AttackGraph] = None
        collector: Optional[MarkCollector] = None
        if self.marking_config is not None:
            graph = build_attack_graph(targets, self.marking_config)
            collector = MarkCollector(graph, self.marking_config)

        defender: Optional[RepairingDefender] = None
        oracle_feed: Optional[OracleFloodDetector] = None
        monitor_feed: Optional[MonitorBackedDetector] = None
        if mode == "oracle":
            oracle_feed = OracleFloodDetector(targets)
            defender = RepairingDefender(
                self.policy, rng=make_rng(seeds[2]), detector=oracle_feed
            )
        elif mode == "detected":
            monitor_feed = MonitorBackedDetector()
            defender = RepairingDefender(
                self.policy, rng=make_rng(seeds[2]), detector=monitor_feed
            )

        active = list(targets)
        outcomes: List[PhaseOutcome] = []
        for phase in range(phases):
            monitor = TrafficMonitor(self.monitor_config)
            simulation = PacketLevelSimulation(
                deployment,
                self.sim_config,
                rng=make_rng(seeds[3 + phase]),
                monitor=monitor,
                marking=collector if phase == 0 else None,
            )
            report = simulation.run(flood_targets=active)
            flagged = tuple(monitor.flagged_nodes())

            repaired: Tuple[int, ...] = ()
            if defender is not None:
                if oracle_feed is not None:
                    oracle_feed.retarget(active)
                if monitor_feed is not None:
                    monitor_feed.attach(monitor, flagged)
                defender.scan_and_repair(
                    deployment, knowledge=None, now=float(phase)
                )
                repaired = tuple(defender.last_repaired)
            outcomes.append(
                PhaseOutcome(
                    phase=phase,
                    delivery_ratio=report.delivery_ratio,
                    flooded=tuple(active),
                    flagged=flagged,
                    repaired=repaired,
                    sent=report.sent,
                    attack_packets=report.attack_packets_absorbed,
                )
            )
            # A repaired node is re-keyed: the attacker's flood against
            # its old identity no longer lands, so it leaves the active
            # set for later phases.
            if repaired:
                gone = set(repaired)
                active = [n for n in active if n not in gone]
        return LoopResult(
            mode=mode,
            outcomes=outcomes,
            initial_targets=tuple(targets),
            graph=graph,
            collector=collector,
        )

    # ------------------------------------------------------------------
    # Scenario campaigns
    # ------------------------------------------------------------------
    @classmethod
    def for_scenario(
        cls,
        spec: "ScenarioSpec",
        monitor_config: Optional[MonitorConfig] = None,
        policy: Optional[RepairPolicy] = None,
        seed: Optional[int] = None,
        tier: Optional[str] = None,
    ) -> "DetectionRepairLoop":
        """A loop wired for ``spec``: its architecture, its sim knobs.

        ``tier`` overrides the spec's tier; ``seed`` overrides the
        spec's seed (both default to what the spec pins, keeping zoo
        runs reproducible from the JSON alone).
        """
        resolved_tier = tier if tier is not None else spec.tier
        return cls(
            architecture=spec.build_architecture(),
            sim_config=spec.sim_config(tier=resolved_tier),
            monitor_config=(
                monitor_config if monitor_config is not None else MonitorConfig()
            ),
            policy=(
                policy
                if policy is not None
                else RepairPolicy(detection_probability=1.0)
            ),
            seed=seed,
            tier=resolved_tier,
        )

    def run_scenario(
        self,
        spec: "ScenarioSpec",
        mode: str = "detected",
        phases: int = 3,
        abort_check: Optional[Callable[[], None]] = None,
    ) -> LoopResult:
        """Run ``phases`` repair rounds of a compiled scenario campaign.

        Each round recompiles the spec with ``salt=round`` (fresh attack
        and surge traffic, *identical* target selection — the target
        streams are salt-independent) and subtracts every node repaired
        so far from the schedule, mirroring the classic loop's
        "repaired nodes leave the active flood set". ``abort_check`` is
        called before each round (the service's cooperative-cancel hook).

        Ground truth for detection quality is the schedule's attack
        target set; a benign-only scenario has an empty truth set, so
        anything flagged there is a false positive by construction.
        """
        from repro.scenarios.schedule import compile_scenario

        if mode not in LOOP_MODES:
            raise DetectionError(
                f"mode must be one of {LOOP_MODES}, got {mode!r}"
            )
        if phases < 1:
            raise DetectionError(f"phases must be >= 1, got {phases}")
        if self.marking_config is not None:
            raise DetectionError(
                "scenario campaigns do not support packet marking; run "
                "marking against a classic flood_layer campaign instead"
            )
        seed = self.seed if self.seed is not None else spec.seed
        # Same seed layout as :meth:`run` (deployment, target-picker,
        # defender, then one per phase); slot 1 goes unused because the
        # scenario's own target streams replace flood_layer's picker.
        seeds = np.random.SeedSequence(seed).spawn(3 + phases)
        deployment = SOSDeployment.deploy(
            self.architecture, rng=make_rng(seeds[0])
        )
        base = compile_scenario(spec, deployment, salt=0)
        targets = list(base.schedule.attack_targets)

        defender: Optional[RepairingDefender] = None
        oracle_feed: Optional[OracleFloodDetector] = None
        monitor_feed: Optional[MonitorBackedDetector] = None
        if mode == "oracle":
            oracle_feed = OracleFloodDetector(targets)
            defender = RepairingDefender(
                self.policy, rng=make_rng(seeds[2]), detector=oracle_feed
            )
        elif mode == "detected":
            monitor_feed = MonitorBackedDetector()
            defender = RepairingDefender(
                self.policy, rng=make_rng(seeds[2]), detector=monitor_feed
            )

        repaired_union: Set[int] = set()
        outcomes: List[PhaseOutcome] = []
        for phase in range(phases):
            if abort_check is not None:
                abort_check()
            compiled = (
                base
                if phase == 0
                else compile_scenario(spec, deployment, salt=phase)
            )
            schedule = compiled.schedule.without_targets(repaired_union)
            active = [n for n in targets if n not in repaired_union]
            monitor = TrafficMonitor(self.monitor_config)
            simulation = PacketLevelSimulation(
                deployment,
                self.sim_config,
                rng=make_rng(seeds[3 + phase]),
                monitor=monitor,
            )
            report = simulation.run(schedule=schedule)
            flagged = tuple(monitor.flagged_nodes())

            repaired: Tuple[int, ...] = ()
            if defender is not None:
                if oracle_feed is not None:
                    oracle_feed.retarget(active)
                if monitor_feed is not None:
                    monitor_feed.attach(monitor, flagged)
                defender.scan_and_repair(
                    deployment, knowledge=None, now=float(phase)
                )
                repaired = tuple(defender.last_repaired)
            outcomes.append(
                PhaseOutcome(
                    phase=phase,
                    delivery_ratio=report.delivery_ratio,
                    flooded=tuple(active),
                    flagged=flagged,
                    repaired=repaired,
                    sent=report.sent,
                    attack_packets=report.attack_packets_absorbed,
                )
            )
            repaired_union.update(repaired)
        return LoopResult(
            mode=mode,
            outcomes=outcomes,
            initial_targets=tuple(targets),
            graph=None,
            collector=None,
            scenario=spec.name,
        )

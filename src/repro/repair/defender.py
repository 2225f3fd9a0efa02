"""The repairing defender: executes a RepairPolicy against a deployment.

Plugs into :class:`~repro.attacks.strategies.SuccessiveStrategy` through
its ``on_round_end`` hook, so repair happens exactly where the paper's
future-work discussion places it: between successive break-in rounds,
racing the attacker's disclosure cascade.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.attacks.knowledge import AttackerKnowledge
from repro.perf.compiled import choice_rows
from repro.repair.policy import RepairPolicy
from repro.sos.deployment import SOSDeployment
from repro.utils.seeding import SeedLike, make_rng

if TYPE_CHECKING:  # runtime import would cycle through repro.simulation
    from repro.resilience.detector import FailureDetector


class RepairingDefender:
    """Scans for bad SOS nodes after each attack round and repairs them.

    With a :class:`~repro.resilience.detector.FailureDetector` installed,
    detection is heartbeat-based: repair acts on nodes whose failure has
    been *observed* for long enough (plus the detector's false alarms)
    instead of the omniscient per-node coin the policy's
    ``detection_probability`` describes. The policy's capacity limit and
    rewire behavior apply either way.
    """

    def __init__(
        self,
        policy: RepairPolicy,
        rng: SeedLike = None,
        detector: "Optional[FailureDetector]" = None,
    ) -> None:
        self.policy = policy
        self._rng = make_rng(rng)
        self.detector = detector
        self.repairs_per_round: Dict[int, int] = {}
        self.total_repaired = 0
        #: Node ids repaired by the most recent scan, in repair order —
        #: lets detection-driven loops react to *which* nodes were fixed.
        self.last_repaired: List[int] = []

    # The SuccessiveStrategy on_round_end signature.
    def __call__(
        self,
        deployment: SOSDeployment,
        knowledge: AttackerKnowledge,
        round_index: int,
    ) -> None:
        # Round-hooked usage has no wall clock; one round = one time unit,
        # so a detector timeout of k means "k rounds of missed heartbeats".
        repaired = self.scan_and_repair(
            deployment, knowledge, now=float(round_index)
        )
        self.repairs_per_round[round_index] = repaired

    def scan_and_repair(
        self,
        deployment: SOSDeployment,
        knowledge: Optional[AttackerKnowledge] = None,
        now: float = 0.0,
    ) -> int:
        """One scan: detect, repair, re-key. Returns the repair count.

        ``knowledge=None`` covers packet-level workloads (e.g. the
        detection-driven repair loop) where no break-in attacker — and
        hence no knowledge set to invalidate — exists; the repair
        itself (recover, forget, rewire) is identical.
        """
        self.last_repaired = []
        if self.policy.is_noop:
            return 0
        if self.detector is not None:
            detected = self.detector.scan(deployment, now)
        else:
            # Columnar scan: one health-mask per layer, one block of
            # uniforms per layer's bad nodes. The block draw consumes the
            # stream exactly like the historical per-node ``random()``
            # calls (bad nodes only, layer-major in sorted-member order),
            # so the detected set is bit-identical to the scalar scan.
            detected = []
            filter_layer = deployment.architecture.layers + 1
            for layer in range(1, filter_layer + 1):
                store = (
                    deployment.filters.store
                    if layer == filter_layer
                    else deployment.network.store
                )
                rows = deployment.member_rows(layer)
                bad = store.health[rows] != 0
                bad_count = int(bad.sum())
                if bad_count == 0:
                    continue
                draws = self._rng.random(bad_count)
                hits = deployment.member_array(layer)[bad][
                    draws < self.policy.detection_probability
                ]
                detected.extend(int(node_id) for node_id in hits)
        if self.policy.capacity_per_round is not None:
            self._rng.shuffle(detected)
            detected = detected[: self.policy.capacity_per_round]
        for node_id in detected:
            self._repair_node(deployment, knowledge, node_id)
        self.total_repaired += len(detected)
        self.last_repaired = list(detected)
        return len(detected)

    def _repair_node(
        self,
        deployment: SOSDeployment,
        knowledge: Optional[AttackerKnowledge],
        node_id: int,
    ) -> None:
        node = deployment.resolve(node_id)
        node.recover()
        if self.detector is not None:
            self.detector.forget(node_id)
        # Re-keying invalidates everything the attacker knew about the node.
        if knowledge is not None:
            knowledge.broken.discard(node_id)
            knowledge.disclosed.discard(node_id)
            knowledge.known_unattacked.discard(node_id)
            knowledge.forfeited.discard(node_id)
            knowledge.attempted.discard(node_id)
            knowledge.disclosed_filters.discard(node_id)
        if self.policy.rewire and node_id not in deployment.filters:
            self._rewire(deployment, node_id)

    def _rewire(self, deployment: SOSDeployment, node_id: int) -> None:
        """Draw a fresh next-layer neighbor table for a repaired node."""
        node = deployment.network.get(node_id)
        if node.sos_layer is None:
            return
        next_layer = node.sos_layer + 1
        if next_layer > deployment.architecture.layers + 1:
            return
        candidates = deployment.layer_members(next_layer)
        degree = min(
            deployment.architecture.mapping_degree(next_layer), len(candidates)
        )
        chosen = choice_rows(self._rng, len(candidates), degree, 1)[0]
        node.set_neighbors(tuple(candidates[int(i)] for i in chosen))
        if next_layer == deployment.architecture.layers + 1:
            deployment.filters.allow_servlet(node_id)

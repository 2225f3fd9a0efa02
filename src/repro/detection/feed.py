"""Adapters feeding detection output into the repair loop.

:class:`~repro.repair.defender.RepairingDefender` accepts any detector
exposing the :class:`~repro.resilience.detector.FailureDetector`
protocol — ``scan(deployment, now) -> List[int]`` and
``forget(node_id)``. This module provides two such detectors for the
detect→traceback→repair workload:

* :class:`MonitorBackedDetector` wraps a
  :class:`~repro.detection.monitor.TrafficMonitor`: a scan returns the
  members the change-point statistics have flagged by ``now`` — repair
  driven purely by observed traffic, false positives and detection
  latency included.
* :class:`OracleFloodDetector` returns the ground-truth flood targets —
  the omniscient upper bound the detection-driven numbers are compared
  against in the ``det-traceback`` experiment.

Both detectors are deterministic given their inputs (neither consumes
an RNG stream), and both return node ids in the same layer-membership
order the heartbeat detector uses.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.detection.monitor import MonitorConfig, TrafficMonitor
from repro.errors import DetectionError
from repro.sos.deployment import SOSDeployment

__all__ = ["MonitorBackedDetector", "OracleFloodDetector"]


def _membership_order(
    deployment: SOSDeployment, candidates: Set[int]
) -> List[int]:
    """Filter ``candidates`` to current members, in layer-membership order."""
    ordered: List[int] = []
    for layer in range(1, deployment.architecture.layers + 2):
        for node_id in deployment.layer_members(layer):
            if node_id in candidates:
                ordered.append(node_id)
    return ordered


class MonitorBackedDetector:
    """Drive repair from a :class:`TrafficMonitor`'s flags.

    One detector typically spans several monitor lifetimes (the repair
    loop attaches a fresh monitor per flood phase via :meth:`attach`);
    ``forget`` suppresses a repaired node until the next attach so one
    phase's evidence cannot repair the same node twice.
    """

    def __init__(
        self,
        monitor: Optional[TrafficMonitor] = None,
        config: Optional[MonitorConfig] = None,
    ) -> None:
        self.monitor = monitor
        self.config = config
        self._flagged: Optional[Set[int]] = None
        self._forgotten: Set[int] = set()
        self.last_detected: List[int] = []
        self.scans = 0

    def attach(
        self,
        monitor: TrafficMonitor,
        flagged: Optional[Iterable[int]] = None,
    ) -> None:
        """Point the detector at a new run's evidence.

        ``flagged`` hands over the monitor's flag set when the caller
        already computed it (``monitor.flagged_nodes(config=...)`` under
        this detector's ``config``, on the run's final evidence), so
        scans reuse it instead of rescanning the same counters.
        """
        self.monitor = monitor
        self._flagged = None if flagged is None else set(flagged)
        self._forgotten.clear()

    def scan(self, deployment: SOSDeployment, now: float) -> List[int]:
        """Members flagged by the monitor's evidence up to ``now``."""
        self.scans += 1
        if self.monitor is None:
            raise DetectionError(
                "MonitorBackedDetector.scan before any monitor was attached"
            )
        flagged = (
            self._flagged
            if self._flagged is not None
            else set(self.monitor.flagged_nodes(config=self.config))
        ) - self._forgotten
        self.last_detected = _membership_order(deployment, flagged)
        return list(self.last_detected)

    def forget(self, node_id: int) -> None:
        self._forgotten.add(node_id)


class OracleFloodDetector:
    """Ground-truth detector: flags exactly the current flood targets.

    The comparison baseline for detection-driven repair; mirrors the
    paper's omniscient defender, restricted to nodes actually under
    flood.
    """

    def __init__(self, targets: Iterable[int]) -> None:
        self._targets: Set[int] = set(targets)
        self._forgotten: Set[int] = set()
        self.last_detected: List[int] = []
        self.scans = 0

    def retarget(self, targets: Iterable[int]) -> None:
        """Update the ground truth for the next flood phase."""
        self._targets = set(targets)
        self._forgotten.clear()

    def scan(self, deployment: SOSDeployment, now: float) -> List[int]:
        self.scans += 1
        self.last_detected = _membership_order(
            deployment, self._targets - self._forgotten
        )
        return list(self.last_detected)

    def forget(self, node_id: int) -> None:
        self._forgotten.add(node_id)

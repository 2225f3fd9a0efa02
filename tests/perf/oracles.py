"""Per-event reference implementations the production kernels are tested
against.

Each oracle is the plain-Python (or object-walking) form of a production
hot path: slow, but short enough to check by reading. None of them runs
outside the test suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.detection.monitor import MonitorConfig, TrafficMonitor, _detection_bin
from repro.perf.fastsim import DeploymentArrays, SlotIndex
from repro.sos.deployment import SOSDeployment


def _scalar_bucket_scan(
    slots: np.ndarray,
    times: np.ndarray,
    capacity: float,
    burst: float,
) -> np.ndarray:
    """Per-event Python replay of the grouped token-bucket scan.

    Every event runs the Lindley deficit recursion one at a time in plain
    Python floats — no closed form, no run skipping. Returns the accept
    flags in input order, like the kernel sets' ``bucket_scan``; rejected
    events leave the ``(z, y)`` state untouched because the clamp at zero
    makes the deficit a pure function of the last *accept*, not of
    intervening rejects.
    """
    n = len(slots)
    slot_list = [int(value) for value in slots.tolist()]
    time_list = [float(value) for value in times.tolist()]
    order = sorted(range(n), key=lambda i: (slot_list[i], time_list[i]))
    accept = np.zeros(n, dtype=bool)
    limit = burst - 1.0
    state: Dict[int, Tuple[float, float]] = {}
    for i in order:
        slot = slot_list[i]
        s = time_list[i] * capacity
        z, y = state.get(slot, (0.0, 0.0))
        zp = z - (s - y)
        if zp < 0.0:
            zp = 0.0
        if zp <= limit:
            accept[i] = True
            state[slot] = (zp + 1.0, s)
    return accept


def _encode_deployment_objects(deployment: SOSDeployment) -> DeploymentArrays:
    """The pre-SoA encoder: walk every node object. The oracle
    :func:`repro.perf.fastsim.encode_deployment` is property-tested
    against."""
    layers = deployment.architecture.layers
    node_ids: List[int] = []
    layer_of: List[int] = []
    members: Dict[int, np.ndarray] = {}
    slot_of: Dict[int, int] = {}
    local_of: List[int] = []
    for layer in range(1, layers + 2):
        ids = deployment.layer_members(layer)
        start = len(node_ids)
        members[layer] = np.arange(start, start + len(ids), dtype=np.int64)
        for local, node_id in enumerate(ids):
            slot_of[node_id] = len(node_ids)
            node_ids.append(node_id)
            layer_of.append(layer)
            local_of.append(local)
    is_bad = np.array(
        [deployment.resolve(node_id).is_bad for node_id in node_ids], dtype=bool
    )
    neighbors: Dict[int, np.ndarray] = {}
    for layer in range(1, layers + 1):
        rows = [
            [slot_of[n] for n in deployment.resolve(node_id).neighbors]
            for node_id in deployment.layer_members(layer)
        ]
        matrix = np.asarray(rows, dtype=np.int64)
        if matrix.ndim == 1:  # no members: normalize to a (0, 0) matrix
            matrix = matrix.reshape(len(rows), 0)
        neighbors[layer] = matrix
    flat_ids = np.asarray(node_ids, dtype=np.int64)
    return DeploymentArrays(
        layers=layers,
        node_ids=flat_ids,
        slot_of=SlotIndex(flat_ids),
        layer_of=np.asarray(layer_of, dtype=np.int64),
        local_of=np.asarray(local_of, dtype=np.int64),
        members=members,
        neighbors=neighbors,
        is_bad=is_bad,
    )


def scalar_detection_bins(
    monitor: TrafficMonitor,
    config: Optional[MonitorConfig] = None,
    node_ids: Optional[List[int]] = None,
) -> Dict[int, Optional[int]]:
    """:meth:`TrafficMonitor.detection_bins` as one per-node
    :func:`_detection_bin` loop over ``node_ids`` (default: every
    observed node)."""
    resolved = config if config is not None else monitor.config
    through = monitor.last_bin()
    ids = monitor.nodes() if node_ids is None else node_ids
    return {
        node_id: (
            _detection_bin(monitor.series(node_id, through), resolved)
            if through >= 0
            else None
        )
        for node_id in ids
    }


def scalar_detect_bins(
    series: np.ndarray,
    means: np.ndarray,
    sigmas: np.ndarray,
    base_end: int,
    method: str,
    threshold: float,
    drift: float,
    alpha: float,
) -> np.ndarray:
    """First-crossing bin per row (-1 = never), one row at a time in
    plain Python floats — the reference for the batched detector scan."""
    out: List[int] = []
    for row, mean, sigma in zip(series.tolist(), means.tolist(), sigmas.tolist()):
        crossing = -1
        if method == "cusum":
            statistic = 0.0
            for index in range(base_end, len(row)):
                deviation = (row[index] - mean) / sigma
                statistic = max(0.0, (statistic + deviation) - drift)
                if statistic > threshold:
                    crossing = index
                    break
        else:
            smoothed = mean
            for index in range(base_end, len(row)):
                smoothed = alpha * row[index] + (1.0 - alpha) * smoothed
                if (smoothed - mean) / sigma > threshold:
                    crossing = index
                    break
        out.append(crossing)
    return np.asarray(out, dtype=np.int64)

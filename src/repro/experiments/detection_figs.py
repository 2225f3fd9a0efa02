"""The detection axis: closing the detect → traceback → repair loop.

Three figures exercise :mod:`repro.detection` end to end on a shared
reference scenario (the ``resilience_flooding`` deployment with a
delayed flood so the monitor sees a clean baseline):

``det-traceback`` — the headline loop comparison: delivery ratio per
flood phase with no repair, oracle-driven repair (ground-truth targets),
and detection-driven repair (only what the traffic monitor flagged).
The figure also evaluates packet-marking traceback on the phase-0 flood
and reports the packet budget at which ≥90% of the true attack paths
reconstruct.

``det-ppm`` — packets-needed-vs-accuracy curves for the probabilistic
marking scheme at two marking probabilities, in the spirit of
Barak-Pelleg et al. (arXiv:2304.05204): one simulated flood per
probability, the whole curve evaluated post-hoc from recorded
first-arrival packet indices.

``det-sweep`` — the detector operating curve: one simulated flood,
the CUSUM threshold swept post-hoc over the same recorded evidence.
Detection latency is *exactly* non-decreasing and the false-positive
count *exactly* non-increasing in the threshold (the statistic
trajectory does not depend on it), so the claims are structural.

All three run the library's one packet engine.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.core.architecture import SOSArchitecture
from repro.detection.loop import DetectionRepairLoop, LoopResult
from repro.detection.marking import MarkCollector, MarkingConfig, build_attack_graph
from repro.detection.monitor import MonitorConfig, TrafficMonitor
from repro.detection.traceback import AttackGraphReconstructor
from repro.errors import DetectionError
from repro.experiments import config
from repro.experiments.result import (
    Claim,
    FigureResult,
    dominates,
    non_decreasing,
    non_increasing,
)
from repro.repair.policy import RepairPolicy
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    flood_layer,
)
from repro.sos.deployment import SOSDeployment
from repro.utils.seeding import make_rng

#: Reference flooded scenario: the resilience-flooding deployment with
#: the flood switched on at t=5 so bins [2, 5) provide a clean baseline.
REFERENCE_SIM = PacketSimConfig(
    duration=16.0,
    warmup=2.0,
    clients=6,
    client_rate=2.0,
    flood_start=5.0,
)
REFERENCE_MONITOR = MonitorConfig(
    bin_width=0.5,
    method="cusum",
    threshold=8.0,
    drift=0.5,
    warmup_bins=4,
    baseline_bins=6,
)
REFERENCE_MARKING = MarkingConfig(
    probability=0.08, sources_per_target=2, path_depth=6
)
PPM_BUDGETS = (25, 50, 100, 200, 400, 800, 1600, 3200)
THRESHOLD_SWEEP = (2.0, 8.0, 32.0, 128.0, 512.0, 2048.0)


def _architecture() -> SOSArchitecture:
    return SOSArchitecture(
        layers=3,
        mapping="one-to-two",
        total_overlay_nodes=config.TOTAL_OVERLAY_NODES,
        sos_nodes=config.SOS_NODES,
        filters=config.FILTERS,
    )


def _flooded_run(
    seed: int,
    marking: Optional[MarkingConfig],
    monitor_config: MonitorConfig,
    flood_fraction: float = 0.5,
):
    """One reference flood: returns (monitor, collector, graph, report)."""
    seeds = np.random.SeedSequence(seed).spawn(3)
    deployment = SOSDeployment.deploy(_architecture(), rng=make_rng(seeds[0]))
    targets = flood_layer(deployment, 1, flood_fraction, rng=make_rng(seeds[1]))
    graph = None
    collector = None
    if marking is not None:
        graph = build_attack_graph(targets, marking)
        collector = MarkCollector(graph, marking)
    monitor = TrafficMonitor(monitor_config)
    simulation = PacketLevelSimulation(
        deployment,
        REFERENCE_SIM,
        rng=make_rng(seeds[2]),
        monitor=monitor,
        marking=collector,
    )
    report = simulation.run(flood_targets=targets)
    return monitor, collector, graph, targets, report


def det_traceback(trials: int = 2, seed: int = 101) -> FigureResult:
    """Delivery per flood phase: no repair vs oracle vs detection-driven."""
    loop = DetectionRepairLoop(
        _architecture(),
        REFERENCE_SIM,
        REFERENCE_MONITOR,
        RepairPolicy(detection_probability=1.0),
        marking_config=REFERENCE_MARKING,
        seed=seed,
    )
    phases = 3
    series: Dict[str, List[float]] = {
        "no repair": [0.0] * phases,
        "oracle repair": [0.0] * phases,
        "detection-driven repair": [0.0] * phases,
    }
    label_of = {
        "none": "no repair",
        "oracle": "oracle repair",
        "detected": "detection-driven repair",
    }
    detected_runs: List[LoopResult] = []
    for offset in range(trials):
        for mode, label in label_of.items():
            run = DetectionRepairLoop(
                loop.architecture,
                loop.sim_config,
                loop.monitor_config,
                loop.policy,
                marking_config=loop.marking_config,
                seed=seed + offset,
            ).run(mode=mode, phases=phases, flood_fraction=0.5)
            for phase, value in enumerate(run.delivery_per_phase):
                series[label][phase] += value / trials
            if mode == "detected":
                detected_runs.append(run)

    # Traceback on the phase-0 flood of the first detection-driven run:
    # the packet budget reported below is the smallest per-victim budget
    # at which >= 90% of the true attack paths reconstruct.
    run0 = detected_runs[0]
    if run0.collector is None or run0.graph is None:
        raise DetectionError("loop was built with marking but kept no marks")
    reconstructor = AttackGraphReconstructor(run0.collector)
    full = reconstructor.evaluate(run0.graph)
    budget = full.packets_needed(0.9)
    recovery_at_budget = (
        reconstructor.evaluate(run0.graph, budget=budget).recovery_rate
        if budget is not None
        else 0.0
    )

    claims = [
        Claim(
            "oracle-driven repair dominates no repair in every phase",
            dominates(series["oracle repair"], series["no repair"], slack=0.02),
        ),
        Claim(
            "detection-driven repair recovers delivery above the "
            "no-repair level by the final phase",
            series["detection-driven repair"][-1]
            >= series["no repair"][-1] + 0.1,
        ),
        Claim(
            "detection-driven repair ends within 0.05 of the oracle "
            "(detection latency and false positives cost little here)",
            series["detection-driven repair"][-1]
            >= series["oracle repair"][-1] - 0.05,
        ),
        Claim(
            "traceback reconstructs >= 90% of true attack paths within "
            "the reported packet budget",
            budget is not None and recovery_at_budget >= 0.9,
        ),
    ]
    return FigureResult(
        figure_id="det-traceback",
        title="Delivery ratio per flood phase: repair driven by ground "
        "truth vs online detection",
        x_label="flood phase",
        x_values=list(range(phases)),
        series=series,
        claims=claims,
        notes=f"Mean over {trials} campaign seed(s); flood on 50% of layer "
        f"1 starting at t={REFERENCE_SIM.flood_start}, CUSUM monitor "
        f"(threshold {REFERENCE_MONITOR.threshold}), repair between "
        "phases re-keys flagged nodes. Traceback on the phase-0 flood "
        f"(marking p={REFERENCE_MARKING.probability}): "
        f"{full.recovery_rate:.0%} of {full.total_paths} paths recovered "
        f"from {full.packets_observed} flood packets; >= 90% reconstruct "
        f"within a per-victim budget of {budget} packets. "
        "Vectorized fast engine.",
    )


def det_ppm(seed: int = 101) -> FigureResult:
    """Traceback accuracy vs per-victim packet budget, two marking rates."""
    series: Dict[str, List[float]] = {}
    probabilities = (0.03, 0.10)
    for probability in probabilities:
        marking = dataclasses.replace(REFERENCE_MARKING, probability=probability)
        _, collector, graph, _, _ = _flooded_run(
            seed, marking, REFERENCE_MONITOR
        )
        if collector is None or graph is None:
            raise DetectionError("marking run produced no collector")
        reconstructor = AttackGraphReconstructor(collector)
        series[f"p = {probability}"] = reconstructor.accuracy_curve(
            graph, list(PPM_BUDGETS)
        )

    claims = [
        Claim(
            "accuracy is non-decreasing in the packet budget "
            "(larger budgets only add marks; exact, not statistical)",
            all(non_decreasing(curve, slack=0.0) for curve in series.values()),
        ),
        Claim(
            "the stronger marking rate reconstructs >= 90% of paths "
            "within the largest budget",
            series[f"p = {probabilities[1]}"][-1] >= 0.9,
        ),
        Claim(
            "at shallow paths the stronger marking rate needs no more "
            "packets than the weak one for full-budget accuracy",
            series[f"p = {probabilities[1]}"][-1]
            >= series[f"p = {probabilities[0]}"][-1] - 1e-9,
        ),
    ]
    return FigureResult(
        figure_id="det-ppm",
        title="Attack-path reconstruction accuracy vs per-victim packet "
        "budget (probabilistic packet marking)",
        x_label="per-victim packet budget",
        x_values=list(PPM_BUDGETS),
        series=series,
        claims=claims,
        notes="One reference flood per marking probability (same seed); "
        f"paths of depth {REFERENCE_MARKING.path_depth}, "
        f"{REFERENCE_MARKING.sources_per_target} sources per victim. "
        "Curves are evaluated post-hoc from recorded first-arrival "
        "packet indices, so every budget shares one simulation. "
        "Vectorized fast engine.",
    )


def det_sweep(seed: int = 107) -> FigureResult:
    """Detection latency and false positives vs CUSUM threshold."""
    monitor, _, _, targets, _ = _flooded_run(seed, None, REFERENCE_MONITOR)
    flooded = set(targets)
    # Any real detection happens by the drain horizon, strictly inside
    # duration + 1; undetected nodes are charged this cap so per-node
    # latency stays monotone in the threshold even for very late flags.
    latency_cap = (REFERENCE_SIM.duration + 1.0) - REFERENCE_SIM.flood_start
    latencies: List[float] = []
    false_positives: List[float] = []
    detected_all: List[bool] = []
    for threshold in THRESHOLD_SWEEP:
        tuned = dataclasses.replace(REFERENCE_MONITOR, threshold=threshold)
        per_node: List[float] = []
        for node_id in sorted(flooded):
            when = monitor.detection_time(node_id, config=tuned)
            if when is None:
                per_node.append(latency_cap)
            else:
                per_node.append(when - REFERENCE_SIM.flood_start)
        latencies.append(sum(per_node) / len(per_node))
        flagged = monitor.flagged_nodes(config=tuned)
        false_positives.append(
            float(sum(1 for node_id in flagged if node_id not in flooded))
        )
        detected_all.append(all(
            value < latency_cap for value in per_node
        ))

    claims = [
        Claim(
            "detection latency is non-decreasing in the threshold "
            "(exact: the CUSUM trajectory does not depend on it)",
            non_decreasing(latencies, slack=0.0),
        ),
        Claim(
            "the false-positive count is non-increasing in the "
            "threshold (exact)",
            non_increasing(false_positives, slack=0.0),
        ),
        Claim(
            "the lowest threshold detects every flooded node",
            detected_all[0],
        ),
    ]
    return FigureResult(
        figure_id="det-sweep",
        title="Detector operating curve: detection latency and false "
        "positives vs CUSUM threshold",
        x_label="CUSUM threshold (baseline sigmas)",
        x_values=list(THRESHOLD_SWEEP),
        series={
            "mean detection latency": latencies,
            "false positives": false_positives,
        },
        claims=claims,
        notes="One reference flood; thresholds evaluated post-hoc over "
        "the same recorded per-bin counters (a sweep costs one "
        f"simulation). Undetected nodes are charged the {latency_cap} "
        "latency cap. "
        "Vectorized fast engine.",
    )

"""The resilience axis: ``P_S`` under benign churn and slow detection.

The paper's engagement is a pure attacker-vs-architecture race; these
experiments add the third force real deployments face — benign node
churn — and the defender's imperfect view of it.

``res-churn`` sweeps the fraction of SOS nodes lost to benign crashes
under the paper's default one-burst and successive attacks. Crash sets
are nested across churn levels (same seed), so the reachability curves
are *exactly* monotone, not just statistically so, and the zero-churn
point reproduces the churn-free estimator bit-for-bit.

``res-detect`` sweeps the failure detector's timeout in a repair-enabled
campaign with continuous churn: the longer a failure goes undetected,
the longer the window where the attacker's damage and benign losses
accumulate unrepaired.

``res-flood`` drops to the packet level: it sweeps the fraction of the
first SOS layer under flooding attack and measures the delivered
fraction of legitimate traffic across independent deployments, using
the packet engine in :mod:`repro.perf.fastsim`.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.architecture import SOSArchitecture
from repro.core.attack_models import OneBurstAttack, SuccessiveAttack
from repro.experiments import config
from repro.experiments.result import Claim, FigureResult, non_increasing
from repro.repair.policy import RepairPolicy
from repro.resilience.detector import DetectorConfig
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.simulation.campaign import CampaignConfig, run_campaign
from repro.simulation.monte_carlo import MonteCarloConfig, MonteCarloEstimator

CHURN_SWEEP = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
TIMEOUT_SWEEP = (0.0, 5.0, 10.0, 20.0, 40.0)
FLOOD_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)


def _architecture() -> SOSArchitecture:
    return SOSArchitecture(
        layers=3,
        mapping="one-to-two",
        total_overlay_nodes=config.TOTAL_OVERLAY_NODES,
        sos_nodes=config.SOS_NODES,
        filters=config.FILTERS,
    )


def resilience_churn(trials: int = 30, seed: int = 23) -> FigureResult:
    """``P_S`` (reachability) vs benign churn fraction, under both attacks."""
    architecture = _architecture()
    attacks = {
        "one-burst": OneBurstAttack(
            break_in_budget=100,
            congestion_budget=config.CONGESTION_BUDGET,
            break_in_success=config.BREAK_IN_SUCCESS,
        ),
        "successive": SuccessiveAttack(
            break_in_budget=config.BREAK_IN_BUDGET,
            congestion_budget=config.CONGESTION_BUDGET,
            break_in_success=config.BREAK_IN_SUCCESS,
            rounds=config.ROUNDS,
            prior_knowledge=config.PRIOR_KNOWLEDGE,
        ),
    }
    series: Dict[str, List[float]] = {}
    warnings: List[str] = []
    for label, attack in attacks.items():
        values = []
        for churn in CHURN_SWEEP:
            estimator = MonteCarloEstimator(
                MonteCarloConfig(
                    trials=trials,
                    clients_per_trial=4,
                    metric="reachability",
                    seed=seed,
                    churn_fraction=churn,
                )
            )
            estimate = estimator.estimate(architecture, attack)
            values.append(estimate.mean)
            if estimate.failed_trials:
                warnings.append(
                    f"{label} @ churn={churn}: {estimate.failed_trials} "
                    f"trial(s) failed and were excluded "
                    f"(coverage {estimate.coverage:.0%})"
                )
        series[label] = values

    positive_churn = {
        label: values[1:] for label, values in series.items()
    }
    claims = [
        Claim(
            "P_S is monotonically non-increasing in the churn fraction "
            "(nested crash sets, both attacks)",
            all(non_increasing(values) for values in positive_churn.values())
            and all(
                values[0] >= values[-1] - 1e-9 for values in series.values()
            ),
        ),
        Claim(
            "half the membership crashing degrades P_S below the "
            "churn-free level under the successive attack",
            series["successive"][-1] <= series["successive"][0],
        ),
        Claim(
            "benign churn alone never helps the defender "
            "(no curve rises above its churn-free starting point)",
            all(
                value <= values[0] + 1e-9
                for values in series.values()
                for value in values
            ),
        ),
    ]
    return FigureResult(
        figure_id="res-churn",
        title="P_S vs benign churn fraction under intelligent attacks "
        "(reachability, nested crash sets)",
        x_label="churn fraction",
        x_values=list(CHURN_SWEEP),
        series=series,
        claims=claims,
        notes=f"{trials} deployments per point; crashes are benign "
        "(pre-attack, no disclosure) and nested across churn levels, so "
        "monotonicity is structural, not statistical.",
        warnings=warnings,
    )


def resilience_detection(trials: int = 5, seed: int = 31) -> FigureResult:
    """Campaign-level ``P_S`` vs failure-detection timeout under churn."""
    architecture = _architecture()
    attack = SuccessiveAttack(
        break_in_budget=80,
        congestion_budget=300,
        break_in_success=config.BREAK_IN_SUCCESS,
        rounds=config.ROUNDS,
        prior_knowledge=config.PRIOR_KNOWLEDGE,
    )
    campaign_config = CampaignConfig(
        repair_interval=4.0, probes_per_sample=20, cooldown=40.0
    )
    plan = FaultPlan(crash_rate=0.5, mean_downtime=15.0)
    final: List[float] = []
    minimum: List[float] = []
    for timeout in TIMEOUT_SWEEP:
        finals = []
        minima = []
        for offset in range(trials):
            report = run_campaign(
                architecture,
                attack,
                RepairPolicy(detection_probability=1.0),
                campaign_config,
                seed=seed + offset,
                fault_plan=plan,
                detector_config=DetectorConfig(timeout=timeout),
                retry_policy=RetryPolicy(max_attempts_per_hop=3),
            )
            finals.append(report.final)
            minima.append(report.minimum)
        final.append(sum(finals) / len(finals))
        minimum.append(sum(minima) / len(minima))

    claims = [
        Claim(
            "instantaneous detection ends the engagement at least as "
            "healthy as the slowest detector",
            final[0] >= final[-1] - 0.05,
        ),
        Claim(
            "every timeout still leaves a visible damage trough "
            "(detection latency cannot prevent the attack, only shorten it)",
            all(value < 1.0 for value in minimum),
        ),
    ]
    return FigureResult(
        figure_id="res-detect",
        title="Campaign P_S vs failure-detection timeout "
        "(churn rate 0.5, repair every 4)",
        x_label="detection timeout",
        x_values=list(TIMEOUT_SWEEP),
        series={"final P_S": final, "min P_S": minimum},
        claims=claims,
        notes=f"Mean over {trials} campaign seeds; heartbeat detector "
        "feeds the repairing defender, bounded per-hop retry (3 attempts) "
        "on every probe.",
    )


def resilience_flooding(
    trials: int = 6,
    seed: int = 47,
    workers: int = 1,
) -> FigureResult:
    """Packet-level delivery ratio vs flooded fraction of the first layer."""
    from repro.perf.fastsim import mean_delivery_ratio, run_packet_replicas
    from repro.simulation.packet_sim import PacketSimConfig

    architecture = _architecture()
    sim_config = PacketSimConfig(
        duration=12.0, warmup=2.0, clients=6, client_rate=2.0
    )
    delivery: List[float] = []
    absorbed: List[float] = []
    for fraction in FLOOD_SWEEP:
        reports = run_packet_replicas(
            architecture,
            sim_config,
            replicas=trials,
            flood_layer_index=1 if fraction > 0 else None,
            flood_fraction=fraction if fraction > 0 else 1.0,
            seed=seed,
            workers=workers,
        )
        delivery.append(mean_delivery_ratio(reports))
        absorbed.append(
            sum(r.attack_packets_absorbed for r in reports) / len(reports)
        )

    claims = [
        Claim(
            "an un-flooded deployment delivers essentially all "
            "legitimate traffic",
            delivery[0] >= 0.99,
        ),
        Claim(
            "flooding the whole first layer collapses delivery to a "
            "small fraction of the un-flooded level",
            delivery[-1] <= 0.5 * delivery[0],
        ),
        Claim(
            "delivery degrades monotonically as more of the entry layer "
            "is flooded (up to replica noise)",
            non_increasing(delivery, slack=0.05),
        ),
    ]
    return FigureResult(
        figure_id="res-flood",
        title="Legitimate delivery ratio vs flooded fraction of the "
        "first SOS layer (packet-level)",
        x_label="flooded fraction of layer 1",
        x_values=list(FLOOD_SWEEP),
        series={"delivery ratio": delivery, "attack packets": absorbed},
        claims=claims,
        notes=f"{trials} independent deployments per point; "
        "vectorized fast engine, "
        "Poisson clients at rate 2 per unit time, flood rate 500 per "
        "target node.",
    )

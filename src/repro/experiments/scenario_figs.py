"""The scenario-zoo matrix: detection quality × delivery per campaign.

``scn-zoo`` replays every committed zoo scenario (see
:mod:`repro.scenarios.zoo`) through the detection→repair loop twice —
once with repair disabled, once detection-driven — and reports the
resulting delivery ratios next to the detector's precision/recall
against the schedule's ground-truth target set. The claims are
deliberately structural/conservative: repair must never cost delivery,
removing repaired targets can only shrink the attack, and the benign
flash crowd must not degrade delivery at all.

Accepts ``tier=``/``seed=`` (the shared ``repro-experiments
--tier/--seed`` options).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.result import Claim, FigureResult
from repro.scenarios.runner import ScenarioRunReport, run_scenario
from repro.scenarios.zoo import list_scenarios


def scenario_zoo(
    seed: Optional[int] = None,
    tier: Optional[str] = None,
    phases: int = 3,
) -> FigureResult:
    """Delivery and detection quality for every committed zoo scenario."""
    names = list_scenarios()
    none_runs: List[ScenarioRunReport] = []
    detected_runs: List[ScenarioRunReport] = []
    for name in names:
        none_runs.append(
            run_scenario(
                name, mode="none", phases=phases, tier=tier, seed=seed,
            )
        )
        detected_runs.append(
            run_scenario(
                name, mode="detected", phases=phases, tier=tier, seed=seed,
            )
        )

    series: Dict[str, List[float]] = {
        "final delivery (no repair)": [
            run.final_delivery for run in none_runs
        ],
        "final delivery (detected)": [
            run.final_delivery for run in detected_runs
        ],
        "precision": [run.precision for run in detected_runs],
        "recall": [run.recall for run in detected_runs],
    }

    attacked = [
        index
        for index, run in enumerate(none_runs)
        if run.initial_targets
    ]
    benign = [
        index
        for index, run in enumerate(none_runs)
        if not run.initial_targets
    ]
    claims = [
        Claim(
            "every delivery ratio and quality score lies in [0, 1]",
            all(
                0.0 <= value <= 1.0
                for values in series.values()
                for value in values
            ),
        ),
        Claim(
            "detection-driven repair never ends below the no-repair "
            "delivery (slack 0.02)",
            all(
                detected_runs[i].final_delivery
                >= none_runs[i].final_delivery - 0.02
                for i in range(len(names))
            ),
        ),
        Claim(
            "repair only removes attack traffic: detected-mode campaigns "
            "absorb no more attack packets than no-repair ones (exact)",
            all(
                sum(detected_runs[i].attack_packets_per_phase)
                <= sum(none_runs[i].attack_packets_per_phase)
                for i in range(len(names))
            ),
        ),
        Claim(
            "the detector finds at least half of each attack campaign's "
            "true targets (recall >= 0.5)",
            all(detected_runs[i].recall >= 0.5 for i in attacked),
        ),
        Claim(
            "the benign-only flash crowd keeps delivery >= 0.95 with no "
            "repair at all",
            all(none_runs[i].final_delivery >= 0.95 for i in benign),
        ),
    ]
    resolved_tier = detected_runs[0].tier if detected_runs else "numpy"
    return FigureResult(
        figure_id="scn-zoo",
        title="Scenario zoo: delivery with/without detection-driven "
        "repair, and detector precision/recall per campaign",
        x_label="scenario index",
        x_values=list(range(len(names))),
        series=series,
        claims=claims,
        notes="Scenarios (by index): "
        + "; ".join(f"{i}={name}" for i, name in enumerate(names))
        + f". {phases} repair phases per campaign; seeds are each "
        "spec's committed seed"
        + ("" if seed is None else f" overridden to {seed}")
        + ". Precision/recall measured against the injection schedule's "
        "ground-truth target set (nothing flagged counts as precision "
        "1.0; an attack-free campaign as recall 1.0). "
        f"Vectorized fast engine, {resolved_tier} tier.",
    )

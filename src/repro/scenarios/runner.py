"""Run a scenario end to end through the detection→repair loop.

:func:`run_scenario` is the one entry point the CLI, the ``scn-zoo``
experiment, the scenario-smoke harness, and the service's
``{"scenario": ...}`` campaign payloads all share. It wraps
:meth:`~repro.detection.loop.DetectionRepairLoop.run_scenario` and
summarizes the phased outcome as a JSON-friendly
:class:`ScenarioRunReport` carrying both the delivery trajectory and
the detection-quality numbers (precision/recall against the schedule's
ground-truth target set).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, Optional, Tuple, Union

from repro.detection.loop import LOOP_MODES, DetectionRepairLoop, LoopResult
from repro.detection.monitor import MonitorConfig
from repro.errors import ScenarioError
from repro.perf.compiled import TIERS
from repro.repair.policy import RepairPolicy
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.zoo import load_scenario

__all__ = ["ScenarioRunReport", "run_scenario"]


@dataclasses.dataclass(frozen=True)
class ScenarioRunReport:
    """Summary of one scenario campaign, ready for JSON."""

    scenario: str
    mode: str
    tier: str
    seed: int
    phases: int
    initial_targets: Tuple[int, ...]
    delivery_per_phase: Tuple[float, ...]
    sent_per_phase: Tuple[int, ...]
    attack_packets_per_phase: Tuple[int, ...]
    flagged_per_phase: Tuple[Tuple[int, ...], ...]
    repaired_per_phase: Tuple[Tuple[int, ...], ...]
    precision: float
    recall: float

    @property
    def final_delivery(self) -> float:
        return self.delivery_per_phase[-1]

    @property
    def total_repaired(self) -> int:
        return sum(len(nodes) for nodes in self.repaired_per_phase)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "mode": self.mode,
            "tier": self.tier,
            "seed": self.seed,
            "phases": self.phases,
            "initial_targets": list(self.initial_targets),
            "delivery_per_phase": list(self.delivery_per_phase),
            "sent_per_phase": list(self.sent_per_phase),
            "attack_packets_per_phase": list(self.attack_packets_per_phase),
            "flagged_per_phase": [
                list(nodes) for nodes in self.flagged_per_phase
            ],
            "repaired_per_phase": [
                list(nodes) for nodes in self.repaired_per_phase
            ],
            "precision": self.precision,
            "recall": self.recall,
            "final_delivery": self.final_delivery,
            "total_repaired": self.total_repaired,
        }


def _summarize(
    result: LoopResult, spec: ScenarioSpec, tier: str, seed: int
) -> ScenarioRunReport:
    truth = set(result.initial_targets)
    flagged_union = {
        node for outcome in result.outcomes for node in outcome.flagged
    }
    hits = len(flagged_union & truth)
    # Empty-side conventions: nothing flagged -> perfect precision (no
    # false alarms were raised); empty truth (benign-only scenario) ->
    # perfect recall (there was nothing to find).
    precision = 1.0 if not flagged_union else hits / len(flagged_union)
    recall = 1.0 if not truth else hits / len(truth)
    return ScenarioRunReport(
        scenario=spec.name,
        mode=result.mode,
        tier=tier,
        seed=seed,
        phases=len(result.outcomes),
        initial_targets=tuple(result.initial_targets),
        delivery_per_phase=tuple(
            outcome.delivery_ratio for outcome in result.outcomes
        ),
        sent_per_phase=tuple(outcome.sent for outcome in result.outcomes),
        attack_packets_per_phase=tuple(
            outcome.attack_packets for outcome in result.outcomes
        ),
        flagged_per_phase=tuple(
            outcome.flagged for outcome in result.outcomes
        ),
        repaired_per_phase=tuple(
            outcome.repaired for outcome in result.outcomes
        ),
        precision=precision,
        recall=recall,
    )


def run_scenario(
    scenario: Union[str, ScenarioSpec],
    mode: str = "detected",
    phases: int = 3,
    tier: Optional[str] = None,
    seed: Optional[int] = None,
    monitor_config: Optional[MonitorConfig] = None,
    policy: Optional[RepairPolicy] = None,
    abort_check: Optional[Callable[[], None]] = None,
) -> ScenarioRunReport:
    """Run ``scenario`` (a zoo name or a spec) through the repair loop.

    ``tier``/``seed`` default to the spec's own knobs, so a
    bare ``run_scenario("pulsing-shrew")`` reproduces the committed
    campaign bit for bit; overrides never mutate the spec.
    """
    spec = load_scenario(scenario) if isinstance(scenario, str) else scenario
    if not isinstance(spec, ScenarioSpec):
        raise ScenarioError(
            f"scenario must be a zoo name or ScenarioSpec, got {spec!r}"
        )
    if mode not in LOOP_MODES:
        raise ScenarioError(f"mode must be one of {LOOP_MODES}, got {mode!r}")
    if tier is not None and tier not in TIERS:
        raise ScenarioError(
            f"tier must be one of {TIERS}, got {tier!r}"
        )
    resolved_tier = tier if tier is not None else spec.tier
    resolved_seed = seed if seed is not None else spec.seed
    loop = DetectionRepairLoop.for_scenario(
        spec,
        monitor_config=monitor_config,
        policy=policy,
        seed=resolved_seed,
        tier=resolved_tier,
    )
    result = loop.run_scenario(
        spec,
        mode=mode,
        phases=phases,
        abort_check=abort_check,
    )
    return _summarize(result, spec, resolved_tier, resolved_seed)

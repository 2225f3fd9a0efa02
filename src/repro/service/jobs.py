"""Job payloads: JSON request bodies -> domain objects -> JSON results.

Everything a worker process executes is described by a plain dict (the
parsed request body) so jobs cross the process boundary as picklable
primitives and cache keys fingerprint canonically. Three job kinds map
onto the public endpoints, plus the health probe:

* ``eval`` — one analytical ``P_S`` evaluation (interactive);
* ``sweep`` — a design-space sweep over a (layers x mappings) grid
  against named attack scenarios, on the vectorized batch kernels;
* ``campaign`` — a checkpointed Monte-Carlo campaign (batch; resumable
  after a worker crash, cancellable on deadline), or — when the body
  carries ``{"scenario": "<zoo name>"}`` — one multi-vector scenario
  campaign replayed through the detection→repair loop;
* ``ping`` — a no-op used by readiness probes and breaker half-open
  trials.

Validation happens in :func:`validate_payload` on the event loop before
admission, so malformed requests cost a 400 — never a worker round-trip.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.architecture import SOSArchitecture
from repro.core.attack_models import OneBurstAttack, SuccessiveAttack
from repro.core.design_space import enumerate_designs, evaluate_designs
from repro.core.model import evaluate
from repro.detection.loop import LOOP_MODES
from repro.errors import CampaignInterrupted, ScenarioError, ServiceError
from repro.perf.compiled import TIERS
from repro.resilience.checkpoint import fingerprint
from repro.scenarios.runner import run_scenario
from repro.scenarios.zoo import load_scenario
from repro.simulation.monte_carlo import MonteCarloConfig, MonteCarloEstimator

JOB_KINDS = ("eval", "sweep", "campaign", "ping")

#: Fields a campaign payload may set on :class:`MonteCarloConfig`.
_CAMPAIGN_FIELDS = (
    "trials",
    "clients_per_trial",
    "metric",
    "seed",
    "churn_fraction",
    "checkpoint_every",
)


# ----------------------------------------------------------------------
# Payload -> domain objects
# ----------------------------------------------------------------------


def build_architecture(payload: Dict[str, Any]) -> SOSArchitecture:
    """Construct an :class:`SOSArchitecture` from a JSON-ish dict."""
    if not isinstance(payload, dict):
        raise ServiceError(f"architecture must be an object, got {payload!r}")
    allowed = {
        "layers",
        "mapping",
        "total_overlay_nodes",
        "sos_nodes",
        "distribution",
        "layer_sizes",
        "filters",
        "filter_mapping",
        "layer_mappings",
    }
    unknown = set(payload) - allowed
    if unknown:
        raise ServiceError(
            f"unknown architecture fields: {sorted(unknown)}"
        )
    kwargs = dict(payload)
    if "layer_sizes" in kwargs and kwargs["layer_sizes"] is not None:
        kwargs["layer_sizes"] = tuple(kwargs["layer_sizes"])
    return SOSArchitecture(**kwargs)


def build_attack(payload: Dict[str, Any]) -> "OneBurstAttack | SuccessiveAttack":
    """Construct an attack model from ``{"kind": ..., ...params}``."""
    if not isinstance(payload, dict):
        raise ServiceError(f"attack must be an object, got {payload!r}")
    params = dict(payload)
    kind = params.pop("kind", "one-burst")
    common = {
        name: params.pop(name)
        for name in ("break_in_budget", "congestion_budget", "break_in_success")
        if name in params
    }
    if kind in ("one-burst", "one_burst"):
        if params:
            raise ServiceError(f"unknown one-burst fields: {sorted(params)}")
        return OneBurstAttack(**common)
    if kind == "successive":
        extra = {
            name: params.pop(name)
            for name in ("rounds", "prior_knowledge")
            if name in params
        }
        if params:
            raise ServiceError(f"unknown successive fields: {sorted(params)}")
        return SuccessiveAttack(**common, **extra)
    raise ServiceError(
        f"unknown attack kind {kind!r}; expected 'one-burst' or 'successive'"
    )


_SCENARIO_CAMPAIGN_FIELDS = frozenset(
    ("scenario", "mode", "phases", "tier", "seed",
     "deadline_ms", "priority", "checkpoint_every", "chaos_fail")
)


def _validate_scenario_campaign(payload: Dict[str, Any]) -> None:
    unknown = sorted(set(payload) - _SCENARIO_CAMPAIGN_FIELDS)
    if unknown:
        raise ServiceError(f"unknown scenario-campaign fields: {unknown}")
    name = payload["scenario"]
    if not isinstance(name, str):
        raise ServiceError(
            f"'scenario' must be a zoo scenario name, got {name!r}"
        )
    try:
        load_scenario(name)
    except ScenarioError as exc:
        raise ServiceError(str(exc)) from exc
    mode = payload.get("mode", "detected")
    if mode not in LOOP_MODES:
        raise ServiceError(
            f"'mode' must be one of {LOOP_MODES}, got {mode!r}"
        )
    phases = payload.get("phases", 3)
    if isinstance(phases, bool) or not isinstance(phases, int) \
            or not 1 <= phases <= 16:
        raise ServiceError(
            f"'phases' must be an integer in [1, 16], got {phases!r}"
        )
    tier = payload.get("tier")
    if tier is not None and tier not in TIERS:
        raise ServiceError(
            f"'tier' must be one of {TIERS}, got {tier!r}"
        )
    seed = payload.get("seed")
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
    ):
        raise ServiceError(
            f"'seed' must be a non-negative integer when set, got {seed!r}"
        )


def validate_payload(kind: str, payload: Dict[str, Any]) -> None:
    """Eagerly validate a request body (raises :class:`ServiceError` /
    other :class:`ReproError` subtypes for a 400 before admission)."""
    if kind == "ping":
        return
    if kind in ("eval", "campaign"):
        if kind == "campaign" and "scenario" in payload:
            # A named zoo campaign: the spec carries the architecture
            # and seed, so the Monte-Carlo fields do not apply.
            _validate_scenario_campaign(payload)
            return
        build_architecture(payload.get("architecture", {}))
        build_attack(payload.get("attack", {}))
        if kind == "campaign":
            _campaign_config(payload, checkpoint_path=None)
        return
    if kind == "sweep":
        scenarios = payload.get("scenarios")
        if not isinstance(scenarios, dict) or not scenarios:
            raise ServiceError("sweep needs a non-empty 'scenarios' object")
        for attack in scenarios.values():
            build_attack(attack)
        _sweep_designs(payload)
        return
    raise ServiceError(f"unknown job kind {kind!r}; expected one of {JOB_KINDS}")


def canonical_key(kind: str, payload: Dict[str, Any]) -> str:
    """Stable cache/fingerprint key for a request body.

    Execution-only knobs (deadline, priority, checkpointing cadence) are
    stripped so retries and repeats hit the same entry.
    """
    scrubbed = {
        name: value
        for name, value in payload.items()
        if name not in ("deadline_ms", "priority", "checkpoint_every")
    }
    return fingerprint({"kind": kind, "payload": scrubbed})


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------


def _campaign_config(
    payload: Dict[str, Any], checkpoint_path: Optional[str]
) -> MonteCarloConfig:
    kwargs: Dict[str, Any] = {
        name: payload[name] for name in _CAMPAIGN_FIELDS if name in payload
    }
    if payload.get("seed") is None:
        raise ServiceError(
            "campaign payloads must carry an explicit integer 'seed': "
            "reproducibility (and crash-resume bit-identity) depends on it"
        )
    # Checkpoint writes are cheap (one JSON file); a small default batch
    # bounds how much a SIGKILLed worker can lose to recomputation.
    kwargs.setdefault("checkpoint_every", 8)
    return MonteCarloConfig(
        checkpoint_path=checkpoint_path, workers=1, **kwargs
    )


def _sweep_designs(payload: Dict[str, Any]) -> List[SOSArchitecture]:
    grid: Dict[str, Any] = {}
    for name in (
        "layers",
        "mappings",
        "distributions",
        "total_overlay_nodes",
        "sos_nodes",
        "filters",
    ):
        if name in payload:
            grid[name] = payload[name]
    if "layers" in grid:
        grid["layers"] = [int(value) for value in grid["layers"]]
    return enumerate_designs(**grid)


def execute_job(
    kind: str,
    payload: Dict[str, Any],
    checkpoint_path: Optional[str] = None,
    abort_check: Optional[Callable[[], bool]] = None,
) -> Dict[str, Any]:
    """Run one job to completion; returns a JSON-ready result dict.

    ``chaos_sleep_ms`` in the payload injects artificial latency before
    execution — the hook the chaos harness uses to simulate slow
    dependencies without touching production code paths.
    """
    chaos_sleep_ms = payload.get("chaos_sleep_ms")
    if chaos_sleep_ms:
        # Runs inside a worker process (dispatched via Process(target=...)),
        # never on the service event loop, so sleeping here stalls only the
        # one worker the chaos harness aimed at.
        time.sleep(float(chaos_sleep_ms) / 1000.0)  # repro-lint: disable=async-blocking -- worker-side chaos hook; executes past the process boundary, not on the event loop
    chaos_fail = payload.get("chaos_fail")
    if chaos_fail:
        raise ServiceError(f"chaos-injected failure: {chaos_fail}")

    if kind == "ping":
        return {"pong": True}
    if kind == "eval":
        performance = evaluate(
            build_architecture(payload["architecture"]),
            build_attack(payload["attack"]),
        )
        return {
            "p_s": performance.p_s,
            "broken_in_total": performance.broken_in_total,
            "disclosed_total": performance.disclosed_total,
        }
    if kind == "sweep":
        designs = _sweep_designs(payload)
        scenarios = {
            name: build_attack(attack)
            for name, attack in payload["scenarios"].items()
        }
        scores = evaluate_designs(
            designs,
            scenarios,
            aggregate=payload.get("aggregate", "min"),
            weights=payload.get("weights"),
        )
        top = int(payload.get("top", 10))
        return {
            "designs_evaluated": len(scores),
            "scores": [
                {
                    "label": score.label,
                    "aggregate": score.aggregate,
                    "per_scenario": score.per_scenario,
                }
                for score in scores[:top]
            ],
        }
    if kind == "campaign":
        if "scenario" in payload:

            def _raise_if_aborted() -> None:
                if abort_check is not None and abort_check():
                    raise CampaignInterrupted(
                        "scenario campaign cancelled between repair phases"
                    )

            report = run_scenario(
                payload["scenario"],
                mode=payload.get("mode", "detected"),
                phases=int(payload.get("phases", 3)),
                tier=payload.get("tier"),
                seed=payload.get("seed"),
                abort_check=_raise_if_aborted,
            )
            return report.to_dict()
        config = _campaign_config(payload, checkpoint_path)
        estimate = MonteCarloEstimator(config).estimate(
            build_architecture(payload["architecture"]),
            build_attack(payload["attack"]),
            abort_check=abort_check,
        )
        return {
            "mean": estimate.mean,
            "variance": estimate.variance,
            "trials": estimate.trials,
            "failed_trials": estimate.failed_trials,
            "mean_bad_per_layer": {
                str(layer): value
                for layer, value in sorted(estimate.mean_bad_per_layer.items())
            },
        }
    raise ServiceError(f"unknown job kind {kind!r}")


__all__ = [
    "JOB_KINDS",
    "build_architecture",
    "build_attack",
    "canonical_key",
    "execute_job",
    "validate_payload",
]

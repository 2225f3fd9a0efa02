"""Multi-vector attack campaign DSL and reproducible scenario zoo.

Three layers (see ``docs/SCENARIOS.md``):

* :mod:`repro.scenarios.vectors` — composable attack/traffic vector
  generators (pulsing floods, botnet waves, targeted low-rate DoS,
  benign surges) compiling to engine-agnostic offer streams.
* :mod:`repro.scenarios.spec` / :mod:`repro.scenarios.schedule` — the
  declarative :class:`ScenarioSpec` (JSON round-trip, validated) and its
  deterministic lowering to the :class:`InjectionSchedule` the packet
  engine consumes.
* :mod:`repro.scenarios.zoo` / :mod:`repro.scenarios.runner` — the
  committed named-scenario zoo and the detection→repair harness that
  runs a spec end to end (CLI: ``repro-scenarios``; HTTP:
  ``POST /campaign {"scenario": ...}``; figure: ``scn-zoo``).
"""

from repro.scenarios.runner import ScenarioRunReport, run_scenario
from repro.scenarios.schedule import (
    CompiledScenario,
    InjectionSchedule,
    compile_scenario,
)
from repro.scenarios.spec import (
    ArchitectureSpec,
    PhaseSpec,
    ScenarioSpec,
    SimSpec,
)
from repro.scenarios.vectors import (
    VECTOR_KINDS,
    AttackVector,
    BenignSurge,
    BotnetWave,
    CompiledVector,
    PulsingFlood,
    SurgeSource,
    TargetedLowRate,
    vector_from_dict,
)
from repro.scenarios.zoo import ZOO_DIR, list_scenarios, load_scenario

__all__ = [
    "ArchitectureSpec",
    "AttackVector",
    "BenignSurge",
    "BotnetWave",
    "CompiledScenario",
    "CompiledVector",
    "InjectionSchedule",
    "PhaseSpec",
    "PulsingFlood",
    "ScenarioRunReport",
    "ScenarioSpec",
    "SimSpec",
    "SurgeSource",
    "TargetedLowRate",
    "VECTOR_KINDS",
    "ZOO_DIR",
    "compile_scenario",
    "list_scenarios",
    "load_scenario",
    "run_scenario",
    "vector_from_dict",
]

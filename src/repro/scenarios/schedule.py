"""Compile a :class:`~repro.scenarios.spec.ScenarioSpec` to offer streams.

:func:`compile_scenario` lowers every vector occurrence of a spec to
concrete absolute-time arrays and merges them into one
:class:`InjectionSchedule` — the single artifact the packet engine
consumes: injection instants are data, fixed before any engine draw.

Stream derivation (the load-bearing part):

* Occurrence ``k`` (vectors enumerated phase-major, in-phase order) gets
  a **target stream** from ``SeedSequence(spec.seed,
  spawn_key=(TARGET_DOMAIN, k))`` and a **time stream** from
  ``SeedSequence(spec.seed, spawn_key=(TIME_DOMAIN, k, salt))``. Keyed
  fan-out means appending a vector (or a phase) derives fresh streams
  without perturbing any existing occurrence's draws — the property the
  add-a-vector tests pin.
* ``salt`` (the detection→repair loop passes its phase index) varies
  *time* streams only: each loop phase sees fresh attack traffic while
  target selection stays fixed, so "repaired nodes leave the active
  set" keeps its meaning under recompilation —
  :meth:`InjectionSchedule.without_targets` subtracts repaired nodes
  from a stable target set.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, Iterable, List, Mapping, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import ScenarioError
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.vectors import CompiledVector, SurgeSource
from repro.sos.deployment import SOSDeployment

__all__ = [
    "CompiledScenario",
    "InjectionSchedule",
    "compile_scenario",
]

#: spawn-key domains; disjoint from every ``Generator.spawn`` fan-out in
#: the engine (those extend a stream's own key, these root at the spec
#: seed) and from each other.
TARGET_DOMAIN = 0x5C01
TIME_DOMAIN = 0x5C02


def _occurrence_streams(
    seed: int, occurrence: int, salt: int
) -> Tuple[np.random.Generator, np.random.Generator]:
    target = np.random.default_rng(
        np.random.SeedSequence(
            entropy=seed, spawn_key=(TARGET_DOMAIN, occurrence)
        )
    )
    times = np.random.default_rng(
        np.random.SeedSequence(
            entropy=seed, spawn_key=(TIME_DOMAIN, occurrence, salt)
        )
    )
    return target, times


@dataclasses.dataclass(frozen=True)
class InjectionSchedule:
    """Merged offer streams of one compiled scenario.

    ``attack_times`` maps node id -> sorted absolute offer instants
    (attack packets: consume capacity, never forwarded). The engine
    clips both kinds of rows to its config's ``duration``, so a schedule
    compiled for one sim length replays consistently under a shorter
    one.
    """

    attack_times: Mapping[int, npt.NDArray[np.float64]]
    surge_sources: Tuple[SurgeSource, ...] = ()

    @property
    def attack_targets(self) -> Tuple[int, ...]:
        return tuple(sorted(self.attack_times))

    @property
    def total_attack_packets(self) -> int:
        return int(sum(len(times) for times in self.attack_times.values()))

    def without_targets(self, removed: Iterable[int]) -> "InjectionSchedule":
        """The schedule after repairing ``removed`` nodes (re-keying: the
        attacker's traffic at their old identities no longer lands)."""
        gone = set(removed)
        return InjectionSchedule(
            attack_times={
                node: times
                for node, times in self.attack_times.items()
                if node not in gone
            },
            surge_sources=self.surge_sources,
        )

    def fingerprint(self) -> str:
        """Content hash over every target, instant, and surge source —
        the cross-process identity the smoke job compares."""
        digest = hashlib.sha256()
        for node in self.attack_targets:
            digest.update(str(node).encode())
            digest.update(
                np.ascontiguousarray(
                    self.attack_times[node], dtype=np.float64
                ).tobytes()
            )
        for source in self.surge_sources:
            digest.update(repr(source.contacts).encode())
            digest.update(
                np.ascontiguousarray(source.times, dtype=np.float64).tobytes()
            )
        return digest.hexdigest()


@dataclasses.dataclass(frozen=True)
class CompiledScenario:
    """A spec lowered against one deployment."""

    spec: ScenarioSpec
    salt: int
    vectors: Tuple[CompiledVector, ...]
    schedule: InjectionSchedule


def compile_scenario(
    spec: ScenarioSpec,
    deployment: SOSDeployment,
    salt: int = 0,
) -> CompiledScenario:
    """Lower ``spec`` to an :class:`InjectionSchedule` on ``deployment``.

    Pure in ``(spec, deployment, salt)``: compiling twice yields
    bit-identical arrays, which is what makes per-(spec, seed) reports
    reproducible on each engine and injection schedules identical
    across them.
    """
    if salt < 0:
        raise ScenarioError(f"salt must be >= 0, got {salt}")
    compiled: List[CompiledVector] = []
    attack_rows: Dict[int, List[npt.NDArray[np.float64]]] = {}
    surges: List[SurgeSource] = []
    for occurrence, (phase, vector) in enumerate(spec.vector_occurrences()):
        target_stream, time_stream = _occurrence_streams(
            spec.seed, occurrence, salt
        )
        piece = vector.compile(
            deployment,
            phase.start,
            phase.end,
            phase.name,
            target_stream,
            time_stream,
        )
        compiled.append(piece)
        for node, times in piece.attack_times.items():
            attack_rows.setdefault(int(node), []).append(times)
        surges.extend(piece.surge_sources)
    merged: Dict[int, npt.NDArray[np.float64]] = {}
    for node, rows in attack_rows.items():
        times = np.sort(np.concatenate(rows)) if len(rows) > 1 else rows[0]
        if len(times):
            merged[node] = times
    schedule = InjectionSchedule(
        attack_times=merged, surge_sources=tuple(surges)
    )
    return CompiledScenario(
        spec=spec, salt=salt, vectors=tuple(compiled), schedule=schedule
    )

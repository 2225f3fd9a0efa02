"""Declarative campaign specs: named phases of vectors over one sim.

A :class:`ScenarioSpec` is the unit the zoo commits, the CLI runs, the
``scn-zoo`` experiment sweeps, and the service accepts by name. It is
deliberately *data*: architecture + sim knobs + a timeline of phases,
each phase a window ``[start, start + duration)`` carrying zero or more
vectors (see :mod:`repro.scenarios.vectors`). Everything round-trips
through plain dicts/JSON with full validation (unknown fields, bad
types, out-of-range values, overlapping-with-nothing windows all raise
:class:`~repro.errors.ScenarioError` before any engine runs), and
``to_dict`` always emits every field — defaults included — so committed
zoo files are stable golden artifacts.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Tuple

from repro.contracts import Field, check_schema
from repro.core.architecture import SOSArchitecture
from repro.errors import ScenarioError
from repro.perf.compiled import TIERS
from repro.simulation.packet_sim import MAX_SOURCE_ARRIVALS, PacketSimConfig
from repro.scenarios.vectors import AttackVector, vector_from_dict

__all__ = [
    "ArchitectureSpec",
    "PhaseSpec",
    "ScenarioSpec",
    "SimSpec",
]


def _positive_number() -> Field:
    return Field(
        (int, float), required=False, check=lambda v: v > 0, describe="> 0"
    )


def _non_negative_number() -> Field:
    return Field(
        (int, float), required=False, check=lambda v: v >= 0, describe=">= 0"
    )


def _positive_int() -> Field:
    return Field((int,), required=False, check=lambda v: v >= 1, describe=">= 1")


@dataclasses.dataclass(frozen=True)
class ArchitectureSpec:
    """The SOS instance a scenario deploys (a serializable
    :class:`~repro.core.architecture.SOSArchitecture` subset)."""

    layers: int = 3
    mapping: str = "one-to-two"
    overlay_nodes: int = 2000
    sos_nodes: int = 60
    filters: int = 6

    SCHEMA = {
        "layers": _positive_int(),
        "mapping": Field((str,), required=False),
        "overlay_nodes": _positive_int(),
        "sos_nodes": _positive_int(),
        "filters": _positive_int(),
    }

    def __post_init__(self) -> None:
        self.build()  # validates eagerly via SOSArchitecture's own checks

    def build(self) -> SOSArchitecture:
        try:
            return SOSArchitecture(
                layers=self.layers,
                mapping=self.mapping,
                total_overlay_nodes=self.overlay_nodes,
                sos_nodes=self.sos_nodes,
                filters=self.filters,
            )
        except Exception as exc:
            raise ScenarioError(f"invalid architecture: {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Any) -> "ArchitectureSpec":
        check_schema(payload, cls.SCHEMA, ScenarioError, "architecture")
        return cls(**payload)


@dataclasses.dataclass(frozen=True)
class SimSpec:
    """Packet-engine knobs a scenario pins (flood shape lives in the
    vectors, so the classic ``flood_rate``/``flood_start`` stay out)."""

    duration: float = 16.0
    warmup: float = 2.0
    clients: int = 6
    client_rate: float = 2.0
    node_capacity: float = 50.0
    hop_latency: float = 0.05

    SCHEMA = {
        "duration": _positive_number(),
        "warmup": _non_negative_number(),
        "clients": Field(
            (int,), required=False, check=lambda v: v >= 0, describe=">= 0"
        ),
        "client_rate": _positive_number(),
        "node_capacity": _positive_number(),
        "hop_latency": _positive_number(),
    }

    def __post_init__(self) -> None:
        self.to_config()  # PacketSimConfig validates ranges eagerly

    def to_config(self, tier: str = "numpy") -> PacketSimConfig:
        try:
            return PacketSimConfig(
                duration=self.duration,
                warmup=self.warmup,
                clients=self.clients,
                client_rate=self.client_rate,
                node_capacity=self.node_capacity,
                hop_latency=self.hop_latency,
                tier=tier,
            )
        except Exception as exc:
            raise ScenarioError(f"invalid sim settings: {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Any) -> "SimSpec":
        check_schema(payload, cls.SCHEMA, ScenarioError, "sim")
        body = {
            name: float(value)
            if name != "clients"
            and isinstance(value, int)
            and not isinstance(value, bool)
            else value
            for name, value in payload.items()
        }
        return cls(**body)


@dataclasses.dataclass(frozen=True)
class PhaseSpec:
    """One named window of the campaign timeline."""

    name: str
    start: float
    duration: float
    vectors: Tuple[AttackVector, ...] = ()

    SCHEMA = {
        "name": Field((str,), check=bool, describe="non-empty"),
        "start": Field((int, float), check=lambda v: v >= 0, describe=">= 0"),
        "duration": Field((int, float), check=lambda v: v > 0, describe="> 0"),
        "vectors": Field((list,), required=False),
    }

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("phase name must be non-empty")
        if self.start < 0:
            raise ScenarioError(
                f"phase {self.name!r}: start must be >= 0, got {self.start}"
            )
        if self.duration <= 0:
            raise ScenarioError(
                f"phase {self.name!r}: duration must be > 0, got "
                f"{self.duration}"
            )
        # Compilation samples each Poisson source's arrivals in the phase
        # as one float64 array: cap it as PacketSimConfig caps a client.
        for vector in self.vectors:
            expected = vector.source_rate() * self.duration
            if not expected <= MAX_SOURCE_ARRIVALS:
                raise ScenarioError(
                    f"phase {self.name!r}: vector {vector.kind!r} expects "
                    f"{expected:.3g} arrivals per source ("
                    f"{vector.RATE_FIELD}="
                    f"{getattr(vector, vector.RATE_FIELD)!r} x intensity="
                    f"{vector.intensity!r} x duration={self.duration!r}), "
                    f"above {MAX_SOURCE_ARRIVALS}"
                )

    @property
    def end(self) -> float:
        return self.start + self.duration

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "vectors": [vector.to_dict() for vector in self.vectors],
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "PhaseSpec":
        check_schema(payload, cls.SCHEMA, ScenarioError, "phase")
        vectors = tuple(
            vector_from_dict(entry) for entry in payload.get("vectors", [])
        )
        return cls(
            name=payload["name"],
            start=float(payload["start"]),
            duration=float(payload["duration"]),
            vectors=vectors,
        )


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A named, fully reproducible multi-vector campaign."""

    name: str
    description: str = ""
    seed: int = 0
    tier: str = "numpy"
    architecture: ArchitectureSpec = dataclasses.field(
        default_factory=ArchitectureSpec
    )
    sim: SimSpec = dataclasses.field(default_factory=SimSpec)
    phases: Tuple[PhaseSpec, ...] = ()

    SCHEMA = {
        "name": Field((str,), check=bool, describe="non-empty"),
        "description": Field((str,), required=False),
        "seed": Field(
            (int,), required=False, check=lambda v: v >= 0, describe=">= 0"
        ),
        "tier": Field(
            (str,),
            required=False,
            check=lambda v: v in TIERS,
            describe=f"one of {TIERS}",
        ),
        "architecture": Field((dict,), required=False),
        "sim": Field((dict,), required=False),
        "phases": Field((list,), required=False),
    }

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioError("scenario name must be non-empty")
        if self.seed < 0 or isinstance(self.seed, bool):
            raise ScenarioError(f"seed must be an int >= 0, got {self.seed!r}")
        if self.tier not in TIERS:
            raise ScenarioError(
                f"tier must be one of {TIERS}, got {self.tier!r}"
            )
        seen: Dict[str, int] = {}
        for index, phase in enumerate(self.phases):
            if phase.name in seen:
                raise ScenarioError(
                    f"duplicate phase name {phase.name!r} (positions "
                    f"{seen[phase.name]} and {index})"
                )
            seen[phase.name] = index
            if phase.end > self.sim.duration + 1e-9:
                raise ScenarioError(
                    f"phase {phase.name!r} ends at {phase.end} but the sim "
                    f"runs only to {self.sim.duration}"
                )
            for vector in phase.vectors:
                layer = getattr(vector, "layer", None)
                if layer is not None and layer > self.architecture.layers + 1:
                    raise ScenarioError(
                        f"phase {phase.name!r}: vector {vector.kind!r} "
                        f"targets layer {layer} but the architecture has "
                        f"layers 1..{self.architecture.layers + 1}"
                    )

    # -- execution-facing accessors ------------------------------------
    def sim_config(self, tier: Any = None) -> PacketSimConfig:
        """The :class:`PacketSimConfig` this scenario runs under;
        ``tier`` overrides the spec's own tier knob."""
        return self.sim.to_config(tier=tier if tier is not None else self.tier)

    def build_architecture(self) -> SOSArchitecture:
        return self.architecture.build()

    def vector_occurrences(self) -> List[Tuple[PhaseSpec, AttackVector]]:
        """Vectors in deterministic (phase order, in-phase order) — the
        occurrence index the stream derivation keys on."""
        return [
            (phase, vector)
            for phase in self.phases
            for vector in phase.vectors
        ]

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "tier": self.tier,
            "architecture": self.architecture.to_dict(),
            "sim": self.sim.to_dict(),
            "phases": [phase.to_dict() for phase in self.phases],
        }

    @classmethod
    def from_dict(cls, payload: Any) -> "ScenarioSpec":
        check_schema(payload, cls.SCHEMA, ScenarioError, "scenario")
        return cls(
            name=payload["name"],
            description=payload.get("description", ""),
            seed=payload.get("seed", 0),
            tier=payload.get("tier", "numpy"),
            architecture=ArchitectureSpec.from_dict(
                payload.get("architecture", ArchitectureSpec().to_dict())
            ),
            sim=SimSpec.from_dict(payload.get("sim", SimSpec().to_dict())),
            phases=tuple(
                PhaseSpec.from_dict(entry)
                for entry in payload.get("phases", [])
            ),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"scenario JSON does not parse: {exc}") from exc
        return cls.from_dict(payload)

"""Composable attack/traffic vector generators.

A *vector* is a pure, frozen configuration describing one traffic shape —
a pulsing (shrew-style) flood, a ramping botnet wave with per-bot churn,
a concentrated low-rate DoS against a chosen relay layer (per the Tor
DoS analysis, arXiv:1110.5395), or a benign flash crowd. Vectors do not
run anything themselves: :meth:`AttackVector.compile` turns one into
concrete per-source offer streams — absolute arrival-time arrays — as a
pure function of ``(vector config, dedicated RNG streams, deployment)``.

The packet engine merges those arrays into its pre-sampled rows; the
event-driven test oracle chains the *same arrays* as scheduler events.
There is exactly one injection schedule, fixed before any engine draw.

Stream discipline mirrors the PR-4/5 per-target flood sub-streams: each
vector occurrence in a :class:`~repro.scenarios.spec.ScenarioSpec` gets
its own ``SeedSequence``-derived target stream and time stream (see
:mod:`repro.scenarios.schedule`), and per-target/per-bot/per-client
draws spawn off those in sorted, deterministic order — so adding a
vector to a scenario never perturbs another vector's randomness.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, ClassVar, Dict, List, Mapping, Tuple, Type

import numpy as np
import numpy.typing as npt

from repro.contracts import Field, check_schema
from repro.errors import ScenarioError
from repro.simulation.packet_sim import MAX_CLIENTS
from repro.sos.deployment import SOSDeployment, choose_fraction, choose_members

__all__ = [
    "AttackVector",
    "BenignSurge",
    "BotnetWave",
    "CompiledVector",
    "PulsingFlood",
    "SurgeSource",
    "TargetedLowRate",
    "VECTOR_KINDS",
    "poisson_times",
    "vector_from_dict",
]


def poisson_times(
    stream: np.random.Generator, rate: float, start: float, end: float
) -> npt.NDArray[np.float64]:
    """Poisson arrival times in ``(start, end)`` from one dedicated stream.

    Block exponential draws + cumsum, like the packet engine's
    pre-sampler. Scenario times do not need to replicate the engine's
    internal draw layout — the engine consumes this *array* — but the
    block pattern keeps compilation O(1) stream calls per source. ``rate <= 0`` or an empty
    window yields no arrivals and consumes nothing.
    """
    if rate <= 0.0 or end <= start:
        return np.empty(0, dtype=np.float64)
    expected = rate * (end - start)
    width = max(4, int(expected + 10.0 * math.sqrt(expected) + 16.0))
    times = start + np.cumsum(stream.exponential(1.0 / rate, size=width))
    while float(times[-1]) < end:
        more = stream.exponential(1.0 / rate, size=width)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times < end]


@dataclasses.dataclass(frozen=True)
class SurgeSource:
    """One extra legitimate traffic source compiled from a benign vector.

    ``contacts`` are the source's layer-1 access points (sampled like a
    regular client's); ``times`` are its absolute injection instants.
    Surge packets route, consume capacity, and count toward ``sent`` /
    ``delivered`` exactly like baseline client packets.
    """

    contacts: Tuple[int, ...]
    times: npt.NDArray[np.float64]


@dataclasses.dataclass(frozen=True)
class CompiledVector:
    """One vector occurrence lowered to concrete offer streams."""

    kind: str
    phase: str
    attack_times: Mapping[int, npt.NDArray[np.float64]]
    surge_sources: Tuple[SurgeSource, ...]

    @property
    def total_attack_packets(self) -> int:
        return int(sum(len(times) for times in self.attack_times.values()))


def _positive(value: Any) -> bool:
    return float(value) > 0.0


def _fraction(value: Any) -> bool:
    return 0.0 < float(value) <= 1.0


def _layer_field() -> Field:
    return Field((int,), required=False, check=lambda v: v >= 1, describe=">= 1")


def _rate_field() -> Field:
    return Field((int, float), required=False, check=_positive, describe="> 0")


def _count_field() -> Field:
    # Compilation loops once per bot or surge client in Python, so the
    # packet engine's client cap bounds it too.
    return Field(
        (int,),
        required=False,
        check=lambda v: 1 <= v <= MAX_CLIENTS,
        describe=f"in [1, {MAX_CLIENTS}]",
    )


def _check_count(vector: "AttackVector", name: str) -> None:
    value = getattr(vector, name)
    if not 1 <= value <= MAX_CLIENTS:
        raise ScenarioError(
            f"{vector.kind}: {name} must be in [1, {MAX_CLIENTS}], got "
            f"{value!r}"
        )


def _check_positive(vector: "AttackVector", *names: str) -> None:
    for name in names:
        if getattr(vector, name) <= 0:
            raise ScenarioError(
                f"{vector.kind}: {name} must be > 0, got "
                f"{getattr(vector, name)!r}"
            )


def _layer_members(
    deployment: SOSDeployment, layer: int, kind: str
) -> npt.NDArray[np.int64]:
    last = deployment.architecture.layers + 1
    if not 1 <= layer <= last:
        raise ScenarioError(
            f"{kind}: layer {layer} out of range 1..{last} for this "
            "architecture"
        )
    return np.asarray(deployment.layer_members(layer), dtype=np.int64)


class AttackVector:
    """Base class for scenario vectors. Subclasses are frozen dataclasses.

    ``kind`` keys the serialization registry; ``SCHEMA`` validates the
    decoded-JSON body (``intensity`` is shared by every vector and
    scales its traffic rates without touching target selection).
    """

    kind: ClassVar[str] = ""
    SCHEMA: ClassVar[Dict[str, Field]] = {}
    #: The field holding one Poisson source's offer rate before
    #: ``intensity`` scales it (a target, a bot, or a surge client).
    RATE_FIELD: ClassVar[str] = "rate"
    intensity: float

    def source_rate(self) -> float:
        """One Poisson source's offer rate: ``RATE_FIELD x intensity``."""
        return float(getattr(self, self.RATE_FIELD)) * float(self.intensity)

    def to_dict(self) -> Dict[str, Any]:
        """Full-fidelity dict (every field, defaults included)."""
        body = dataclasses.asdict(self)  # type: ignore[call-overload]
        return {"kind": self.kind, **body}

    def compile(
        self,
        deployment: SOSDeployment,
        start: float,
        end: float,
        phase: str,
        target_stream: np.random.Generator,
        time_stream: np.random.Generator,
    ) -> CompiledVector:
        """Lower this vector to offer streams active in ``[start, end)``."""
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class PulsingFlood(AttackVector):
    """Shrew-style on/off flood: full-rate bursts gated by a duty cycle.

    Targets ``fraction`` of layer ``layer``'s members (same draw as the
    classic ``flood_layer``). Each target's Poisson offers at ``rate``
    are kept only while ``(t - start) mod period < duty * period`` — the
    low *average* rate that slips under long-window detectors while the
    on-phase still saturates token buckets.
    """

    kind: ClassVar[str] = "pulsing-flood"
    layer: int = 1
    fraction: float = 0.5
    rate: float = 400.0
    period: float = 2.0
    duty: float = 0.5
    intensity: float = 1.0

    SCHEMA: ClassVar[Dict[str, Field]] = {
        "layer": _layer_field(),
        "fraction": Field(
            (int, float), required=False, check=_fraction, describe="in (0, 1]"
        ),
        "rate": _rate_field(),
        "period": _rate_field(),
        "duty": Field(
            (int, float), required=False, check=_fraction, describe="in (0, 1]"
        ),
        "intensity": _rate_field(),
    }

    def __post_init__(self) -> None:
        _check_positive(self, "rate", "period", "intensity")
        if self.layer < 1:
            raise ScenarioError(f"{self.kind}: layer must be >= 1")
        for name in ("fraction", "duty"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ScenarioError(
                    f"{self.kind}: {name} must be in (0, 1], got "
                    f"{getattr(self, name)!r}"
                )

    def compile(
        self,
        deployment: SOSDeployment,
        start: float,
        end: float,
        phase: str,
        target_stream: np.random.Generator,
        time_stream: np.random.Generator,
    ) -> CompiledVector:
        targets = choose_fraction(
            target_stream,
            _layer_members(deployment, self.layer, self.kind),
            self.fraction,
        )
        # One child stream per target, spawned in sorted-target order —
        # the flood-master discipline — so a target's schedule depends
        # only on its position, never on other targets' draw counts.
        subs = time_stream.spawn(len(targets))
        attack: Dict[int, npt.NDArray[np.float64]] = {}
        on_window = self.duty * self.period
        for target, sub in zip(targets, subs):
            times = poisson_times(sub, self.rate * self.intensity, start, end)
            attack[target] = times[(times - start) % self.period < on_window]
        return CompiledVector(self.kind, phase, attack, ())


@dataclasses.dataclass(frozen=True)
class BotnetWave(AttackVector):
    """Mirai-style wave: bots recruit at a Poisson ramp and churn out.

    ``bots`` total bots split round-robin across the chosen targets.
    Per target, bot ``b`` comes online ``Exp(1/recruit_rate)`` after bot
    ``b - 1`` (cumulative ramp from the phase start), stays for an
    ``Exp(mean_lifetime)`` lifetime, and emits Poisson offers at
    ``rate_per_bot`` while alive — so the aggregate rate ramps up as the
    wave recruits and decays as bots churn, instead of the classic
    step-function flood.
    """

    kind: ClassVar[str] = "botnet-wave"
    RATE_FIELD: ClassVar[str] = "rate_per_bot"
    layer: int = 1
    fraction: float = 0.5
    bots: int = 40
    rate_per_bot: float = 25.0
    recruit_rate: float = 4.0
    mean_lifetime: float = 6.0
    intensity: float = 1.0

    SCHEMA: ClassVar[Dict[str, Field]] = {
        "layer": _layer_field(),
        "fraction": Field(
            (int, float), required=False, check=_fraction, describe="in (0, 1]"
        ),
        "bots": _count_field(),
        "rate_per_bot": _rate_field(),
        "recruit_rate": _rate_field(),
        "mean_lifetime": _rate_field(),
        "intensity": _rate_field(),
    }

    def __post_init__(self) -> None:
        _check_positive(
            self, "rate_per_bot", "recruit_rate", "mean_lifetime", "intensity"
        )
        if self.layer < 1:
            raise ScenarioError(f"{self.kind}: layer must be >= 1")
        _check_count(self, "bots")
        if not 0.0 < self.fraction <= 1.0:
            raise ScenarioError(
                f"{self.kind}: fraction must be in (0, 1], got "
                f"{self.fraction!r}"
            )

    def compile(
        self,
        deployment: SOSDeployment,
        start: float,
        end: float,
        phase: str,
        target_stream: np.random.Generator,
        time_stream: np.random.Generator,
    ) -> CompiledVector:
        targets = choose_fraction(
            target_stream,
            _layer_members(deployment, self.layer, self.kind),
            self.fraction,
        )
        subs = time_stream.spawn(len(targets))
        share, remainder = divmod(self.bots, max(len(targets), 1))
        attack: Dict[int, npt.NDArray[np.float64]] = {}
        for index, (target, sub) in enumerate(zip(targets, subs)):
            bots_here = share + (1 if index < remainder else 0)
            pieces: List[npt.NDArray[np.float64]] = []
            onset = start
            for _ in range(bots_here):
                onset = onset + float(sub.exponential(1.0 / self.recruit_rate))
                lifetime = float(sub.exponential(self.mean_lifetime))
                pieces.append(
                    poisson_times(
                        sub,
                        self.rate_per_bot * self.intensity,
                        onset,
                        min(onset + lifetime, end),
                    )
                )
            merged = (
                np.sort(np.concatenate(pieces))
                if pieces
                else np.empty(0, dtype=np.float64)
            )
            attack[target] = merged
        return CompiledVector(self.kind, phase, attack, ())


@dataclasses.dataclass(frozen=True)
class TargetedLowRate(AttackVector):
    """Concentrated low-rate DoS against ``count`` chosen relay nodes.

    The Tor-DoS shape (arXiv:1110.5395): instead of saturating a whole
    layer, pick a handful of relays — typically deeper layers (beacons /
    servlets), whose loss a path cannot route around as easily — and
    hold each just past its capacity knee with steady Poisson offers.
    """

    kind: ClassVar[str] = "targeted-low-rate"
    layer: int = 2
    count: int = 2
    rate: float = 80.0
    intensity: float = 1.0

    SCHEMA: ClassVar[Dict[str, Field]] = {
        "layer": _layer_field(),
        "count": Field(
            (int,), required=False, check=lambda v: v >= 1, describe=">= 1"
        ),
        "rate": _rate_field(),
        "intensity": _rate_field(),
    }

    def __post_init__(self) -> None:
        _check_positive(self, "rate", "intensity")
        if self.layer < 1:
            raise ScenarioError(f"{self.kind}: layer must be >= 1")
        if self.count < 1:
            raise ScenarioError(f"{self.kind}: count must be >= 1")

    def compile(
        self,
        deployment: SOSDeployment,
        start: float,
        end: float,
        phase: str,
        target_stream: np.random.Generator,
        time_stream: np.random.Generator,
    ) -> CompiledVector:
        targets = choose_members(
            target_stream,
            _layer_members(deployment, self.layer, self.kind),
            self.count,
        )
        subs = time_stream.spawn(len(targets))
        attack = {
            target: poisson_times(
                sub, self.rate * self.intensity, start, end
            )
            for target, sub in zip(targets, subs)
        }
        return CompiledVector(self.kind, phase, attack, ())


@dataclasses.dataclass(frozen=True)
class BenignSurge(AttackVector):
    """Flash crowd: extra *legitimate* clients arriving in a ramp.

    The false-positive stressor — load rises exactly like an attack's
    onset but every packet is a real request that should be delivered,
    so a detector that repairs surge-loaded nodes pays for nothing.
    Client ``i`` of ``clients`` starts ``ramp * i / clients`` into the
    phase, samples its own layer-1 access points (the regular client
    contact draw, off this vector's stream), and emits Poisson requests
    at ``rate`` until the phase ends.
    """

    kind: ClassVar[str] = "benign-surge"
    clients: int = 12
    rate: float = 4.0
    ramp: float = 2.0
    intensity: float = 1.0

    SCHEMA: ClassVar[Dict[str, Field]] = {
        "clients": _count_field(),
        "rate": _rate_field(),
        "ramp": Field(
            (int, float), required=False, check=lambda v: v >= 0, describe=">= 0"
        ),
        "intensity": _rate_field(),
    }

    def __post_init__(self) -> None:
        _check_positive(self, "rate", "intensity")
        _check_count(self, "clients")
        if self.ramp < 0:
            raise ScenarioError(f"{self.kind}: ramp must be >= 0")

    def compile(
        self,
        deployment: SOSDeployment,
        start: float,
        end: float,
        phase: str,
        target_stream: np.random.Generator,
        time_stream: np.random.Generator,
    ) -> CompiledVector:
        sources: List[SurgeSource] = []
        for index in range(self.clients):
            onset = start + self.ramp * (index / self.clients)
            # Contacts then times, sequentially off the vector's time
            # stream: adding a client never perturbs earlier clients.
            contacts = tuple(
                int(c) for c in deployment.sample_client_contacts(time_stream)
            )
            times = poisson_times(
                time_stream, self.rate * self.intensity, onset, end
            )
            sources.append(SurgeSource(contacts=contacts, times=times))
        return CompiledVector(self.kind, phase, {}, tuple(sources))


#: Serialization registry: ``kind`` string -> vector class.
VECTOR_KINDS: Dict[str, Type[AttackVector]] = {
    cls.kind: cls
    for cls in (PulsingFlood, BotnetWave, TargetedLowRate, BenignSurge)
}


def vector_from_dict(payload: Any) -> AttackVector:
    """Decode one vector dict (``{"kind": ..., **params}``), validating
    field names, types, and ranges before construction."""
    if not isinstance(payload, dict):
        raise ScenarioError(
            f"vector must be a JSON object, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if not isinstance(kind, str) or kind not in VECTOR_KINDS:
        raise ScenarioError(
            f"unknown vector kind {kind!r}; known kinds: "
            f"{sorted(VECTOR_KINDS)}"
        )
    cls = VECTOR_KINDS[kind]
    schema = {"kind": Field((str,)), **cls.SCHEMA}
    check_schema(payload, schema, ScenarioError, f"vector {kind!r}")
    # JSON has one number type; normalize ints into float-typed fields so
    # round-tripped specs compare equal to their in-memory originals.
    float_fields = {
        f.name for f in dataclasses.fields(cls) if f.type in ("float", float)
    }
    body: Dict[str, Any] = {}
    for name, value in payload.items():
        if name == "kind":
            continue
        if (
            name in float_fields
            and isinstance(value, int)
            and not isinstance(value, bool)
        ):
            value = float(value)
        body[name] = value
    return cls(**body)

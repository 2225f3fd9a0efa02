"""Packet-level simulation of a deployed SOS under flooding attacks.

The analytical model abstracts congestion into a binary per-node state.
This simulation grounds that abstraction: legitimate clients emit Poisson
traffic through the overlay hop by hop; the attacker floods chosen nodes at
a configurable rate; every node has finite processing capacity (a token
bucket refilled at ``node_capacity`` per unit time, ``2 * node_capacity``
deep). Flooded nodes drop most of what they receive — including
legitimate packets — which is exactly how a "congested" node degrades
path availability in the paper.

The headline check (see ``tests/simulation/test_packet_sim.py``):
delivery ratio with flooding at a layer's nodes collapses toward the
analytical ``P_S`` with those nodes marked congested, while un-flooded
runs deliver ~100%.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.perf.compiled import TIERS
from repro.sos.deployment import SOSDeployment, choose_fraction
from repro.utils.seeding import SeedLike, child_generator, make_rng, spawn_seeds

if TYPE_CHECKING:  # imported lazily to keep repro.detection optional here
    from repro.detection.marking import MarkCollector
    from repro.detection.monitor import TrafficMonitor
    from repro.scenarios.schedule import InjectionSchedule


#: Largest ``PacketSimConfig.clients``: one client per node of a
#: 10**6-node overlay. Each client is a spawned stream and a contact row
#: before any packet moves, so the cap bounds set-up memory.
MAX_CLIENTS = 1_000_000

#: Largest expected arrival count ``rate * (duration - start)`` of one
#: Poisson source (a client, or a flooded node from ``flood_start``).
#: The fast engine pre-samples each source's arrivals as one float64 row,
#: so this caps a row near 80 MB.
MAX_SOURCE_ARRIVALS = 10_000_000


@dataclasses.dataclass(frozen=True)
class PacketSimConfig:
    """Knobs for the packet-level run."""

    duration: float = 50.0
    hop_latency: float = 0.05
    client_rate: float = 5.0  # legitimate packets per unit time per client
    clients: int = 4
    node_capacity: float = 50.0
    flood_rate: float = 500.0  # attack packets per unit time per flooded node
    warmup: float = 5.0
    #: When the flood sources switch on. The default ``0.0`` reproduces
    #: the historical behavior exactly (``0.0 + gap == gap`` bit for
    #: bit); a later start gives online detectors a clean pre-attack
    #: baseline to estimate normal load from.
    flood_start: float = 0.0
    #: Retain every per-packet latency in ``PacketSimReport.latencies``.
    #: Off by default so long runs stay O(1) memory; the streaming
    #: count/mean/max statistics are always maintained.
    keep_latencies: bool = False
    #: Kernel set for the engine (:mod:`repro.perf.compiled`):
    #: ``"numpy"`` is the vectorized default and oracle, ``"compiled"``
    #: the C kernels (bit-identical; degrades to numpy with a one-time
    #: warning when they cannot be built).
    tier: str = "numpy"

    def __post_init__(self) -> None:
        # NaN slips past every ordered comparison below (and hangs the
        # fast engine's bucket scan), so finiteness is checked first.
        for name in (
            "duration", "warmup", "hop_latency", "client_rate",
            "node_capacity", "flood_rate", "flood_start",
        ):
            if not math.isfinite(getattr(self, name)):
                raise SimulationError(
                    f"{name} must be finite, got {getattr(self, name)}"
                )
        if self.duration <= self.warmup:
            raise SimulationError("duration must exceed warmup")
        for name in ("hop_latency", "client_rate", "node_capacity", "flood_rate"):
            if getattr(self, name) <= 0:
                raise SimulationError(f"{name} must be > 0")
        # A float, bool or string count fails deep inside an engine;
        # a huge one allocates without limit. Both fail here instead.
        if not isinstance(self.clients, numbers.Integral) or isinstance(
            self.clients, bool
        ):
            raise SimulationError(
                f"clients must be an int, got {self.clients!r}"
            )
        if self.clients < 0:
            raise SimulationError("clients must be >= 0")
        if self.clients > MAX_CLIENTS:
            raise SimulationError(
                f"clients must be <= {MAX_CLIENTS}, got {self.clients}"
            )
        for name, start in (("client_rate", 0.0), ("flood_rate", self.flood_start)):
            expected = getattr(self, name) * (self.duration - start)
            if expected > MAX_SOURCE_ARRIVALS:
                raise SimulationError(
                    f"{name} x (duration - start) = {expected:.3g} expected "
                    f"arrivals per source exceeds {MAX_SOURCE_ARRIVALS}"
                )
        if self.tier not in TIERS:
            raise SimulationError(
                f"tier must be one of {TIERS}, got {self.tier!r}"
            )
        if not 0.0 <= self.flood_start < self.duration:
            raise SimulationError(
                "flood_start must lie in [0, duration), got "
                f"{self.flood_start}"
            )
        # Every clock reading stays below 2 * duration unless hop_latency
        # is large, so a hop_latency of at least one ulp there keeps
        # t + hop_latency > t for the whole run. Below it, a packet would
        # arrive at the instant it was sent and routing could not settle.
        resolution = math.ulp(2.0 * self.duration)
        if self.hop_latency < resolution:
            raise SimulationError(
                f"hop_latency {self.hop_latency!r} is below the clock "
                f"resolution {resolution!r} at 2 x duration: "
                "t + hop_latency would equal t"
            )


@dataclasses.dataclass
class PacketSimReport:
    """Aggregate statistics of one packet-level run.

    Latency is summarized *streaming* (Welford's online algorithm:
    count / mean / M2 / max), so memory stays O(1) no matter how many
    packets are delivered. The raw per-packet ``latencies`` list is
    populated only when the run opted in via
    ``PacketSimConfig.keep_latencies``.
    """

    sent: int = 0
    delivered: int = 0
    dropped_at_congested: int = 0
    dropped_no_neighbor: int = 0
    attack_packets_absorbed: int = 0
    latency_count: int = 0
    latency_mean: float = 0.0
    latency_m2: float = 0.0
    max_latency: float = 0.0
    latencies: List[float] = dataclasses.field(default_factory=list)
    congested_nodes: List[int] = dataclasses.field(default_factory=list)
    arrivals_per_layer: Dict[int, int] = dataclasses.field(default_factory=dict)
    drops_per_layer: Dict[int, int] = dataclasses.field(default_factory=dict)

    def record_latency(self, value: float, keep: bool = False) -> None:
        """Fold one delivered-packet latency into the streaming stats."""
        self.latency_count += 1
        delta = value - self.latency_mean
        self.latency_mean += delta / self.latency_count
        self.latency_m2 += delta * (value - self.latency_mean)
        if value > self.max_latency:
            self.max_latency = value
        if keep:
            self.latencies.append(value)

    @property
    def delivery_ratio(self) -> float:
        return 0.0 if self.sent == 0 else self.delivered / self.sent

    @property
    def mean_latency(self) -> float:
        return 0.0 if self.latency_count == 0 else self.latency_mean


class PacketLevelSimulation:
    """Drives clients, floods, and forwarding over a deployment."""

    def __init__(
        self,
        deployment: SOSDeployment,
        config: PacketSimConfig = PacketSimConfig(),
        rng: SeedLike = None,
        monitor: "Optional[TrafficMonitor]" = None,
        marking: "Optional[MarkCollector]" = None,
    ) -> None:
        self.deployment = deployment
        self.config = config
        self.monitor = monitor
        self.marking = marking
        self.rng = make_rng(rng)
        self.report = PacketSimReport()
        # Per-client access points as layer-1 positions, which the fast
        # engine reads as layer-1 slots.
        self._contacts = deployment.client_contact_matrix(
            self.rng, config.clients
        )
        # Dedicated RNG sub-streams: one arrival
        # stream per client, one routing stream, and a master that spawns
        # one stream per flood target at run time. Each source consumes
        # only its own stream, so its arrival instants do not depend on
        # how the engine orders its work. The children are the seeds
        # ``self.rng.spawn`` would wrap; only the routing stream becomes
        # a generator, since the Poisson sampler reads seeds directly.
        seeds = spawn_seeds(self.rng, config.clients + 2)
        self._arrival_seeds = seeds[: config.clients]
        self._routing_rng = child_generator(self.rng, seeds[config.clients])
        self._flood_master = seeds[config.clients + 1]
        # Spawned only when marking is enabled, strictly *after* the
        # streams above: numpy's spawn-key fan-out means later children
        # never perturb earlier ones, so disabling detection leaves every
        # existing stream — and thus every report bit — unchanged.
        self._mark_master = self.rng.spawn(1)[0] if marking is not None else None

    def run(
        self,
        flood_targets: Optional[Sequence[int]] = None,
        fast: bool = True,
        schedule: "Optional[InjectionSchedule]" = None,
    ) -> PacketSimReport:
        """Simulate ``duration`` time units, flooding ``flood_targets``.

        Runs the hop-synchronous engine in :mod:`repro.perf.fastsim`.
        Its routing is iterated to a fixed point, so every run — flooded
        or not — reproduces the causal per-packet event order exactly
        (simultaneous events aside; see the module's tie rule); the
        event-driven reference it is checked against lives in the test
        suite (``tests/perf/event_oracle.py``). ``fast`` is kept
        for callers written when two engines existed: ``True`` is its
        only valid value, and ``False`` raises :class:`SimulationError`.

        ``schedule`` (an :class:`~repro.scenarios.schedule.InjectionSchedule`
        from :func:`~repro.scenarios.schedule.compile_scenario`) adds
        precompiled vector traffic: per-node attack offer instants and
        extra legitimate surge sources entering at layer 1. Scheduled
        times are *data* — no engine-side draw — and compose freely with
        a classic ``flood_targets`` flood. Packet marking covers only the
        classic flood graph, so combining ``marking`` with a schedule is
        rejected. Every input is validated before any draw.
        """
        if not fast:
            raise SimulationError(
                "the event-driven packet engine was retired from the "
                "library; it survives as the test oracle in "
                "tests/perf/event_oracle.py (EventPacketSimulation)"
            )
        from repro.perf.fastsim import run_fast

        self.report = run_fast(
            self.deployment,
            self.config,
            self.rng,
            flood_targets,
            client_contacts=self._contacts,
            streams=(
                self._arrival_seeds,
                self._routing_rng,
                self._flood_master,
            ),
            monitor=self.monitor,
            marking=self.marking,
            mark_master=self._mark_master,
            schedule=schedule,
        )
        return self.report


def flood_layer(
    deployment: SOSDeployment,
    layer: int,
    fraction: float = 1.0,
    rng: SeedLike = None,
) -> List[int]:
    """Pick a ``fraction`` of ``layer``'s members as flood targets."""
    if not 0.0 < fraction <= 1.0:
        raise SimulationError(f"fraction must be in (0, 1], got {fraction}")
    return choose_fraction(make_rng(rng), deployment.layer_members(layer), fraction)

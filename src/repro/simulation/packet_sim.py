"""Packet-level simulation of a deployed SOS under flooding attacks.

The analytical model abstracts congestion into a binary per-node state.
This simulation grounds that abstraction: legitimate clients emit Poisson
traffic through the overlay hop by hop; the attacker floods chosen nodes at
a configurable rate; every node has finite processing capacity
(:class:`~repro.simulation.capacity.NodeCapacity`). Flooded nodes drop most
of what they receive — including legitimate packets — which is exactly how
a "congested" node degrades path availability in the paper.

The headline check (see ``tests/simulation/test_packet_sim.py`` and the
``flooding_dynamics`` example): delivery ratio with flooding at a layer's
nodes collapses toward the analytical ``P_S`` with those nodes marked
congested, while un-flooded runs deliver ~100%.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from repro.errors import SimulationError
from repro.perf.compiled import TIERS
from repro.simulation.capacity import NodeCapacity
from repro.simulation.engine import EventScheduler
from repro.sos.deployment import SOSDeployment, choose_fraction
from repro.utils.seeding import SeedLike, make_rng

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


def uniform_index(u: float, count: int) -> int:
    """Map one uniform draw in ``[0, 1)`` to an index in ``[0, count)``.

    Both packet engines route with this exact arithmetic (``u * count``
    truncated, clamped for the rare upward rounding near 1.0), so a
    shared per-packet uniform yields the same pick whenever the two
    engines agree on the candidate set.
    """
    return min(int(u * count), count - 1)


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
    #: Kernel set for the fast engine (:mod:`repro.perf.compiled`):
    #: ``"numpy"`` is the vectorized default and oracle, ``"compiled"``
    #: the C kernels (bit-identical; degrades to numpy with a one-time
    #: warning when they cannot be built). The event engine ignores it.
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

    @property
    def latency_variance(self) -> float:
        """Population variance of delivered-packet latencies."""
        if self.latency_count < 2:
            return 0.0
        return self.latency_m2 / self.latency_count

    def bottleneck_layer(self) -> Optional[int]:
        """The layer absorbing the most legitimate-traffic drops."""
        if not self.drops_per_layer:
            return None
        return max(self.drops_per_layer, key=lambda k: self.drops_per_layer[k])


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
        self.scheduler = EventScheduler()
        self.report = PacketSimReport()
        # Per-client access points as layer-1 positions; the fast engine
        # reads them as slots, the event engine as node ids (built with
        # the token buckets on the event path only, see _event_state).
        self._contacts = deployment.client_contact_matrix(
            self.rng, config.clients
        )
        self._capacities: Dict[int, NodeCapacity] = {}
        self._client_contacts: List[List[int]] = []
        # Dedicated RNG sub-streams (the PR-3 spawn pattern): one arrival
        # stream per client, one routing stream, and a master that spawns
        # one stream per flood target at run time. Both engines consume
        # the same streams source by source, which is what makes the fast
        # path's injection schedule — and every no-drop report — bit-
        # identical to this event-driven oracle.
        streams = self.rng.spawn(config.clients + 2)
        self._arrival_streams = streams[: config.clients]
        self._routing_rng = streams[config.clients]
        self._flood_master = streams[config.clients + 1]
        # Spawned only when marking is enabled, strictly *after* the
        # streams above: numpy's spawn-key fan-out means later children
        # never perturb earlier ones, so disabling detection leaves every
        # existing stream — and thus every report bit — unchanged.
        self._mark_master = self.rng.spawn(1)[0] if marking is not None else None

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    @staticmethod
    def _poisson_gap(stream, rate: float) -> float:
        return float(stream.exponential(1.0 / rate))

    def _start_client(self, client_index: int) -> None:
        stream = self._arrival_streams[client_index]

        def emit():
            if self.scheduler.now >= self.config.duration:
                return
            self._inject_client_packet(client_index)
            self.scheduler.schedule_after(
                self._poisson_gap(stream, self.config.client_rate), emit
            )

        self.scheduler.schedule_after(
            self._poisson_gap(stream, self.config.client_rate), emit
        )

    def _start_flood(self, node_id: int, stream, mark_stream=None) -> None:
        def flood():
            if self.scheduler.now >= self.config.duration:
                return
            # Attack traffic consumes the node's capacity but is never
            # forwarded: hop verification rejects it (paper §2).
            accepted = self._capacities[node_id].offer(self.scheduler.now)
            self.report.attack_packets_absorbed += 1
            if self.monitor is not None:
                self.monitor.observe(node_id, self.scheduler.now, accepted)
            if mark_stream is not None and self.marking is not None:
                # Two uniforms per flood packet (source pick + edge
                # sampling) from the target's dedicated mark stream; the
                # fast engine draws the same stream as an (n, 2) block.
                u = mark_stream.random(2)
                self.marking.observe(node_id, float(u[0]), float(u[1]))
            self.scheduler.schedule_after(
                self._poisson_gap(stream, self.config.flood_rate), flood
            )

        self.scheduler.schedule_after(
            self.config.flood_start
            + self._poisson_gap(stream, self.config.flood_rate),
            flood,
        )

    # ------------------------------------------------------------------
    # Scheduled sources (precompiled scenario vectors)
    # ------------------------------------------------------------------
    def _clip_times(self, times) -> List[float]:
        """Absolute instants < duration, as plain floats. Both engines
        apply this same mask, so a schedule compiled for a longer run
        replays identically under a shorter config."""
        return [
            float(value)
            for value in times.tolist()
            if float(value) < self.config.duration
        ]

    def _start_scheduled_attack(self, node_id: int, times) -> None:
        """Chain one attack-offer event per precompiled instant.

        Like :meth:`_start_flood` the packets consume capacity and feed
        the monitor but are never forwarded; unlike it, the instants are
        data — no RNG draw happens here, which is what keeps scheduled
        vectors bit-identical across engines.
        """
        instants = self._clip_times(times)

        def offer(index: int) -> None:
            accepted = self._capacities[node_id].offer(self.scheduler.now)
            self.report.attack_packets_absorbed += 1
            if self.monitor is not None:
                self.monitor.observe(node_id, self.scheduler.now, accepted)
            if index + 1 < len(instants):
                self.scheduler.schedule_at(
                    instants[index + 1], lambda: offer(index + 1)
                )

        if instants:
            self.scheduler.schedule_at(instants[0], lambda: offer(0))

    def _start_scheduled_source(self, source) -> None:
        """Chain one legitimate injection per precompiled surge instant."""
        contacts = list(source.contacts)
        instants = self._clip_times(source.times)

        def emit(index: int) -> None:
            self._inject_from(contacts)
            if index + 1 < len(instants):
                self.scheduler.schedule_at(
                    instants[index + 1], lambda: emit(index + 1)
                )

        if instants:
            self.scheduler.schedule_at(instants[0], lambda: emit(0))

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _inject_from(self, contacts: Sequence[int]) -> None:
        if self.scheduler.now < self.config.warmup:
            return
        self.report.sent += 1
        # One uniform per decision the packet could ever face — entry
        # pick plus one forwarding pick per SOS layer — drawn as a block
        # at injection time. Pre-assigning the whole vector makes the
        # routing stream's consumption independent of how in-flight
        # packets interleave, so the fast engine reproduces it exactly.
        choices = self._routing_rng.random(
            self.deployment.architecture.layers + 1
        )
        entry = contacts[uniform_index(float(choices[0]), len(contacts))]
        self._forward(
            entry, layer=1, sent_at=self.scheduler.now, choices=choices
        )

    def _inject_client_packet(self, client_index: int) -> None:
        self._inject_from(self._client_contacts[client_index])

    def _forward(
        self, node_id: int, layer: int, sent_at: float, choices
    ) -> None:
        def arrive():
            self.report.arrivals_per_layer[layer] = (
                self.report.arrivals_per_layer.get(layer, 0) + 1
            )
            capacity = self._capacities[node_id]
            accepted = capacity.offer(self.scheduler.now)
            if self.monitor is not None:
                self.monitor.observe(node_id, self.scheduler.now, accepted)
            if not accepted:
                self.report.dropped_at_congested += 1
                self.report.drops_per_layer[layer] = (
                    self.report.drops_per_layer.get(layer, 0) + 1
                )
                return
            node = self.deployment.resolve(node_id)
            if node.is_bad:
                self.report.dropped_at_congested += 1
                self.report.drops_per_layer[layer] = (
                    self.report.drops_per_layer.get(layer, 0) + 1
                )
                return
            if layer == self.deployment.architecture.layers + 1:
                self.report.delivered += 1
                self.report.record_latency(
                    self.scheduler.now - sent_at,
                    keep=self.config.keep_latencies,
                )
                return
            neighbors = node.neighbors
            live = [
                n
                for n in neighbors
                if not self.deployment.resolve(n).is_bad
                and not self._capacities[n].is_congested
            ]
            if not live:
                self.report.dropped_no_neighbor += 1
                self.report.drops_per_layer[layer + 1] = (
                    self.report.drops_per_layer.get(layer + 1, 0) + 1
                )
                return
            next_id = live[uniform_index(float(choices[layer]), len(live))]
            self._forward(next_id, layer + 1, sent_at, choices)

        self.scheduler.schedule_after(self.config.hop_latency, arrive)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def drain_horizon(self) -> float:
        """Time by which every in-flight packet has resolved.

        Sources stop injecting strictly before ``duration``; a packet
        injected at ``duration - ε`` still has ``layers + 1`` hops to
        traverse (SOS layers plus the filter), each costing exactly
        ``hop_latency``. One extra ``hop_latency`` of slack absorbs the
        boundary case, replacing the former magic ``duration + 10.0``.
        """
        layers = self.deployment.architecture.layers
        return self.config.duration + (layers + 2) * self.config.hop_latency

    def _member_ids(self) -> Set[int]:
        """Identifiers of every SOS node and filter."""
        deployment = self.deployment
        return {
            node_id
            for layer in range(1, deployment.architecture.layers + 2)
            for node_id in deployment.member_array(layer).tolist()
        }

    def _event_state(self) -> None:
        """Token buckets and node-id contact lists for the event engine.

        Built on the first event-path run only: the fast engine keeps
        its own bucket arrays and reads the contact matrix as slots.
        """
        if self._capacities:
            return
        deployment = self.deployment
        for layer in range(1, deployment.architecture.layers + 2):
            for node_id in deployment.layer_members(layer):
                self._capacities[node_id] = NodeCapacity(
                    capacity=self.config.node_capacity,
                    burst=2 * self.config.node_capacity,
                )
        self._client_contacts = deployment.member_array(1)[
            self._contacts
        ].tolist()

    def run(
        self,
        flood_targets: Optional[Sequence[int]] = None,
        fast: bool = False,
        schedule: "Optional[InjectionSchedule]" = None,
    ) -> PacketSimReport:
        """Simulate ``duration`` time units, flooding ``flood_targets``.

        ``fast=True`` dispatches to the vectorized engine in
        :mod:`repro.perf.fastsim` (hop-synchronous numpy batches instead
        of one event per packet per hop). Both engines draw from the
        same per-source RNG sub-streams, so injection schedules —
        ``sent`` and ``attack_packets_absorbed`` — are bit-identical on
        a matched seed, and any run where no packet drops (including
        the degenerate single-packet case) produces a bit-identical
        report. Once drops occur the engines' congestion views can
        diverge (the fast path approximates next-hop congestion from
        timelines, see :mod:`repro.perf.fastsim`), so flooded runs are
        statistically equivalent rather than identical. The
        event-driven path remains the oracle.

        ``schedule`` (an :class:`~repro.scenarios.schedule.InjectionSchedule`
        from :func:`~repro.scenarios.schedule.compile_scenario`) adds
        precompiled vector traffic: per-node attack offer instants and
        extra legitimate surge sources. Scheduled times are *data* — no
        engine-side draw — so they are identical across engines by
        construction and compose freely with a classic ``flood_targets``
        flood. Packet marking covers only the classic flood graph, so
        combining ``marking`` with a schedule is rejected.
        """
        targets = sorted(flood_targets or ())
        members = self._member_ids()
        for target in targets:
            if target not in members:
                raise SimulationError(
                    f"flood target {target} is not an SOS node or filter"
                )
        if schedule is not None:
            for node in schedule.attack_targets:
                if node not in members:
                    raise SimulationError(
                        f"scheduled attack target {node} is not an SOS "
                        "node or filter"
                    )
            for source in schedule.surge_sources:
                for contact in source.contacts:
                    if contact not in members:
                        raise SimulationError(
                            f"surge contact {contact} is not an SOS node "
                            "or filter"
                        )
            if self.marking is not None:
                from repro.errors import DetectionError

                raise DetectionError(
                    "packet marking does not support scheduled scenario "
                    "vectors; run marking against a classic flood instead"
                )
        if self.marking is not None and targets:
            uncovered = set(targets) - set(self.marking.graph.victims())
            if uncovered:
                from repro.errors import DetectionError

                raise DetectionError(
                    "marking attack graph does not cover flood targets "
                    f"{sorted(uncovered)}"
                )
        if fast:
            from repro.perf.fastsim import run_fast

            self.report = run_fast(
                self.deployment,
                self.config,
                self.rng,
                flood_targets,
                client_contacts=self._contacts,
                streams=(
                    self._arrival_streams,
                    self._routing_rng,
                    self._flood_master,
                ),
                monitor=self.monitor,
                marking=self.marking,
                mark_master=self._mark_master,
                schedule=schedule,
            )
            return self.report
        self._event_state()
        # One dedicated stream per flood target, spawned in sorted-target
        # order — the same order the fast path uses — so each target's
        # flood schedule matches across engines. Mark streams mirror the
        # pattern from their own master, keeping marking randomness fully
        # decoupled from flood-timing randomness.
        flood_streams = self._flood_master.spawn(len(targets)) if targets else []
        if self.marking is not None and self._mark_master is not None and targets:
            mark_streams: List = list(self._mark_master.spawn(len(targets)))
        else:
            mark_streams = [None] * len(targets)
        for target, stream, mark_stream in zip(
            targets, flood_streams, mark_streams
        ):
            self._start_flood(target, stream, mark_stream)
        if schedule is not None:
            for node in schedule.attack_targets:
                self._start_scheduled_attack(node, schedule.attack_times[node])
            for source in schedule.surge_sources:
                self._start_scheduled_source(source)
        for client_index in range(self.config.clients):
            self._start_client(client_index)
        self.scheduler.run(until=self.drain_horizon())
        self.report.congested_nodes = sorted(
            node_id
            for node_id, capacity in self._capacities.items()
            if capacity.is_congested
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

"""The event-driven packet engine: the reference the library engine is
checked against.

:class:`EventPacketSimulation` schedules one closure per packet per hop
on an :class:`~repro.simulation.engine.EventScheduler` and replays every
node's token bucket with :class:`NodeCapacity`, one offer at a time, in
global time order. It is slow — that is the point: each step is short
enough to check by reading, and the library's hop-synchronous engine
(:func:`repro.perf.fastsim.run_fast`) must reproduce its reports,
monitor tallies and marking tallies bit for bit.

It subclasses :class:`~repro.simulation.packet_sim.PacketLevelSimulation`
and consumes the same per-source RNG sub-streams: one arrival stream per
client, one per flood target (spawned in sorted-target order), one
routing stream drawn as a ``(layers + 1)``-vector per packet at its
injection instant, and one mark stream per flood target. The library
hands arrival and flood sources over as child seeds; this engine builds
its own ``Generator`` from each and draws one gap at a time, so it
checks the library's one-call Poisson sampler
(:func:`repro.perf.compiled.poisson_rows`) independently.

:func:`event_engine` swaps it in under the detect/repair loop, so
scenario campaigns and the scenario runner can be replayed on it
without a production engine switch.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.simulation.engine import EventScheduler
from repro.simulation.packet_sim import PacketLevelSimulation, PacketSimReport
from repro.utils.seeding import child_generator

__all__ = ["EventPacketSimulation", "NodeCapacity", "event_engine", "uniform_index"]


@dataclasses.dataclass
class NodeCapacity:
    """Token-bucket processing capacity for one node.

    The paper's congestion attack floods a node until it "becomes non
    functional" (§2): it still refuses to *forward* attack traffic, but
    the flood exhausts its processing capacity so legitimate packets are
    lost too. Each node processes at most ``capacity`` packets per unit
    time; sustained arrivals beyond that are dropped, and a node whose
    drop rate reaches ``congestion_threshold`` is flagged congested — the
    packet-level analogue of the analytical model's binary congested
    state.

    Parameters
    ----------
    capacity:
        Packets processed per unit time (token refill rate).
    burst:
        Maximum tokens accumulated while idle (queue headroom).
    congestion_threshold:
        Fraction of dropped packets over the observation window above which
        the node is considered congested.
    """

    capacity: float = 100.0
    burst: float = 200.0
    congestion_threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise SimulationError(f"capacity must be > 0, got {self.capacity}")
        if self.burst < self.capacity:
            raise SimulationError("burst must be >= capacity")
        if not 0.0 < self.congestion_threshold <= 1.0:
            raise SimulationError("congestion_threshold must be in (0, 1]")
        self._tokens = self.burst
        self._last_refill = 0.0
        self._accepted = 0
        self._dropped = 0

    def _refill(self, now: float) -> None:
        if now < self._last_refill:
            raise SimulationError("time moved backwards in capacity model")
        elapsed = now - self._last_refill
        self._tokens = min(self.burst, self._tokens + elapsed * self.capacity)
        self._last_refill = now

    def offer(self, now: float, packets: float = 1.0) -> bool:
        """Offer ``packets`` units of work at time ``now``.

        Returns True when accepted (tokens available), False when dropped.
        """
        self._refill(now)
        if self._tokens >= packets:
            self._tokens -= packets
            self._accepted += 1
            return True
        self._dropped += 1
        return False

    @property
    def accepted(self) -> int:
        return self._accepted

    @property
    def dropped(self) -> int:
        return self._dropped

    @property
    def drop_rate(self) -> float:
        total = self._accepted + self._dropped
        return 0.0 if total == 0 else self._dropped / total

    @property
    def is_congested(self) -> bool:
        """True when the observed drop rate reaches the threshold."""
        return (
            self._accepted + self._dropped >= 10
            and self.drop_rate >= self.congestion_threshold
        )

    def reset_window(self) -> None:
        """Start a fresh observation window (keeps the token state)."""
        self._accepted = 0
        self._dropped = 0


def uniform_index(u: float, count: int) -> int:
    """Map one uniform draw in ``[0, 1)`` to an index in ``[0, count)``.

    ``u * count`` truncated, clamped for the rare upward rounding near
    1.0 — the arithmetic the library's route kernels apply to the same
    per-packet uniform.
    """
    return min(int(u * count), count - 1)


class EventPacketSimulation(PacketLevelSimulation):
    """:class:`PacketLevelSimulation` run one event per packet per hop."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scheduler = EventScheduler()
        self._capacities: Dict[int, NodeCapacity] = {}
        self._client_contacts: List[List[int]] = []
        # Offers are buffered and handed to the monitor as one batch:
        # monitor state is per-bin counts, so the order cannot matter.
        self._offer_nodes: List[int] = []
        self._offer_times: List[float] = []
        self._offer_accepted: List[bool] = []

    # ------------------------------------------------------------------
    # Sources
    # ------------------------------------------------------------------
    @staticmethod
    def _poisson_gap(stream, rate: float) -> float:
        return float(stream.exponential(1.0 / rate))

    def _offer(self, node_id: int) -> bool:
        """One token-bucket offer at ``node_id`` now, seen by the monitor."""
        accepted = self._capacities[node_id].offer(self.scheduler.now)
        if self.monitor is not None:
            self._offer_nodes.append(node_id)
            self._offer_times.append(self.scheduler.now)
            self._offer_accepted.append(accepted)
        return accepted

    def _start_client(self, client_index: int) -> None:
        stream = child_generator(self.rng, self._arrival_seeds[client_index])

        def emit():
            if self.scheduler.now >= self.config.duration:
                return
            self._inject_from(self._client_contacts[client_index])
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
            self._offer(node_id)
            self.report.attack_packets_absorbed += 1
            if mark_stream is not None and self.marking is not None:
                # Two uniforms per flood packet (source pick + edge
                # sampling) from the target's dedicated mark stream.
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

    def _clip_times(self, times) -> List[float]:
        """Absolute instants < duration, as plain floats."""
        return [
            float(value)
            for value in times.tolist()
            if float(value) < self.config.duration
        ]

    def _start_scheduled_attack(self, node_id: int, times) -> None:
        """Chain one attack-offer event per precompiled instant."""
        instants = self._clip_times(times)

        def offer(index: int) -> None:
            self._offer(node_id)
            self.report.attack_packets_absorbed += 1
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
        # at injection time.
        choices = self._routing_rng.random(
            self.deployment.architecture.layers + 1
        )
        entry = contacts[uniform_index(float(choices[0]), len(contacts))]
        self._forward(
            entry, layer=1, sent_at=self.scheduler.now, choices=choices
        )

    def _drop(self, layer: int) -> None:
        self.report.drops_per_layer[layer] = (
            self.report.drops_per_layer.get(layer, 0) + 1
        )

    def _forward(
        self, node_id: int, layer: int, sent_at: float, choices
    ) -> None:
        def arrive():
            self.report.arrivals_per_layer[layer] = (
                self.report.arrivals_per_layer.get(layer, 0) + 1
            )
            accepted = self._offer(node_id)
            node = self.deployment.resolve(node_id)
            if not accepted or node.is_bad:
                self.report.dropped_at_congested += 1
                self._drop(layer)
                return
            if layer == self.deployment.architecture.layers + 1:
                self.report.delivered += 1
                self.report.record_latency(
                    self.scheduler.now - sent_at,
                    keep=self.config.keep_latencies,
                )
                return
            live = [
                n
                for n in node.neighbors
                if not self.deployment.resolve(n).is_bad
                and not self._capacities[n].is_congested
            ]
            if not live:
                self.report.dropped_no_neighbor += 1
                self._drop(layer + 1)
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
        boundary case.
        """
        layers = self.deployment.architecture.layers
        return self.config.duration + (layers + 2) * self.config.hop_latency

    def _event_state(self) -> None:
        """Token buckets and node-id contact lists, built on first run."""
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
        fast: bool = True,
        schedule=None,
    ) -> PacketSimReport:
        """Simulate ``duration`` time units one event at a time.

        Same inputs as :meth:`PacketLevelSimulation.run`; callers are
        trusted, so nothing is validated here. ``fast`` is ignored.
        """
        self._event_state()
        targets = sorted(flood_targets or ())
        # One stream per flood target, spawned in sorted-target order;
        # mark streams follow the same pattern from their own master.
        flood_streams = [
            child_generator(self.rng, seed)
            for seed in self._flood_master.spawn(len(targets))
        ]
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
        if self.monitor is not None and self._offer_nodes:
            self.monitor.observe_batch(
                np.asarray(self._offer_nodes, dtype=np.int64),
                np.asarray(self._offer_times, dtype=np.float64),
                np.asarray(self._offer_accepted, dtype=np.bool_),
            )
            self._offer_nodes, self._offer_times, self._offer_accepted = [], [], []
        self.report.congested_nodes = sorted(
            node_id
            for node_id, capacity in self._capacities.items()
            if capacity.is_congested
        )
        return self.report


@contextlib.contextmanager
def event_engine() -> Iterator[None]:
    """Run the detect/repair loop — and the scenario runner, CLI and
    service paths above it — on :class:`EventPacketSimulation`."""
    from repro.detection import loop

    saved = loop.PacketLevelSimulation
    loop.PacketLevelSimulation = EventPacketSimulation  # type: ignore[misc]
    try:
        yield
    finally:
        loop.PacketLevelSimulation = saved  # type: ignore[misc]

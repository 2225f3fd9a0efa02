"""Vectorized fast path for the packet-level flooding simulation.

The event-driven engine in :mod:`repro.simulation.packet_sim` schedules
one closure per packet per hop; at production scale (thousands of
clients, hundreds of thousands of packets) the heap churn dominates the
run. This module replays the same physics in hop-synchronous numpy
batches:

1. **Pre-sampling** — every Poisson arrival time (client injections and
   per-node attack floods) is drawn up front with vectorized
   exponentials instead of one ``rng.exponential`` per event.
2. **Integer encoding** — the deployment is flattened into contiguous
   arrays: ``node_id -> slot`` indices, one neighbor matrix per layer,
   and flat float arrays for token-bucket state.
3. **Hop-synchronous advance** — all packets traverse layer ``h``
   together. Per-node token buckets are replayed exactly (floods and
   legitimate arrivals merged in time order, same accept/drop
   arithmetic as :class:`~repro.simulation.capacity.NodeCapacity`) by a
   grouped scan whose sequential axis is *events per node*, not total
   events.

Fidelity contract: both engines draw from the same per-source RNG
sub-streams (one arrival stream per client, one per flood target, one
routing stream consumed packet-major in injection order), so on a
matched seed the injection schedules — ``sent`` and
``attack_packets_absorbed`` — are bit-identical, and every run in
which no packet drops (the degenerate single-packet case included)
yields a bit-identical report. The one deliberate approximation: when
a forwarding node checks whether a *next-hop* neighbor is congested,
the fast path consults a congestion timeline rebuilt from the
neighbor's attack floods plus the current hop's tentative legitimate
arrivals (two-pass routing), not the exact per-packet interleaving —
the accept/drop decision at every node the packet actually visits is
still replayed exactly. Flooded runs are therefore statistically
equivalent rather than identical: delivery ratio, per-layer drops,
and latency agree within confidence bounds
(``tests/perf/test_fastsim_equivalence.py``). The event-driven engine
remains the oracle.

``run_packet_replicas`` scales multi-replica sweeps across cores with
the PR-3 worker pattern: per-replica ``SeedSequence`` streams are
pre-spawned in the parent in replica order, so aggregates are
bit-identical for any worker count.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.architecture import SOSArchitecture
from repro.errors import SimulationError
from repro.overlay.arrays import attach_columns, share_columns
from repro.perf.compiled import get_kernels, resolve_tier
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    PacketSimReport,
    flood_layer,
)
from repro.sos.deployment import SOSDeployment, sample_contact_matrix
from repro.utils.seeding import make_rng

__all__ = [
    "DeploymentArrays",
    "SlotIndex",
    "encode_deployment",
    "run_fast",
    "run_packet_replicas",
    "mean_delivery_ratio",
]


# ----------------------------------------------------------------------
# Deployment encoding
# ----------------------------------------------------------------------


class SlotIndex:
    """Read-only ``node_id -> slot`` mapping over two sorted int64 columns.

    Replaces the per-node Python dict of the historical object encoder:
    scalar queries are binary searches and :meth:`lookup` translates
    whole identifier arrays in one vectorized pass, so building the
    index for a million-node deployment is one ``argsort`` instead of a
    million dict inserts. Supports ``in`` and ``[]`` like the dict it
    replaced.

    Duplicate identifiers are rejected at construction (a two-slot id
    would make every downstream slot array ambiguous). Identifiers too
    wide for int64 (e.g. raw 2^160 hash-space names) degrade to a plain
    dict index — correct, just without the vectorized fast path.
    """

    __slots__ = ("_sorted_ids", "_sorted_slots", "_fallback")

    def __init__(self, node_ids: np.ndarray) -> None:
        ids = np.asarray(node_ids)
        wide = ids.dtype == object or (
            ids.dtype == np.uint64
            and ids.size > 0
            and int(ids.max()) > np.iinfo(np.int64).max
        )
        if wide:
            mapping: Dict[int, int] = {}
            for slot, value in enumerate(ids.reshape(-1).tolist()):
                value = int(value)
                if value in mapping:
                    raise SimulationError(
                        f"duplicate node id {value} in deployment arrays"
                    )
                mapping[value] = slot
            self._fallback: Optional[Dict[int, int]] = mapping
            self._sorted_ids = np.empty(0, dtype=np.int64)
            self._sorted_slots = np.empty(0, dtype=np.int64)
            return
        self._fallback = None
        ids64 = np.asarray(ids, dtype=np.int64)
        order = np.argsort(ids64, kind="stable")
        self._sorted_ids = np.ascontiguousarray(ids64[order])
        self._sorted_slots = np.ascontiguousarray(order.astype(np.int64))
        if len(self._sorted_ids) > 1:
            same = self._sorted_ids[1:] == self._sorted_ids[:-1]
            if bool(same.any()):
                dup = int(self._sorted_ids[1:][same][0])
                raise SimulationError(
                    f"duplicate node id {dup} in deployment arrays"
                )

    def __len__(self) -> int:
        if self._fallback is not None:
            return len(self._fallback)
        return len(self._sorted_ids)

    def __contains__(self, node_id: object) -> bool:
        if self._fallback is not None:
            return node_id in self._fallback
        index = int(np.searchsorted(self._sorted_ids, node_id))
        return (
            index < len(self._sorted_ids)
            and int(self._sorted_ids[index]) == node_id
        )

    def __getitem__(self, node_id: int) -> int:
        if self._fallback is not None:
            return self._fallback[node_id]
        index = int(np.searchsorted(self._sorted_ids, node_id))
        if (
            index < len(self._sorted_ids)
            and int(self._sorted_ids[index]) == node_id
        ):
            return int(self._sorted_slots[index])
        raise KeyError(node_id)

    def lookup(self, node_ids: np.ndarray) -> np.ndarray:
        """Vectorized ``[]``: slots of ``node_ids`` (any shape)."""
        if self._fallback is not None:
            wanted = np.asarray(node_ids)
            out = np.empty(wanted.size, dtype=np.int64)
            for position, value in enumerate(wanted.reshape(-1).tolist()):
                value = int(value)
                if value not in self._fallback:
                    raise KeyError(value)
                out[position] = self._fallback[value]
            return out.reshape(wanted.shape)
        wanted = np.asarray(node_ids, dtype=np.int64)
        if len(self._sorted_ids) == 0:
            if wanted.size:
                raise KeyError(int(wanted.flat[0]))
            return np.zeros(wanted.shape, dtype=np.int64)
        index = np.searchsorted(self._sorted_ids, wanted)
        clipped = np.minimum(index, len(self._sorted_ids) - 1)
        found = self._sorted_ids[clipped] == wanted
        if not bool(found.all()):
            raise KeyError(int(wanted[~found].flat[0]))
        return self._sorted_slots[clipped]


@dataclasses.dataclass(frozen=True)
class DeploymentArrays:
    """A deployment flattened into contiguous integer/boolean arrays.

    ``slot`` indices are 0-based positions in ``node_ids`` (sorted layer
    by layer); ``neighbors[h]`` maps each layer-``h`` slot row to the
    slots of its next-layer neighbor table.
    """

    layers: int
    node_ids: np.ndarray  # (M,) original identifiers, per slot
    slot_of: SlotIndex  # node_id -> slot
    layer_of: np.ndarray  # (M,) 1-based layer per slot
    local_of: np.ndarray  # (M,) position within the slot's layer
    members: Dict[int, np.ndarray]  # layer -> slots of its members
    neighbors: Dict[int, np.ndarray]  # layer -> (size_h, m_{h+1}) slot matrix
    is_bad: np.ndarray  # (M,) health snapshot at encode time


def _encode_structure(deployment: SOSDeployment) -> Dict[str, Any]:
    """Health-independent encoding state, cached on the wiring epochs.

    Everything here is a pure function of layer membership and neighbor
    wiring, both of which bump their store's ``wiring_epoch`` on every
    mutation — so across the repeated encodes of a replica sweep or a
    detect→repair loop this is a dict probe, not a rebuild.
    """
    net_store = deployment.network.store
    filter_store = deployment.filters.store
    key = (net_store.wiring_epoch, filter_store.wiring_epoch)
    cached = deployment._fastsim_structure
    if cached is not None and cached[0] == key:
        return cached[1]
    layers = deployment.architecture.layers
    parts = [deployment.member_array(layer) for layer in range(1, layers + 2)]
    sizes = [len(part) for part in parts]
    node_ids = np.concatenate(parts)
    layer_of = np.repeat(np.arange(1, layers + 2, dtype=np.int64), sizes)
    local_of = np.concatenate(
        [np.arange(size, dtype=np.int64) for size in sizes]
    )
    members: Dict[int, np.ndarray] = {}
    start = 0
    for layer, size in enumerate(sizes, start=1):
        members[layer] = np.arange(start, start + size, dtype=np.int64)
        start += size
    slot_of = SlotIndex(node_ids)
    neighbors: Dict[int, np.ndarray] = {}
    for layer in range(1, layers + 1):
        rows = deployment.member_rows(layer)
        lens = net_store.neighbor_len[rows]
        degree = int(lens.max(initial=0))
        if len(rows) and bool((lens != degree).any()):
            raise SimulationError(
                f"layer {layer} has ragged neighbor tables; the fast "
                "engine needs one uniform degree per layer"
            )
        neighbor_ids = net_store.neighbor_matrix(rows, degree)
        neighbors[layer] = slot_of.lookup(neighbor_ids).reshape(
            len(rows), degree
        )
    structure = {
        "layers": layers,
        "node_ids": node_ids,
        "slot_of": slot_of,
        "layer_of": layer_of,
        "local_of": local_of,
        "members": members,
        "neighbors": neighbors,
    }
    deployment._fastsim_structure = (key, structure)
    return structure


def encode_deployment(deployment: SOSDeployment) -> DeploymentArrays:
    """Flatten ``deployment`` into :class:`DeploymentArrays`.

    Borrows the overlay/filter stores' columns directly: member arrays,
    neighbor tables, and the slot index are vectorized gathers (cached
    across calls on the stores' wiring epochs), and the ``is_bad``
    health snapshot is one comparison over the health columns.
    """
    structure = _encode_structure(deployment)
    layers = structure["layers"]
    net_store = deployment.network.store
    filter_store = deployment.filters.store
    bad_parts = [
        net_store.health[deployment.member_rows(layer)] != 0
        for layer in range(1, layers + 1)
    ]
    bad_parts.append(
        filter_store.health[deployment.member_rows(layers + 1)] != 0
    )
    return DeploymentArrays(
        layers=layers,
        node_ids=structure["node_ids"],
        slot_of=structure["slot_of"],
        layer_of=structure["layer_of"],
        local_of=structure["local_of"],
        members=structure["members"],
        neighbors=structure["neighbors"],
        is_bad=np.concatenate(bad_parts),
    )


# ----------------------------------------------------------------------
# Poisson pre-sampling
# ----------------------------------------------------------------------


def _poisson_row(
    stream: np.random.Generator, rate: float, duration: float,
    start: float = 0.0,
) -> np.ndarray:
    """Arrival times in ``(start, duration)`` for one Poisson source.

    Draws exponential gaps in blocks from the source's dedicated stream
    and cumulative-sums them. A block draw consumes the stream
    identically to the event engine's one-gap-at-a-time draws, and
    prepending ``start`` to the cumsum input adds left to right exactly
    like the scheduler's sequential ``start + gap`` then ``now + gap``
    additions (``0.0 + x == x`` bitwise, so the default changes
    nothing), so the kept times are bit-identical to the event-driven
    source's emission times. The unused tail of the final block is
    harmless: nothing else reads the stream.
    """
    expected = rate * max(duration - start, 0.0)
    width = max(4, int(expected + 10.0 * math.sqrt(expected) + 16.0))
    gaps = stream.exponential(1.0 / rate, size=width)
    times = np.cumsum(np.concatenate([[start], gaps]))[1:]
    while times[-1] < duration:
        gaps = np.concatenate(
            [gaps, stream.exponential(1.0 / rate, size=width)]
        )
        times = np.cumsum(np.concatenate([[start], gaps]))[1:]
    return times[times < duration]


def _flood_events(
    flood_slots: Sequence[int],
    flood_times: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten per-target flood rows into parallel (slots, times) arrays."""
    if not flood_slots:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    slots = np.repeat(
        np.asarray(flood_slots, dtype=np.int64),
        [len(times) for times in flood_times],
    )
    return slots, np.concatenate(flood_times)


def _contact_slots(
    arrays: DeploymentArrays,
    client_contacts: Any,
    surge_sources: Sequence[Any],
    clients: int,
) -> np.ndarray:
    """Entry-contact slots, one row per source: baseline clients first,
    then surge sources.

    Baseline rows are layer-1 positions, which already are layer-1 slots
    (layer 1 opens the slot order of :func:`encode_deployment`), so they
    are used as they stand. Surge contacts are node ids and go through
    the slot index.
    """
    malformed = SimulationError(
        "client_contacts must be a (clients, m_1) matrix of layer-1 positions"
    )
    try:
        baseline = np.asarray(client_contacts, dtype=np.int64)
    except (TypeError, ValueError):
        raise malformed from None
    rows = len(baseline) if baseline.ndim else 0
    if rows != clients:
        raise SimulationError(
            f"client_contacts has {rows} rows for {clients} clients"
        )
    parts = []
    degrees = set()
    if clients:
        layer_one = len(arrays.members[1])
        if baseline.ndim != 2 or baseline.size == 0:
            raise malformed
        if int(baseline.min()) < 0 or int(baseline.max()) >= layer_one:
            raise SimulationError(
                f"client_contacts must hold layer-1 positions in "
                f"0..{layer_one - 1}"
            )
        parts.append(baseline)
        degrees.add(baseline.shape[1])
    if surge_sources:
        surge_rows = [list(source.contacts) for source in surge_sources]
        degrees.update(len(row) for row in surge_rows)
        if len(degrees) > 1:
            raise SimulationError(
                "surge sources and baseline clients must share one "
                "contact degree; was the schedule compiled against a "
                "different architecture?"
            )
        try:
            parts.append(
                arrays.slot_of.lookup(np.asarray(surge_rows, dtype=np.int64))
            )
        except KeyError as exc:
            raise SimulationError(
                f"surge contact {exc.args[0]} is not an SOS node or filter"
            ) from None
    if not parts:
        # Zero sources: keep the matrix 2-D so the entry-choice
        # arithmetic stays shape-correct on empty inputs.
        return np.zeros((0, 1), dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# ----------------------------------------------------------------------
# Fast engine
# ----------------------------------------------------------------------


def run_fast(
    deployment: Optional[SOSDeployment],
    config: PacketSimConfig,
    rng: Any = None,
    flood_targets: Optional[Sequence[int]] = None,
    client_contacts: Optional[np.ndarray] = None,
    streams: Optional[Tuple[Sequence[np.random.Generator], np.random.Generator, np.random.Generator]] = None,
    monitor: Optional[Any] = None,
    marking: Optional[Any] = None,
    mark_master: Optional[np.random.Generator] = None,
    arrays: Optional[DeploymentArrays] = None,
    schedule: Optional[Any] = None,
) -> PacketSimReport:
    """Run the vectorized packet engine; returns a :class:`PacketSimReport`.

    Semantics mirror :meth:`PacketLevelSimulation.run`: Poisson clients
    inject from ``warmup`` to ``duration``, floods consume capacity at
    their targets without being forwarded, every arrival offers one
    token, packets route uniformly among next-layer neighbors that are
    healthy and not congested, and filter-layer acceptances count as
    deliveries at ``(layers + 1) * hop_latency`` latency.

    ``client_contacts`` is the int64 ``(clients, m_1)`` matrix of each
    client's access points as layer-1 *positions* — the
    :meth:`~repro.sos.deployment.SOSDeployment.client_contact_matrix`
    draw, one row per client, which the engine uses as layer-1 slots
    with no lookup. A row count other than ``config.clients`` or a
    position outside layer 1 raises :class:`SimulationError`. When
    absent it is drawn here from ``rng``.

    ``streams`` is the ``(arrival_streams, routing_rng, flood_master)``
    triple :class:`PacketLevelSimulation` spawns; when absent it is
    spawned here from ``rng`` with the identical construction, so a
    standalone ``run_fast(dep, cfg, rng=seed)`` matches
    ``PacketLevelSimulation(dep, cfg, rng=seed).run(fast=True)``.

    ``monitor`` (a :class:`~repro.detection.monitor.TrafficMonitor`)
    receives every token-bucket offer in per-layer batches; ``marking``
    (a :class:`~repro.detection.marking.MarkCollector`) receives two
    uniforms per flood packet from per-target streams spawned off
    ``mark_master`` — the identical draws the event engine makes, in
    the identical order. Both default to ``None`` at zero cost: no
    extra stream is spawned and no draw is made, so a detection-free
    fast run is bit-identical to one from before the detection
    subsystem existed.

    ``arrays`` supplies a pre-encoded :class:`DeploymentArrays`
    (shared-memory replica workers run without any deployment object at
    all); when given, ``deployment`` is only consulted to sample client
    contacts, so ``deployment=None`` is legal as long as
    ``client_contacts`` is supplied.

    ``config.tier`` selects the kernel set (:mod:`repro.perf.compiled`)
    that runs the flood timeline, the bucket scan at each hop, both
    routing passes, and the latency fold: ``numpy`` (default) or
    ``compiled`` (C, degrading to numpy with a one-time warning when
    it cannot be built). Routing hands the kernels each packet's row of
    the layer's neighbor table, never a per-packet copy of the row.
    Both make identical RNG draws and identical accept/drop/route
    decisions, so reports are bit-identical across tiers wherever the
    numpy path is exact.

    ``schedule`` (an :class:`~repro.scenarios.schedule.InjectionSchedule`)
    contributes precompiled vector traffic: per-node attack offer rows
    merged into the flood structures and surge sources appended to the
    client injection pipeline (their routing uniforms come from the
    shared routing stream in global time order, exactly like baseline
    clients). The instants are data, not draws, so the injected
    schedule matches the event engine bit for bit.
    """
    generator = make_rng(rng)
    if arrays is None:
        if deployment is None:
            raise SimulationError(
                "run_fast needs a deployment or pre-encoded arrays"
            )
        arrays = encode_deployment(deployment)
    layers = arrays.layers
    capacity = config.node_capacity
    burst = 2.0 * config.node_capacity
    kernels = get_kernels(resolve_tier(config.tier))
    total_slots = len(arrays.node_ids)
    report = PacketSimReport()

    if client_contacts is None:
        if deployment is None:
            raise SimulationError(
                "client_contacts must be supplied when running from "
                "arrays alone"
            )
        client_contacts = deployment.client_contact_matrix(
            generator, config.clients
        )
    if streams is None:
        spawned = generator.spawn(config.clients + 2)
        streams = (
            spawned[: config.clients],
            spawned[config.clients],
            spawned[config.clients + 1],
        )
        # Standalone marking runs spawn the mark master *after* the main
        # streams, mirroring PacketLevelSimulation.__init__ exactly.
        if marking is not None and mark_master is None:
            mark_master = generator.spawn(1)[0]
    arrival_streams, routing_rng, flood_master = streams

    # --- precompiled scenario traffic --------------------------------
    sched_attack: Dict[int, np.ndarray] = {}
    surge_sources: Tuple[Any, ...] = ()
    if schedule is not None:
        if marking is not None:
            from repro.errors import DetectionError

            raise DetectionError(
                "packet marking does not support scheduled scenario "
                "vectors; run marking against a classic flood instead"
            )
        for node in schedule.attack_targets:
            if node not in arrays.slot_of:
                raise SimulationError(
                    f"scheduled attack target {node} is not an SOS node "
                    "or filter"
                )
        # Clip to this config's horizon with the same mask the event
        # engine applies, so shorter replays of a longer schedule agree.
        for node in schedule.attack_targets:
            row = np.asarray(schedule.attack_times[node], dtype=np.float64)
            sched_attack[int(node)] = row[row < config.duration]
        surge_sources = tuple(schedule.surge_sources)

    contact_matrix = _contact_slots(
        arrays, client_contacts, surge_sources, config.clients
    )

    targets = sorted(flood_targets or ())
    try:
        target_slots = arrays.slot_of.lookup(
            np.asarray(targets, dtype=np.int64)
        ).tolist()
    except KeyError as exc:
        raise SimulationError(
            f"flood target {exc.args[0]} is not an SOS node or filter"
        ) from None

    # --- pre-sample every Poisson source -----------------------------
    injection_rows = [
        _poisson_row(stream, config.client_rate, config.duration)
        for stream in arrival_streams
    ]
    flood_streams = flood_master.spawn(len(targets)) if targets else []
    flood_rows = [
        _poisson_row(
            stream,
            config.flood_rate,
            config.duration,
            start=config.flood_start,
        )
        for stream in flood_streams
    ]
    report.attack_packets_absorbed = int(sum(len(row) for row in flood_rows))
    if marking is not None and targets:
        uncovered = set(targets) - set(marking.graph.victims())
        if uncovered:
            from repro.errors import DetectionError

            raise DetectionError(
                "marking attack graph does not cover flood targets "
                f"{sorted(uncovered)}"
            )
        if mark_master is None:
            raise SimulationError(
                "marking requires a mark_master stream when streams are "
                "supplied externally"
            )
        # Per-target mark streams in sorted-target order; a ``(n, 2)``
        # block draw consumes a stream exactly like the event engine's n
        # sequential ``random(2)`` calls (row-major), so the collected
        # tallies are bit-identical across engines.
        mark_streams = mark_master.spawn(len(targets))
        for target, mark_stream, row in zip(targets, mark_streams, flood_rows):
            if len(row):
                marking.observe_batch(
                    target, mark_stream.random((len(row), 2))
                )
    flood_by_slot = {
        slot: times for slot, times in zip(target_slots, flood_rows)
    }
    # Merge scheduled attack rows into the same per-slot structure the
    # classic flood uses; downstream (bucket scans, timelines, monitor
    # batches) cannot tell the two apart, which is the point.
    for node, times in sched_attack.items():
        slot = arrays.slot_of[node]
        if slot in flood_by_slot:
            flood_by_slot[slot] = np.sort(
                np.concatenate([flood_by_slot[slot], times])
            )
        else:
            flood_by_slot[slot] = times
    attack_slots = sorted(flood_by_slot)
    attack_rows = [flood_by_slot[slot] for slot in attack_slots]
    report.attack_packets_absorbed += int(
        sum(len(times) for times in sched_attack.values())
    )
    fslots, ftimes = _flood_events(attack_slots, attack_rows)
    flood_table = kernels.timeline_table(
        fslots, ftimes, total_slots, capacity, burst
    )
    # Each layer's share of the flood events, in attack-slot order.
    flood_layer_of = arrays.layer_of[fslots]
    layer_floods = {
        layer: (fslots[in_layer], ftimes[in_layer])
        for layer in range(1, layers + 2)
        for in_layer in [flood_layer_of == layer]
    }

    # Surge sources ride the client injection pipeline: rows appended
    # after the baseline clients, matching their contact-matrix rows.
    for source in surge_sources:
        row = np.asarray(source.times, dtype=np.float64)
        injection_rows.append(row[row < config.duration])

    client_index = np.repeat(
        np.arange(len(injection_rows), dtype=np.int64),
        [len(row) for row in injection_rows],
    )
    inject_t = (
        np.concatenate(injection_rows) if injection_rows else np.zeros(0)
    )
    warm = inject_t >= config.warmup
    inject_t = inject_t[warm]
    client_index = client_index[warm]
    # Global injection order: the event engine draws each packet's
    # choice vector at its injection instant, so row k of the block
    # below must belong to the k-th post-warmup injection in time order.
    order = np.argsort(inject_t, kind="stable")
    inject_t = inject_t[order]
    client_index = client_index[order]
    report.sent = int(len(inject_t))

    # One uniform per decision, pre-assigned per packet: column 0 picks
    # the entry contact, column h the forwarding target out of layer h.
    # The event engine draws the same (layers + 1)-vector per packet at
    # injection time, so this matrix is bit-identical to its draws.
    choice_u = routing_rng.random((len(inject_t), layers + 1))
    contact_count = contact_matrix.shape[1]
    entry_choice = np.minimum(
        (choice_u[:, 0] * contact_count).astype(np.int64),
        contact_count - 1,
    )
    current = contact_matrix[client_index, entry_choice]

    # --- per-node final capacity counters (for congested_nodes) ------
    final_offers: Dict[int, Tuple[int, int]] = {}

    # Arrival clocks accumulate one hop_latency per layer — the same
    # sequence of float additions the event scheduler performs — so the
    # degenerate single-packet report matches the oracle bit for bit.
    sent_t = inject_t
    arrive_t = inject_t

    # --- hop-synchronous advance -------------------------------------
    for layer in range(1, layers + 2):
        flood_slots, flood_times = layer_floods[layer]
        if len(arrive_t) == 0 and len(flood_slots) == 0:
            continue
        arrive_t = arrive_t + config.hop_latency
        arrival_t = arrive_t
        if len(arrival_t):
            report.arrivals_per_layer[layer] = (
                report.arrivals_per_layer.get(layer, 0) + int(len(arrival_t))
            )

        # Merge this layer's legitimate arrivals with the floods aimed
        # at its members, then replay every member's token bucket.
        legit_count = len(arrival_t)
        slots_flat = np.concatenate([current, flood_slots])
        times_flat = np.concatenate([arrival_t, flood_times])
        accept_flat, unique_slots, accepted_per, dropped_per = (
            kernels.bucket_scan(
                slots_flat, times_flat, total_slots, capacity, burst
            )
        )
        if monitor is not None:
            # Every offer this layer's buckets saw (legit + flood) with
            # its accept/drop outcome — the batch mirror of the event
            # engine's per-offer ``monitor.observe`` calls.
            monitor.observe_batch(
                arrays.node_ids[slots_flat], times_flat, accept_flat
            )
        for group, slot in enumerate(unique_slots):
            final_offers[int(slot)] = (
                int(accepted_per[group]),
                int(dropped_per[group]),
            )
        accept = accept_flat[:legit_count]

        ok = accept & ~arrays.is_bad[current]
        stage_drops = int(legit_count - int(ok.sum()))
        if stage_drops:
            report.dropped_at_congested += stage_drops
            report.drops_per_layer[layer] = (
                report.drops_per_layer.get(layer, 0) + stage_drops
            )

        if layer == layers + 1:
            delivered = int(ok.sum())
            report.delivered += delivered
            latency_values = arrive_t[ok] - sent_t[ok]
            (
                report.latency_count,
                report.latency_mean,
                report.latency_m2,
                report.max_latency,
            ) = kernels.welford(
                latency_values,
                report.latency_count,
                report.latency_mean,
                report.latency_m2,
                report.max_latency,
            )
            if config.keep_latencies:
                report.latencies.extend(latency_values.tolist())
            break

        sent_t = sent_t[ok]
        arrive_t = arrive_t[ok]
        decision_t = arrival_t[ok]
        choice_u = choice_u[ok]
        survivors = current[ok]
        if len(survivors) == 0:
            current = survivors
            continue
        # Packets name their neighbor-table row; the kernels read the
        # layer's table in place instead of a per-packet row copy.
        rows = arrays.local_of[survivors]
        neighbor_table = arrays.neighbors[layer]

        # Two-pass routing. Pass 1 routes against the flood-only
        # congestion view; pass 2 rebuilds the next layer's congestion
        # timelines from its floods *plus* the tentative legitimate
        # arrivals of pass 1, then re-routes. The refinement catches
        # nodes congested by legitimate overload alone, which the
        # flood-only view cannot see (the residual error is the
        # second-order effect of re-routing on those arrival streams).
        hop_u = choice_u[:, layer]
        routable, chosen = kernels.route(
            hop_u, rows, neighbor_table, arrays.is_bad, decision_t,
            flood_table,
        )
        tentative_arrival = arrive_t + config.hop_latency
        next_slots, next_times = layer_floods[layer + 1]
        # Same per-packet uniforms, refined live sets: re-evaluating is
        # free (no stream consumption) and rows whose live set did not
        # change keep their pass-1 choice.
        refined_table = kernels.timeline_table(
            np.concatenate([chosen[routable], next_slots]),
            np.concatenate([tentative_arrival[routable], next_times]),
            total_slots,
            capacity,
            burst,
        )
        routable, chosen = kernels.route(
            hop_u, rows, neighbor_table, arrays.is_bad, decision_t,
            refined_table,
        )

        stranded_count = int(len(routable) - int(routable.sum()))
        if stranded_count:
            report.dropped_no_neighbor += stranded_count
            report.drops_per_layer[layer + 1] = (
                report.drops_per_layer.get(layer + 1, 0) + stranded_count
            )
        sent_t = sent_t[routable]
        arrive_t = arrive_t[routable]
        choice_u = choice_u[routable]
        current = chosen[routable]

    report.congested_nodes = sorted(
        int(arrays.node_ids[slot])
        for slot, (accepted, dropped) in final_offers.items()
        if accepted + dropped >= 10
        and dropped / (accepted + dropped) >= 0.5
    )
    return report


# ----------------------------------------------------------------------
# Process-parallel replicas (PR-3 worker pattern)
# ----------------------------------------------------------------------

#: Per-worker-process state installed by :func:`_init_replica_worker`.
_REPLICA_STATE: Dict[str, Any] = {}


def _init_replica_worker(
    architecture: SOSArchitecture,
    config: PacketSimConfig,
    layer: Optional[int],
    fraction: float,
    fast: bool,
) -> None:
    _REPLICA_STATE["architecture"] = architecture
    _REPLICA_STATE["config"] = config
    _REPLICA_STATE["layer"] = layer
    _REPLICA_STATE["fraction"] = fraction
    _REPLICA_STATE["fast"] = fast


def _run_one_replica(
    architecture: SOSArchitecture,
    config: PacketSimConfig,
    layer: Optional[int],
    fraction: float,
    fast: bool,
    seed: np.random.SeedSequence,
) -> PacketSimReport:
    """Deploy, pick flood targets, and simulate one replica on its own
    pre-spawned RNG stream (fully determined by ``seed``)."""
    rng = make_rng(seed)
    deployment = SOSDeployment.deploy(architecture, rng=rng)
    targets: List[int] = []
    if layer is not None and fraction > 0.0:
        targets = flood_layer(deployment, layer, fraction, rng=rng)
    simulation = PacketLevelSimulation(deployment, config, rng=rng)
    return simulation.run(flood_targets=targets, fast=fast)


def _run_replica_chunk(
    jobs: List[Tuple[int, np.random.SeedSequence]],
) -> List[Tuple[int, PacketSimReport]]:
    return [
        (
            index,
            _run_one_replica(
                _REPLICA_STATE["architecture"],
                _REPLICA_STATE["config"],
                _REPLICA_STATE["layer"],
                _REPLICA_STATE["fraction"],
                _REPLICA_STATE["fast"],
                seed,
            ),
        )
        for index, seed in jobs
    ]


# ----------------------------------------------------------------------
# Shared-deployment replicas over multiprocessing.shared_memory
# ----------------------------------------------------------------------


def _arrays_to_columns(arrays: DeploymentArrays) -> Dict[str, np.ndarray]:
    """Flatten :class:`DeploymentArrays` into the named-column form
    :func:`repro.overlay.arrays.share_columns` ships to workers."""
    sizes = np.asarray(
        [len(arrays.members[layer]) for layer in range(1, arrays.layers + 2)],
        dtype=np.int64,
    )
    named = {
        "layer_sizes": sizes,
        "node_ids": arrays.node_ids,
        "layer_of": arrays.layer_of,
        "local_of": arrays.local_of,
        "is_bad": arrays.is_bad,
    }
    for layer in range(1, arrays.layers + 1):
        named[f"neighbors_{layer}"] = arrays.neighbors[layer]
    return named


def _arrays_from_columns(named: Dict[str, np.ndarray]) -> DeploymentArrays:
    """Rebuild :class:`DeploymentArrays` over attached column views.

    Everything except the (worker-local) slot index and member ranges
    stays a zero-copy view of the shared pages.
    """
    sizes = named["layer_sizes"]
    layers = len(sizes) - 1
    members: Dict[int, np.ndarray] = {}
    start = 0
    for layer, size in enumerate(sizes.tolist(), start=1):
        members[layer] = np.arange(start, start + size, dtype=np.int64)
        start += size
    return DeploymentArrays(
        layers=layers,
        node_ids=named["node_ids"],
        slot_of=SlotIndex(named["node_ids"]),
        layer_of=named["layer_of"],
        local_of=named["local_of"],
        members=members,
        neighbors={
            layer: named[f"neighbors_{layer}"]
            for layer in range(1, layers + 1)
        },
        is_bad=named["is_bad"],
    )


def _flood_layer_arrays(
    arrays: DeploymentArrays,
    layer: int,
    fraction: float,
    rng: np.random.Generator,
) -> List[int]:
    """:func:`~repro.simulation.packet_sim.flood_layer` over the encoded
    arrays — same draw (one ``choice`` over the sorted members), no
    deployment object needed."""
    if not 0.0 < fraction <= 1.0:
        raise SimulationError(f"fraction must be in (0, 1], got {fraction}")
    member_slots = arrays.members.get(layer)
    if member_slots is None:
        raise SimulationError(
            f"layer {layer} out of range 1..{arrays.layers + 1}"
        )
    members = arrays.node_ids[member_slots]
    count = max(1, int(round(fraction * len(members))))
    chosen = rng.choice(
        len(members), size=min(count, len(members)), replace=False
    )
    return sorted(int(members[int(i)]) for i in chosen)


def _run_one_shared_replica(
    arrays: DeploymentArrays,
    architecture: SOSArchitecture,
    config: PacketSimConfig,
    layer: Optional[int],
    fraction: float,
    seed: np.random.SeedSequence,
) -> PacketSimReport:
    """One replica over a shared (read-only) deployment encoding: the
    flood-target, client-contact, and packet draws all come from the
    replica's own pre-spawned stream; the deployment state is common."""
    rng = make_rng(seed)
    targets: List[int] = []
    if layer is not None and fraction > 0.0:
        targets = _flood_layer_arrays(arrays, layer, fraction, rng)
    layer_one = len(arrays.members[1])
    contacts = sample_contact_matrix(
        rng,
        layer_one,
        min(architecture.mapping_degree(1), layer_one),
        config.clients,
    )
    return run_fast(
        None,
        config,
        rng=rng,
        flood_targets=targets,
        client_contacts=contacts,
        arrays=arrays,
    )


def _init_shared_worker(
    shm_name: str,
    meta: Dict[str, Any],
    architecture: SOSArchitecture,
    config: PacketSimConfig,
    layer: Optional[int],
    fraction: float,
) -> None:
    named, shm = attach_columns(shm_name, meta)
    _REPLICA_STATE["shared_arrays"] = _arrays_from_columns(named)
    _REPLICA_STATE["shared_shm"] = shm  # keep the mapping alive
    _REPLICA_STATE["architecture"] = architecture
    _REPLICA_STATE["config"] = config
    _REPLICA_STATE["layer"] = layer
    _REPLICA_STATE["fraction"] = fraction


def _run_shared_chunk(
    jobs: List[Tuple[int, np.random.SeedSequence]],
) -> List[Tuple[int, PacketSimReport]]:
    return [
        (
            index,
            _run_one_shared_replica(
                _REPLICA_STATE["shared_arrays"],
                _REPLICA_STATE["architecture"],
                _REPLICA_STATE["config"],
                _REPLICA_STATE["layer"],
                _REPLICA_STATE["fraction"],
                seed,
            ),
        )
        for index, seed in jobs
    ]


def run_packet_replicas(
    architecture: SOSArchitecture,
    config: PacketSimConfig,
    replicas: int,
    flood_layer_index: Optional[int] = None,
    flood_fraction: float = 1.0,
    seed: Optional[int] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    fast: bool = True,
    deployment: Optional[SOSDeployment] = None,
) -> List[PacketSimReport]:
    """Run independent packet-sim replicas, optionally across processes.

    Each replica deploys a fresh SOS instance, floods ``flood_fraction``
    of layer ``flood_layer_index`` (no flood when ``None``), and runs
    the selected engine. Replica RNG streams are pre-spawned here in
    replica order and reports are returned in replica order, so the
    result is bit-identical for any ``workers`` value — the same
    guarantee the parallel Monte Carlo estimator carries.

    ``deployment`` switches to **shared-deployment** mode: every replica
    runs over that one deployment's encoded arrays (health snapshot
    included) and only the flood-target, client-contact, and packet
    draws vary per replica. Across processes the encoding travels as
    one ``multiprocessing.shared_memory`` segment — workers map the
    parent's pages read-only, zero copies and no per-worker deployment
    pickling — which is what makes million-node replica sweeps fit in
    memory. Requires the fast engine; worker-count invariance holds
    exactly as in fresh-deployment mode.

    ``workers=0`` means "all cores"; ``workers=1`` runs in-process.
    """
    if replicas < 1:
        raise SimulationError(f"replicas must be >= 1, got {replicas}")
    if workers < 0:
        raise SimulationError(
            f"workers must be >= 0 (0 means all cores), got {workers}"
        )
    if chunk_size is not None and chunk_size < 1:
        raise SimulationError(f"chunk_size must be >= 1, got {chunk_size}")
    if deployment is not None and not fast:
        raise SimulationError(
            "shared-deployment replicas require the fast engine (fast=True)"
        )
    if deployment is not None and deployment.architecture != architecture:
        raise SimulationError(
            "deployment was built for a different architecture"
        )
    root = np.random.SeedSequence(seed)
    seeds = root.spawn(replicas)
    jobs = list(enumerate(seeds))
    resolved = workers
    if workers == 0:
        import os

        resolved = os.cpu_count() or 1
    if deployment is not None:
        arrays = encode_deployment(deployment)
        if resolved <= 1:
            results = [
                (
                    index,
                    _run_one_shared_replica(
                        arrays,
                        architecture,
                        config,
                        flood_layer_index,
                        flood_fraction,
                        seed_seq,
                    ),
                )
                for index, seed_seq in jobs
            ]
        else:
            chunk = chunk_size or max(1, math.ceil(len(jobs) / (resolved * 4)))
            parts = [jobs[i : i + chunk] for i in range(0, len(jobs), chunk)]
            shared = share_columns(_arrays_to_columns(arrays))
            results = []
            try:
                with ProcessPoolExecutor(
                    max_workers=min(resolved, len(parts)),
                    initializer=_init_shared_worker,
                    initargs=(
                        shared.name,
                        shared.meta,
                        architecture,
                        config,
                        flood_layer_index,
                        flood_fraction,
                    ),
                ) as pool:
                    for part in pool.map(_run_shared_chunk, parts):
                        results.extend(part)
            finally:
                shared.close()
    elif resolved <= 1:
        results = _run_replica_chunk_serial(
            architecture, config, flood_layer_index, flood_fraction, fast, jobs
        )
    else:
        chunk = chunk_size or max(1, math.ceil(len(jobs) / (resolved * 4)))
        parts = [jobs[i : i + chunk] for i in range(0, len(jobs), chunk)]
        results = []
        with ProcessPoolExecutor(
            max_workers=min(resolved, len(parts)),
            initializer=_init_replica_worker,
            initargs=(
                architecture,
                config,
                flood_layer_index,
                flood_fraction,
                fast,
            ),
        ) as pool:
            for part in pool.map(_run_replica_chunk, parts):
                results.extend(part)
    results.sort(key=lambda pair: pair[0])
    return [report for _, report in results]


def _run_replica_chunk_serial(
    architecture: SOSArchitecture,
    config: PacketSimConfig,
    layer: Optional[int],
    fraction: float,
    fast: bool,
    jobs: List[Tuple[int, np.random.SeedSequence]],
) -> List[Tuple[int, PacketSimReport]]:
    return [
        (
            index,
            _run_one_replica(architecture, config, layer, fraction, fast, seed),
        )
        for index, seed in jobs
    ]


def mean_delivery_ratio(reports: Sequence[PacketSimReport]) -> float:
    """Average delivery ratio over replica reports (NaN-free: replicas
    that sent nothing contribute 0, matching ``delivery_ratio``)."""
    if not reports:
        raise SimulationError("no replica reports to summarize")
    return sum(report.delivery_ratio for report in reports) / len(reports)

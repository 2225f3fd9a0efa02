"""The packet engine: hop-synchronous batches replaying per-packet events.

A packet-level run is, physically, one event per packet per hop in
global time order (``tests/perf/event_oracle.py`` keeps that event-driven
form as the reference). At production scale — thousands of clients,
hundreds of thousands of packets — heap churn would dominate such a run.
This module replays the same physics in hop-synchronous numpy batches:

1. **Pre-sampling** — every Poisson arrival time (client injections and
   per-node attack floods) is drawn up front, all sources in one call
   (:func:`repro.perf.compiled.poisson_rows`): from each source's child
   seed, a C loop over numpy's own exponential adds the gaps left to
   right, exactly as one ``exponential`` draw per event would. Sources
   stay seeds until then, and the times stay one flat array with row
   offsets; a plain numpy loop gives the same rows where the C path
   cannot run.
2. **Integer encoding** — the deployment is flattened into contiguous
   arrays: ``node_id -> slot`` indices, one neighbor matrix per layer,
   and flat float arrays for token-bucket state.
3. **Hop-synchronous advance** — all packets traverse layer ``h``
   together. Per-node token buckets (refill ``node_capacity`` per unit
   time, ``2 * node_capacity`` deep, one token per offer) are replayed
   exactly — floods and legitimate arrivals merged in time order — by a
   grouped scan whose sequential axis is *events per node*, not total
   events.
4. **Fixed-point routing** — a packet leaving layer ``h`` at time ``t``
   picks uniformly among its next-layer neighbors that are healthy and
   not congested at ``t`` (at least 10 offers seen, at least half of
   them dropped). Whether a neighbor is congested at ``t`` depends on
   the legitimate arrivals other routing decisions sent it, so routes
   are refined until they stop changing. A decision at ``t`` reads only
   offers at times ``<= t``, and legitimate offers come from decisions
   at times ``<= t - hop_latency``: the fixed point is unique and is the
   causal, event-ordered result. The loop ends because after each
   refinement that changes something, the earliest changed decision and
   every earlier one are final, so a layer settles within (its decisions
   + 1) refinements. In practice almost every layer settles after one
   refinement; a dense cascade whose next-layer nodes hover at the
   drop threshold can need hundreds (``docs/PERFORMANCE.md``). Routing
   reads a table only through its congestion-flag flips, so a refined
   table with the flips of the one the current routes came from settles
   the layer without routing again: a next layer that never congests
   costs one route. The settled table replayed exactly the offers the
   next hop's buckets see — these routes' arrivals, then the next
   layer's floods — so that hop reuses its accept flags instead of
   scanning again; only layer 1 runs its own bucket scan.

Fidelity contract: every source draws from its own RNG sub-stream (one
arrival stream per client, one per flood target, one routing stream
consumed packet-major in injection order), so the injection schedule
does not depend on how the engine batches its work, and the report,
monitor tallies and marking tallies equal the event-ordered oracle's
bit for bit (``tests/perf/test_fastsim_equivalence.py``).

Tie rule: simultaneous events are the one exception. This engine sorts
each layer's offers by ``(slot, time)`` with a stable lexsort, so offers
to one node at the same instant are taken legitimate arrivals first (in
injection order), then attack offers; and a routing decision sees every
offer at or before its own instant. The event-driven form breaks such
ties by scheduling order instead, so tied instants are outside the
identity promise. Poisson sources and compiled scenario vectors tie
with probability zero; hand-built schedules on a ``hop_latency`` grid
can tie on purpose.

Stages: :class:`~repro.simulation.packet_sim.PacketLevelSimulation`
draws the contacts and spawns the streams, then :func:`run_fast`
validates the inputs (:func:`_validate`), pre-samples every source
(:func:`_sample_injections`, :func:`_sample_attacks`), picks each
packet's entry contact (:func:`_enter`) and, per layer, runs the offer
scan (:func:`_offer_scan`), then delivery (:func:`_deliver`) or
fixed-point routing (:func:`_route`).

``run_packet_replicas`` scales multi-replica sweeps across cores through
:func:`repro.perf.parallel.parallel_map`: each replica deploys afresh
from its own ``SeedSequence``, pre-spawned in the parent in replica
order, and reports come back in replica order, so aggregates are
bit-identical for any worker count.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.architecture import SOSArchitecture
from repro.errors import DetectionError, SimulationError
from repro.perf.compiled import (
    choice_sampler,
    get_kernels,
    poisson_rows,
    poisson_sampler,
    resolve_tier,
)
from repro.perf.parallel import check_count, parallel_map
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    PacketSimReport,
    flood_layer,
)
from repro.sos.deployment import SOSDeployment
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

    Node identifiers are int64 end to end (an overlay's identifier space
    is at most 62 bits wide): ids of any other type, object arrays or
    uint64 values above the int64 maximum, are refused, and so are
    duplicate ids (a two-slot id would make every downstream slot array
    ambiguous). Both raise :class:`SimulationError`.
    """

    __slots__ = ("_sorted_ids", "_sorted_slots")

    def __init__(self, node_ids: np.ndarray) -> None:
        ids = np.asarray(node_ids)
        if ids.dtype.kind not in "iu" or (
            ids.dtype == np.uint64
            and ids.size > 0
            and int(ids.max()) > np.iinfo(np.int64).max
        ):
            raise SimulationError(
                f"node ids must fit in int64, got dtype {ids.dtype}"
            )
        ids64 = ids.astype(np.int64, copy=False)
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
        return len(self._sorted_ids)

    def __contains__(self, node_id: object) -> bool:
        index = int(np.searchsorted(self._sorted_ids, node_id))
        return (
            index < len(self._sorted_ids)
            and int(self._sorted_ids[index]) == node_id
        )

    def __getitem__(self, node_id: int) -> int:
        index = int(np.searchsorted(self._sorted_ids, node_id))
        if (
            index < len(self._sorted_ids)
            and int(self._sorted_ids[index]) == node_id
        ):
            return int(self._sorted_slots[index])
        raise KeyError(node_id)

    def lookup(self, node_ids: np.ndarray) -> np.ndarray:
        """Vectorized ``[]``: slots of ``node_ids`` (any shape). The
        first id without a slot raises ``KeyError``, as ``[]`` does."""
        given = np.asarray(node_ids)
        if given.dtype.kind not in "iu" or (
            given.dtype == np.uint64
            and given.size > 0
            and int(given.max()) > np.iinfo(np.int64).max
        ):
            # Ids that are not int64 integers (floats, objects, wider
            # ints) take ``[]``'s own test one by one, before the cast.
            for value in given.flat:
                if value not in self:
                    raise KeyError(value)
        wanted = given.astype(np.int64)
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
                f"layer {layer} has ragged neighbor tables; the packet "
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


_DEGREE_MISMATCH = (
    "surge sources and baseline clients must share one contact degree; "
    "was the schedule compiled against a different architecture?"
)


def _surge_slots(
    arrays: DeploymentArrays, surge_sources: Sequence[Any]
) -> np.ndarray:
    """Surge contacts as layer-1 slots, one row per source.

    Surge contacts are node ids; like a baseline client's, each must be
    a layer-1 SOS node, since a packet entering anywhere else would skip
    the layers the routing tables are built for.
    """
    rows = [list(source.contacts) for source in surge_sources]
    if len({len(row) for row in rows}) > 1:
        raise SimulationError(_DEGREE_MISMATCH)
    try:
        slots = arrays.slot_of.lookup(np.asarray(rows, dtype=np.int64))
    except KeyError as exc:
        raise SimulationError(
            f"surge contact {exc.args[0]} is not an SOS node or filter"
        ) from None
    outside = slots >= len(arrays.members[1])
    if bool(outside.any()):
        node = int(arrays.node_ids[slots[outside][0]])
        raise SimulationError(
            f"surge contact {node} is not a layer-1 SOS node"
        )
    return slots


def _contact_slots(
    baseline: np.ndarray, surge_slots: Optional[np.ndarray]
) -> np.ndarray:
    """Entry-contact slots, one row per source: baseline clients first,
    then surge sources.

    ``baseline`` is the deployment's own ``(clients, m_1)`` draw of
    layer-1 positions, which already are layer-1 slots (layer 1 opens
    the slot order of :func:`encode_deployment`), so it is used as it
    stands. ``surge_slots`` is :func:`_surge_slots`' result, or ``None``
    without a schedule.
    """
    parts = [
        part
        for part in (baseline, surge_slots)
        if part is not None and len(part)
    ]
    if len({part.shape[1] for part in parts}) > 1:
        raise SimulationError(_DEGREE_MISMATCH)
    if not parts:
        # Zero sources: keep the matrix 2-D so the entry-choice
        # arithmetic stays shape-correct on empty inputs.
        return np.zeros((0, 1), dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


# ----------------------------------------------------------------------
# Fast engine
# ----------------------------------------------------------------------


class _Plan(NamedTuple):
    """A run's validated inputs: what the draws are made for."""

    targets: List[int]  # classic flood targets, ascending
    target_slots: np.ndarray  # their slots, in the same order
    scheduled: Dict[int, np.ndarray]  # scheduled target -> offer instants
    surges: Tuple[Any, ...]  # scheduled surge sources
    contacts: np.ndarray  # (sources, degree) entry-contact slots


class _Packets(NamedTuple):
    """The legitimate packets in flight at one layer, one entry each."""

    sent_t: np.ndarray  # injection instant
    arrive_t: np.ndarray  # arrival instant at the current layer
    choice_u: np.ndarray  # (n, layers + 1) pre-drawn routing uniforms
    current: np.ndarray  # slot of the node the packet is offered to

    def keep(self, mask: np.ndarray) -> "_Packets":
        return _Packets(*(column[mask] for column in self))


def _tally(counts: Dict[int, int], layer: int, count: int) -> None:
    """Add ``count`` to ``counts[layer]``; a zero adds no key."""
    if count:
        counts[layer] = counts.get(layer, 0) + count


def _validate(
    arrays: DeploymentArrays,
    simulation: PacketLevelSimulation,
    flood_targets: Optional[Sequence[int]],
    schedule: Optional[Any],
) -> _Plan:
    """Check every outside input of a run; no draw happens here."""
    config = simulation.config
    marking = simulation.marking
    scheduled: Dict[int, np.ndarray] = {}
    surges: Tuple[Any, ...] = ()
    surge_slots: Optional[np.ndarray] = None
    if schedule is not None:
        if marking is not None:
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
        # Clip to this config's horizon, so shorter replays of a longer
        # schedule see the same prefix.
        for node in schedule.attack_targets:
            row = np.asarray(schedule.attack_times[node], dtype=np.float64)
            scheduled[int(node)] = row[row < config.duration]
        surges = tuple(schedule.surge_sources)
        if surges:
            surge_slots = _surge_slots(arrays, surges)

    targets = sorted(flood_targets or ())
    try:
        target_slots = arrays.slot_of.lookup(
            np.asarray(targets, dtype=np.int64)
        )
    except KeyError as exc:
        raise SimulationError(
            f"flood target {exc.args[0]} is not an SOS node or filter"
        ) from None
    if marking is not None and targets:
        uncovered = set(targets) - set(marking.graph.victims())
        if uncovered:
            raise DetectionError(
                "marking attack graph does not cover flood targets "
                f"{sorted(uncovered)}"
            )
    contacts = _contact_slots(simulation._contacts, surge_slots)
    return _Plan(targets, target_slots, scheduled, surges, contacts)


def _sample_injections(
    simulation: PacketLevelSimulation, plan: _Plan
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-sample every legitimate injection: the post-warmup instants
    in time order, and each one's source row in ``plan.contacts``."""
    config = simulation.config
    inject_t, inject_offsets = poisson_rows(
        simulation._arrival_seeds, config.client_rate, config.duration,
        bit_generator=type(simulation._routing_rng.bit_generator),
    )
    row_counts = np.diff(inject_offsets)
    # Surge sources ride the client injection pipeline: rows appended
    # after the baseline clients, matching their contact-matrix rows.
    if plan.surges:
        surge_rows: List[np.ndarray] = []
        for source in plan.surges:
            row = np.asarray(source.times, dtype=np.float64)
            surge_rows.append(row[row < config.duration])
        inject_t = np.concatenate([inject_t, *surge_rows])
        row_counts = np.concatenate(
            [row_counts, [len(row) for row in surge_rows]]
        )
    client_index = np.repeat(
        np.arange(len(row_counts), dtype=np.int64), row_counts
    )
    warm = inject_t >= config.warmup
    inject_t = inject_t[warm]
    client_index = client_index[warm]
    # Global injection order: each packet's choice vector is drawn at
    # its injection instant, so row k of the routing block belongs to
    # the k-th post-warmup injection in time order.
    order = np.argsort(inject_t, kind="stable")
    return inject_t[order], client_index[order]


def _sample_attacks(
    simulation: PacketLevelSimulation, arrays: DeploymentArrays, plan: _Plan
) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Pre-sample every attack offer (and its marks); returns each
    layer's share as flat ``(slots, times)`` events."""
    config = simulation.config
    targets = plan.targets
    flood_t, flood_offsets = poisson_rows(
        simulation._flood_master.spawn(len(targets)) if targets else [],
        config.flood_rate,
        config.duration,
        start=config.flood_start,
        bit_generator=type(simulation._routing_rng.bit_generator),
    )
    flood_counts = np.diff(flood_offsets)
    marking = simulation.marking
    if marking is not None and targets:
        # Per-target mark streams in sorted-target order; a ``(n, 2)``
        # block draw consumes a stream exactly like n sequential
        # ``random(2)`` calls (row-major), one per flood packet.
        mark_streams = simulation._mark_master.spawn(len(targets))
        for target, mark_stream, count in zip(
            targets, mark_streams, flood_counts.tolist()
        ):
            if count:
                marking.observe_batch(target, mark_stream.random((count, 2)))
    # The classic rows in sorted-target order, then the scheduled rows.
    # Downstream (bucket scans, timelines, monitor batches) groups offers
    # by slot and orders each slot's offers by time, so neither the row
    # order nor where a slot's offers came from can change a result.
    fslots = np.repeat(plan.target_slots, flood_counts)
    ftimes = flood_t
    if plan.scheduled:
        sched_rows = list(plan.scheduled.values())
        sched_slots = arrays.slot_of.lookup(
            np.fromiter(plan.scheduled, dtype=np.int64, count=len(sched_rows))
        )
        fslots = np.concatenate(
            [fslots, np.repeat(sched_slots, [len(row) for row in sched_rows])]
        )
        ftimes = np.concatenate([ftimes, *sched_rows])
    flood_layer_of = arrays.layer_of[fslots]
    return {
        layer: (fslots[in_layer], ftimes[in_layer])
        for layer in range(1, arrays.layers + 2)
        for in_layer in [flood_layer_of == layer]
    }


def _enter(
    contacts: np.ndarray, client_index: np.ndarray, entry_u: np.ndarray
) -> np.ndarray:
    """Entry choice: each packet's layer-1 slot, picked uniformly among
    its source's contacts by the packet's first routing uniform."""
    contact_count = contacts.shape[1]
    entry_choice = np.minimum(
        (entry_u * contact_count).astype(np.int64), contact_count - 1
    )
    return contacts[client_index, entry_choice]


def _offer_scan(
    kernels: Any,
    arrays: DeploymentArrays,
    config: PacketSimConfig,
    packets: _Packets,
    floods: Tuple[np.ndarray, np.ndarray],
    accept_flat: Optional[np.ndarray],
    monitor: Optional[Any],
    offered: np.ndarray,
    dropped: np.ndarray,
) -> np.ndarray:
    """One layer's offers: merge its legitimate arrivals with the floods
    aimed at its members, replay every member's token bucket (unless
    ``accept_flat`` already holds the outcome), feed the monitor, and
    add to the per-node tallies. Returns the arrivals' accept flags."""
    total_slots = len(arrays.node_ids)
    flood_slots, flood_times = floods
    slots_flat = np.concatenate([packets.current, flood_slots])
    times_flat = np.concatenate([packets.arrive_t, flood_times])
    if accept_flat is None:
        accept_flat = kernels.bucket_scan(
            slots_flat, times_flat, total_slots,
            config.node_capacity, 2.0 * config.node_capacity,
        )
    if monitor is not None:
        # Every offer this layer's buckets saw (legit + flood) with its
        # accept/drop outcome — the batch mirror of the event engine's
        # per-offer ``monitor.observe`` calls.
        monitor.observe_batch(
            arrays.node_ids[slots_flat], times_flat, accept_flat
        )
    offered += np.bincount(slots_flat, minlength=total_slots)
    dropped += np.bincount(slots_flat[~accept_flat], minlength=total_slots)
    return accept_flat[: len(packets.current)]


def _deliver(
    report: PacketSimReport,
    kernels: Any,
    config: PacketSimConfig,
    packets: _Packets,
    ok: np.ndarray,
) -> None:
    """Count the filter layer's acceptances as deliveries and fold their
    latencies into the report's streaming statistics."""
    report.delivered += int(ok.sum())
    latency_values = packets.arrive_t[ok] - packets.sent_t[ok]
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


def _route(
    kernels: Any,
    arrays: DeploymentArrays,
    config: PacketSimConfig,
    layer: int,
    packets: _Packets,
    next_floods: Tuple[np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-point routing out of ``layer`` (see the module docstring).

    The first iterate assumes no legitimate arrivals, so it routes
    against the next layer's floods alone; each refinement rebuilds the
    next layer's timelines from its floods plus the arrivals the current
    routes send it, then re-routes with the same per-packet uniforms (no
    stream consumption). After a refinement that changes something, the
    earliest changed decision and every earlier one are final, so a
    layer settles within (its decisions + 1) refinements. A table with
    the flips of the one the current routes came from would route them
    again unchanged, so the layer settles without the call.

    Returns ``(routable, chosen, accept)``: which packets found a
    neighbor, the slot each chose, and the accept flags of the settled
    table, which replayed exactly the next layer's offers — these
    routes' arrivals, then its floods.
    """
    total_slots = len(arrays.node_ids)
    hop_u = packets.choice_u[:, layer]
    # Packets name their neighbor-table row; the kernels read the
    # layer's table in place instead of a per-packet row copy.
    rows = arrays.local_of[packets.current]
    neighbor_table = arrays.neighbors[layer]
    next_slots, next_times = next_floods
    next_arrival = packets.arrive_t + config.hop_latency
    routable = np.zeros(len(hop_u), dtype=bool)
    chosen = packets.current  # unread while nothing is routable
    routed_flips: Optional[Tuple[np.ndarray, ...]] = None
    while True:
        table, table_accept = kernels.timeline_table(
            np.concatenate([chosen[routable], next_slots]),
            np.concatenate([next_arrival[routable], next_times]),
            total_slots,
            config.node_capacity,
            2.0 * config.node_capacity,
        )
        flips = table.flips
        if routed_flips is not None and all(
            np.array_equal(ours, theirs)
            for ours, theirs in zip(flips, routed_flips)
        ):
            break
        routed_flips = flips
        refined_routable, refined_chosen = kernels.route(
            hop_u, rows, neighbor_table, arrays.is_bad, packets.arrive_t,
            table,
        )
        settled = np.array_equal(refined_routable, routable) and (
            np.array_equal(refined_chosen[routable], chosen[routable])
        )
        routable, chosen = refined_routable, refined_chosen
        if settled:
            break
    return routable, chosen, table_accept


def _advance(
    report: PacketSimReport,
    kernels: Any,
    arrays: DeploymentArrays,
    simulation: PacketLevelSimulation,
    packets: _Packets,
    layer_floods: Dict[int, Tuple[np.ndarray, np.ndarray]],
) -> None:
    """Hop-synchronous advance: every layer's offer scan, then delivery
    at the filters or fixed-point routing into the next layer."""
    config = simulation.config
    layers = arrays.layers
    offered = np.zeros(len(arrays.node_ids), dtype=np.int64)
    dropped = np.zeros(len(arrays.node_ids), dtype=np.int64)
    # The accept flags of the table the previous layer's routing settled
    # on: that table replayed exactly this layer's offers.
    settled_accept: Optional[np.ndarray] = None
    for layer in range(1, layers + 2):
        accept_flat, settled_accept = settled_accept, None
        floods = layer_floods[layer]
        if len(packets.current) == 0 and len(floods[0]) == 0:
            continue
        # Arrival clocks accumulate one hop_latency per layer — the
        # same sequence of float additions the event scheduler performs
        # — so the degenerate single-packet report matches the oracle
        # bit for bit.
        packets = packets._replace(
            arrive_t=packets.arrive_t + config.hop_latency
        )
        _tally(report.arrivals_per_layer, layer, len(packets.current))
        accept = _offer_scan(
            kernels, arrays, config, packets, floods, accept_flat,
            simulation.monitor, offered, dropped,
        )
        ok = accept & ~arrays.is_bad[packets.current]
        stage_drops = len(ok) - int(ok.sum())
        report.dropped_at_congested += stage_drops
        _tally(report.drops_per_layer, layer, stage_drops)
        if layer == layers + 1:
            _deliver(report, kernels, config, packets, ok)
            break
        packets = packets.keep(ok)
        if len(packets.current) == 0:
            continue
        routable, chosen, settled_accept = _route(
            kernels, arrays, config, layer, packets, layer_floods[layer + 1]
        )
        stranded = len(routable) - int(routable.sum())
        report.dropped_no_neighbor += stranded
        _tally(report.drops_per_layer, layer + 1, stranded)
        packets = packets._replace(current=chosen).keep(routable)

    congested = (offered >= 10) & (dropped / np.maximum(offered, 1) >= 0.5)
    report.congested_nodes = np.sort(arrays.node_ids[congested]).tolist()


def run_fast(
    simulation: PacketLevelSimulation,
    flood_targets: Optional[Sequence[int]] = None,
    schedule: Optional[Any] = None,
) -> PacketSimReport:
    """Run the packet engine for ``simulation``; returns its report.

    Reached through :meth:`PacketLevelSimulation.run`, whose constructor
    drew the inputs this reads: the ``(clients, m_1)`` client-contact
    matrix, one arrival seed per client, the routing stream, the master
    seed that spawns one stream per flood target and, with marking, the
    mark master. Poisson clients inject from ``warmup`` to ``duration``,
    floods consume capacity at their targets without being forwarded,
    every arrival offers one token, packets route uniformly among
    next-layer neighbors that are healthy and not congested, and
    filter-layer acceptances count as deliveries at
    ``(layers + 1) * hop_latency`` latency.

    The simulation's ``monitor`` (a
    :class:`~repro.detection.monitor.TrafficMonitor`) receives every
    token-bucket offer in per-layer batches; its ``marking`` (a
    :class:`~repro.detection.marking.MarkCollector`) receives two
    uniforms per flood packet from per-target streams spawned off the
    mark master, one ``(n, 2)`` block per target. Without them no extra
    stream is spawned and no draw is made, so a detection-free run is
    bit-identical to one from before the detection subsystem existed.

    ``config.tier`` selects the kernel set (:mod:`repro.perf.compiled`)
    that runs the bucket scan at layer 1 (later hops reuse the accept
    flags of the table their routing settled on), the congestion
    timelines and routes of each routing refinement, and the latency
    fold: ``numpy`` (default) or ``compiled`` (C, degrading to numpy
    with a one-time warning when it cannot be built). Both make
    identical RNG draws and identical accept/drop/route decisions, so
    reports are bit-identical across tiers.

    ``schedule`` (an :class:`~repro.scenarios.schedule.InjectionSchedule`)
    contributes precompiled vector traffic: per-node attack offer rows
    merged into the flood structures and surge sources appended to the
    client injection pipeline (their routing uniforms come from the
    shared routing stream in global time order, exactly like baseline
    clients). The instants are data, not draws. Surge contacts must be
    layer-1 SOS nodes; any other contact raises :class:`SimulationError`
    before any draw.
    """
    arrays = encode_deployment(simulation.deployment)
    kernels = get_kernels(resolve_tier(simulation.config.tier))
    plan = _validate(arrays, simulation, flood_targets, schedule)
    report = PacketSimReport()
    inject_t, client_index = _sample_injections(simulation, plan)
    layer_floods = _sample_attacks(simulation, arrays, plan)
    report.attack_packets_absorbed = sum(
        len(times) for _slots, times in layer_floods.values()
    )
    report.sent = len(inject_t)
    # One uniform per decision, pre-assigned per packet: column 0 picks
    # the entry contact, column h the forwarding target out of layer h.
    # Drawn as one block, the matrix equals one (layers + 1)-vector
    # drawn per packet at injection time.
    choice_u = simulation._routing_rng.random(
        (len(inject_t), arrays.layers + 1)
    )
    current = _enter(plan.contacts, client_index, choice_u[:, 0])
    packets = _Packets(inject_t, inject_t, choice_u, current)
    _advance(report, kernels, arrays, simulation, packets, layer_floods)
    return report


# ----------------------------------------------------------------------
# Process-parallel replicas
# ----------------------------------------------------------------------


class _Replicas(NamedTuple):
    """What every replica of one sweep reads; built once per process."""

    architecture: SOSArchitecture
    config: PacketSimConfig
    layer: Optional[int]
    fraction: float


def _run_one_replica(
    state: _Replicas, job: Tuple[int, np.random.SeedSequence]
) -> PacketSimReport:
    """Deploy, pick flood targets, and simulate one replica on its own
    pre-spawned RNG stream (fully determined by the job's seed)."""
    rng = make_rng(job[1])
    deployment = SOSDeployment.deploy(state.architecture, rng=rng)
    targets: List[int] = []
    if state.layer is not None:
        targets = flood_layer(deployment, state.layer, state.fraction, rng=rng)
    simulation = PacketLevelSimulation(deployment, state.config, rng=rng)
    return simulation.run(flood_targets=targets)


def run_packet_replicas(
    architecture: SOSArchitecture,
    config: PacketSimConfig,
    replicas: int,
    flood_layer_index: Optional[int] = None,
    flood_fraction: float = 1.0,
    seed: Optional[int] = None,
    workers: int = 1,
) -> List[PacketSimReport]:
    """Run independent packet-sim replicas, optionally across processes.

    Each replica deploys a fresh SOS instance, floods ``flood_fraction``
    (in ``(0, 1]``) of layer ``flood_layer_index`` (in ``1..L+1``; no
    flood when ``None``), and runs the packet engine. Both are checked
    here, before any replica deploys. Replica RNG streams are
    pre-spawned here in replica order and
    :func:`repro.perf.parallel.parallel_map` returns reports in replica
    order, so the result is bit-identical for any ``workers`` value
    (``1`` runs in-process, ``0`` means "all cores").
    """
    check_count("replicas", replicas, minimum=1)
    check_count("workers", workers)
    if not 0.0 < flood_fraction <= 1.0:
        raise SimulationError(
            f"flood_fraction must be in (0, 1], got {flood_fraction}"
        )
    if flood_layer_index is not None:
        check_count("flood_layer_index", flood_layer_index, minimum=1)
        if flood_layer_index > architecture.layers + 1:
            raise SimulationError(
                f"flood_layer_index must be in 1..{architecture.layers + 1}, "
                f"got {flood_layer_index}"
            )
    jobs = list(enumerate(np.random.SeedSequence(seed).spawn(replicas)))
    # Load the C library and run both samplers' self-checks here, so
    # forked workers inherit them instead of each paying for them.
    choice_sampler()
    poisson_sampler()
    args = (architecture, config, flood_layer_index, flood_fraction)
    return list(parallel_map(jobs, _run_one_replica, workers, _Replicas, args))


def mean_delivery_ratio(reports: Sequence[PacketSimReport]) -> float:
    """Average delivery ratio over replica reports (NaN-free: replicas
    that sent nothing contribute 0, matching ``delivery_ratio``)."""
    if not reports:
        raise SimulationError("no replica reports to summarize")
    return sum(report.delivery_ratio for report in reports) / len(reports)

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

``run_packet_replicas`` scales multi-replica sweeps across cores through
:func:`repro.perf.parallel.parallel_map`: per-replica ``SeedSequence``
streams are pre-spawned in the parent in replica order and reports come
back in replica order, so aggregates are bit-identical for any worker
count.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.architecture import SOSArchitecture
from repro.errors import SimulationError
from repro.overlay.arrays import attach_columns, share_columns
from repro.perf.compiled import (
    choice_sampler,
    get_kernels,
    poisson_rows,
    poisson_sampler,
    resolve_tier,
)
from repro.perf.parallel import check_count, parallel_map, resolve_workers
from repro.simulation.packet_sim import (
    PacketLevelSimulation,
    PacketSimConfig,
    PacketSimReport,
    flood_layer,
)
from repro.sos.deployment import (
    SOSDeployment,
    choose_fraction,
    sample_contact_matrix,
)
from repro.utils.seeding import child_generator, make_rng, spawn_seeds

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
    arrays: DeploymentArrays,
    client_contacts: Any,
    surge_slots: Optional[np.ndarray],
    clients: int,
) -> np.ndarray:
    """Entry-contact slots, one row per source: baseline clients first,
    then surge sources.

    Baseline rows are layer-1 positions, which already are layer-1 slots
    (layer 1 opens the slot order of :func:`encode_deployment`), so they
    are used as they stand. ``surge_slots`` is :func:`_surge_slots`'
    result, or ``None`` without a schedule.
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
    if surge_slots is not None and len(surge_slots):
        degrees.add(surge_slots.shape[1])
        if len(degrees) > 1:
            raise SimulationError(_DEGREE_MISMATCH)
        parts.append(surge_slots)
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
    streams: Optional[Tuple[Sequence[np.random.SeedSequence], np.random.Generator, np.random.SeedSequence]] = None,
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

    ``streams`` is the ``(arrival_seeds, routing_rng, flood_master)``
    triple :class:`PacketLevelSimulation` spawns: one child
    ``SeedSequence`` per client, the routing ``Generator``, and the
    ``SeedSequence`` that spawns one child per flood target. The seeds
    are the children ``rng.spawn(clients + 2)`` would wrap, and each
    Poisson source draws from ``Generator(type(bit_generator)(seed))``
    with the routing stream's bit-generator type. When absent the triple
    is spawned here from ``rng`` with the identical construction, so a
    standalone ``run_fast(dep, cfg, rng=seed)`` matches
    ``PacketLevelSimulation(dep, cfg, rng=seed).run()``.

    ``monitor`` (a :class:`~repro.detection.monitor.TrafficMonitor`)
    receives every token-bucket offer in per-layer batches; ``marking``
    (a :class:`~repro.detection.marking.MarkCollector`) receives two
    uniforms per flood packet from per-target streams spawned off
    ``mark_master``, one ``(n, 2)`` block per target. Both default to
    ``None`` at zero cost: no extra stream is spawned and no draw is
    made, so a detection-free run is bit-identical to one from before
    the detection subsystem existed.

    ``arrays`` supplies a pre-encoded :class:`DeploymentArrays`
    (shared-memory replica workers run without any deployment object at
    all); when given, ``deployment`` is only consulted to sample client
    contacts, so ``deployment=None`` is legal as long as
    ``client_contacts`` is supplied.

    ``config.tier`` selects the kernel set (:mod:`repro.perf.compiled`)
    that runs the bucket scan at layer 1 (later hops reuse the accept
    flags of the table their routing settled on), the congestion
    timelines and routes of each routing refinement, and the latency
    fold: ``numpy`` (default) or
    ``compiled`` (C, degrading to numpy with a one-time warning when
    it cannot be built). Routing hands the kernels each packet's row of
    the layer's neighbor table, never a per-packet copy of the row.
    Both make identical RNG draws and identical accept/drop/route
    decisions, so reports are bit-identical across tiers.

    ``schedule`` (an :class:`~repro.scenarios.schedule.InjectionSchedule`)
    contributes precompiled vector traffic: per-node attack offer rows
    merged into the flood structures and surge sources appended to the
    client injection pipeline (their routing uniforms come from the
    shared routing stream in global time order, exactly like baseline
    clients). The instants are data, not draws. Surge contacts must be
    layer-1 SOS nodes; any other contact raises :class:`SimulationError`
    before any draw.
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

    # --- validate every input before any draw ------------------------
    sched_attack: Dict[int, np.ndarray] = {}
    surge_sources: Tuple[Any, ...] = ()
    surge_slots: Optional[np.ndarray] = None
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
        # Clip to this config's horizon, so shorter replays of a longer
        # schedule see the same prefix.
        for node in schedule.attack_targets:
            row = np.asarray(schedule.attack_times[node], dtype=np.float64)
            sched_attack[int(node)] = row[row < config.duration]
        surge_sources = tuple(schedule.surge_sources)
        if surge_sources:
            surge_slots = _surge_slots(arrays, surge_sources)

    targets = sorted(flood_targets or ())
    try:
        target_slots = arrays.slot_of.lookup(
            np.asarray(targets, dtype=np.int64)
        ).tolist()
    except KeyError as exc:
        raise SimulationError(
            f"flood target {exc.args[0]} is not an SOS node or filter"
        ) from None
    if marking is not None and targets:
        uncovered = set(targets) - set(marking.graph.victims())
        if uncovered:
            from repro.errors import DetectionError

            raise DetectionError(
                "marking attack graph does not cover flood targets "
                f"{sorted(uncovered)}"
            )

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
        spawned = spawn_seeds(generator, config.clients + 2)
        streams = (
            spawned[: config.clients],
            child_generator(generator, spawned[config.clients]),
            spawned[config.clients + 1],
        )
        # Standalone marking runs spawn the mark master *after* the main
        # streams, mirroring PacketLevelSimulation.__init__ exactly.
        if marking is not None and mark_master is None:
            mark_master = generator.spawn(1)[0]
    arrival_seeds, routing_rng, flood_master = streams
    contact_matrix = _contact_slots(
        arrays, client_contacts, surge_slots, config.clients
    )

    # --- pre-sample every Poisson source -----------------------------
    # Each sampler call returns one flat times array and row offsets.
    bit_generator = type(routing_rng.bit_generator)
    inject_t, inject_offsets = poisson_rows(
        arrival_seeds, config.client_rate, config.duration,
        bit_generator=bit_generator,
    )
    flood_t, flood_offsets = poisson_rows(
        flood_master.spawn(len(targets)) if targets else [],
        config.flood_rate,
        config.duration,
        start=config.flood_start,
        bit_generator=bit_generator,
    )
    flood_counts = np.diff(flood_offsets)
    report.attack_packets_absorbed = int(flood_offsets[-1])
    if marking is not None and targets:
        if mark_master is None:
            raise SimulationError(
                "marking requires a mark_master stream when streams are "
                "supplied externally"
            )
        # Per-target mark streams in sorted-target order; a ``(n, 2)``
        # block draw consumes a stream exactly like n sequential
        # ``random(2)`` calls (row-major), one per flood packet.
        mark_streams = mark_master.spawn(len(targets))
        for target, mark_stream, count in zip(
            targets, mark_streams, flood_counts.tolist()
        ):
            if count:
                marking.observe_batch(target, mark_stream.random((count, 2)))
    # Attack offers as flat (slot, time) events: the classic rows in
    # sorted-target order, then the scheduled rows. Downstream (bucket
    # scans, timelines, monitor batches) groups offers by slot and
    # orders each slot's offers by time, so neither the row order nor
    # where a slot's offers came from can change a result.
    fslots = np.repeat(np.asarray(target_slots, dtype=np.int64), flood_counts)
    ftimes = flood_t
    if sched_attack:
        sched_rows = list(sched_attack.values())
        sched_slots = arrays.slot_of.lookup(
            np.fromiter(sched_attack, dtype=np.int64, count=len(sched_attack))
        )
        fslots = np.concatenate(
            [fslots, np.repeat(sched_slots, [len(row) for row in sched_rows])]
        )
        ftimes = np.concatenate([ftimes, *sched_rows])
        report.attack_packets_absorbed += int(
            sum(len(row) for row in sched_rows)
        )
    # Each layer's share of the flood events, in event order.
    flood_layer_of = arrays.layer_of[fslots]
    layer_floods = {
        layer: (fslots[in_layer], ftimes[in_layer])
        for layer in range(1, layers + 2)
        for in_layer in [flood_layer_of == layer]
    }

    row_counts = np.diff(inject_offsets)
    # Surge sources ride the client injection pipeline: rows appended
    # after the baseline clients, matching their contact-matrix rows.
    if surge_sources:
        surge_rows: List[np.ndarray] = []
        for source in surge_sources:
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
    # its injection instant, so row k of the block below belongs to the
    # k-th post-warmup injection in time order.
    order = np.argsort(inject_t, kind="stable")
    inject_t = inject_t[order]
    client_index = client_index[order]
    report.sent = int(len(inject_t))

    # One uniform per decision, pre-assigned per packet: column 0 picks
    # the entry contact, column h the forwarding target out of layer h.
    # Drawn as one block, the matrix equals one (layers + 1)-vector
    # drawn per packet at injection time.
    choice_u = routing_rng.random((len(inject_t), layers + 1))
    contact_count = contact_matrix.shape[1]
    entry_choice = np.minimum(
        (choice_u[:, 0] * contact_count).astype(np.int64),
        contact_count - 1,
    )
    current = contact_matrix[client_index, entry_choice]

    # --- per-node offer tallies (for congested_nodes) ----------------
    offered = np.zeros(total_slots, dtype=np.int64)
    dropped = np.zeros(total_slots, dtype=np.int64)

    # Arrival clocks accumulate one hop_latency per layer — the same
    # sequence of float additions the event scheduler performs — so the
    # degenerate single-packet report matches the oracle bit for bit.
    sent_t = inject_t
    arrive_t = inject_t
    # The accept flags of the table the previous layer's routing settled
    # on: that table replayed exactly this layer's offers.
    settled_accept: Optional[np.ndarray] = None

    # --- hop-synchronous advance -------------------------------------
    for layer in range(1, layers + 2):
        accept_flat, settled_accept = settled_accept, None
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
        if accept_flat is None:
            accept_flat = kernels.bucket_scan(
                slots_flat, times_flat, total_slots, capacity, burst
            )
        if monitor is not None:
            # Every offer this layer's buckets saw (legit + flood) with
            # its accept/drop outcome — the batch mirror of the event
            # engine's per-offer ``monitor.observe`` calls.
            monitor.observe_batch(
                arrays.node_ids[slots_flat], times_flat, accept_flat
            )
        offered += np.bincount(slots_flat, minlength=total_slots)
        dropped += np.bincount(
            slots_flat[~accept_flat], minlength=total_slots
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

        # Fixed-point routing (see the module docstring). The first
        # iterate assumes no legitimate arrivals, so it routes against
        # the next layer's floods alone; each refinement rebuilds the
        # next layer's timelines from its floods plus the arrivals the
        # current routes send it, then re-routes with the same
        # per-packet uniforms (no stream consumption). The loop ends:
        # after a refinement that changes something, the earliest
        # changed decision and every earlier one are final, so a layer
        # settles within (its decisions + 1) refinements. A table with
        # the flips of the one the current routes came from would route
        # them again unchanged, so the layer settles without the call.
        hop_u = choice_u[:, layer]
        next_slots, next_times = layer_floods[layer + 1]
        next_arrival = arrive_t + config.hop_latency
        routable = np.zeros(len(hop_u), dtype=bool)
        chosen = survivors  # unread while nothing is routable
        routed_flips: Optional[Tuple[np.ndarray, ...]] = None
        while True:
            table, table_accept = kernels.timeline_table(
                np.concatenate([chosen[routable], next_slots]),
                np.concatenate([next_arrival[routable], next_times]),
                total_slots,
                capacity,
                burst,
            )
            flips = table.flips
            if routed_flips is not None and all(
                np.array_equal(ours, theirs)
                for ours, theirs in zip(flips, routed_flips)
            ):
                break
            routed_flips = flips
            refined_routable, refined_chosen = kernels.route(
                hop_u, rows, neighbor_table, arrays.is_bad, decision_t, table
            )
            settled = np.array_equal(refined_routable, routable) and (
                np.array_equal(refined_chosen[routable], chosen[routable])
            )
            routable, chosen = refined_routable, refined_chosen
            if settled:
                break
        # The settled table replayed exactly the next layer's offers:
        # these routes' arrivals, then its floods.
        settled_accept = table_accept

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

    congested = (offered >= 10) & (dropped / np.maximum(offered, 1) >= 0.5)
    report.congested_nodes = np.sort(arrays.node_ids[congested]).tolist()
    return report


# ----------------------------------------------------------------------
# Process-parallel replicas
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
    arrays — same draw (:func:`~repro.sos.deployment.choose_fraction` over
    the sorted members), no deployment object needed."""
    if not 0.0 < fraction <= 1.0:
        raise SimulationError(f"fraction must be in (0, 1], got {fraction}")
    member_slots = arrays.members.get(layer)
    if member_slots is None:
        raise SimulationError(
            f"layer {layer} out of range 1..{arrays.layers + 1}"
        )
    return choose_fraction(rng, arrays.node_ids[member_slots], fraction)


class _Replicas(NamedTuple):
    """What every replica of one sweep reads; built once per process.

    ``arrays`` is the shared deployment's encoding in shared-deployment
    mode (``None`` when every replica deploys afresh); ``segment`` keeps
    a pool worker's shared-memory mapping alive under it.
    """

    architecture: SOSArchitecture
    config: PacketSimConfig
    layer: Optional[int]
    fraction: float
    arrays: Optional[DeploymentArrays] = None
    segment: Any = None


def _attach_replicas(
    name: str,
    meta: Dict[str, Any],
    architecture: SOSArchitecture,
    config: PacketSimConfig,
    layer: Optional[int],
    fraction: float,
) -> _Replicas:
    """Pool-worker state over the parent's shared-memory segment."""
    named, segment = attach_columns(name, meta)
    return _Replicas(
        architecture, config, layer, fraction, _arrays_from_columns(named),
        segment,
    )


def _run_one_replica(
    state: _Replicas, job: Tuple[int, np.random.SeedSequence]
) -> PacketSimReport:
    """Deploy, pick flood targets, and simulate one replica on its own
    pre-spawned RNG stream (fully determined by the job's seed)."""
    rng = make_rng(job[1])
    deployment = SOSDeployment.deploy(state.architecture, rng=rng)
    targets: List[int] = []
    if state.layer is not None and state.fraction > 0.0:
        targets = flood_layer(deployment, state.layer, state.fraction, rng=rng)
    simulation = PacketLevelSimulation(deployment, state.config, rng=rng)
    return simulation.run(flood_targets=targets)


def _run_one_shared_replica(
    state: _Replicas, job: Tuple[int, np.random.SeedSequence]
) -> PacketSimReport:
    """One replica over a shared (read-only) deployment encoding: the
    flood-target, client-contact, and packet draws all come from the
    replica's own pre-spawned stream; the deployment state is common."""
    rng = make_rng(job[1])
    arrays = state.arrays
    targets: List[int] = []
    if state.layer is not None and state.fraction > 0.0:
        targets = _flood_layer_arrays(arrays, state.layer, state.fraction, rng)
    layer_one = len(arrays.members[1])
    contacts = sample_contact_matrix(
        rng,
        layer_one,
        min(state.architecture.mapping_degree(1), layer_one),
        state.config.clients,
    )
    return run_fast(
        None,
        state.config,
        rng=rng,
        flood_targets=targets,
        client_contacts=contacts,
        arrays=arrays,
    )


def run_packet_replicas(
    architecture: SOSArchitecture,
    config: PacketSimConfig,
    replicas: int,
    flood_layer_index: Optional[int] = None,
    flood_fraction: float = 1.0,
    seed: Optional[int] = None,
    workers: int = 1,
    deployment: Optional[SOSDeployment] = None,
) -> List[PacketSimReport]:
    """Run independent packet-sim replicas, optionally across processes.

    Each replica deploys a fresh SOS instance, floods ``flood_fraction``
    of layer ``flood_layer_index`` (no flood when ``None``), and runs
    the packet engine. Replica RNG streams are pre-spawned here in
    replica order and :func:`repro.perf.parallel.parallel_map` returns
    reports in replica order, so the result is bit-identical for any
    ``workers`` value (``1`` runs in-process, ``0`` means "all cores").

    ``deployment`` switches to **shared-deployment** mode: every replica
    runs over that one deployment's encoded arrays (health snapshot
    included) and only the flood-target, client-contact, and packet
    draws vary per replica. In-process the replicas read the encoding
    as it is; a pool gets it as one ``multiprocessing.shared_memory``
    segment that workers map read-only — zero copies and no per-worker
    deployment pickling — which is what makes million-node replica
    sweeps fit in memory.
    """
    check_count("replicas", replicas, minimum=1)
    check_count("workers", workers)
    if deployment is not None and deployment.architecture != architecture:
        raise SimulationError(
            "deployment was built for a different architecture"
        )
    jobs = list(enumerate(np.random.SeedSequence(seed).spawn(replicas)))
    # Load the C library and run both samplers' self-checks here, so
    # forked workers inherit them instead of each paying for them.
    choice_sampler()
    poisson_sampler()
    args = (architecture, config, flood_layer_index, flood_fraction)
    if deployment is None:
        return list(parallel_map(jobs, _run_one_replica, workers, _Replicas, args))
    arrays = encode_deployment(deployment)
    if resolve_workers(workers) == 1:
        return list(
            parallel_map(
                jobs, _run_one_shared_replica, 1, _Replicas, (*args, arrays)
            )
        )
    shared = share_columns(_arrays_to_columns(arrays))
    try:
        return list(
            parallel_map(
                jobs,
                _run_one_shared_replica,
                workers,
                _attach_replicas,
                (shared.name, shared.meta, *args),
            )
        )
    finally:
        shared.close()


def mean_delivery_ratio(reports: Sequence[PacketSimReport]) -> float:
    """Average delivery ratio over replica reports (NaN-free: replicas
    that sent nothing contribute 0, matching ``delivery_ratio``)."""
    if not reports:
        raise SimulationError("no replica reports to summarize")
    return sum(report.delivery_ratio for report in reports) / len(reports)

"""Probabilistic packet marking for DDoS traceback.

Implements Savage-style edge sampling as analyzed by Barak-Pelleg et
al. ("The Time for Reconstructing the Attack Graph in DDoS Attacks",
arXiv:2304.05204, and "Algorithms for Reconstructing DDoS Attack Graphs
using Probabilistic Packet Marking", arXiv:2304.05123): every router on
an attack path overwrites a single mark slot in each forwarded packet
with probability ``p`` and stamps ``distance = 0``; a router that sees
an already-marked packet increments the distance instead. The victim
therefore receives the edge written by the *last* marking router, so the
router at distance ``j`` hops from the victim is the surviving marker
with probability ``p * (1 - p)**j``, and a packet arrives unmarked with
probability ``(1 - p)**D`` on a depth-``D`` path.

The SOS paper's attackers are an abstract flood against overlay nodes —
there is no modelled network between a zombie and the overlay. This
module supplies that missing piece as *synthetic attack paths*: each
flood target (victim) is assiged a small set of attack sources, each
reaching the victim through its own chain of ``path_depth`` synthetic
routers. Construction is deterministic (sequential synthetic ids, no
RNG), so every run over the same targets agrees on the ground truth.

The per-packet randomness — which source emitted the packet and which
router's mark survived — is driven by uniforms from dedicated RNG
sub-streams owned by the simulation, two per flood packet. The scalar
entry point delegates to the batch entry point with a length-1 array,
so the packet engine and the event-driven test oracle produce
bit-identical mark tallies (see ``tests/detection/test_equivalence.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import DetectionError
from repro.utils.validation import check_probability

__all__ = [
    "MarkingConfig",
    "AttackPath",
    "AttackGraph",
    "build_attack_graph",
    "PacketMark",
    "MarkTally",
    "MarkCollector",
]

#: Synthetic ids for attack-path routers and sources live far above any
#: overlay node id (overlay ids are bounded by the Chord space size).
ROUTER_ID_BASE = 1 << 40
SOURCE_ID_BASE = 1 << 41


@dataclasses.dataclass(frozen=True)
class MarkingConfig:
    """Parameters of the marking scheme and the synthetic attack graph.

    Attributes
    ----------
    probability:
        Per-hop marking probability ``p``.
    sources_per_target:
        Number of attack sources (zombies) flooding each victim.
    path_depth:
        Routers on each source→victim path (``D`` in the analysis).
    """

    probability: float = 0.05
    sources_per_target: int = 2
    path_depth: int = 6

    def __post_init__(self) -> None:
        check_probability("probability", self.probability)
        if not 0.0 < self.probability < 1.0:
            raise DetectionError(
                "marking probability must be in (0, 1), got "
                f"{self.probability}"
            )
        if self.sources_per_target < 1:
            raise DetectionError(
                "sources_per_target must be >= 1, got "
                f"{self.sources_per_target}"
            )
        if self.path_depth < 1:
            raise DetectionError(
                f"path_depth must be >= 1, got {self.path_depth}"
            )


@dataclasses.dataclass(frozen=True)
class AttackPath:
    """One ground-truth attack path: ``source -> routers... -> victim``.

    ``routers`` is ordered source-side first; ``routers[-1]`` is the
    router adjacent to the victim.
    """

    source: int
    victim: int
    routers: Tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.routers)

    def hop_at_distance(self, distance: int) -> int:
        """Router ``distance`` hops upstream of the victim (0 = adjacent)."""
        if not 0 <= distance < self.depth:
            raise DetectionError(
                f"distance {distance} outside path of depth {self.depth}"
            )
        return self.routers[self.depth - 1 - distance]

    def edge_at_distance(self, distance: int) -> "PacketMark":
        """The mark written when the distance-``distance`` router survives."""
        start = self.hop_at_distance(distance)
        end = self.victim if distance == 0 else self.hop_at_distance(distance - 1)
        return PacketMark(start=start, end=end, distance=distance)


class AttackGraph:
    """Ground truth: the set of attack paths behind a flood."""

    def __init__(self, paths: Sequence[AttackPath]) -> None:
        if not paths:
            raise DetectionError("an attack graph needs at least one path")
        self._by_victim: Dict[int, List[AttackPath]] = {}
        for path in paths:
            self._by_victim.setdefault(path.victim, []).append(path)
        self.paths: Tuple[AttackPath, ...] = tuple(paths)

    def victims(self) -> List[int]:
        return sorted(self._by_victim)

    def paths_for(self, victim: int) -> List[AttackPath]:
        if victim not in self._by_victim:
            raise DetectionError(
                f"victim {victim} is not part of this attack graph"
            )
        return list(self._by_victim[victim])

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Every directed ``(start, end)`` edge across all paths."""
        for path in self.paths:
            for distance in range(path.depth):
                mark = path.edge_at_distance(distance)
                yield (mark.start, mark.end)

    def __len__(self) -> int:
        return len(self.paths)


def build_attack_graph(
    targets: Sequence[int], config: MarkingConfig
) -> AttackGraph:
    """Deterministic node-disjoint synthetic attack graph for ``targets``.

    Each victim gets ``sources_per_target`` sources, each with its own
    disjoint chain of ``path_depth`` routers, with ids assigned
    sequentially in sorted-victim order — so every replica of a run
    constructs the identical ground truth without consuming any RNG
    stream.
    """
    if not targets:
        raise DetectionError("cannot build an attack graph for no targets")
    if len(set(targets)) != len(targets):
        raise DetectionError("flood targets must be distinct")
    paths: List[AttackPath] = []
    next_router = ROUTER_ID_BASE
    next_source = SOURCE_ID_BASE
    for victim in sorted(targets):
        for _ in range(config.sources_per_target):
            routers = tuple(
                range(next_router, next_router + config.path_depth)
            )
            next_router += config.path_depth
            paths.append(
                AttackPath(source=next_source, victim=victim, routers=routers)
            )
            next_source += 1
    return AttackGraph(paths)


@dataclasses.dataclass(frozen=True)
class PacketMark:
    """The mark carried by a flood packet: one edge plus its distance.

    ``start -> end`` is the edge written by the surviving marker;
    ``distance`` counts hops from the victim (0 = ``end`` is the
    victim itself).
    """

    start: int
    end: int
    distance: int


@dataclasses.dataclass
class MarkTally:
    """How often a mark was seen and when it first arrived.

    ``first_packet`` is the 1-based index of the first flood packet (in
    per-victim arrival order) that carried this mark — the quantity the
    packets-needed-vs-accuracy analysis is built on.
    """

    count: int
    first_packet: int


class MarkCollector:
    """Victim-side accumulator of packet marks.

    The packet engine calls :meth:`observe_batch` (the event-driven
    test oracle :meth:`observe`) once per flood packet *arriving
    at* a victim, passing two uniforms: ``u_source`` selects which of
    the victim's sources emitted the packet, ``u_mark`` drives the
    geometric edge-sampling outcome. State is per-victim packet counts
    plus a tally per distinct mark — O(sources × depth) memory however
    long the flood runs.
    """

    def __init__(self, graph: AttackGraph, config: MarkingConfig) -> None:
        self.graph = graph
        self.config = config
        self.packets_per_victim: Dict[int, int] = {
            victim: 0 for victim in graph.victims()
        }
        self._tallies: Dict[int, Dict[PacketMark, MarkTally]] = {
            victim: {} for victim in graph.victims()
        }

    @property
    def packets_observed(self) -> int:
        return sum(self.packets_per_victim.values())

    def observe(self, victim: int, u_source: float, u_mark: float) -> None:
        """Record one flood packet at ``victim`` (scalar entry point).

        Delegates to :meth:`observe_batch` with a length-1 array so the
        scalar and batch paths share every piece of floating-point
        arithmetic bit for bit.
        """
        self.observe_batch(
            victim, np.array([[u_source, u_mark]], dtype=np.float64)
        )

    def observe_batch(
        self, victim: int, uniforms: npt.NDArray[np.float64]
    ) -> None:
        """Record a batch of flood packets at ``victim``.

        ``uniforms`` has shape ``(n, 2)``: column 0 selects the source,
        column 1 drives edge sampling. Rows are in packet-arrival order.
        """
        if victim not in self._tallies:
            raise DetectionError(
                f"marks observed for unknown victim {victim}"
            )
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.ndim != 2 or uniforms.shape[1] != 2:
            raise DetectionError(
                f"uniforms must have shape (n, 2), got {uniforms.shape}"
            )
        count = int(uniforms.shape[0])
        if count == 0:
            return
        base = self.packets_per_victim[victim]
        self.packets_per_victim[victim] = base + count
        paths = self.graph.paths_for(victim)
        depth = self.config.path_depth
        p = self.config.probability
        # Inverse-CDF geometric: the surviving marker sits at distance
        # j with P(j) = p * (1-p)^j; j >= depth means the packet arrives
        # unmarked ((1-p)^depth overall).
        distances = np.floor(
            np.log1p(-uniforms[:, 1]) / np.log1p(-p)
        ).astype(np.int64)
        marked = distances < depth
        if not bool(marked.any()):
            return
        source_index = np.minimum(
            (uniforms[:, 0] * len(paths)).astype(np.int64), len(paths) - 1
        )
        codes = source_index[marked] * depth + distances[marked]
        packet_numbers = np.flatnonzero(marked) + (base + 1)
        unique, first_rows, counts = np.unique(
            codes, return_index=True, return_counts=True
        )
        tallies = self._tallies[victim]
        for code, first_row, seen in zip(
            unique.tolist(), first_rows.tolist(), counts.tolist()
        ):
            path_index, distance = divmod(code, depth)
            mark = paths[path_index].edge_at_distance(distance)
            first = int(packet_numbers[first_row])
            tally = tallies.get(mark)
            if tally is None:
                tallies[mark] = MarkTally(count=int(seen), first_packet=first)
            else:
                tally.count += int(seen)
                if first < tally.first_packet:
                    tally.first_packet = first

    def marks_for(self, victim: int) -> Dict[PacketMark, MarkTally]:
        """All distinct marks collected at ``victim`` (tally copies)."""
        if victim not in self._tallies:
            raise DetectionError(
                f"victim {victim} is not part of this attack graph"
            )
        return {
            mark: MarkTally(count=tally.count, first_packet=tally.first_packet)
            for mark, tally in self._tallies[victim].items()
        }

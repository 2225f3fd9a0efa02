"""Kernel sets for the fast packet engine: one interface, two tiers.

:func:`repro.perf.fastsim.run_fast` runs its hot stages through one
kernel interface, four methods:

``bucket_scan``
    Grouped token-bucket Lindley replay: accept/drop per offer.
``timeline_table``
    Per-slot congestion timelines (congested-after-event flags).
``route``
    Congestion-aware uniform routing over a layer's neighbor table:
    each packet names its table row, never a copy of it.
``welford``
    Streaming Welford fold of delivered-packet latencies.

Each tier in :data:`TIERS` is one kernel set:

``numpy``
    :class:`NumpyKernels` — vectorized numpy; the default and the
    oracle.
``compiled``
    :class:`KernelSet` — the same kernels as C, compiled once per
    machine with the system toolchain (:mod:`repro.perf._cc`) and bound
    through :mod:`ctypes`. The C code replays the numpy arithmetic
    operation for operation, so the compiled tier is *bit-identical*
    to the numpy tier wherever the numpy tier is exact (accept/drop
    decisions, congestion flags, Welford folds) — property-tested in
    ``tests/perf/test_compiled_kernels.py`` and
    ``tests/perf/test_compiled_tier.py``.

The two sets differ only in their congestion-table type, which never
leaves the set that built it: the numpy set keeps a
``{slot: (times, flags)}`` dict, the C set a flat
:class:`CongestionTable`.

Tier selection is data (``PacketSimConfig.tier``), resolved here.
Requesting ``compiled`` when the C library cannot be built degrades to
``numpy`` with a one-time :class:`CompiledTierUnavailableWarning` naming
the reason, so code never has to guard on the environment.
"""

from __future__ import annotations

import bisect
import ctypes
import dataclasses
import warnings
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np
import numpy.typing as npt

from repro.errors import SimulationError
from repro.perf import _cc

__all__ = [
    "TIERS",
    "CompiledTierUnavailableWarning",
    "CongestionTable",
    "KernelSet",
    "NumpyKernels",
    "available_tiers",
    "compiled_backend",
    "get_kernels",
    "resolve_tier",
]

#: Every kernel tier, default first. The single source for every
#: ``tier`` knob (sim config, scenario specs, CLIs, service payloads).
TIERS: Tuple[str, ...] = ("numpy", "compiled")


class CompiledTierUnavailableWarning(RuntimeWarning):
    """Raised (once) when ``tier="compiled"`` degrades to numpy."""


_WARNED = False


def compiled_backend() -> Optional[str]:
    """``"cc"`` when the C kernel library builds and loads, else None."""
    return "cc" if _cc.load_library() is not None else None


def available_tiers() -> Tuple[str, ...]:
    """The subset of :data:`TIERS` runnable in this environment."""
    if compiled_backend() is None:
        return ("numpy",)
    return TIERS


def resolve_tier(tier: str) -> str:
    """Validate ``tier`` and degrade ``compiled`` -> ``numpy`` if needed.

    The degradation warns exactly once per process (the numpy tier is
    bit-identical wherever exactness is promised, so silence afterwards
    is safe — only speed is lost).
    """
    global _WARNED
    if tier not in TIERS:
        raise SimulationError(
            f"tier must be one of {TIERS}, got {tier!r}"
        )
    if tier == "compiled" and compiled_backend() is None:
        if not _WARNED:
            _WARNED = True
            warnings.warn(
                "tier='compiled' requested but the C kernels are "
                f"unavailable ({_cc.build_error()}); falling back to the "
                "numpy tier (bit-identical, slower)",
                CompiledTierUnavailableWarning,
                stacklevel=2,
            )
        return "numpy"
    return tier


#: The numpy set's congestion table: slot -> (event times, flags).
Timelines = Dict[int, Tuple[np.ndarray, np.ndarray]]


class NumpyKernels:
    """The numpy kernel set: the default tier and the oracle."""

    def bucket_scan(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Replay per-node token buckets over grouped events.

        ``slots``/``times`` are flat parallel event arrays (any order;
        ``m`` bounds the slot ids and is unused here). Events are
        grouped by slot and replayed chronologically with the exact
        :class:`~repro.simulation.capacity.NodeCapacity` arithmetic —
        continuous refill at ``capacity`` clipped to ``burst``, one
        token per accepted offer.

        The recursion is solved in *deficit* space (``z = burst -
        tokens``, rescaled so refill rate is 1): ``z_i = max(0, z_{i-1}
        - Δs) + 1`` on accept, a Lindley recursion whose all-accept
        trajectory has the closed form ``z_i = w_i + i - s_i`` with
        ``w_i = max(w_{i-1}, s_i - (i - 1))`` — one
        ``maximum.accumulate`` per node. A node whose trajectory never
        exceeds ``burst`` therefore accepts everything with zero
        sequential work. Overloaded nodes fall back to an exact loop
        that is O(accepted) rather than O(events): rejections come in
        runs (the bucket must drain a full token before the next
        accept), and each run is skipped with one ``searchsorted``.

        Returns ``(accept, unique_slots, accepted_per, dropped_per)``
        where ``accept`` aligns with the *input* event order and the
        per-group arrays align with ``unique_slots``.
        """
        order = np.lexsort((times, slots))
        s_sorted = slots[order]
        t_sorted = times[order]
        unique_slots, starts, counts = np.unique(
            s_sorted, return_index=True, return_counts=True
        )
        groups = len(unique_slots)
        accept_sorted = np.empty(len(s_sorted), dtype=bool)
        accepted_per = np.empty(groups, dtype=np.int64)
        limit = burst - 1.0
        for g in range(groups):
            lo = int(starts[g])
            hi = lo + int(counts[g])
            s = t_sorted[lo:hi] * capacity
            n = hi - lo
            # All-accept closed form; valid while the deficit stays <=
            # burst (pre-accept deficit <= burst - 1 for every event).
            w = np.maximum.accumulate(s - np.arange(n))
            z_all = w + np.arange(1, n + 1) - s
            if float(z_all.max()) <= burst:
                accept_sorted[lo:hi] = True
                accepted_per[g] = n
                continue
            # Exact replay with run-skipping: from deficit ``z`` at
            # rescaled time ``y``, every event before ``y + (z - limit)``
            # rejects. Plain Python floats + ``bisect`` over a list: the
            # arithmetic is the same IEEE doubles in the same order as
            # the numpy scalars it replaces, but without per-iteration
            # ufunc dispatch — the loop runs O(accepted) times for a
            # saturated node, which is the hot case under flooding.
            out = accept_sorted[lo:hi]
            out[:] = False
            s_list = s.tolist()
            taken_idx: List[int] = []
            z = 0.0
            y = 0.0
            i = 0
            while i < n:
                si = s_list[i]
                zp = z - (si - y)
                if zp < 0.0:
                    zp = 0.0
                if zp <= limit:
                    taken_idx.append(i)
                    z = zp + 1.0
                    y = si
                    i += 1
                else:
                    i = bisect.bisect_left(s_list, y + (z - limit))
            out[np.asarray(taken_idx, dtype=np.int64)] = True
            accepted_per[g] = len(taken_idx)
        accept = np.empty(len(slots), dtype=bool)
        accept[order] = accept_sorted
        dropped_per = counts - accepted_per
        return accept, unique_slots, accepted_per, dropped_per

    def timeline_table(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
    ) -> Timelines:
        """Per slot: (chronological event times, congested-after-event flags).

        Replays the merged event stream of every slot through its token
        bucket and evaluates the :attr:`NodeCapacity.is_congested`
        predicate (>= 10 offers observed and cumulative drop rate >=
        0.5) after every event, so forwarding decisions can look up a
        node's congestion state at any instant with one
        ``searchsorted``.
        """
        timelines: Timelines = {}
        if len(slots) == 0:
            return timelines
        order = np.lexsort((times, slots))
        t_sorted = times[order]
        accept, unique_slots, _, _ = self.bucket_scan(
            slots, times, m, capacity, burst
        )
        a_sorted = accept[order]
        _, starts, counts = np.unique(
            slots[order], return_index=True, return_counts=True
        )
        for g, slot in enumerate(unique_slots):
            lo = int(starts[g])
            hi = lo + int(counts[g])
            node_times = t_sorted[lo:hi]
            node_accept = a_sorted[lo:hi]
            total = np.arange(1, len(node_times) + 1)
            drops = np.cumsum(~node_accept)
            flags = (total >= 10) & (drops / total >= 0.5)
            timelines[int(slot)] = (node_times, flags)
        return timelines

    def route(
        self,
        u: np.ndarray,
        rows: np.ndarray,
        neighbor_table: np.ndarray,
        is_bad: np.ndarray,
        decision_t: np.ndarray,
        table: Any,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pick among each packet's live next-hop neighbors.

        Packet ``i`` sits at table row ``rows[i]`` of ``neighbor_table``
        (a layer's ``(size_h, m_{h+1})`` slot matrix); its candidates are
        that row's slots. A neighbor is live when ``is_bad`` (per slot)
        is false and it is not congested at ``decision_t[i]`` in
        ``table`` (this set's :meth:`timeline_table` result). ``u`` holds
        each packet's pre-assigned uniform draw for this hop; the pick is
        ``min(int(u * k), k - 1)`` over the row's ``k`` live neighbors
        in table order — the same arithmetic the event engine applies to
        the same per-packet uniform (see
        :func:`repro.simulation.packet_sim.uniform_index`), so matching
        live sets yield matching choices, and re-evaluating with a
        refined table consumes nothing. Returns ``(routable, chosen)``:
        rows with no live neighbor are marked unroutable and their
        ``chosen`` entry is meaningless — callers must mask with
        ``routable``. This oracle gathers each packet's row; the C set
        never does.
        """
        neighbor_slots = neighbor_table[rows]
        healthy = ~is_bad[neighbor_slots]
        congested = np.zeros(neighbor_slots.shape, dtype=bool)
        for slot, (times, flags) in table.items():
            hit = neighbor_slots == slot
            if not bool(hit.any()):
                continue
            index = np.searchsorted(times, decision_t, side="right") - 1
            state = np.where(index >= 0, flags[np.maximum(index, 0)], False)
            congested |= hit & state[:, None]
        live = healthy & ~congested
        options = live.sum(axis=1)
        routable = options > 0
        counts = np.maximum(options, 1)
        pick = np.minimum((u * counts).astype(np.int64), counts - 1)
        ranks = np.cumsum(live, axis=1)
        choice_col = (ranks <= pick[:, None]).sum(axis=1)
        np.minimum(choice_col, live.shape[1] - 1, out=choice_col)
        chosen = neighbor_slots[np.arange(len(options)), choice_col]
        return routable, chosen

    @staticmethod
    def welford(
        values: np.ndarray,
        count: int,
        mean: float,
        m2: float,
        maxv: float,
    ) -> Tuple[int, float, float, float]:
        """Fold ``values`` into streaming ``(count, mean, M2, max)`` stats.

        The float operations of :meth:`PacketSimReport.record_latency`,
        in its order; the C ``repro_welford`` kernel replays them
        exactly.
        """
        for value in values.tolist():
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
            if value > maxv:
                maxv = value
        return count, mean, m2, maxv


@dataclasses.dataclass(frozen=True)
class CongestionTable:
    """Per-slot congestion timelines in flat searchable form.

    ``offsets[s] : offsets[s + 1]`` spans slot ``s``'s chronologically
    sorted event ``times`` and the congested-after-event ``flags`` — the
    array twin of the numpy set's ``{slot: (times, flags)}`` dict.
    """

    offsets: npt.NDArray[np.int64]  # (m + 1,)
    times: npt.NDArray[np.float64]  # (n,) grouped, time-sorted
    flags: npt.NDArray[np.uint8]  # (n,)

    @classmethod
    def empty(cls, m: int) -> "CongestionTable":
        return cls(
            offsets=np.zeros(m + 1, dtype=np.int64),
            times=np.empty(0, dtype=np.float64),
            flags=np.empty(0, dtype=np.uint8),
        )


def _as_c(array: np.ndarray, dtype: Any) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=dtype)


_I64P = ctypes.POINTER(ctypes.c_int64)
_F64P = ctypes.POINTER(ctypes.c_double)
_U8P = ctypes.POINTER(ctypes.c_uint8)
_U64P = ctypes.POINTER(ctypes.c_uint64)


class KernelSet:
    """The C kernel set (:mod:`repro.perf._cc`), bit-identical to
    :class:`NumpyKernels`.

    Every method takes and returns numpy arrays; scratch allocation and
    pointer plumbing stay in here so the fast engine reads the same for
    either set.
    """

    def __init__(self) -> None:
        library = _cc.load_library()
        if library is None:
            raise SimulationError(
                f"compiled kernels unavailable: {_cc.build_error()}"
            )
        self._library = library

    def _scan_raw(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
        want_flags: bool,
    ) -> Tuple[np.ndarray, ...]:
        slots = _as_c(slots, np.int64)
        times = _as_c(times, np.float64)
        n = len(slots)
        accept = np.zeros(n, dtype=np.uint8)
        offered = np.zeros(m, dtype=np.int64)
        accepted = np.zeros(m, dtype=np.int64)
        offsets = np.zeros(m + 1, dtype=np.int64)
        order = np.empty(n, dtype=np.int64)
        flags = np.zeros(n, dtype=np.uint8)
        tsorted = np.empty(n, dtype=np.float64)
        cursor = np.empty(m, dtype=np.int64)
        tmp = np.empty(n, dtype=np.int64)
        svals = np.empty(n, dtype=np.float64)
        self._library.repro_bucket_scan(
            slots.ctypes.data_as(_I64P),
            times.ctypes.data_as(_F64P),
            n,
            m,
            capacity,
            burst,
            1 if want_flags else 0,
            accept.ctypes.data_as(_U8P),
            offered.ctypes.data_as(_I64P),
            accepted.ctypes.data_as(_I64P),
            offsets.ctypes.data_as(_I64P),
            order.ctypes.data_as(_I64P),
            flags.ctypes.data_as(_U8P),
            tsorted.ctypes.data_as(_F64P),
            cursor.ctypes.data_as(_I64P),
            tmp.ctypes.data_as(_I64P),
            svals.ctypes.data_as(_F64P),
        )
        return accept, offered, accepted, offsets, order, flags, tsorted

    def bucket_scan(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`NumpyKernels.bucket_scan` in C: returns ``(accept,
        unique_slots, accepted_per, dropped_per)`` with accept aligned
        to the *input* event order."""
        accept, offered, accepted, _, _, _, _ = self._scan_raw(
            slots, times, m, capacity, burst, want_flags=False
        )
        unique_slots = np.nonzero(offered)[0].astype(np.int64)
        accepted_per = accepted[unique_slots]
        dropped_per = offered[unique_slots] - accepted_per
        return accept.astype(bool), unique_slots, accepted_per, dropped_per

    def timeline_table(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
    ) -> CongestionTable:
        """Congestion timelines for every slot present in the events."""
        if len(slots) == 0:
            return CongestionTable.empty(m)
        _, _, _, offsets, _, flags, tsorted = self._scan_raw(
            slots, times, m, capacity, burst, want_flags=True
        )
        return CongestionTable(offsets=offsets, times=tsorted, flags=flags)

    def route(
        self,
        u: np.ndarray,
        rows: np.ndarray,
        neighbor_table: np.ndarray,
        is_bad: np.ndarray,
        decision_t: np.ndarray,
        table: Any,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(routable, chosen)`` — :meth:`NumpyKernels.route` as one
        time-ordered sweep; ``table`` is a :class:`CongestionTable`.

        Each table row keeps a live bitmap and live count, built once
        from ``is_bad``; packets are visited in a stable argsort of
        ``decision_t`` and, before each one, every congestion-flag flip
        at or before its decision time is applied through a
        slot -> (row, col) reverse index. The pick is the
        ``min(int(u * k), k - 1)``-th set bit of the packet's row, found
        by popcount. Work is O(table + events + packets + flips x
        fan-in) — never packets x table width.
        """
        u = _as_c(u, np.float64)
        rows = _as_c(rows, np.int64)
        nbr = _as_c(neighbor_table, np.int64)
        bad8 = _as_c(is_bad, np.uint8)
        decision_t = _as_c(decision_t, np.float64)
        n = len(u)
        table_rows, cols = nbr.shape
        m = len(table.offsets) - 1
        events = len(table.times)
        if len(rows) != n or len(decision_t) != n or len(bad8) != m:
            raise SimulationError(
                "route needs one row and decision time per packet and one "
                f"is_bad entry per slot ({m})"
            )
        words = (cols + 63) // 64
        routable = np.zeros(n, dtype=np.uint8)
        chosen = np.empty(n, dtype=np.int64)
        live_bits = np.empty(max(table_rows * words, 1), dtype=np.uint64)
        live_count = np.empty(max(table_rows, 1), dtype=np.int64)
        rev_offsets = np.empty(m + 1, dtype=np.int64)
        cursor = np.empty(max(m, 1), dtype=np.int64)
        rev_pos = np.empty(max(table_rows * cols, 1), dtype=np.int64)
        flips = np.empty(max(events, 1), dtype=np.int64)
        visit = np.empty(max(n, 1), dtype=np.int64)
        tmp = np.empty(max(n, events, 1), dtype=np.int64)
        status = self._library.repro_route(
            u.ctypes.data_as(_F64P),
            rows.ctypes.data_as(_I64P),
            decision_t.ctypes.data_as(_F64P),
            n,
            nbr.ctypes.data_as(_I64P),
            table_rows,
            cols,
            bad8.ctypes.data_as(_U8P),
            m,
            table.offsets.ctypes.data_as(_I64P),
            table.times.ctypes.data_as(_F64P),
            table.flags.ctypes.data_as(_U8P),
            live_bits.ctypes.data_as(_U64P),
            live_count.ctypes.data_as(_I64P),
            rev_offsets.ctypes.data_as(_I64P),
            cursor.ctypes.data_as(_I64P),
            rev_pos.ctypes.data_as(_I64P),
            flips.ctypes.data_as(_I64P),
            visit.ctypes.data_as(_I64P),
            tmp.ctypes.data_as(_I64P),
            routable.ctypes.data_as(_U8P),
            chosen.ctypes.data_as(_I64P),
        )
        if status == -1:
            raise SimulationError(
                f"route: neighbor table entries must be slots in 0..{m - 1}"
            )
        if status == -2:
            raise SimulationError(
                f"route: packet rows must be table rows in 0..{table_rows - 1}"
            )
        return routable.astype(bool), chosen

    def welford(
        self,
        values: np.ndarray,
        count: int,
        mean: float,
        m2: float,
        maxv: float,
    ) -> Tuple[int, float, float, float]:
        values = _as_c(values, np.float64)
        c_count = ctypes.c_int64(count)
        c_mean = ctypes.c_double(mean)
        c_m2 = ctypes.c_double(m2)
        c_max = ctypes.c_double(maxv)
        self._library.repro_welford(
            values.ctypes.data_as(_F64P),
            len(values),
            ctypes.byref(c_count),
            ctypes.byref(c_mean),
            ctypes.byref(c_m2),
            ctypes.byref(c_max),
        )
        return c_count.value, c_mean.value, c_m2.value, c_max.value


#: Either tier's kernel set; both expose the four stage methods.
Kernels = Union[NumpyKernels, KernelSet]

_KERNELS: Dict[str, Kernels] = {"numpy": NumpyKernels()}


def get_kernels(tier: str) -> Kernels:
    """The kernel set of a resolved ``tier`` (see :func:`resolve_tier`).

    Raises :class:`~repro.errors.SimulationError` for ``compiled`` when
    the C library is unavailable — resolve first to degrade instead.
    """
    kernels = _KERNELS.get(tier)
    if kernels is None:
        if tier != "compiled":
            raise SimulationError(
                f"tier must be one of {TIERS}, got {tier!r}"
            )
        kernels = _KERNELS[tier] = KernelSet()
    return kernels

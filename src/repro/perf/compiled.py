"""Kernel sets for the fast packet engine: one interface, two tiers.

:func:`repro.perf.fastsim.run_fast` runs its hot stages through one
kernel interface, four methods:

``bucket_scan``
    Grouped token-bucket Lindley replay: accept/drop per offer.
``timeline_table``
    Per-slot congestion timelines (congested-after-event flags) as one
    flat :class:`CongestionTable`, with the accept flags of the replay
    that built it.
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

Both sets build and read the same :class:`CongestionTable`, so a table
from either set routes on either set.

Tier selection is data (``PacketSimConfig.tier``), resolved here.
Requesting ``compiled`` when the C library cannot be built degrades to
``numpy`` with a one-time :class:`CompiledTierUnavailableWarning` naming
the reason, so code never has to guard on the environment.

Beside the kernel sets sit two samplers:

:func:`choice_rows`
    ``rows`` consecutive ``Generator.choice(population, size=k,
    replace=False)`` draws as one matrix, replayed in C over the
    generator's own bit generator;
:func:`poisson_rows`
    the arrival times of many Poisson sources, one child
    ``SeedSequence`` each, drawn in one C call over numpy's own
    exponential.

Neither has a tier. A tier picks between two kernel sets whose outputs
are compared; a sampler has one output, numpy's bits, and its C replay
is only a faster way to produce them. Each runs whenever the library
loads with it and a first-use self-check against numpy passes, and
falls back to plain numpy calls otherwise (:func:`choice_sampler` and
:func:`poisson_sampler` say which).
"""

from __future__ import annotations

import bisect
import ctypes
import dataclasses
import functools
import math
import warnings
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

from repro.errors import SimulationError
from repro.perf import _cc

__all__ = [
    "TIERS",
    "ChoiceReplayDisabledWarning",
    "CompiledTierUnavailableWarning",
    "PoissonReplayDisabledWarning",
    "CongestionTable",
    "KernelSet",
    "NumpyKernels",
    "available_tiers",
    "choice_rows",
    "choice_sampler",
    "compiled_backend",
    "get_kernels",
    "poisson_rows",
    "poisson_sampler",
    "resolve_tier",
]

#: Every kernel tier, default first. The single source for every
#: ``tier`` knob (sim config, scenario specs, CLIs, service payloads).
TIERS: Tuple[str, ...] = ("numpy", "compiled")


#: Machine epsilon of float64, ``2**-52`` (C's ``DBL_EPSILON``).
_EPS = float(np.finfo(np.float64).eps)


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


@dataclasses.dataclass(frozen=True)
class CongestionTable:
    """Per-slot congestion timelines in flat searchable form.

    ``offsets[s] : offsets[s + 1]`` spans slot ``s``'s chronologically
    sorted event ``times`` and the congested-after-event ``flags``. Both
    kernel sets build and read this one type.
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

    @functools.cached_property
    def flips(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(slots, times, flags)`` of every congestion-flag flip, grouped
        by slot and in event order within a slot.

        A slot is not congested before its first event, so its state at
        ``t`` is the flag of its last flip at or before ``t`` (False when
        there is none). ``route`` reads a table only through that state,
        so two tables with equal flips route every packet alike.
        """
        flags = self.flags
        previous = np.zeros(len(flags), dtype=np.uint8)
        previous[1:] = flags[:-1]
        previous[self.offsets[:-1][np.diff(self.offsets) > 0]] = 0
        index = np.flatnonzero(flags != previous)
        slots = np.searchsorted(self.offsets, index, side="right") - 1
        return slots, self.times[index], flags[index]


def _group(
    slots: np.ndarray, times: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One stable ``(slot, time)`` sort: ``(order, sorted slots, sorted
    times, group starts, group sizes)``, groups in slot order."""
    order = np.lexsort((times, slots))
    s_sorted = slots[order]
    t_sorted = times[order]
    head = np.ones(len(s_sorted), dtype=bool)
    head[1:] = s_sorted[1:] != s_sorted[:-1]
    starts = np.flatnonzero(head)
    counts = np.diff(np.append(starts, len(s_sorted)))
    return order, s_sorted, t_sorted, starts, counts


def _segmented_running_max(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``maximum.accumulate`` restarted at every group, exactly.

    The groups are consecutive runs of ``counts`` elements. Values are
    replaced by their positions in one stable sort, offset by ``group *
    n``, so one global running max over the keys never crosses a group
    border, and each key maps back to the very double it stands for.
    """
    n = len(values)
    order = np.argsort(values, kind="stable")
    offset = np.repeat(np.arange(len(counts), dtype=np.int64) * n, counts)
    keys = np.empty(n, dtype=np.int64)
    keys[order] = np.arange(n, dtype=np.int64)
    keys += offset
    np.maximum.accumulate(keys, out=keys)
    keys -= offset
    return values[order[keys]]


def _all_accept(
    s: np.ndarray, starts: np.ndarray, counts: np.ndarray, burst: float
) -> np.ndarray:
    """Per group of rescaled times ``s``: whether the all-accept closed
    form holds, clear of its rounding bound, so every offer is taken."""
    position = np.arange(len(s), dtype=np.int64)
    position -= np.repeat(starts, counts)
    # z = (w + (i + 1)) - s for every group at once, in place.
    z_all = _segmented_running_max(s - position, counts)
    position += 1
    z_all += position
    z_all -= s
    zmax = np.maximum.reduceat(z_all, starts)
    # Rounding bound. Let u = ulp(mag) with mag = max|s| + n + burst:
    # every intermediate below (s_i, s_i - i, w_i + (i + 1), a deficit,
    # a time step) is at most 2 * mag, so each rounding errs by at most
    # u. The closed form rounds three times per event, so z_all is
    # within 3u of the exact deficit. The per-event replay rounds three
    # times per event into a recursion whose clamp at zero is
    # 1-Lipschitz, so its deficit drifts by at most 3u per event: 3nu
    # over the group, plus u for ``burst - 1``. A group whose zmax is
    # below burst by more than (3n + 4)u is therefore all-accept in the
    # per-event replay too; 4(n + 2) * eps * mag >= 4(n + 2)u covers it.
    # Groups inside the bound take the exact loop. The C kernel computes
    # the same bound with the same operations.
    last = starts + counts - 1
    mag = np.maximum(np.abs(s[starts]), np.abs(s[last])) + counts + burst
    slack = (4.0 * (counts + 2)) * _EPS * mag
    return zmax <= burst - slack


def _bucket_replay(
    t_sorted: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    capacity: float,
    burst: float,
) -> np.ndarray:
    """Token-bucket accept flags of grouped, time-sorted events (see
    :meth:`NumpyKernels.bucket_scan`)."""
    if len(t_sorted) == 0:
        return np.zeros(0, dtype=bool)
    s = t_sorted * capacity
    # A group offered more than a full bucket plus the refill over its
    # span drops for certain; only the others try the closed form. (The
    # closed form taken is the per-event replay's answer, so which
    # groups try it never changes a result.)
    span = s[starts + counts - 1] - s[starts]
    closed = counts <= burst + span
    if bool(closed.any()):
        sizes = counts[closed]
        closed[closed] = _all_accept(
            s[np.repeat(closed, counts)], np.cumsum(sizes) - sizes, sizes, burst
        )
    accept = np.repeat(closed, counts)
    limit = burst - 1.0
    for g in np.flatnonzero(~closed).tolist():
        lo = int(starts[g])
        hi = lo + int(counts[g])
        _replay_group(s[lo:hi].tolist(), limit, accept[lo:hi])
    return accept


def _replay_group(s_list: List[float], limit: float, out: np.ndarray) -> None:
    """Exact Lindley replay of one group with run-skipping; writes the
    accept flags into ``out``.

    After a reject at deficit ``z`` and rescaled time ``y``, the pre-accept
    deficit ``max(z - (s - y), 0)`` only falls as ``s`` grows — each of
    its roundings is monotone — so every event before the first one it
    accepts rejects too. That event sits at ``y + (z - limit)`` up to
    rounding: a ``bisect`` after the rejected event finds the target, and
    the per-event test steps from there to the exact event. Plain
    Python floats: the same IEEE doubles in the same order as numpy
    scalars, without per-iteration ufunc dispatch — the loop runs
    O(accepted) times for a saturated node, the hot case under flooding.
    """
    n = len(s_list)
    if limit < 0.0:
        return  # a bucket shallower than one token takes nothing
    taken = bytearray(n)
    bisect_left = bisect.bisect_left
    z = 0.0
    y = 0.0
    i = 0
    while i < n:
        si = s_list[i]
        zp = z - (si - y)
        if zp < 0.0:
            zp = 0.0
        if zp <= limit:
            taken[i] = 1
            z = zp + 1.0
            y = si
            i += 1
        else:
            j = bisect_left(s_list, y + (z - limit), i + 1)
            # The clamp at zero cannot decide against limit >= 0.
            while j > i + 1 and z - (s_list[j - 1] - y) <= limit:
                j -= 1
            while j < n and z - (s_list[j] - y) > limit:
                j += 1
            i = j
    out[:] = np.frombuffer(taken, dtype=bool)


class NumpyKernels:
    """The numpy kernel set: the default tier and the oracle.

    Every stage is a fixed number of array passes; the one Python loop
    left is the exact replay of bucket groups the closed form cannot
    settle.
    """

    def bucket_scan(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
    ) -> np.ndarray:
        """Replay per-node token buckets over grouped events.

        ``slots``/``times`` are flat parallel event arrays (any order;
        ``m`` bounds the slot ids and is unused here). Events are
        grouped by slot and replayed chronologically with exact
        token-bucket arithmetic — continuous refill at ``capacity``
        clipped to ``burst``, one token per accepted offer.

        The recursion is solved in *deficit* space (``z = burst -
        tokens``, rescaled so refill rate is 1): ``z_i = max(0, z_{i-1}
        - Δs) + 1`` on accept, a Lindley recursion whose all-accept
        trajectory has the closed form ``z_i = w_i + i - s_i`` with
        ``w_i = max(w_{i-1}, s_i - (i - 1))`` — one segmented running
        max over every group at once. A group whose trajectory stays
        below ``burst`` by more than a rounding bound accepts everything
        with zero sequential work. The other groups take an exact loop
        that is O(accepted) rather than O(events): rejections come in
        runs (the bucket must drain a full token before the next
        accept), and each run is skipped with one binary search.

        Returns the accept flags, aligned with the *input* event order.
        """
        order, _, t_sorted, starts, counts = _group(slots, times)
        accept = np.empty(len(slots), dtype=bool)
        accept[order] = _bucket_replay(t_sorted, starts, counts, capacity, burst)
        return accept

    def timeline_table(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
    ) -> Tuple[CongestionTable, np.ndarray]:
        """``(table, accept)``: the congestion table of the events and
        their accept flags in input order.

        Replays the merged event stream of every slot through its token
        bucket (:meth:`bucket_scan`) and evaluates the congestion
        predicate (>= 10 offers observed and cumulative drop rate >=
        0.5) after every event, so forwarding decisions can look up a
        node's congestion state at any instant with one search.
        """
        if len(slots) == 0:
            return CongestionTable.empty(m), np.zeros(0, dtype=bool)
        order, s_sorted, t_sorted, starts, counts = _group(slots, times)
        accept_sorted = _bucket_replay(t_sorted, starts, counts, capacity, burst)
        # Offers and drops so far, counted from each slot's first event.
        total = np.arange(1, len(s_sorted) + 1) - np.repeat(starts, counts)
        rejected = ~accept_sorted
        drops = np.cumsum(rejected)
        drops -= np.repeat(drops[starts] - rejected[starts], counts)
        flags = (total >= 10) & (drops / total >= 0.5)
        offsets = np.searchsorted(s_sorted, np.arange(m + 1)).astype(np.int64)
        accept = np.empty(len(slots), dtype=bool)
        accept[order] = accept_sorted
        table = CongestionTable(
            offsets=offsets, times=t_sorted, flags=flags.astype(np.uint8)
        )
        return table, accept

    def route(
        self,
        u: np.ndarray,
        rows: np.ndarray,
        neighbor_table: np.ndarray,
        is_bad: np.ndarray,
        decision_t: np.ndarray,
        table: CongestionTable,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pick among each packet's live next-hop neighbors.

        Packet ``i`` sits at table row ``rows[i]`` of ``neighbor_table``
        (a layer's ``(size_h, m_{h+1})`` slot matrix); its candidates are
        that row's slots. A neighbor is live when ``is_bad`` (per slot)
        is false and it is not congested at ``decision_t[i]`` in
        ``table`` (a :meth:`timeline_table` result). ``u`` holds
        each packet's pre-assigned uniform draw for this hop; the pick is
        ``min(int(u * k), k - 1)`` over the row's ``k`` live neighbors
        in table order, so matching live sets yield matching choices,
        and re-evaluating with a refined table consumes nothing. Returns
        ``(routable, chosen)``: rows with no live neighbor are marked
        unroutable and their ``chosen`` entry is meaningless — callers
        must mask with ``routable``.

        Congestion is one search per (packet, neighbor) pair whose slot
        has flips, over the table's flips. A time's rank is the number
        of distinct flip times at or before it, so a flip is at or
        before a decision exactly when its rank is at most the
        decision's; with slot-major keys ``slot * R + rank``,
        ``side="right"`` finds each pair's last flip at or before its
        decision time. This oracle gathers each packet's row; the C set
        never does.
        """
        neighbor_slots = neighbor_table[rows]
        live = ~is_bad[neighbor_slots]
        flip_slots, flip_times, flip_flags = table.flips
        if len(flip_flags):
            flipped = np.zeros(len(is_bad), dtype=bool)
            flipped[flip_slots] = True
            packet, column = np.nonzero(flipped[neighbor_slots])
            pair_slots = neighbor_slots[packet, column]
            distinct = np.unique(flip_times)
            width = len(distinct) + 1
            flip_keys = flip_slots * width + np.searchsorted(
                distinct, flip_times, side="right"
            )
            rank = np.searchsorted(distinct, decision_t, side="right")
            last = np.searchsorted(
                flip_keys, pair_slots * width + rank[packet], side="right"
            ) - 1
            # ``last`` lands on another slot's flip, or at -1, when the
            # decision precedes every flip of its own slot.
            found = np.maximum(last, 0)
            congested = (
                (last >= 0)
                & (flip_slots[found] == pair_slots)
                & (flip_flags[found] != 0)
            )
            live[packet[congested], column[congested]] = False
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
            offsets.ctypes.data_as(_I64P),
            order.ctypes.data_as(_I64P),
            flags.ctypes.data_as(_U8P),
            tsorted.ctypes.data_as(_F64P),
            cursor.ctypes.data_as(_I64P),
            tmp.ctypes.data_as(_I64P),
            svals.ctypes.data_as(_F64P),
        )
        return accept, offsets, flags, tsorted

    def bucket_scan(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
    ) -> np.ndarray:
        """:meth:`NumpyKernels.bucket_scan` in C: the accept flags,
        aligned with the *input* event order."""
        accept = self._scan_raw(
            slots, times, m, capacity, burst, want_flags=False
        )[0]
        return accept.astype(bool)

    def timeline_table(
        self,
        slots: np.ndarray,
        times: np.ndarray,
        m: int,
        capacity: float,
        burst: float,
    ) -> Tuple[CongestionTable, np.ndarray]:
        """``(table, accept)`` — :meth:`NumpyKernels.timeline_table` in C:
        the congestion table and the events' accept flags in input
        order, from one scan."""
        if len(slots) == 0:
            return CongestionTable.empty(m), np.zeros(0, dtype=bool)
        accept, offsets, flags, tsorted = self._scan_raw(
            slots, times, m, capacity, burst, want_flags=True
        )
        table = CongestionTable(offsets=offsets, times=tsorted, flags=flags)
        return table, accept.astype(bool)

    def route(
        self,
        u: np.ndarray,
        rows: np.ndarray,
        neighbor_table: np.ndarray,
        is_bad: np.ndarray,
        decision_t: np.ndarray,
        table: CongestionTable,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(routable, chosen)`` — :meth:`NumpyKernels.route` as one
        time-ordered sweep.

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


# ----------------------------------------------------------------------
# Row sampling: numpy's without-replacement ``choice``, replayed in C.
# ----------------------------------------------------------------------


class ChoiceReplayDisabledWarning(RuntimeWarning):
    """Raised (once) when the C ``choice`` replay disagrees with numpy
    and :func:`choice_rows` falls back to per-row ``Generator.choice``."""


#: ``Generator.choice`` draws with Floyd's algorithm unless the
#: population exceeds this and ``k > population // _TAIL_SHUFFLE_CUTOFF``,
#: where it tail-shuffles a full ``arange`` instead; the replay covers
#: Floyd only.
_FLOYD_MAX_POPULATION = 10000
_TAIL_SHUFFLE_CUTOFF = 50
#: The replay's bounded draw is numpy's 32-bit one, which serves ranges
#: ``[0, j]`` with ``j < 2**32 - 1``.
_REPLAY_POPULATION_LIMIT = 2**32 - 1

#: The first-use self-check: ``(bit generator, seed, uint32 draws made
#: first, population, k, rows)``. An odd uint32 count leaves a buffered
#: 32-bit half in the bit generator (all but MT19937 buffer one), which
#: the replay must consume exactly as numpy does; the ``2**28 + 20`` case
#: hits Lemire's rejection loop on about 6% of its draws.
_PROBE = (
    (np.random.PCG64, 20040324, 3, 27, 2, 4),
    (np.random.PCG64DXSM, 1, 1, 1000, 40, 2),
    (np.random.MT19937, 2, 1, 10, 10, 2),
    (np.random.Philox, 3, 3, 9000, 180, 1),
    (np.random.SFC64, 4, 1, 2**28 + 20, 16, 2),
)

#: None until the self-check has run; then whether the replay passed it.
_REPLAY_OK: Optional[bool] = None


def _is_count(value: Any) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _choice_loop(
    generator: Any, population: Any, k: Any, rows: Any
) -> np.ndarray:
    """``rows`` per-row ``choice`` calls: the fallback (it raises numpy's
    own errors for bad arguments) and the self-check's reference."""
    matrix = np.empty((rows, k), dtype=np.int64)
    for row in matrix:
        row[:] = generator.choice(population, size=k, replace=False)
    return matrix


def _replay(
    library: ctypes.CDLL,
    generator: np.random.Generator,
    population: int,
    k: int,
    rows: int,
) -> np.ndarray:
    """``repro_choice_rows`` over ``generator``'s ``bitgen_t``, holding
    the bit generator's lock as ``Generator.choice`` does."""
    out = np.empty((rows, k), dtype=np.int64)
    bit_generator = generator.bit_generator
    with bit_generator.lock:
        status = library.repro_choice_rows(
            bit_generator.ctypes.bit_generator, population, k, rows,
            out.ctypes.data,
        )
    if status == -2:
        raise MemoryError(
            f"choice_rows: cannot allocate {population} duplicate-mark bytes"
        )
    if status != 0:
        raise SimulationError(
            f"choice_rows: invalid arguments (population={population}, "
            f"k={k}, rows={rows})"
        )
    return out


def _replay_matches(library: ctypes.CDLL) -> bool:
    """Whether the replay reproduces ``Generator.choice`` on :data:`_PROBE`:
    the same matrices, then the same next uint32 and double draws."""
    for bit_generator, seed, leading, population, k, rows in _PROBE:
        ours = np.random.Generator(bit_generator(seed))
        theirs = np.random.Generator(bit_generator(seed))
        for generator in (ours, theirs):
            generator.integers(0, 2**32, size=leading, dtype=np.uint32)
        got = _replay(library, ours, population, k, rows)
        want = _choice_loop(theirs, population, k, rows)
        if not np.array_equal(got, want):
            return False
        for draw in (
            lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
            lambda g: g.random(2),
        ):
            if not np.array_equal(draw(ours), draw(theirs)):
                return False
    return True


def _replay_library() -> Optional[ctypes.CDLL]:
    """The C library when the replay may run, else None.

    The self-check runs once per process, on first use; a mismatch warns
    once and disables the replay for the rest of the process.
    """
    global _REPLAY_OK
    library = _cc.load_library()
    if library is None:
        return None
    if _REPLAY_OK is None:
        _REPLAY_OK = _replay_matches(library)
        if not _REPLAY_OK:
            warnings.warn(
                f"numpy {np.__version__}'s Generator.choice no longer "
                "matches the C replay; choice_rows falls back to per-row "
                "choice calls (same draws, slower)",
                ChoiceReplayDisabledWarning,
                stacklevel=3,
            )
    return library if _REPLAY_OK else None


def choice_sampler() -> str:
    """``"cc"`` when :func:`choice_rows` runs the C replay, else
    ``"numpy"`` (no library, or the self-check disabled the replay).
    Calling it loads the library and runs the self-check, so a process
    about to fork workers can pay both once."""
    return "cc" if _replay_library() is not None else "numpy"


def choice_rows(generator: Any, population: Any, k: Any, rows: Any) -> np.ndarray:
    """``rows`` consecutive ``generator.choice(population, size=k,
    replace=False)`` draws as an int64 ``(rows, k)`` matrix.

    Bit for bit the per-row loop: the C replay (:mod:`repro.perf._cc`)
    calls the generator's own ``next_uint32``, so it returns the same
    rows and leaves the generator in the same state. It runs for a
    :class:`numpy.random.Generator` and int arguments with ``0 <= k <=
    population < 2**32 - 1``, outside numpy's tail-shuffle case
    (``population > 10000`` and ``k > population // 50``); anything else
    — including every invalid argument, which the loop reports with
    numpy's own error — takes the per-row loop.
    """
    if (
        isinstance(generator, np.random.Generator)
        and _is_count(population)
        and _is_count(k)
        and _is_count(rows)
        and 0 <= k <= population < _REPLAY_POPULATION_LIMIT
        and rows >= 0
        and not (
            population > _FLOYD_MAX_POPULATION
            and k > population // _TAIL_SHUFFLE_CUTOFF
        )
    ):
        library = _replay_library()
        if library is not None:
            return _replay(library, generator, int(population), int(k), int(rows))
    return _choice_loop(generator, population, k, rows)


# ----------------------------------------------------------------------
# Poisson sampling: numpy's exponential gaps, one C call for all sources.
# ----------------------------------------------------------------------


class PoissonReplayDisabledWarning(RuntimeWarning):
    """Raised (once) when the C Poisson sampler disagrees with numpy and
    :func:`poisson_rows` falls back to per-source ``Generator`` draws."""


#: The Poisson self-check: ``(root seed, sources, rate, duration,
#: start)``. About 14 000 gaps, so numpy's ziggurat leaves its fast path
#: (~1.1% of draws) over a hundred times and takes its idx-0 tail (a
#: standard exponential above 7.69) eight times.
_POISSON_PROBE = (
    (20040324, 5, 60.0, 40.0, 0.0),
    (7, 3, 0.75, 900.0, 13.25),
    (11, 2, 500.0, 2.0, 1.5),
)

#: None until the Poisson self-check has run; then whether it passed.
_POISSON_OK: Optional[bool] = None


def _block_width(expected: float) -> int:
    """Gaps per block for a source expecting ``expected`` arrivals: ten
    standard deviations of slack, so one block almost always covers the
    window."""
    return max(4, int(expected + 10.0 * math.sqrt(expected) + 16.0))


def _poisson_row(
    stream: np.random.Generator, rate: float, duration: float,
    start: float = 0.0,
) -> np.ndarray:
    """Arrival times in ``(start, duration)`` for one Poisson source.

    Draws exponential gaps in blocks from the source's dedicated stream
    and cumulative-sums them. A block draw consumes the stream
    identically to one-gap-at-a-time draws, and
    prepending ``start`` to the cumsum input adds left to right exactly
    like the scheduler's sequential ``start + gap`` then ``now + gap``
    additions (``0.0 + x == x`` bitwise, so the default changes
    nothing), so the kept times are bit-identical to the event-driven
    source's emission times. The unused tail of the final block is
    harmless: nothing else reads the stream.
    """
    width = _block_width(rate * max(duration - start, 0.0))
    gaps = stream.exponential(1.0 / rate, size=width)
    times = np.cumsum(np.concatenate([[start], gaps]))[1:]
    while times[-1] < duration:
        gaps = np.concatenate(
            [gaps, stream.exponential(1.0 / rate, size=width)]
        )
        times = np.cumsum(np.concatenate([[start], gaps]))[1:]
    return times[times < duration]


def _poisson_loop(
    seeds: Sequence[Any], rate: float, duration: float, start: float,
    bit_generator: Any,
) -> Tuple[np.ndarray, np.ndarray]:
    """One :func:`_poisson_row` per seed over ``Generator(bit_generator(
    seed))``: the fallback and the self-check's reference."""
    rows = [
        _poisson_row(
            np.random.Generator(bit_generator(seed)), rate, duration, start
        )
        for seed in seeds
    ]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    times = np.concatenate(rows) if rows else np.empty(0, dtype=np.float64)
    return times, offsets


def _poisson_replay(
    library: ctypes.CDLL, seeds: Sequence[Any], rate: float,
    duration: float, start: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """``repro_poisson_rows`` over the seeds' 4-word pools."""
    pools = np.empty((len(seeds), 4), dtype=np.uint32)
    for row, seed in zip(pools, seeds):
        row[:] = seed.pool
    width = _block_width(rate * max(duration - start, 0.0))
    times = np.empty(max(len(seeds) * width, 1), dtype=np.float64)
    offsets = np.empty(len(seeds) + 1, dtype=np.int64)
    spill = ctypes.c_void_p()
    used = library.repro_poisson_rows(
        pools.ctypes.data, len(seeds), 1.0 / rate, start, duration, width,
        times.ctypes.data, len(times), offsets.ctypes.data,
        ctypes.byref(spill),
    )
    if used == -2:
        raise MemoryError("poisson_rows: cannot grow the arrival buffer")
    if used < 0:
        raise SimulationError(
            f"poisson_rows: invalid arguments (sources={len(seeds)}, "
            f"block width={width})"
        )
    if spill.value:
        # Some rows outgrew their first blocks: the C side moved the
        # times to a heap buffer, which is copied out and released.
        grown = ctypes.cast(spill, ctypes.POINTER(ctypes.c_double))
        times = np.ctypeslib.as_array(grown, shape=(used,)).copy()
        library.repro_free(spill)
        return times, offsets
    return times[:used], offsets


def _poisson_matches(library: ctypes.CDLL) -> bool:
    """Whether the C sampler reproduces :func:`_poisson_loop` on
    :data:`_POISSON_PROBE`."""
    for root, sources, rate, duration, start in _POISSON_PROBE:
        seeds = np.random.SeedSequence(root).spawn(sources)
        got = _poisson_replay(library, seeds, rate, duration, start)
        want = _poisson_loop(seeds, rate, duration, start, np.random.PCG64)
        if not all(np.array_equal(a, b) for a, b in zip(got, want)):
            return False
    return True


def _poisson_library() -> Optional[ctypes.CDLL]:
    """The C library when the Poisson sampler may run, else None (no
    library, a library built without numpy's archive, or a failed
    self-check, which warns once per process)."""
    global _POISSON_OK
    library = _cc.load_library()
    if library is None or not hasattr(library, "repro_poisson_rows"):
        return None
    if _POISSON_OK is None:
        _POISSON_OK = _poisson_matches(library)
        if not _POISSON_OK:
            warnings.warn(
                f"numpy {np.__version__}'s PCG64 seeding or exponential no "
                "longer matches the C Poisson sampler; poisson_rows falls "
                "back to per-source Generator draws (same times, slower)",
                PoissonReplayDisabledWarning,
                stacklevel=3,
            )
    return library if _POISSON_OK else None


def poisson_sampler() -> str:
    """``"cc"`` when :func:`poisson_rows` can run in C, else ``"numpy"``.
    Calling it loads the library and runs the self-check, so a process
    about to fork workers can pay both once."""
    return "cc" if _poisson_library() is not None else "numpy"


def poisson_rows(
    seeds: Sequence[Any],
    rate: float,
    duration: float,
    start: float = 0.0,
    bit_generator: Any = np.random.PCG64,
) -> Tuple[np.ndarray, np.ndarray]:
    """Arrival times in ``(start, duration)`` of one Poisson source per
    child seed, as ``(times, offsets)``: a flat float64 array and int64
    row offsets, row ``i`` being ``times[offsets[i]:offsets[i + 1]]``.

    Row ``i`` is bit for bit ``_poisson_row(Generator(bit_generator(
    seeds[i])), rate, duration, start)``: the gaps of ``Generator.
    exponential(1 / rate)`` added left to right from ``start``. The C
    path (:mod:`repro.perf._cc`) runs when ``bit_generator`` is exactly
    ``PCG64``, every seed is exactly a ``SeedSequence`` with
    ``pool_size == 4``, the library was built with numpy's
    ``libnpyrandom.a``, and the first-use self-check passed; anything
    else takes that per-source numpy loop, with the same rows.
    """
    if (
        bit_generator is np.random.PCG64
        and all(
            type(seed) is np.random.SeedSequence and seed.pool_size == 4
            for seed in seeds
        )
    ):
        library = _poisson_library()
        if library is not None:
            return _poisson_replay(library, seeds, rate, duration, start)
    return _poisson_loop(seeds, rate, duration, start, bit_generator)

"""One interface test for both kernel sets.

Every kernel set (:class:`~repro.perf.compiled.NumpyKernels` and, where
the C library builds, :class:`~repro.perf.compiled.KernelSet`) runs the
same four stage methods — ``bucket_scan``, ``timeline_table``, ``route``,
``welford`` — on the same randomized workloads through the same calls,
and every result must equal the numpy set's *exactly*: same accept/drop
decisions, same flags, same IEEE doubles. ``bucket_scan`` additionally
answers to the per-event scalar oracle in ``tests/perf/oracles.py``.
Each case loops over :data:`KERNEL_SETS` itself, so without a C
toolchain the numpy set still runs against the oracles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.monitor import _detect_bins
from repro.errors import SimulationError
from repro.perf.compiled import (
    CongestionTable,
    KernelSet,
    NumpyKernels,
    available_tiers,
    get_kernels,
)
from tests.perf.oracles import _scalar_bucket_scan, scalar_detect_bins

#: Every kernel set runnable here, the numpy set (the oracle) first.
KERNEL_SETS = [get_kernels(tier) for tier in available_tiers()]
NUMPY = KERNEL_SETS[0]
STAGES = ("bucket_scan", "timeline_table", "route", "welford")


def test_kernel_sets_define_the_stage_methods():
    # The benchmark tracer wraps ``KernelSet.__dict__[stage]``: the stage
    # methods must live on the classes themselves, not on a base.
    for cls in (KernelSet, NumpyKernels):
        assert set(STAGES) <= set(cls.__dict__), cls
    assert isinstance(NUMPY, NumpyKernels)


def _random_events(rng, m, n, horizon=50.0):
    """Flat (slots, times) event arrays with hot and cold slots mixed."""
    # Zipf-ish slot choice so some buckets saturate (run-skip path) while
    # others stay in the closed-form all-accept regime.
    weights = 1.0 / np.arange(1, m + 1)
    weights /= weights.sum()
    slots = rng.choice(m, size=n, p=weights).astype(np.int64)
    times = rng.uniform(0.0, horizon, size=n)
    return slots, np.sort(times)


def _as_timelines(table, m):
    """Either set's congestion table as ``{slot: (times, bool flags)}``."""
    if not isinstance(table, CongestionTable):
        return table
    assert table.offsets.shape == (m + 1,)
    timelines = {}
    for slot in range(m):
        lo, hi = int(table.offsets[slot]), int(table.offsets[slot + 1])
        if hi > lo:
            timelines[slot] = (table.times[lo:hi], table.flags[lo:hi].astype(bool))
    return timelines


def _assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for ours, theirs in zip(got, expected):
        np.testing.assert_array_equal(ours, theirs)


class TestBucketScan:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_numpy_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 40))
        n = int(rng.integers(1, 400))
        capacity = float(rng.uniform(0.2, 20.0))
        burst = float(np.ceil(rng.uniform(1.0, 12.0)))
        slots, times = _random_events(rng, m, n)
        if seed % 3 == 0:  # accept must align with *input* order
            perm = rng.permutation(n)
            slots, times = slots[perm], times[perm]
        expected = NUMPY.bucket_scan(slots, times, m, capacity, burst)
        for kernels in KERNEL_SETS:
            got = kernels.bucket_scan(slots, times, m, capacity, burst)
            _assert_same_arrays(got, expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_scalar_tier_agrees(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = int(rng.integers(1, 20))
        n = int(rng.integers(1, 200))
        capacity = float(rng.uniform(0.2, 10.0))
        burst = float(np.ceil(rng.uniform(1.0, 8.0)))
        slots, times = _random_events(rng, m, n)
        expected = _scalar_bucket_scan(slots, times, capacity, burst)
        for kernels in KERNEL_SETS:
            got = kernels.bucket_scan(slots, times, m, capacity, burst)
            _assert_same_arrays(got, expected)

    def test_empty_events(self):
        slots = np.zeros(0, dtype=np.int64)
        times = np.zeros(0, dtype=np.float64)
        for kernels in KERNEL_SETS:
            for part in kernels.bucket_scan(slots, times, 5, 1.0, 3.0):
                assert len(part) == 0


class TestTimelineTable:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dict_timelines(self, seed):
        rng = np.random.default_rng(200 + seed)
        m = int(rng.integers(1, 30))
        n = int(rng.integers(1, 300))
        capacity = float(rng.uniform(0.2, 5.0))
        burst = float(np.ceil(rng.uniform(1.0, 6.0)))
        slots, times = _random_events(rng, m, n)
        expected = NUMPY.timeline_table(slots, times, m, capacity, burst)
        assert sum(len(node_times) for node_times, _ in expected.values()) == n
        for kernels in KERNEL_SETS:
            got = _as_timelines(
                kernels.timeline_table(slots, times, m, capacity, burst), m
            )
            assert set(got) == set(expected)
            for slot, (node_times, node_flags) in expected.items():
                np.testing.assert_array_equal(got[slot][0], node_times)
                np.testing.assert_array_equal(got[slot][1], node_flags)

    def test_empty_is_empty(self):
        for kernels in KERNEL_SETS:
            table = kernels.timeline_table(
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64),
                7, 1.0, 2.0,
            )
            assert _as_timelines(table, 7) == {}


def _scalar_route(u, rows, neighbor_table, is_bad, decision_t, timelines):
    """Per-packet reference: live set by bisecting each neighbor's
    timeline, then the ``min(int(u * k), k - 1)``-th live neighbor."""
    routable = np.zeros(len(u), dtype=bool)
    chosen = np.full(len(u), -1, dtype=np.int64)
    for i in range(len(u)):
        live = []
        for slot in neighbor_table[rows[i]].tolist():
            if is_bad[slot]:
                continue
            if slot in timelines:
                times, flags = timelines[slot]
                index = int(np.searchsorted(times, decision_t[i], side="right"))
                if index and flags[index - 1]:
                    continue
            live.append(slot)
        if live:
            routable[i] = True
            chosen[i] = live[min(int(u[i] * len(live)), len(live) - 1)]
    return routable, chosen


def _route_everywhere(u, rows, neighbor_table, is_bad, decision_t, events,
                      m, capacity=1.0, burst=2.0):
    """Route through every kernel set (each on its own table type) and
    require the scalar reference's answer from all of them."""
    slots, times = events
    expected = None
    for kernels in KERNEL_SETS:
        table = kernels.timeline_table(slots, times, m, capacity, burst)
        if expected is None:
            expected = _scalar_route(
                u, rows, neighbor_table, is_bad, decision_t,
                _as_timelines(table, m),
            )
        routable, chosen = kernels.route(
            u, rows, neighbor_table, is_bad, decision_t, table
        )
        np.testing.assert_array_equal(routable, expected[0])
        np.testing.assert_array_equal(chosen[routable], expected[1][routable])
    return expected


def _no_events():
    return np.zeros(0, dtype=np.int64), np.zeros(0)


def _flipping_events(slot):
    """Events that congest ``slot`` at t=1 and clear it at t=35 (capacity
    1, burst 2): 20 offers at t=1 (2 accepted, flag on from the 10th),
    then 40 spaced, all-accepted offers that pull the drop rate under
    one half at the 37th event."""
    times = np.concatenate([np.full(20, 1.0), 3.0 + 2.0 * np.arange(40)])
    return np.full(len(times), slot, dtype=np.int64), times


class TestRoute:
    """``route(u, rows, neighbor_table, is_bad, decision_t, table)`` on
    both kernel sets against a per-packet scalar reference."""

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_two_step_numpy(self, seed):
        rng = np.random.default_rng(300 + seed)
        m = int(rng.integers(2, 40))
        table_rows = int(rng.integers(1, 12))
        cols = int(rng.integers(1, 140))
        n = int(rng.integers(1, 120))
        capacity = float(rng.uniform(0.2, 3.0))
        burst = float(np.ceil(rng.uniform(1.0, 4.0)))
        events = _random_events(rng, m, int(rng.integers(0, 250)))

        u = rng.random(n)
        # Few table rows, many packets: rows are shared.
        rows = rng.integers(0, table_rows, size=n).astype(np.int64)
        nbr = rng.integers(0, m, size=(table_rows, cols)).astype(np.int64)
        is_bad = rng.random(m) < 0.2
        decision_t = rng.uniform(0.0, 60.0, size=n)
        if seed % 2 == 0:
            # The hot engine path: nondecreasing decision times.
            decision_t = np.sort(decision_t)
        _route_everywhere(
            u, rows, nbr, is_bad, decision_t, events, m, capacity, burst
        )

    def test_no_events_all_healthy(self):
        u = np.array([0.0, 0.5, 0.999])
        rows = np.array([0, 1, 2], dtype=np.int64)
        nbr = np.array([[0, 1], [2, 3], [1, 2]], dtype=np.int64)
        is_bad = np.zeros(4, dtype=bool)
        decision_t = np.array([1.0, 2.0, 3.0])
        routable, chosen = _route_everywhere(
            u, rows, nbr, is_bad, decision_t, _no_events(), 4
        )
        assert routable.all()
        np.testing.assert_array_equal(chosen, [0, 3, 2])

    def test_unroutable_rows_flagged(self):
        u = np.array([0.3])
        rows = np.array([0], dtype=np.int64)
        nbr = np.array([[0, 1, 2]], dtype=np.int64)
        is_bad = np.ones(3, dtype=bool)
        decision_t = np.array([5.0])
        routable, _ = _route_everywhere(
            u, rows, nbr, is_bad, decision_t, _no_events(), 3
        )
        assert not routable.any()

    def test_shared_rows_and_bad_slots(self):
        # Every packet shares row 0; slot 1 is bad, so the live set is
        # [0, 2, 3] and the pick walks it in table order.
        u = np.array([0.0, 0.34, 0.67, 0.999, 0.5])
        rows = np.array([0, 0, 0, 0, 1], dtype=np.int64)
        nbr = np.array([[0, 1, 2, 3], [1, 1, 1, 3]], dtype=np.int64)
        is_bad = np.array([False, True, False, False])
        decision_t = np.arange(5.0)
        routable, chosen = _route_everywhere(
            u, rows, nbr, is_bad, decision_t, _no_events(), 4
        )
        assert routable.all()
        np.testing.assert_array_equal(chosen, [0, 2, 3, 3, 3])

    def test_flags_flip_zero_one_zero(self):
        # Slot 0 is congested on [1, 35): packets decided there can only
        # reach slot 1; before and after, u = 0 picks slot 0 again.
        events = _flipping_events(0)
        decision_t = np.array([0.5, 1.0, 20.0, 34.9, 35.0, 80.0])
        u = np.zeros(len(decision_t))
        rows = np.zeros(len(decision_t), dtype=np.int64)
        nbr = np.array([[0, 1]], dtype=np.int64)
        routable, chosen = _route_everywhere(
            u, rows, nbr, np.zeros(2, dtype=bool), decision_t, events, 2
        )
        assert routable.all()
        np.testing.assert_array_equal(chosen, [0, 1, 1, 1, 0, 0])

    def test_equal_and_nonmonotone_times(self):
        # Shuffled decision times with ties, straddling both flips of
        # slot 2 (one 64-bit word boundary inside the row too).
        rng = np.random.default_rng(7)
        events = _flipping_events(2)
        decision_t = rng.permutation(
            np.repeat([0.0, 1.0, 1.0, 10.0, 35.0, 35.0, 99.0], 9)
        )
        n = len(decision_t)
        nbr = rng.integers(0, 4, size=(3, 70)).astype(np.int64)
        nbr[:, 65] = 2
        _route_everywhere(
            rng.random(n), rng.integers(0, 3, size=n).astype(np.int64),
            nbr, np.zeros(4, dtype=bool), decision_t, events, 4,
        )

    def test_single_column(self):
        events = _flipping_events(0)
        decision_t = np.array([9.0, 0.5, 40.0, 1.0])
        rows = np.array([0, 0, 1, 1], dtype=np.int64)
        nbr = np.array([[0], [1]], dtype=np.int64)
        routable, chosen = _route_everywhere(
            np.full(4, 0.9), rows, nbr, np.zeros(2, dtype=bool),
            decision_t, events, 2,
        )
        np.testing.assert_array_equal(routable, [False, True, True, True])
        np.testing.assert_array_equal(chosen[routable], [0, 1, 1])

    @pytest.mark.skipif(
        "compiled" not in available_tiers(), reason="no compiled backend"
    )
    @pytest.mark.parametrize(
        "rows,nbr,match",
        [
            ([0, 2], [[0, 1], [1, 0]], "packet rows"),
            ([0, -1], [[0, 1], [1, 0]], "packet rows"),
            ([0, 1], [[0, 1], [1, 2]], "table entries"),
            ([0, 1], [[0, -1], [1, 0]], "table entries"),
        ],
    )
    def test_compiled_rejects_out_of_range_indices(self, rows, nbr, match):
        kernels = get_kernels("compiled")
        table = kernels.timeline_table(*_no_events(), 2, 1.0, 2.0)
        with pytest.raises(SimulationError, match=match):
            kernels.route(
                np.full(2, 0.5), np.asarray(rows, dtype=np.int64),
                np.asarray(nbr, dtype=np.int64), np.zeros(2, dtype=bool),
                np.zeros(2), table,
            )


class TestWelford:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_streaming_fold(self, seed):
        rng = np.random.default_rng(400 + seed)
        values = rng.uniform(0.0, 10.0, size=int(rng.integers(0, 500)))
        count, mean, m2, maxv = (
            int(rng.integers(0, 5)),
            float(rng.uniform(0.0, 5.0)),
            float(rng.uniform(0.0, 2.0)),
            float(rng.uniform(0.0, 8.0)),
        )
        if count == 0:
            mean, m2 = 0.0, 0.0
        exp_count, exp_mean, exp_m2, exp_max = count, mean, m2, maxv
        for value in values.tolist():
            exp_count += 1
            delta = value - exp_mean
            exp_mean += delta / exp_count
            exp_m2 += delta * (value - exp_mean)
            if value > exp_max:
                exp_max = value
        for kernels in KERNEL_SETS:
            got = kernels.welford(values, count, mean, m2, maxv)
            assert got == (exp_count, exp_mean, exp_m2, exp_max)


class TestDetect:
    """The monitor's batched CUSUM/EWMA scan vs a per-row Python scan."""

    @pytest.mark.parametrize("method", ["cusum", "ewma"])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_numpy_scan(self, method, seed):
        rng = np.random.default_rng(500 + seed)
        rows = int(rng.integers(1, 50))
        bins = int(rng.integers(1, 60))
        base_end = int(rng.integers(0, bins))
        series = rng.poisson(8.0, size=(rows, bins)).astype(np.float64)
        # Inject a step on half the rows so both outcomes occur.
        series[::2, bins // 2:] += rng.uniform(5.0, 30.0)
        means = rng.uniform(2.0, 12.0, size=rows)
        sigmas = rng.uniform(0.5, 4.0, size=rows)
        threshold = float(rng.uniform(1.0, 8.0))
        drift = float(rng.uniform(0.0, 1.5))
        alpha = float(rng.uniform(0.05, 0.9))
        args = (series, means, sigmas, base_end, method, threshold, drift, alpha)
        expected = scalar_detect_bins(*args)
        np.testing.assert_array_equal(_detect_bins(*args), expected)
        assert (expected >= 0).any() or rows < 3  # workload sanity

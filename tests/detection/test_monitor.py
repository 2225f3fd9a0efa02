"""TrafficMonitor: binning, change-point detection, and batch/scalar parity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.monitor import MonitorConfig, TrafficMonitor
from repro.errors import DetectionError
from tests.perf.oracles import scalar_detection_bins


def observe(monitor, node_id, time, accepted):
    """Feed ``monitor`` one offer as a batch of one."""
    monitor.observe_batch(
        np.array([node_id], dtype=np.int64),
        np.array([time], dtype=np.float64),
        np.array([accepted], dtype=np.bool_),
    )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"bin_width": 0.0},
            {"bin_width": -1.0},
            {"method": "median"},
            {"threshold": 0.0},
            {"drift": -0.1},
            {"ewma_alpha": 0.0},
            {"ewma_alpha": 1.5},
            {"warmup_bins": -1},
            {"baseline_bins": 0},
            {"min_sigma": 0.0},
        ],
    )
    def test_bad_configs_raise(self, kwargs):
        with pytest.raises(DetectionError):
            MonitorConfig(**kwargs)

    def test_defaults_valid(self):
        config = MonitorConfig()
        assert config.method == "cusum"


def step_monitor(
    quiet_rate=5, loud_rate=200, quiet_bins=10, loud_bins=10, **overrides
):
    """A node at ``quiet_rate`` offers/bin that jumps to ``loud_rate``."""
    config = MonitorConfig(
        bin_width=1.0, warmup_bins=0, baseline_bins=4, **overrides
    )
    monitor = TrafficMonitor(config)
    for b in range(quiet_bins):
        for k in range(quiet_rate):
            observe(monitor, 7, b + k / (quiet_rate + 1), True)
    for b in range(quiet_bins, quiet_bins + loud_bins):
        for k in range(loud_rate):
            observe(monitor, 7, b + k / (loud_rate + 1), k % 2 == 0)
    return monitor


class TestBinning:
    def test_snapshot_counts(self):
        monitor = TrafficMonitor(MonitorConfig(bin_width=0.5))
        observe(monitor, 1, 0.1, True)
        observe(monitor, 1, 0.4, False)
        observe(monitor, 1, 0.6, True)
        observe(monitor, 2, 1.9, False)
        snap = monitor.snapshot()
        assert snap[1] == {0: (2, 1), 1: (1, 0)}
        assert snap[2] == {3: (1, 1)}
        assert monitor.nodes() == [1, 2]
        assert monitor.last_bin() == 3
        assert monitor.observations == 4

    def test_series_spans_global_horizon(self):
        monitor = TrafficMonitor(MonitorConfig(bin_width=1.0))
        observe(monitor, 1, 0.5, True)
        observe(monitor, 2, 5.5, True)
        assert monitor.series(1).tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]

    def test_negative_time_rejected(self):
        monitor = TrafficMonitor(MonitorConfig())
        observe(monitor, 1, -0.5, True)
        with pytest.raises(DetectionError):
            monitor.snapshot()

    def test_misaligned_batch_rejected(self):
        monitor = TrafficMonitor(MonitorConfig())
        with pytest.raises(DetectionError):
            monitor.observe_batch(
                np.array([1, 2]), np.array([0.1]), np.array([True])
            )


class TestDetection:
    def test_cusum_flags_step_promptly(self):
        monitor = step_monitor()
        bin_index = monitor.detection_bin(7)
        assert bin_index is not None
        assert 10 <= bin_index <= 11
        assert monitor.detection_time(7) == (bin_index + 1) * 1.0
        assert monitor.flagged_nodes() == [7]

    def test_quiet_node_not_flagged(self):
        monitor = step_monitor(loud_rate=5)
        assert monitor.detection_bin(7) is None
        assert monitor.flagged_nodes() == []

    def test_ewma_also_detects(self):
        monitor = step_monitor(method="ewma", threshold=3.0)
        assert monitor.detection_bin(7) is not None

    def test_now_truncates_evidence(self):
        monitor = step_monitor()
        assert monitor.detection_bin(7, now=9.0) is None
        assert monitor.detection_bin(7, now=20.0) is not None

    def test_detection_monotone_in_threshold(self):
        monitor = step_monitor()
        import dataclasses

        bins = []
        for threshold in (1.0, 4.0, 16.0, 64.0, 256.0, 4096.0):
            tuned = dataclasses.replace(monitor.config, threshold=threshold)
            found = monitor.detection_bin(7, config=tuned)
            bins.append(float("inf") if found is None else found)
        assert bins == sorted(bins)
        assert bins[-1] == float("inf")

    def test_short_series_never_flags(self):
        monitor = TrafficMonitor(MonitorConfig(baseline_bins=4))
        observe(monitor, 1, 0.2, True)
        assert monitor.detection_bin(1) is None


class TestScalarBatchParity:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.floats(
                    min_value=0.0,
                    max_value=30.0,
                    allow_nan=False,
                    exclude_max=True,
                ),
                st.booleans(),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_batch_equals_scalar(self, events):
        config = MonitorConfig(bin_width=0.7)
        scalar = TrafficMonitor(config)
        batch = TrafficMonitor(config)
        for node, time, ok in events:
            observe(scalar, node, time, ok)
        batch.observe_batch(
            np.array([e[0] for e in events], dtype=np.int64),
            np.array([e[1] for e in events], dtype=np.float64),
            np.array([e[2] for e in events], dtype=np.bool_),
        )
        assert scalar.snapshot() == batch.snapshot()
        assert scalar.flagged_nodes() == batch.flagged_nodes()

    def test_interleaved_batches_order_insensitive(self):
        config = MonitorConfig(bin_width=0.5)
        forward = TrafficMonitor(config)
        backward = TrafficMonitor(config)
        events = [(i % 3, 0.1 * i, i % 4 != 0) for i in range(50)]
        for node, time, ok in events:
            observe(forward, node, time, ok)
        for node, time, ok in reversed(events):
            observe(backward, node, time, ok)
        assert forward.snapshot() == backward.snapshot()


class TestBatchedBaselines:
    """``detection_bins`` builds every series in one scatter and every
    baseline in one ``axis=1`` pass; both must equal the per-node path."""

    @pytest.mark.parametrize("kind", ["poisson", "uniform", "normal-1e6"])
    def test_axis_statistics_equal_row_statistics(self, kind):
        # The batched baselines rely on this numpy property: an axis=1
        # mean or std of a column slice equals each row's own 1-D mean
        # or std, bit for bit.
        rng = np.random.default_rng(["poisson", "uniform", "normal-1e6"].index(kind))
        for _ in range(200):
            rows = int(rng.integers(1, 61))
            width = int(rng.integers(1, 401))
            lo = int(rng.integers(0, 5))
            shape = (rows, lo + width + int(rng.integers(0, 5)))
            if kind == "poisson":
                full = rng.poisson(rng.uniform(0.0, 50.0), size=shape).astype(float)
            elif kind == "uniform":
                full = rng.uniform(0.0, 100.0, size=shape)
            else:
                full = rng.normal(1e6, 1e6, size=shape)
            block = full[:, lo:lo + width]
            means, stds = block.mean(axis=1), block.std(axis=1)
            for row in range(rows):
                assert means[row].tobytes() == np.float64(block[row].mean()).tobytes()
                assert stds[row].tobytes() == np.float64(block[row].std()).tobytes()

    @pytest.mark.parametrize("method", ["cusum", "ewma"])
    def test_duplicate_and_absent_ids(self, method):
        config = MonitorConfig(
            bin_width=1.0, baseline_bins=4, method=method,
            threshold=8.0 if method == "cusum" else 2.0,
        )
        monitor = TrafficMonitor(config)
        rng = np.random.default_rng(5)
        nodes = rng.integers(0, 12, size=3000)
        times = rng.uniform(0.0, 30.0, size=3000)
        # Nodes 0-3 step up in the second half: some flags fire.
        loud = (nodes < 4) & (times > 15.0)
        nodes = np.concatenate([nodes, np.repeat(nodes[loud], 4)])
        times = np.concatenate([times, np.repeat(times[loud], 4)])
        monitor.observe_batch(nodes, times, np.ones(len(nodes), dtype=bool))
        wanted = [3, 99, 3, 0, 7, 7, 50, 11]  # repeats; 99 and 50 unseen
        expected = scalar_detection_bins(monitor, node_ids=wanted)
        assert expected[99] is None and expected[50] is None
        assert any(value is not None for value in expected.values())
        assert monitor.detection_bins(wanted) == expected
        matrix = monitor._series_matrix(wanted, monitor.last_bin())
        for row, node_id in enumerate(wanted):
            np.testing.assert_array_equal(
                matrix[row], monitor.series(node_id, monitor.last_bin())
            )
        assert monitor.detection_bins() == scalar_detection_bins(monitor)

    def test_empty_monitor(self):
        monitor = TrafficMonitor(MonitorConfig(bin_width=1.0))
        assert monitor.detection_bins() == {}
        assert monitor.detection_bins([4, 4, 9]) == {4: None, 9: None}
        assert monitor.flagged_nodes() == []
        assert monitor._series_matrix([4, 4], 5).tolist() == [[0.0] * 6] * 2

"""Online congestion detection from the packet stream itself.

The resilience subsystem's :class:`~repro.resilience.detector.FailureDetector`
observes node *health* — an oracle bit the packet level never exposes. A
real SOS operator only sees traffic: how many packets each overlay node
was offered and how many it dropped. :class:`TrafficMonitor` is that
operator's view. The packet engine feeds it the per-node offer stream
(accept/drop results of every token-bucket offer), it folds the
stream into fixed-width time bins, and classical change-point statistics
over the binned load — EWMA with an adaptive baseline, or a one-sided
CUSUM — flag the nodes whose offered load jumped, with **no access to
attacker state**.

Design constraints, in order:

1. **Order-insensitive state.** The engine observes offers in
   per-layer batches, not in global time order. Monitor state is
   therefore pure per-bin *counts* — integer sums commute — so any
   batching of the same offers yields a bit-identical monitor (the
   event-driven oracle feeds one batch per run; see
   ``tests/detection/test_equivalence.py``).
2. **Off the hot path.** ``observe_batch`` only appends to buffers;
   binning and the change-point scans run lazily at the first
   statistics query. Attaching a monitor must not erode the engine's
   throughput (``benchmarks/bench_detection.py`` bounds the
   overhead).
3. **Determinism.** Detection is a pure function of the binned counts
   and the :class:`MonitorConfig`; no RNG stream is consumed, so an
   attached monitor cannot perturb any simulation output.

The detector math is documented in ``docs/DETECTION.md``.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import DetectionError

__all__ = ["MonitorConfig", "TrafficMonitor"]

#: Per-node bin indices are packed next to node ids in one int64 code;
#: runs longer than this many bins per node would overflow the packing.
_BIN_STRIDE = 1 << 20

_METHODS = ("cusum", "ewma")


@dataclasses.dataclass(frozen=True)
class MonitorConfig:
    """Tuning of the traffic monitor's change-point detection.

    Attributes
    ----------
    bin_width:
        Width (simulation time units) of the counting bins.
    method:
        ``"cusum"`` (default) or ``"ewma"``.
    threshold:
        Decision threshold ``h`` in baseline-sigma units: the CUSUM
        statistic (or the EWMA's excursion above the baseline) must
        exceed it to flag the node. Larger = fewer false positives,
        longer detection latency — exactly monotone in both directions.
    drift:
        CUSUM slack ``k`` (sigma units) subtracted from every
        standardized deviation; absorbs benign load fluctuation.
    ewma_alpha:
        Smoothing factor of the EWMA statistic.
    warmup_bins:
        Leading bins ignored entirely (e.g. the simulation warmup where
        clients are silent).
    baseline_bins:
        Bins immediately after the warmup used to estimate the per-node
        baseline mean and sigma. Detection only scans later bins.
    min_sigma:
        Floor on the baseline sigma (quiet nodes would otherwise divide
        by ~0); the Poisson floor ``sqrt(mean)`` is applied as well.
    """

    bin_width: float = 0.5
    method: str = "cusum"
    threshold: float = 8.0
    drift: float = 0.5
    ewma_alpha: float = 0.2
    warmup_bins: int = 0
    baseline_bins: int = 4
    min_sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.bin_width <= 0:
            raise DetectionError(
                f"bin_width must be > 0, got {self.bin_width}"
            )
        if self.method not in _METHODS:
            raise DetectionError(
                f"method must be one of {_METHODS}, got {self.method!r}"
            )
        if self.threshold <= 0:
            raise DetectionError(
                f"threshold must be > 0, got {self.threshold}"
            )
        if self.drift < 0:
            raise DetectionError(f"drift must be >= 0, got {self.drift}")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise DetectionError(
                f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}"
            )
        if self.warmup_bins < 0:
            raise DetectionError(
                f"warmup_bins must be >= 0, got {self.warmup_bins}"
            )
        if self.baseline_bins < 1:
            raise DetectionError(
                f"baseline_bins must be >= 1, got {self.baseline_bins}"
            )
        if self.min_sigma <= 0:
            raise DetectionError(
                f"min_sigma must be > 0, got {self.min_sigma}"
            )


def _detection_bin(
    series: npt.NDArray[np.float64], config: MonitorConfig
) -> Optional[int]:
    """First bin index at which the statistic crosses the threshold.

    ``series`` is the full offered-count-per-bin array from bin 0. The
    scan starts after the warmup and baseline windows; returns ``None``
    when the statistic never crosses. For a fixed series the result is
    exactly monotone in ``threshold``: the CUSUM/EWMA trajectory does
    not depend on it, so a larger threshold can only be crossed later
    (or never).
    """
    start = config.warmup_bins
    base_end = start + config.baseline_bins
    if len(series) <= base_end:
        return None
    baseline = series[start:base_end]
    mean = float(baseline.mean())
    sigma = max(
        float(baseline.std()), math.sqrt(max(mean, 0.0)), config.min_sigma
    )
    if config.method == "cusum":
        statistic = 0.0
        for index in range(base_end, len(series)):
            deviation = (float(series[index]) - mean) / sigma
            statistic = max(0.0, statistic + deviation - config.drift)
            if statistic > config.threshold:
                return index
        return None
    smoothed = mean
    for index in range(base_end, len(series)):
        smoothed = (
            config.ewma_alpha * float(series[index])
            + (1.0 - config.ewma_alpha) * smoothed
        )
        if (smoothed - mean) / sigma > config.threshold:
            return index
    return None


def _detect_bins(
    series: npt.NDArray[np.float64],
    means: npt.NDArray[np.float64],
    sigmas: npt.NDArray[np.float64],
    base_end: int,
    method: str,
    threshold: float,
    drift: float,
    alpha: float,
) -> npt.NDArray[np.int64]:
    """First-crossing bin per series row (-1 = never), all rows at once.

    ``series`` rows share one horizon; ``means``/``sigmas`` are the
    per-row baseline statistics. The recursion runs bin by bin over a
    *vector* of per-node statistics; each element performs the exact
    float operations of the per-node :func:`_detection_bin` loop in the
    same order, so crossings are bit-identical to the per-node scan.
    """
    rows, bins = series.shape
    out = np.full(rows, -1, dtype=np.int64)
    if bins <= base_end:
        return out
    pending = np.ones(rows, dtype=bool)
    if method == "cusum":
        statistic = np.zeros(rows, dtype=np.float64)
        for index in range(base_end, bins):
            deviation = (series[:, index] - means) / sigmas
            statistic = np.maximum(0.0, (statistic + deviation) - drift)
            crossed = pending & (statistic > threshold)
            out[crossed] = index
            pending &= ~crossed
            if not bool(pending.any()):
                break
        return out
    smoothed = means.copy()
    for index in range(base_end, bins):
        smoothed = alpha * series[:, index] + (1.0 - alpha) * smoothed
        crossed = pending & ((smoothed - means) / sigmas > threshold)
        out[crossed] = index
        pending &= ~crossed
        if not bool(pending.any()):
            break
    return out


class TrafficMonitor:
    """Per-node binned traffic counters with change-point detection.

    Attach one instance to a single simulation run; the engine calls
    :meth:`observe_batch` with every token-bucket offer. All statistics
    queries aggregate lazily.
    """

    def __init__(self, config: MonitorConfig = MonitorConfig()) -> None:
        self.config = config
        # Columnar counter state: sorted packed ``node * STRIDE + bin``
        # codes with aligned offered/dropped tallies. Integer sums only,
        # so drain order cannot change the counters.
        self._codes: npt.NDArray[np.int64] = np.empty(0, dtype=np.int64)
        self._offered: npt.NDArray[np.int64] = np.empty(0, dtype=np.int64)
        self._dropped: npt.NDArray[np.int64] = np.empty(0, dtype=np.int64)
        self._last_bin: int = -1
        self.observations: int = 0
        # Append-only buffers drained into the columns on the next query.
        self._buffer_nodes: List[npt.NDArray[np.int64]] = []
        self._buffer_times: List[npt.NDArray[np.float64]] = []
        self._buffer_accepted: List[npt.NDArray[np.bool_]] = []

    # ------------------------------------------------------------------
    # Observation (hot path: append only)
    # ------------------------------------------------------------------
    def observe_batch(
        self,
        node_ids: npt.NDArray[np.int64],
        times: npt.NDArray[np.float64],
        accepted: npt.NDArray[np.bool_],
    ) -> None:
        """Record a batch of offers: node ids, times, accepted flags."""
        if not (len(node_ids) == len(times) == len(accepted)):
            raise DetectionError("observe_batch arrays must align")
        if len(node_ids) == 0:
            return
        self._buffer_nodes.append(np.asarray(node_ids, dtype=np.int64))
        self._buffer_times.append(np.asarray(times, dtype=np.float64))
        self._buffer_accepted.append(np.asarray(accepted, dtype=np.bool_))
        self.observations += int(len(node_ids))

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Fold every buffered batch into the per-bin counters.

        Every batch goes through the same binning arithmetic
        (``int64(time / bin_width)``) and integer sums, so how offers
        are split into batches, and in which order, cannot change the
        counters.
        """
        if not self._buffer_nodes:
            return
        nodes = np.concatenate(self._buffer_nodes)
        times = np.concatenate(self._buffer_times)
        accepted = np.concatenate(self._buffer_accepted)
        self._buffer_nodes = []
        self._buffer_times = []
        self._buffer_accepted = []
        bins = (times / self.config.bin_width).astype(np.int64)
        if bool((bins < 0).any()):
            raise DetectionError("observation times must be >= 0")
        if bool((bins >= _BIN_STRIDE).any()):
            raise DetectionError(
                f"run spans more than {_BIN_STRIDE} bins; increase bin_width"
            )
        codes = nodes * _BIN_STRIDE + bins
        # Merge the batch into the sorted columns with one unique pass —
        # no per-(node, bin) Python loop, so draining a million offers
        # over a million nodes stays a few vector operations.
        merged = np.concatenate([self._codes, codes])
        add_offered = np.concatenate(
            [self._offered, np.ones(len(codes), dtype=np.int64)]
        )
        add_dropped = np.concatenate(
            [self._dropped, (~accepted).astype(np.int64)]
        )
        unique, inverse = np.unique(merged, return_inverse=True)
        offered = np.zeros(len(unique), dtype=np.int64)
        dropped = np.zeros(len(unique), dtype=np.int64)
        np.add.at(offered, inverse, add_offered)
        np.add.at(dropped, inverse, add_dropped)
        self._codes = unique
        self._offered = offered
        self._dropped = dropped
        self._last_bin = max(self._last_bin, int(bins.max()))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _node_slice(self, node_id: int) -> Tuple[int, int]:
        """Column range ``[lo, hi)`` of ``node_id``'s packed codes."""
        lo = int(np.searchsorted(self._codes, node_id * _BIN_STRIDE))
        hi = int(np.searchsorted(self._codes, (node_id + 1) * _BIN_STRIDE))
        return lo, hi

    def nodes(self) -> List[int]:
        """Sorted ids of every node that was offered at least one packet."""
        self._drain()
        return np.unique(self._codes // _BIN_STRIDE).tolist()

    def snapshot(self) -> Dict[int, Dict[int, Tuple[int, int]]]:
        """``{node: {bin: (offered, dropped)}}`` — the full counter state."""
        self._drain()
        result: Dict[int, Dict[int, Tuple[int, int]]] = {}
        node_ids = (self._codes // _BIN_STRIDE).tolist()
        bin_ids = (self._codes % _BIN_STRIDE).tolist()
        for node_id, bin_index, offered, dropped in zip(
            node_ids, bin_ids, self._offered.tolist(), self._dropped.tolist()
        ):
            result.setdefault(node_id, {})[bin_index] = (offered, dropped)
        return result

    def last_bin(self) -> int:
        """Highest bin index observed so far (-1 when empty)."""
        self._drain()
        return self._last_bin

    def series(
        self, node_id: int, through_bin: Optional[int] = None
    ) -> npt.NDArray[np.float64]:
        """Offered-count-per-bin array for ``node_id`` from bin 0.

        Bins in which the node saw no traffic are zeros; the array runs
        through ``through_bin`` (inclusive; default: the monitor-wide
        last observed bin), so every node's series spans the same
        horizon regardless of when its traffic stopped.
        """
        self._drain()
        horizon = self._last_bin if through_bin is None else through_bin
        values = np.zeros(max(horizon + 1, 0), dtype=np.float64)
        lo, hi = self._node_slice(node_id)
        bins = self._codes[lo:hi] % _BIN_STRIDE
        keep = bins <= horizon
        values[bins[keep]] = self._offered[lo:hi][keep].astype(np.float64)
        return values

    def _series_matrix(
        self, node_ids: Sequence[int], through: int
    ) -> npt.NDArray[np.float64]:
        """Stacked :meth:`series` rows over one shared horizon.

        Row ``r`` is bit-identical to ``series(node_ids[r], through)``:
        one scatter of the packed counters fills a row per distinct id
        (an id never observed keeps its zero row), and one gather
        repeats rows for duplicate ids. The matrix is C-contiguous, and
        an ``axis=1`` mean or std of a row slice equals the standalone
        1-D array's bit for bit, so batched baselines match the per-node
        oracle's.
        """
        wanted, inverse = np.unique(
            np.asarray(node_ids, dtype=np.int64), return_inverse=True
        )
        matrix = np.zeros((len(wanted), max(through + 1, 0)), dtype=np.float64)
        if len(wanted) and len(self._codes):
            nodes = self._codes // _BIN_STRIDE
            bins = self._codes % _BIN_STRIDE
            row = np.minimum(np.searchsorted(wanted, nodes), len(wanted) - 1)
            keep = (wanted[row] == nodes) & (bins <= through)
            matrix[row[keep], bins[keep]] = (
                self._offered[keep].astype(np.float64)
            )
        return matrix[inverse.reshape(-1)]

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------
    def _resolved(self, config: Optional[MonitorConfig]) -> MonitorConfig:
        return self.config if config is None else config

    def detection_bin(
        self,
        node_id: int,
        now: Optional[float] = None,
        config: Optional[MonitorConfig] = None,
    ) -> Optional[int]:
        """Bin at which ``node_id`` was flagged (None = never).

        ``now`` truncates the evidence to complete bins before it;
        ``config`` evaluates the same counters under different detector
        settings (threshold sweeps re-use one run's evidence).
        """
        resolved = self._resolved(config)
        through = self.last_bin()
        if now is not None:
            through = min(through, int(now / resolved.bin_width) - 1)
        if through < 0:
            return None
        return _detection_bin(self.series(node_id, through), resolved)

    def detection_time(
        self,
        node_id: int,
        now: Optional[float] = None,
        config: Optional[MonitorConfig] = None,
    ) -> Optional[float]:
        """End time of the flagging bin (None = never flagged)."""
        bin_index = self.detection_bin(node_id, now=now, config=config)
        if bin_index is None:
            return None
        return (bin_index + 1) * self._resolved(config).bin_width

    def detection_bins(
        self,
        node_ids: Optional[Iterable[int]] = None,
        now: Optional[float] = None,
        config: Optional[MonitorConfig] = None,
    ) -> Dict[int, Optional[int]]:
        """Flagging bin per node (None = never) for many nodes at once.

        The multi-node twin of :meth:`detection_bin`: every node's
        series is stacked into one matrix (:meth:`_series_matrix`), the
        baselines are one ``axis=1`` mean and std over its baseline
        columns, and all CUSUM/EWMA recursions are scanned together
        (:func:`_detect_bins`) — element for element the arithmetic of
        the per-node loop, so results are identical. Ids may repeat or
        name nodes that were never observed (their series is all zeros).
        """
        resolved = self._resolved(config)
        ids = self.nodes() if node_ids is None else list(node_ids)
        result: Dict[int, Optional[int]] = {
            node_id: None for node_id in ids
        }
        through = self.last_bin()
        if now is not None:
            through = min(through, int(now / resolved.bin_width) - 1)
        if through < 0 or not ids:
            return result
        start = resolved.warmup_bins
        base_end = start + resolved.baseline_bins
        if through + 1 <= base_end:
            return result
        matrix = self._series_matrix(ids, through)
        baselines = matrix[:, start:base_end]
        means = baselines.mean(axis=1)
        sigmas = np.maximum(
            np.maximum(baselines.std(axis=1), np.sqrt(np.maximum(means, 0.0))),
            resolved.min_sigma,
        )
        crossings = _detect_bins(
            matrix,
            means,
            sigmas,
            base_end,
            resolved.method,
            resolved.threshold,
            resolved.drift,
            resolved.ewma_alpha,
        )
        for row, node_id in enumerate(ids):
            crossed = int(crossings[row])
            result[node_id] = crossed if crossed >= 0 else None
        return result

    def flagged_nodes(
        self,
        now: Optional[float] = None,
        config: Optional[MonitorConfig] = None,
    ) -> List[int]:
        """Sorted ids of every node the detector flags on current evidence."""
        return [
            node_id
            for node_id, bin_index in self.detection_bins(
                now=now, config=config
            ).items()
            if bin_index is not None
        ]

"""Tests for the FigureResult container and shape helpers."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.result import (
    Claim,
    FigureResult,
    dominates,
    non_decreasing,
    non_increasing,
)


def make_result(**kwargs):
    defaults = dict(
        figure_id="figX",
        title="Test figure",
        x_label="L",
        x_values=[1, 2, 3],
        series={"a": [0.1, 0.2, 0.3], "b": [0.3, 0.2, 0.1]},
    )
    defaults.update(kwargs)
    return FigureResult(**defaults)


class TestFigureResult:
    def test_rows_align_series(self):
        result = make_result()
        assert result.rows() == [[1, 0.1, 0.3], [2, 0.2, 0.2], [3, 0.3, 0.1]]
        assert result.headers() == ["L", "a", "b"]

    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ExperimentError, match="points"):
            make_result(series={"a": [0.1]})

    def test_empty_x_rejected(self):
        with pytest.raises(ExperimentError, match="empty"):
            make_result(x_values=[])

    def test_claim_bookkeeping(self):
        result = make_result(
            claims=[Claim("good", True), Claim("bad", False)]
        )
        assert [c.description for c in result.failed_claims()] == ["bad"]

    def test_all_claims_hold_when_empty(self):
        assert make_result().failed_claims() == []


class TestShapeHelpers:
    def test_non_increasing(self):
        assert non_increasing([3, 2, 2, 1])
        assert not non_increasing([1, 2])
        assert non_increasing([1.0, 1.0 + 1e-12])  # within slack

    def test_non_decreasing(self):
        assert non_decreasing([1, 2, 2, 3])
        assert not non_decreasing([2, 1])

    def test_dominates(self):
        assert dominates([1, 1], [0, 1])
        assert not dominates([1, 0], [0, 1])

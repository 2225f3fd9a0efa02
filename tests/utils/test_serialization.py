"""Tests for JSON result serialization."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.result import Claim, FigureResult
from repro.utils.serialization import (
    figure_result_from_dict,
    figure_result_to_dict,
    load_results,
    save_results,
)


@pytest.fixture
def result():
    return FigureResult(
        figure_id="figX",
        title="Sample",
        x_label="L",
        x_values=[1, 2, 3],
        series={"a": [0.1, 0.2, 0.3]},
        claims=[Claim("c1", True), Claim("c2", False)],
        notes="note",
    )


class TestFigureResultRoundTrip:
    def test_round_trip_preserves_everything(self, result):
        rebuilt = figure_result_from_dict(figure_result_to_dict(result))
        assert rebuilt.figure_id == result.figure_id
        assert rebuilt.title == result.title
        assert list(rebuilt.x_values) == list(result.x_values)
        assert rebuilt.series == result.series
        assert rebuilt.claims == result.claims
        assert rebuilt.notes == result.notes

    def test_dict_is_json_safe(self, result):
        json.dumps(figure_result_to_dict(result))

    def test_wrong_schema_rejected(self):
        with pytest.raises(ExperimentError, match="schema"):
            figure_result_from_dict({"schema": "something.else"})


class TestFiles:
    def test_save_and_load(self, tmp_path, result):
        path = tmp_path / "results.json"
        save_results([result, result], path)
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0].figure_id == "figX"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ExperimentError, match="cannot load"):
            load_results(tmp_path / "absent.json")

    def test_load_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(ExperimentError):
            load_results(path)

    def test_load_non_list(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text("{}")
        with pytest.raises(ExperimentError, match="result list"):
            load_results(path)

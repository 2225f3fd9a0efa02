"""JSON round-tripping for experiment results.

Experiment campaigns run long; these helpers persist
:class:`~repro.experiments.result.FigureResult` objects to disk so sweeps
can be resumed, diffed across revisions, or post-processed elsewhere. All
output is plain JSON (no pickles) so results remain readable forever.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Union

from repro.errors import ExperimentError
from repro.experiments.result import Claim, FigureResult

PathLike = Union[str, Path]

_SCHEMA_FIGURE = "repro.figure_result.v1"


def figure_result_to_dict(result: FigureResult) -> Dict[str, Any]:
    """Convert a FigureResult into a JSON-safe dictionary."""
    return {
        "schema": _SCHEMA_FIGURE,
        "figure_id": result.figure_id,
        "title": result.title,
        "x_label": result.x_label,
        "x_values": list(result.x_values),
        "series": {name: list(values) for name, values in result.series.items()},
        "claims": [
            {"description": claim.description, "holds": claim.holds}
            for claim in result.claims
        ],
        "notes": result.notes,
    }


def figure_result_from_dict(data: Dict[str, Any]) -> FigureResult:
    """Rebuild a FigureResult; validates the schema tag."""
    if data.get("schema") != _SCHEMA_FIGURE:
        raise ExperimentError(
            f"not a serialized FigureResult (schema={data.get('schema')!r})"
        )
    return FigureResult(
        figure_id=data["figure_id"],
        title=data["title"],
        x_label=data["x_label"],
        x_values=data["x_values"],
        series=data["series"],
        claims=[
            Claim(description=c["description"], holds=bool(c["holds"]))
            for c in data.get("claims", [])
        ],
        notes=data.get("notes", ""),
    )


def save_results(results: Sequence[FigureResult], path: PathLike) -> None:
    """Write a list of FigureResults to ``path`` as a JSON document."""
    payload = [figure_result_to_dict(result) for result in results]
    Path(path).write_text(json.dumps(payload, indent=2), encoding="utf-8")


def load_results(path: PathLike) -> List[FigureResult]:
    """Read FigureResults back from :func:`save_results` output."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"cannot load results from {path}: {exc}") from exc
    if not isinstance(payload, list):
        raise ExperimentError(f"{path} does not contain a result list")
    return [figure_result_from_dict(entry) for entry in payload]

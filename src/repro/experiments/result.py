"""Result container shared by every reproduced figure.

A :class:`FigureResult` holds the same rows/series the paper's figure
plots, plus a list of :class:`Claim` objects — machine-checked versions of
the qualitative statements the paper makes about that figure ("P_S
decreases with L", "one-to-all collapses under break-in", ...). The
experiment runner prints PASS/FAIL per claim; the test suite asserts them.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence

from repro.errors import ExperimentError


@dataclasses.dataclass(frozen=True)
class Claim:
    """One machine-checked qualitative claim from the paper."""

    description: str
    holds: bool


@dataclasses.dataclass(frozen=True)
class FigureResult:
    """Reproduced data for one paper figure."""

    figure_id: str
    title: str
    x_label: str
    x_values: Sequence[float]
    series: Dict[str, List[float]]
    claims: List[Claim] = dataclasses.field(default_factory=list)
    notes: str = ""
    #: Degraded-coverage or data-quality warnings (e.g. isolated trial
    #: failures); rendered prominently but not fatal like a failed claim.
    warnings: List[str] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.x_values:
            raise ExperimentError(f"{self.figure_id}: empty x axis")
        for name, values in self.series.items():
            if len(values) != len(self.x_values):
                raise ExperimentError(
                    f"{self.figure_id}: series {name!r} has {len(values)} "
                    f"points, expected {len(self.x_values)}"
                )

    def failed_claims(self) -> List[Claim]:
        return [claim for claim in self.claims if not claim.holds]

    def rows(self) -> List[List[object]]:
        """Table rows: one per x value, one column per series."""
        return [
            [x] + [self.series[name][i] for name in self.series]
            for i, x in enumerate(self.x_values)
        ]

    def headers(self) -> List[str]:
        return [self.x_label] + list(self.series)


def non_increasing(values: Sequence[float], slack: float = 1e-9) -> bool:
    """True when the sequence never rises by more than ``slack``."""
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def non_decreasing(values: Sequence[float], slack: float = 1e-9) -> bool:
    return all(b >= a - slack for a, b in zip(values, values[1:]))


def dominates(upper: Sequence[float], lower: Sequence[float], slack: float = 1e-9) -> bool:
    """True when ``upper[i] >= lower[i]`` everywhere (within slack)."""
    return all(u >= l - slack for u, l in zip(upper, lower))

"""Programmable parameter sweeps over the analytical model.

The per-figure modules hard-code the paper's exact grids; this module is
the general tool users reach for afterwards ("what if *my* attacker runs
five rounds and knows half the first layer?"):

* :func:`attack_sweep` — vary one attack parameter, everything else fixed;
* :func:`architecture_sweep` — vary one design feature;
* :func:`grid_sweep` — full cross of one attack and one design parameter,
  returned as a :class:`SweepGrid` with row/column views and an ASCII
  heat table.

All sweeps evaluate the analytical model, whole grids at once through
the batch kernel (:mod:`repro.perf.batch`), which is an order of
magnitude faster on large grids than a per-point :func:`evaluate` loop
and agrees with it to within 1e-12 (``tests/perf``). Monte Carlo
validation of chosen points is a separate step.
"""

from __future__ import annotations

import dataclasses
from typing import Any, List, Sequence, Tuple, Union

from repro.core.architecture import SOSArchitecture
from repro.core.attack_models import OneBurstAttack, SuccessiveAttack
from repro.errors import ConfigurationError, ExperimentError
from repro.perf.batch import evaluate_batch

Attack = Union[OneBurstAttack, SuccessiveAttack]


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """One-dimensional sweep outcome."""

    parameter: str
    values: Tuple[Any, ...]
    p_s: Tuple[float, ...]

    def argmax(self) -> Any:
        """The swept value with the highest ``P_S``."""
        return self.values[self.p_s.index(max(self.p_s))]


@dataclasses.dataclass(frozen=True)
class SweepGrid:
    """Two-dimensional sweep outcome (rows x columns)."""

    row_parameter: str
    row_values: Tuple[Any, ...]
    column_parameter: str
    column_values: Tuple[Any, ...]
    p_s: Tuple[Tuple[float, ...], ...]  # p_s[row][column]

    def row(self, value: Any) -> SweepResult:
        index = self.row_values.index(value)
        return SweepResult(
            parameter=self.column_parameter,
            values=self.column_values,
            p_s=self.p_s[index],
        )

    def column(self, value: Any) -> SweepResult:
        index = self.column_values.index(value)
        return SweepResult(
            parameter=self.row_parameter,
            values=self.row_values,
            p_s=tuple(row[index] for row in self.p_s),
        )


def _replace(instance, parameter: str, value):
    if not any(
        field.name == parameter for field in dataclasses.fields(instance)
    ):
        names = ", ".join(
            field.name
            for field in dataclasses.fields(instance)
            if field.init
        )
        raise ConfigurationError(
            f"{type(instance).__name__} has no parameter {parameter!r}; "
            f"choose from: {names}"
        )
    return dataclasses.replace(instance, **{parameter: value})


def _evaluate_points(
    architectures: List[SOSArchitecture], attacks: List[Attack]
) -> List[float]:
    """Evaluate paired points in one batch."""
    return [float(value) for value in evaluate_batch(architectures, attacks)]


def attack_sweep(
    architecture: SOSArchitecture,
    base_attack: Attack,
    parameter: str,
    values: Sequence[Any],
) -> SweepResult:
    """Sweep one attack parameter against a fixed architecture.

    Examples
    --------
    >>> from repro.core import SOSArchitecture, SuccessiveAttack
    >>> result = attack_sweep(SOSArchitecture(layers=4, mapping="one-to-two"),
    ...                       SuccessiveAttack(), "rounds", [1, 2, 3])
    >>> result.p_s[0] >= result.p_s[-1]
    True
    """
    if not values:
        raise ExperimentError("values must be non-empty")
    attacks = [_replace(base_attack, parameter, value) for value in values]
    outcomes = _evaluate_points([architecture] * len(attacks), attacks)
    return SweepResult(
        parameter=parameter, values=tuple(values), p_s=tuple(outcomes)
    )


def architecture_sweep(
    base_architecture: SOSArchitecture,
    attack: Attack,
    parameter: str,
    values: Sequence[Any],
) -> SweepResult:
    """Sweep one design feature against a fixed attack.

    Infeasible design points (e.g. too many layers for the node count)
    raise; filter them beforehand or catch ``ConfigurationError``.
    """
    if not values:
        raise ExperimentError("values must be non-empty")
    designs = [
        _replace(base_architecture, parameter, value) for value in values
    ]
    outcomes = _evaluate_points(designs, [attack] * len(designs))
    return SweepResult(
        parameter=parameter, values=tuple(values), p_s=tuple(outcomes)
    )


def grid_sweep(
    base_architecture: SOSArchitecture,
    base_attack: Attack,
    architecture_parameter: str,
    architecture_values: Sequence[Any],
    attack_parameter: str,
    attack_values: Sequence[Any],
) -> SweepGrid:
    """Full cross of one design feature and one attack parameter.

    The full grid is evaluated in one batch; on grids of a thousand
    points and up that is typically >= 5x faster than a per-point
    :func:`~repro.core.model.evaluate` loop (``benchmarks/bench_batch.py``).
    """
    if not architecture_values or not attack_values:
        raise ExperimentError("both value lists must be non-empty")
    designs = [
        _replace(base_architecture, architecture_parameter, value)
        for value in architecture_values
    ]
    attacks = [
        _replace(base_attack, attack_parameter, value)
        for value in attack_values
    ]
    flat_designs: List[SOSArchitecture] = []
    flat_attacks: List[Attack] = []
    for design in designs:
        for attack in attacks:
            flat_designs.append(design)
            flat_attacks.append(attack)
    outcomes = _evaluate_points(flat_designs, flat_attacks)
    columns = len(attacks)
    rows: List[Tuple[float, ...]] = [
        tuple(outcomes[start : start + columns])
        for start in range(0, len(outcomes), columns)
    ]
    return SweepGrid(
        row_parameter=architecture_parameter,
        row_values=tuple(architecture_values),
        column_parameter=attack_parameter,
        column_values=tuple(attack_values),
        p_s=tuple(rows),
    )

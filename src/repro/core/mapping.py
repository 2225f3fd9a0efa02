"""Mapping-degree policies: how many next-layer neighbors each node knows.

The paper's *mapping degree* ``m_i`` is the number of neighbors a node in
Layer ``i-1`` has in Layer ``i``. Its evaluation uses five named policies:

* **one-to-one** — each node knows exactly 1 next-layer node;
* **one-to-two** / **one-to-five** — each node knows 2 / 5 next-layer nodes;
* **one-to-half** — each node knows half of the next layer;
* **one-to-all** — each node knows the entire next layer (the original SOS
  assumption).

A policy resolves to a concrete integer ``m_i`` given the next layer's size
``n_i``; the result is always clamped into ``[1, n_i]`` (a node must know at
least one next hop, and cannot know more nodes than exist).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Union

from repro.contracts import requires_fraction
from repro.errors import ConfigurationError
from repro.utils.validation import check_fraction, check_positive_int


@dataclasses.dataclass(frozen=True)
class MappingPolicy:
    """Base class for mapping-degree policies.

    Subclasses implement :meth:`degree_for`, resolving the mapping degree
    toward a layer of a given size.
    """

    def degree_for(self, next_layer_size: float) -> int:
        """Return the integer mapping degree toward a layer of this size."""
        raise NotImplementedError

    @property
    def label(self) -> str:
        """Human-readable name used in experiment tables and legends."""
        raise NotImplementedError

    @staticmethod
    def _clamp(degree: int, next_layer_size: float) -> int:
        if next_layer_size < 1:
            raise ConfigurationError(
                f"next layer must hold at least one node, got {next_layer_size!r}"
            )
        capacity = max(1, math.floor(next_layer_size))
        return min(capacity, max(1, degree))


@dataclasses.dataclass(frozen=True)
class FixedMapping(MappingPolicy):
    """Each node knows exactly ``degree`` next-layer nodes (one-to-k)."""

    degree: int

    def __post_init__(self) -> None:
        check_positive_int("degree", self.degree)

    def degree_for(self, next_layer_size: float) -> int:
        return self._clamp(self.degree, next_layer_size)

    @property
    def label(self) -> str:
        return f"one-to-{self.degree}"


@dataclasses.dataclass(frozen=True)
class FractionMapping(MappingPolicy):
    """Each node knows ``fraction`` of the next layer (at least one node).

    ``fraction = 0.5`` is the paper's *one-to-half*; ``fraction = 1.0`` is
    *one-to-all*. The node count is rounded to the nearest integer.
    """

    fraction: float

    def __post_init__(self) -> None:
        check_fraction("fraction", self.fraction)

    def degree_for(self, next_layer_size: float) -> int:
        return self._clamp(
            fraction_degree(self.fraction, next_layer_size), next_layer_size
        )

    @property
    def label(self) -> str:
        # Named policies are constructed from the exact literals 1.0 / 0.5,
        # so equality against those sentinels is exact by construction.
        if self.fraction == 1.0:  # repro-lint: disable=float-equality -- exact sentinel
            return "one-to-all"
        if self.fraction == 0.5:  # repro-lint: disable=float-equality -- exact sentinel
            return "one-to-half"
        return f"one-to-{self.fraction:g}frac"


@requires_fraction("fraction")
def fraction_degree(fraction: float, next_layer_size: float) -> int:
    """Unclamped fractional mapping degree ``round(fraction * n_{i+1})``.

    The contract rejects ``fraction`` outside ``(0, 1]`` — a zero or
    negative fraction would silently produce a disconnected overlay.
    """
    return int(round(fraction * next_layer_size))


ONE_TO_ONE = FixedMapping(1)
ONE_TO_TWO = FixedMapping(2)
ONE_TO_FIVE = FixedMapping(5)
ONE_TO_HALF = FractionMapping(0.5)
ONE_TO_ALL = FractionMapping(1.0)

_NAMED = {
    "one-to-one": ONE_TO_ONE,
    "one-to-two": ONE_TO_TWO,
    "one-to-five": ONE_TO_FIVE,
    "one-to-half": ONE_TO_HALF,
    "one-to-all": ONE_TO_ALL,
}

MappingLike = Union[MappingPolicy, str, int]


def resolve_mapping(policy: MappingLike) -> MappingPolicy:
    """Coerce a policy object, policy name, or integer degree to a policy.

    Accepts ``"one-to-one" | "one-to-two" | "one-to-five" | "one-to-half" |
    "one-to-all"``, a bare integer ``k`` (meaning one-to-``k``), or any
    :class:`MappingPolicy` instance.
    """
    if isinstance(policy, MappingPolicy):
        return policy
    if isinstance(policy, bool):
        raise ConfigurationError(f"invalid mapping policy {policy!r}")
    if isinstance(policy, int):
        return FixedMapping(policy)
    if isinstance(policy, str):
        try:
            return _NAMED[policy]
        except KeyError:
            names = ", ".join(sorted(_NAMED))
            raise ConfigurationError(
                f"unknown mapping policy {policy!r}; expected one of: {names}, "
                "or an integer degree"
            ) from None
    raise ConfigurationError(f"invalid mapping policy {policy!r}")

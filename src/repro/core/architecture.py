"""The generalized SOS architecture (Section 2 of the paper).

A :class:`SOSArchitecture` captures every design feature the paper studies:

* ``total_overlay_nodes`` (``N``) — population of overlay nodes the SOS
  nodes hide among; break-in trials are spread over all of them.
* ``sos_nodes`` (``n``) — number of nodes actually enrolled in the SOS
  system, split across ``layers`` (``L``) layers.
* ``layer_sizes`` (``n_1 .. n_L``) — node count per layer, produced by a
  named :class:`~repro.core.distributions.NodeDistribution` or given
  explicitly. Average-case analysis permits fractional sizes.
* ``mapping`` — the mapping-degree policy resolving to ``m_1 .. m_{L+1}``:
  ``m_i`` is how many Layer-``i`` nodes each Layer-``i-1`` node (or client,
  for ``i = 1``) keeps in its neighbor table.
* ``filters`` (``n_{L+1}``) — the filter ring around the target. Filters
  cannot be broken into and are congested only upon disclosure (paper
  footnote 2).

The class is immutable; derived quantities (per-layer mapping degrees,
filter-layer views) are computed once in ``__post_init__``.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.distributions import NodeDistribution, distribute, integerize
from repro.core.mapping import MappingLike, MappingPolicy, resolve_mapping
from repro.errors import ConfigurationError
from repro.utils.validation import check_positive_int

#: Default parameters used throughout the paper's evaluation (Sections
#: 3.1.2 and 3.2.3).
DEFAULT_TOTAL_OVERLAY_NODES = 10_000
DEFAULT_SOS_NODES = 100
DEFAULT_FILTERS = 10

#: Largest ``layers``. Each layer is a size, a mapping degree and a term of
#: every evaluation, so one field would otherwise set an unbounded amount
#: of work; the paper's figures stop at ``L = 8``.
MAX_LAYERS = 100

#: Layer sizes the "at least one node" error echoes before eliding.
_SHOWN_SIZES = 8


@dataclasses.dataclass(frozen=True)
class SOSArchitecture:
    """An immutable generalized-SOS design point.

    Parameters
    ----------
    layers:
        ``L``, the number of SOS layers (SOAP ... secret servlets). The
        filter ring is layer ``L+1`` and is configured via ``filters``.
    mapping:
        Mapping-degree policy (policy object, name such as ``"one-to-half"``,
        or integer ``k`` for one-to-``k``) applied uniformly; per-layer
        degrees follow from each layer's size. A distinct policy for the
        servlet→filter hop may be supplied via ``filter_mapping``.
    total_overlay_nodes:
        ``N``, the overlay population hiding the SOS nodes.
    sos_nodes:
        ``n``, the number of SOS nodes. Ignored when ``layer_sizes`` is
        given explicitly (then ``n = sum(layer_sizes)``).
    distribution:
        Named node-distribution policy splitting ``n`` over ``L`` layers.
        Ignored when ``layer_sizes`` is given.
    layer_sizes:
        Explicit per-layer node counts ``n_1 .. n_L`` (may be fractional for
        average-case studies).
    filters:
        ``n_{L+1}``, the number of filters around the target.
    filter_mapping:
        Optional policy for ``m_{L+1}``; defaults to ``mapping``.
    layer_mappings:
        Optional per-layer policies overriding ``mapping``: one entry per
        SOS layer (``m_1 .. m_L``). The generalized architecture allows
        heterogeneous mapping degrees (§2: "``m_i`` are designed depending
        on the system resources and attacks"); this is how to express
        them. ``filter_mapping`` still governs ``m_{L+1}``.

    Examples
    --------
    >>> arch = SOSArchitecture(layers=3, mapping="one-to-all")
    >>> arch.layer_sizes_tuple
    (33.333333333333336, 33.333333333333336, 33.333333333333336)
    >>> arch.mapping_degrees  # m_1..m_3 plus the filter hop m_4
    (33, 33, 33, 10)
    """

    layers: int
    mapping: MappingLike = "one-to-all"
    total_overlay_nodes: int = DEFAULT_TOTAL_OVERLAY_NODES
    sos_nodes: int = DEFAULT_SOS_NODES
    distribution: Union[NodeDistribution, str] = NodeDistribution.EVEN
    layer_sizes: Optional[Sequence[float]] = None
    filters: int = DEFAULT_FILTERS
    filter_mapping: Optional[MappingLike] = None
    layer_mappings: Optional[Sequence[MappingLike]] = None

    # Derived, filled in __post_init__ (object.__setattr__ due to frozen).
    _mapping_policy: MappingPolicy = dataclasses.field(init=False, repr=False)
    _layer_policies: Tuple[MappingPolicy, ...] = dataclasses.field(
        init=False, repr=False
    )
    _layer_sizes: Tuple[float, ...] = dataclasses.field(init=False, repr=False)
    _degrees: Tuple[int, ...] = dataclasses.field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_positive_int("layers", self.layers)
        if self.layers > MAX_LAYERS:
            raise ConfigurationError(
                f"layers must be <= {MAX_LAYERS}, got {self.layers}"
            )
        check_positive_int("total_overlay_nodes", self.total_overlay_nodes)
        check_positive_int("filters", self.filters)

        mapping_policy = resolve_mapping(self.mapping)
        filter_policy = (
            mapping_policy
            if self.filter_mapping is None
            else resolve_mapping(self.filter_mapping)
        )

        if self.layer_sizes is not None:
            if len(self.layer_sizes) != self.layers:
                raise ConfigurationError(
                    f"layer_sizes has {len(self.layer_sizes)} entries, "
                    f"expected {self.layers}"
                )
            sizes = tuple(float(s) for s in self.layer_sizes)
            total = sum(sizes)
            object.__setattr__(self, "sos_nodes", int(round(total)))
        else:
            check_positive_int("sos_nodes", self.sos_nodes)
            sizes = tuple(
                distribute(float(self.sos_nodes), self.layers, self.distribution)
            )
            total = float(self.sos_nodes)

        if any(s < 1 for s in sizes):
            shown = tuple(round(s, 3) for s in sizes[:_SHOWN_SIZES])
            elided = len(sizes) - len(shown)
            more = f" and {elided} more" if elided else ""
            raise ConfigurationError(
                f"every layer must hold at least one node; the requested "
                f"distribution yields {shown!r}{more} — "
                f"use fewer layers or more SOS nodes"
            )

        if total > self.total_overlay_nodes:
            raise ConfigurationError(
                f"sos_nodes ({total}) cannot exceed total_overlay_nodes "
                f"({self.total_overlay_nodes})"
            )
        if self.layer_mappings is not None:
            if len(self.layer_mappings) != self.layers:
                raise ConfigurationError(
                    f"layer_mappings has {len(self.layer_mappings)} entries, "
                    f"expected {self.layers}"
                )
            layer_policies = tuple(
                resolve_mapping(policy) for policy in self.layer_mappings
            )
        else:
            layer_policies = (mapping_policy,) * self.layers

        # Mapping degrees must be resolvable against every layer; layers with
        # fewer than one node were already rejected above.
        degrees = tuple(
            [
                policy.degree_for(size)
                for policy, size in zip(layer_policies, sizes)
            ]
            + [filter_policy.degree_for(float(self.filters))]
        )

        object.__setattr__(self, "_mapping_policy", mapping_policy)
        object.__setattr__(self, "_layer_policies", layer_policies)
        object.__setattr__(self, "_layer_sizes", sizes)
        object.__setattr__(self, "_degrees", degrees)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def mapping_policy(self) -> MappingPolicy:
        """The resolved mapping policy for SOS layers."""
        return self._mapping_policy

    @property
    def layer_mapping_policies(self) -> Tuple[MappingPolicy, ...]:
        """Resolved per-layer policies (uniform unless ``layer_mappings``)."""
        return self._layer_policies

    @property
    def layer_sizes_tuple(self) -> Tuple[float, ...]:
        """``(n_1, ..., n_L)`` — SOS layer sizes (possibly fractional)."""
        return self._layer_sizes

    @property
    def layer_sizes_with_filters(self) -> Tuple[float, ...]:
        """``(n_1, ..., n_L, n_{L+1})`` including the filter ring."""
        return self._layer_sizes + (float(self.filters),)

    @property
    def mapping_degrees(self) -> Tuple[int, ...]:
        """``(m_1, ..., m_L, m_{L+1})`` — resolved neighbor-table sizes."""
        return self._degrees

    @property
    def integer_layer_sizes(self) -> List[int]:
        """Integer layer sizes (largest-remainder rounding) for deployment."""
        return integerize(list(self._layer_sizes))

    def layer_size(self, layer: int) -> float:
        """Size of 1-indexed ``layer`` (``layers + 1`` selects the filters)."""
        self._check_layer_index(layer)
        if layer == self.layers + 1:
            return float(self.filters)
        return self._layer_sizes[layer - 1]

    def mapping_degree(self, layer: int) -> int:
        """Mapping degree ``m_layer`` toward 1-indexed ``layer``."""
        self._check_layer_index(layer)
        return self._degrees[layer - 1]

    def _check_layer_index(self, layer: int) -> None:
        if not isinstance(layer, int) or isinstance(layer, bool):
            raise ConfigurationError(f"layer index must be an integer, got {layer!r}")
        if not 1 <= layer <= self.layers + 1:
            raise ConfigurationError(
                f"layer index {layer} out of range [1, {self.layers + 1}]"
            )

    def describe(self) -> str:
        """One-line human-readable summary used in reports."""
        sizes = ", ".join(f"{s:g}" for s in self._layer_sizes)
        return (
            f"L={self.layers} mapping={self._mapping_policy.label} "
            f"N={self.total_overlay_nodes} n={self.sos_nodes} "
            f"layers=[{sizes}] filters={self.filters}"
        )


def original_sos_architecture(
    total_overlay_nodes: int = DEFAULT_TOTAL_OVERLAY_NODES,
    sos_nodes: int = DEFAULT_SOS_NODES,
    filters: int = DEFAULT_FILTERS,
) -> SOSArchitecture:
    """The original SOS design of Keromytis et al.: ``L = 3``, one-to-all.

    SOAP, beacon, and secret-servlet layers with every node knowing the
    entire next layer — the configuration the paper argues is fragile under
    break-in attacks.
    """
    return SOSArchitecture(
        layers=3,
        mapping="one-to-all",
        total_overlay_nodes=total_overlay_nodes,
        sos_nodes=sos_nodes,
        distribution=NodeDistribution.EVEN,
        filters=filters,
    )

"""Deterministic random-number management for simulations.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` handed to it explicitly; nothing touches
global RNG state. :class:`SeedSequenceFactory` fans a single user seed out
into independent, reproducible streams (one per trial, per attacker, per
traffic source) using :class:`numpy.random.SeedSequence` spawning, which
guarantees statistical independence between streams.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.SeedSequence, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from any seed-like input.

    Passing an existing ``Generator`` returns it unchanged, so components
    can accept either a seed or a shared stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(
    generator: np.random.Generator, count: int
) -> List[np.random.SeedSequence]:
    """The ``count`` child seeds ``generator.spawn(count)`` would wrap.

    Spawns from the generator's own seed sequence (public numpy API), so
    its spawn counter advances exactly as ``Generator.spawn`` advances
    it, but no child bit generator is built: a caller that only needs
    the seeds (the Poisson sampler hashes their pools in C) skips that
    cost. Raises ``TypeError`` like ``Generator.spawn`` when the seed
    sequence cannot spawn.
    """
    seed_seq = generator.bit_generator.seed_seq
    if not isinstance(seed_seq, np.random.bit_generator.ISpawnableSeedSequence):
        raise TypeError("The underlying SeedSequence does not implement spawning.")
    return seed_seq.spawn(count)


def child_generator(
    parent: np.random.Generator, seed: np.random.SeedSequence
) -> np.random.Generator:
    """The generator ``parent.spawn`` would have built around ``seed``:
    a new bit generator of the parent's type."""
    return np.random.Generator(type(parent.bit_generator)(seed))


class SeedSequenceFactory:
    """Fan one root seed out into independent child generators.

    Examples
    --------
    >>> factory = SeedSequenceFactory(1234)
    >>> a = factory.generator()   # stream 0
    >>> b = factory.generator()   # stream 1, independent of stream 0
    >>> a is not b
    True
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._root = np.random.SeedSequence(seed)

    def spawn(self) -> np.random.SeedSequence:
        """Return the next independent child :class:`SeedSequence`."""
        return self._root.spawn(1)[0]

    def generator(self) -> np.random.Generator:
        """Return a generator over the next independent child stream."""
        return np.random.default_rng(self.spawn())

    def generators(self, count: int) -> Iterator[np.random.Generator]:
        """Yield ``count`` independent generators."""
        for _ in range(count):
            yield self.generator()

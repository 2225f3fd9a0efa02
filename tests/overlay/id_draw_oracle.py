"""Reference for :meth:`OverlayNetwork._draw_unique_identifiers`.

``draw_unique_identifiers`` is the first-occurrence ``np.unique`` loop the
production draw replaced: the same ``integers`` blocks (twice the number
of ids still missing), merged with the ids kept so far, deduplicated by
first occurrence, cut at ``count`` distinct values in draw order. The
production draw must return the same ids and leave the generator in the
same state.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def draw_unique_identifiers(
    rng: np.random.Generator, size: int, count: int
) -> Tuple[np.ndarray, int]:
    """``(ids, blocks)``: the draw and the number of ``integers`` blocks
    it consumed (0 on the dense ``permutation`` path)."""
    if count > size // 2:
        return rng.permutation(size)[:count].astype(np.int64), 0
    seen = np.empty(0, dtype=np.int64)
    blocks = 0
    while len(seen) < count:
        needed = count - len(seen)
        draws = rng.integers(0, size, size=needed * 2, dtype=np.int64)
        blocks += 1
        merged = np.concatenate([seen, draws])
        _, first = np.unique(merged, return_index=True)
        keep = np.sort(first)[:count]
        seen = merged[keep]
    return np.sort(seen), blocks

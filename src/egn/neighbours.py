"""Cell-list neighbour search: every ordered pair of atoms within a radius.

Atoms are binned into cubic cells of side at least the radius (the
linked-cell method of Allen & Tildesley), so a pair within the radius lies
in the same cell or in one of the 26 around it. Only occupied cells are
stored, as sorted integer keys, so time and memory are O(n + candidate
pairs) however sparse or far-flung the atoms are.
"""

from __future__ import annotations

import numpy as np

# The 27 cell offsets (dx, dy, dz) in {-1, 0, 1}^3.
_OFFSETS = np.stack(np.meshgrid(*[[-1, 0, 1]] * 3, indexing="ij"), axis=-1).reshape(-1, 3)


def neighbour_pairs(positions: np.ndarray, radius: float):
    """All ordered pairs (i, j), i != j, with |pos[j] - pos[i]| <= radius.

    Returns ``(src, recv, dist)``: int64 atom indices sorted by (src, recv)
    and the float64 distances, computed as the tape computes them, the
    ``graph.edge_distances`` of the ``graph.edge_vectors``
    (``sqrt(sum((pos[recv] - pos[src])**2))``). Positions must be finite.
    """
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    if n < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, np.empty(0, dtype=np.float64)

    rel = pos - pos.min(axis=0)
    # Widen the cells past the radius by a bound on the rounding in `rel`,
    # the division and the distance, so that no pair at distance <= radius
    # is ever binned two cells apart. The margin also caps cell indices at
    # about 1 / (16 eps), so they fit int64 for any finite positions.
    eps = np.finfo(np.float64).eps
    side = radius + 16.0 * eps * (radius + float(rel.max()))
    cells = np.floor(rel / side).astype(np.int64)

    # Renumber each axis so that gaps of two or more cells become exactly
    # two: adjacency is kept and indices stay below 2n, so the linear cell
    # key below cannot overflow for up to a million atoms.
    dims = np.empty(3, dtype=np.int64)
    for axis in range(3):
        values, inverse = np.unique(cells[:, axis], return_inverse=True)
        packed = np.concatenate(([1], 1 + np.cumsum(np.minimum(np.diff(values), 2))))
        cells[:, axis] = packed[inverse]
        dims[axis] = packed[-1] + 2
    key = (cells[:, 0] * dims[1] + cells[:, 1]) * dims[2] + cells[:, 2]
    offsets = (_OFFSETS[:, 0] * dims[1] + _OFFSETS[:, 1]) * dims[2] + _OFFSETS[:, 2]

    order = np.argsort(key, kind="stable")
    cell_keys, cell_start, cell_count = np.unique(
        key[order], return_index=True, return_counts=True
    )

    # Candidates: each atom against every atom of its 27 surrounding cells.
    wanted = (key[:, None] + offsets).reshape(-1)
    slot = np.minimum(np.searchsorted(cell_keys, wanted), cell_keys.size - 1)
    hit = cell_keys[slot] == wanted
    start, count = cell_start[slot[hit]], cell_count[slot[hit]]
    src = np.repeat(np.repeat(np.arange(n, dtype=np.int64), offsets.size)[hit], count)
    recv = order[concat_ranges(start, count)]

    diff = pos[recv] - pos[src]
    dist = np.sqrt((diff * diff).sum(axis=1))
    keep = (dist <= radius) & (src != recv)
    src, recv, dist = src[keep], recv[keep], dist[keep]
    # Candidates come out grouped by src; sort each group by recv.
    by_pair = np.argsort(src * n + recv)
    return src[by_pair], recv[by_pair], dist[by_pair]


def concat_ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(s, s + c)`` over zipped (start, count)."""
    shift = np.repeat(start - (np.cumsum(count) - count), count)
    return shift + np.arange(shift.size)

"""Cutoff-radius graphs over atomic systems: edges, triplets, and geometry.

Edges are directed and enumerated for every ordered pair within the cutoff,
sorted by (source, receiver). A triplet is an ordered pair of adjacent
directed edges (k -> j), (j -> i) with k != i, sorted by (out_edge, in_edge).
All downstream determinism relies on these orderings.

Edges come from a cell-list neighbour search (``egn.neighbours``); triplets
and reverse edges are found by sorting and searching integer keys. Building
a graph therefore costs O(n + N_e + N_t) memory and, up to the sorts, time.
``build_graph`` returns the topology and the distances of the search; the
geometry functions below are the forward and closed-form gradient rules of
the tape's geometry primitives, which ``egn.basis.compute_basis`` records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neighbours import concat_ranges, neighbour_pairs
from .system import AtomicSystem

# Below this sine magnitude a triplet is treated as collinear and the angle
# gradient falls back to the zero subgradient.
_COLLINEAR_EPS = 1e-14


@dataclass(frozen=True)
class GraphTopology:
    """Directed edges and triplets over ``num_nodes`` atoms."""

    num_nodes: int
    edge_src: np.ndarray  # (N_e,) int64, source node per edge
    edge_recv: np.ndarray  # (N_e,) int64, receiver node per edge
    trip_in: np.ndarray  # (N_t,) int64, in-edge (k -> j) index per triplet
    trip_out: np.ndarray  # (N_t,) int64, out-edge (j -> i) index per triplet

    @property
    def num_edges(self) -> int:
        return int(self.edge_src.shape[0])

    @property
    def num_triplets(self) -> int:
        return int(self.trip_in.shape[0])

    def reverse_edges(self) -> np.ndarray:
        """Index map r with edges[r[k]] == (recv_k, src_k).

        Raises ValueError when some edge has no reverse partner; cutoff
        graphs always have one by symmetry of the distance criterion.
        """
        n = self.num_nodes
        key = self.edge_src * n + self.edge_recv
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        wanted = self.edge_recv * n + self.edge_src
        # The last of equal keys, as a map from (src, recv) to edge would keep.
        slot = np.searchsorted(sorted_key, wanted, side="right") - 1
        missing = (slot < 0) | (sorted_key[slot] != wanted)
        if missing.any():
            idx = int(np.argmax(missing))
            pair = (int(self.edge_recv[idx]), int(self.edge_src[idx]))
            raise ValueError(f"edge {idx} has no reverse edge {pair}")
        return order[slot]


def build_graph(system: AtomicSystem, cutoff: float) -> tuple[GraphTopology, np.ndarray]:
    """Build the directed cutoff graph of a system.

    Returns the topology and the (N_e,) edge distances found by the search,
    all in (0, cutoff].
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    # Coincident atoms are rejected by AtomicSystem, so every pair has d > 0.
    src, recv, distances = neighbour_pairs(system.positions, cutoff)
    trip_in, trip_out = enumerate_triplets(system.n, src, recv)
    return GraphTopology(system.n, src, recv, trip_in, trip_out), distances


def enumerate_triplets(
    num_nodes: int, edge_src: np.ndarray, edge_recv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """List all ordered edge pairs ((k->j), (j->i)) with k != i.

    Output is sorted by (out_edge index, in_edge index).
    """
    n_e = edge_src.shape[0]
    if n_e == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    # In-edges grouped by receiver; stable sort keeps edge order within groups.
    order = np.argsort(edge_recv, kind="stable").astype(np.int64)
    bounds = np.searchsorted(edge_recv[order], np.arange(num_nodes + 1))

    # Pair each out-edge (j -> i) with every in-edge of j, then drop k == i.
    first = bounds[edge_src]
    count = bounds[edge_src + 1] - first
    trip_out = np.repeat(np.arange(n_e, dtype=np.int64), count)
    trip_in = order[concat_ranges(first, count)]
    keep = edge_src[trip_in] != edge_recv[trip_out]
    return trip_in[keep], trip_out[keep]


def edge_distances(positions: np.ndarray, src: np.ndarray, recv: np.ndarray) -> np.ndarray:
    diff = positions[recv] - positions[src]
    return np.sqrt((diff * diff).sum(axis=1))


def edge_unit_vectors(positions: np.ndarray, src: np.ndarray, recv: np.ndarray) -> np.ndarray:
    diff = positions[recv] - positions[src]
    d = np.sqrt((diff * diff).sum(axis=1))
    return diff / d[:, None]


def _triplet_vectors(positions: np.ndarray, topology: GraphTopology):
    """v1 = x_k - x_j and v2 = x_i - x_j per triplet, as (3, N_t) components.

    Both are gathered from per-edge differences, one gather per vector
    instead of two gathers of atom positions. Each edge is differenced in
    both directions, rather than one negated, because -(a - b) is -0.0
    where b - a is +0.0.
    """
    cols = np.ascontiguousarray(positions.T)
    src, recv = topology.edge_src, topology.edge_recv
    v1 = np.take(cols[:, src] - cols[:, recv], topology.trip_in, axis=1)
    v2 = np.take(cols[:, recv] - cols[:, src], topology.trip_out, axis=1)
    return v1, v2


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over (3, N) components, with np.cross's products and differences."""
    out = np.empty_like(a)
    np.subtract(a[1] * b[2], a[2] * b[1], out=out[0])
    np.subtract(a[2] * b[0], a[0] * b[2], out=out[1])
    np.subtract(a[0] * b[1], a[1] * b[0], out=out[2])
    return out


def _norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm over (3, N) components, summed in the order of a row sum."""
    return np.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def triplet_angles(positions: np.ndarray, topology: GraphTopology) -> np.ndarray:
    """Bond angle at the shared atom j, in [0, pi], via atan2 for stability."""
    if topology.num_triplets == 0:
        return np.empty(0, dtype=np.float64)
    v1, v2 = _triplet_vectors(positions, topology)
    c = v1[0] * v2[0] + v1[1] * v2[1] + v1[2] * v2[2]
    return np.arctan2(_norm(_cross(v1, v2)), c)


def angle_gradients(positions: np.ndarray, topology: GraphTopology):
    """Closed-form d(angle)/d(position) for each triplet.

    Returns (g_k, g_j, g_i), each (N_t, 3): the gradient with respect to the
    outer atom k, the middle atom j, and the outer atom i. Exactly collinear
    triplets get the zero subgradient instead of NaN.
    """
    n_t = topology.num_triplets
    if n_t == 0:
        z = np.zeros((0, 3), dtype=np.float64)
        return z, z, z
    v1, v2 = _triplet_vectors(positions, topology)
    cross = _cross(v1, v2)
    s = _norm(cross)
    ok = s > _COLLINEAR_EPS
    nhat = cross / np.where(ok, s, 1.0)
    n1 = _norm(v1)
    n2 = _norm(v2)
    g_k = _cross(v1 / n1, nhat) / n1
    g_i = _cross(nhat, v2 / n2) / n2
    g_k[:, ~ok] = 0.0
    g_i[:, ~ok] = 0.0
    g_j = -(g_k + g_i)
    return g_k.T, g_j.T, g_i.T

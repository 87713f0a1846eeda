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
A triplet's geometry is the cosine of its bond angle; no angle is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .neighbours import concat_ranges, neighbour_pairs
from .system import AtomicSystem


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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over (3, N) components, summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def triplet_cosines(positions: np.ndarray, topology: GraphTopology) -> np.ndarray:
    """Cosine of the bond angle at the shared atom j, v1 . v2 / (|v1| |v2|).

    The model reads an angle only through cos(l * angle), a polynomial in
    this cosine (``egn.basis.angular_basis``), so no angle is formed.
    """
    v1, v2 = _triplet_vectors(positions, topology)
    return _dot(v1, v2) / (_norm(v1) * _norm(v2))


def cosine_gradients(positions: np.ndarray, topology: GraphTopology):
    """Closed-form d(cosine)/d(position) for each triplet.

    Returns (g_k, g_j, g_i), each (N_t, 3): the gradient with respect to the
    outer atom k, the middle atom j, and the outer atom i. With
    c = v1 . v2 / (|v1| |v2|), dc/dv1 = v2 / (|v1| |v2|) - c v1 / |v1|^2,
    symmetrically for v2, and x_j takes minus their sum. The rule holds at
    collinear triplets too, where the cosine is extremal and its gradient
    zero.
    """
    v1, v2 = _triplet_vectors(positions, topology)
    n1 = _norm(v1)
    n2 = _norm(v2)
    inv = 1.0 / (n1 * n2)
    c = _dot(v1, v2) * inv
    g_k = v2 * inv - v1 * (c / (n1 * n1))
    g_i = v1 * inv - v2 * (c / (n2 * n2))
    g_j = -(g_k + g_i)
    return g_k.T, g_j.T, g_i.T

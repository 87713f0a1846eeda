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
Positions are read once, as the edge vectors x_recv - x_src; distances,
unit vectors and the triplet cosines are functions of those vectors. A
triplet's geometry is the cosine of its bond angle; no angle is formed.
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


def edge_vectors(positions: np.ndarray, src: np.ndarray, recv: np.ndarray) -> np.ndarray:
    """x_recv - x_src per edge, (N_e, 3): the only geometry read of positions."""
    return positions[recv] - positions[src]


def edge_distances(vectors: np.ndarray) -> np.ndarray:
    """The length of each edge vector."""
    return np.sqrt((vectors * vectors).sum(axis=1))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over (3, N) components, summed left to right."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(a, a))


def _gather_columns(vectors: np.ndarray, trip_in: np.ndarray, trip_out: np.ndarray):
    """a = x_j - x_k and b = x_i - x_j, the in-edge and out-edge vectors of
    each triplet (k -> j, j -> i), as (3, N_t) components."""
    cols = np.ascontiguousarray(vectors.T)
    return np.take(cols, trip_in, axis=1), np.take(cols, trip_out, axis=1)


def triplet_cosines(vectors: np.ndarray, trip_in: np.ndarray, trip_out: np.ndarray) -> np.ndarray:
    """Cosine of the bond angle at the shared atom j, c = -a . b / (|a| |b|),
    from the edge vectors a of the in-edges and b of the out-edges.

    The model reads an angle only through cos(l * angle), a polynomial in
    this cosine (``egn.basis.angular_basis``), so no angle is formed.
    """
    a, b = _gather_columns(vectors, trip_in, trip_out)
    return -_dot(a, b) / (_norm(a) * _norm(b))


def cosine_gradients(vectors: np.ndarray, trip_in: np.ndarray, trip_out: np.ndarray):
    """Closed-form (dc/da, dc/db) for each triplet, each (N_t, 3).

    With c = -a . b / (|a| |b|), dc/da = -b / (|a| |b|) - c a / |a|^2, and
    symmetrically for b. The rule holds at collinear triplets too, where the
    cosine is extremal and its gradient zero.
    """
    a, b = _gather_columns(vectors, trip_in, trip_out)
    n_a, n_b = _norm(a), _norm(b)
    inv = 1.0 / (n_a * n_b)
    c = -_dot(a, b) * inv
    g_a = -b * inv - a * (c / (n_a * n_a))
    g_b = -a * inv - b * (c / (n_b * n_b))
    return g_a.T, g_b.T

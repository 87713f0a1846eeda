"""Cutoff-radius graphs over atomic systems: edges, triplets, and geometry.

Edges are directed and enumerated for every ordered pair within the cutoff,
sorted by (source, receiver), so the out-edges O_j of atom j are one
contiguous block of rows and its in-edges are rev[O_j], in ascending edge
order. A triplet is an ordered pair of adjacent directed edges (k -> j),
(j -> i) with k != i; listed, triplets are sorted by (out_edge, in_edge).
All downstream determinism relies on these orderings.

Edges come from a cell-list neighbour search (``egn.neighbours``). The
model never lists triplets: those of center atom j are the off-diagonal
entries of the Gram matrix of its out-edge unit vectors, laid out by a
``TripletPlan`` of a range of center atoms, in rows local to its edges.
``GraphTopology.trip_in`` and ``trip_out`` list them on first read, for
readers of the topology itself. Index arrays whose entries never repeat,
the reverse-edge map and a plan's in-edges, are marked ``DistinctRows``
where they are built, so a gather by them takes its adjoint by
assignment. The geometry functions below are the forward and closed-form
gradient rules of the tape's geometry primitives, which
``egn.basis.compute_basis`` records from the edge vectors x_recv - x_src;
no angle is formed, only its cosine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .neighbours import concat_ranges, neighbour_pairs
from .system import AtomicSystem


class DistinctRows(np.ndarray):
    """Row indices that never repeat, marked where they are built. Arrays
    derived from them, by indexing or arithmetic, are plain again, since
    they promise nothing."""

    def __getitem__(self, key):
        return self.view(np.ndarray)[key]

    def __array_wrap__(self, array, context=None, return_scalar=False):
        array = array.view(np.ndarray)
        return array[()] if return_scalar else array


@dataclass(frozen=True)
class GraphTopology:
    """Directed edges over ``num_nodes`` atoms, and their triplets on demand."""

    num_nodes: int
    edge_src: np.ndarray  # (N_e,) int64, source node per edge
    edge_recv: np.ndarray  # (N_e,) int64, receiver node per edge

    @property
    def num_edges(self) -> int:
        return int(self.edge_src.shape[0])

    @cached_property
    def _triplets(self) -> tuple[np.ndarray, np.ndarray]:
        return enumerate_triplets(self.num_nodes, self.edge_src, self.edge_recv)

    trip_in = property(lambda self: self._triplets[0])  # (N_t,) in-edge (k -> j)
    trip_out = property(lambda self: self._triplets[1])  # (N_t,) out-edge (j -> i)

    @property
    def num_triplets(self) -> int:
        return int(self.trip_in.shape[0])

    def out_edge_starts(self) -> np.ndarray:
        """(num_nodes + 1,) row offsets: O_j is rows [starts[j], starts[j + 1])."""
        return np.searchsorted(self.edge_src, np.arange(self.num_nodes + 1))

    def reverse_edges(self) -> np.ndarray:
        """Index map r with edges[r[k]] == (recv_k, src_k), computed once per
        topology and read-only; ``DistinctRows`` when no edge repeats, since
        r is then a permutation.

        Raises ValueError when some edge has no reverse partner; cutoff
        graphs always have one by symmetry of the distance criterion.
        """
        return self._reverse

    @cached_property
    def _reverse(self) -> np.ndarray:
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
        rev = order[slot]
        rev.setflags(write=False)
        if (sorted_key[1:] != sorted_key[:-1]).all():
            rev = rev.view(DistinctRows)
        return rev


def build_graph(system: AtomicSystem, cutoff: float) -> tuple[GraphTopology, np.ndarray]:
    """Build the directed cutoff graph of a system.

    Returns the topology and the (N_e,) edge distances found by the search,
    all in (0, cutoff].
    """
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    # Coincident atoms are rejected by AtomicSystem, so every pair has d > 0.
    src, recv, distances = neighbour_pairs(system.positions, cutoff)
    return GraphTopology(system.n, src, recv), distances


def enumerate_triplets(
    num_nodes: int, edge_src: np.ndarray, edge_recv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """List all ordered edge pairs ((k->j), (j->i)) with k != i.

    Output is sorted by (out_edge index, in_edge index).
    """
    # In-edges grouped by receiver; stable sort keeps edge order within groups.
    order = np.argsort(edge_recv, kind="stable").astype(np.int64)
    bounds = np.searchsorted(edge_recv[order], np.arange(num_nodes + 1))

    # Pair each out-edge (j -> i) with every in-edge of j, then drop k == i.
    first = bounds[edge_src]
    count = bounds[edge_src + 1] - first
    trip_out = np.repeat(np.arange(edge_src.shape[0], dtype=np.int64), count)
    trip_in = order[concat_ranges(first, count)]
    keep = edge_src[trip_in] != edge_recv[trip_out]
    return trip_in[keep], trip_out[keep]


class DegreeBucket(NamedTuple):
    """The m center atoms of one degree n, in ascending order."""

    out_rows: np.ndarray  # (m, n) int64, row a is atom a's out-edges, local to O_J
    rows: slice  # its m n x n blocks in the plan's block layout, row-major


@dataclass(frozen=True)
class TripletPlan:
    """The triplets of a range of center atoms J as dense blocks, atoms of
    degree >= 2 grouped by ascending degree, in rows local to J's out-edges
    O_J. In-edge inputs are laid out in the order of ``in_edges``, so local
    row e holds the reverse of out-edge e. Row (a, q, p) of a bucket's
    blocks is out-edge q and in-edge p of atom a; q == p is no triplet."""

    atoms: slice  # J, the center atoms
    edges: slice  # O_J, their out-edges, contiguous
    in_edges: np.ndarray  # rev[O_J], their in-edges, ascending within each atom
    receivers: np.ndarray  # each in-edge's receiver, local to J
    buckets: tuple[DegreeBucket, ...]
    rows: int  # rows of the block layout


def triplet_plan(topology: GraphTopology, atoms: slice) -> TripletPlan:
    """The plan of the contiguous center atoms ``atoms``, with edges sorted
    by source."""
    starts = topology.out_edge_starts()
    lo, hi, _ = atoms.indices(topology.num_nodes)
    edges = slice(int(starts[lo]), int(starts[hi]))
    degree = np.diff(starts[lo : hi + 1])
    buckets, offset = [], 0
    for n in np.unique(degree[degree >= 2]).tolist():
        first = starts[lo + np.flatnonzero(degree == n)] - edges.start
        rows = slice(offset, offset + first.size * n * n)
        buckets.append(DegreeBucket(first[:, None] + np.arange(n), rows))
        offset = rows.stop
    rev = topology.reverse_edges()
    in_edges = rev[edges].view(type(rev))
    # rev[e] of out-edge e = (j -> i) is (i -> j), received by e's source j.
    receivers = topology.edge_src[edges] - lo
    return TripletPlan(slice(lo, hi), edges, in_edges, receivers, tuple(buckets), offset)


def edge_vectors(positions: np.ndarray, src: np.ndarray, recv: np.ndarray) -> np.ndarray:
    """x_recv - x_src per edge, (N_e, 3): the only geometry read of positions."""
    return positions[recv] - positions[src]


def edge_distances(vectors: np.ndarray) -> np.ndarray:
    """The length of each edge vector."""
    return np.sqrt((vectors * vectors).sum(axis=1))


def zero_diagonals(x: np.ndarray, plan: TripletPlan) -> np.ndarray:
    """Zero the rows (a, q, q) of ``x``, in the plan's block layout, in place."""
    for out_rows, rows in plan.buckets:
        m, n = out_rows.shape
        x[rows].reshape(m, n * n, -1)[:, :: n + 1] = 0.0
    return x


def gram_blocks(units: np.ndarray, plan: TripletPlan) -> np.ndarray:
    """The triplet cosines in the plan's block layout, from the unit
    vectors ``units`` of its out-edges O_J: row (a, q, p) is u_q . u_p of
    atom a's, summed left to right, and the diagonal, where k == i, is zero."""
    out = np.empty(plan.rows)
    for out_rows, rows in plan.buckets:
        m, n = out_rows.shape
        u = units[out_rows]
        gram = out[rows].reshape(m, n, n)
        np.multiply(u[:, :, None, 0], u[:, None, :, 0], out=gram)
        gram += u[:, :, None, 1] * u[:, None, :, 1]
        gram += u[:, :, None, 2] * u[:, None, :, 2]
    return zero_diagonals(out, plan)


def gram_gradient(s: np.ndarray, units: np.ndarray, plan: TripletPlan) -> np.ndarray:
    """The adjoint of ``gram_blocks``, (s + s^T) @ U per atom with s's
    diagonal ignored: each out-edge row of the plan is written once."""
    s = zero_diagonals(s.copy(), plan)
    grad = np.zeros_like(units)
    for out_rows, rows in plan.buckets:
        m, n = out_rows.shape
        s_a = s[rows].reshape(m, n, n)
        grad[out_rows] = (s_a + s_a.transpose(0, 2, 1)) @ units[out_rows]
    return grad

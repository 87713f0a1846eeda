"""Sharding of center atoms, edges, and nodes across workers, plus the
analytic communication-volume model.

Shards are contiguous ranges of the sorted orderings, each a ``slice``
with integer bounds, so indexing a buffer with one gives a view. A worker
owns the triplets of a range of center atoms J, balanced by their counts
n_j (n_j - 1) to within the largest atom's, and its edge shard is their
out-edges O_J; node shards are balanced to within one node. Triplet
features and their sums into the worker's own edges stay shard-local.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GEMNET, ModelConfig
from .graph import GraphTopology


@dataclass(frozen=True)
class GraphPartition:
    center_shards: list[slice]
    edge_shards: list[slice]
    node_shards: list[slice]


def _slices(cuts) -> list[slice]:
    return [slice(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:])]


def split_range(n: int, workers: int) -> list[slice]:
    """Contiguous row ranges covering [0, n), sizes differing by at most one."""
    base, extra = divmod(n, workers)
    return _slices([p * base + min(p, extra) for p in range(workers + 1)])


def partition_graph(topology: GraphTopology, workers: int) -> GraphPartition:
    """Owner-computes shards, with edges sorted by source: each balanced cut
    of the triplets, counted atom by atom, moves back to the start of the
    center atom it falls in, and a worker's edge shard is the out-edges of
    its atoms. With no triplets the atoms are split evenly."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = topology.num_nodes
    starts = topology.out_edge_starts()
    degree = np.diff(starts)
    before = np.concatenate([[0], np.cumsum(degree * (degree - 1))])
    if before[-1] == 0:
        atom_cuts = [s.start for s in split_range(n, workers)] + [n]
    else:
        inner = [s.stop for s in split_range(int(before[-1]), workers)[:-1]]
        atom_cuts = [0, *(np.searchsorted(before, inner, side="right") - 1), n]
    return GraphPartition(
        _slices(atom_cuts), _slices(starts[atom_cuts]), split_range(n, workers)
    )


@dataclass(frozen=True)
class CommModel:
    """Counts and feature dimensions that determine collective traffic."""

    n_v: int
    n_e: int
    n_t: int
    d_v: int
    d_e: int
    d_t: int
    d_u: int
    variant: str

    @classmethod
    def from_graph(cls, topology: GraphTopology, config: ModelConfig) -> "CommModel":
        return cls(
            n_v=topology.num_nodes,
            n_e=topology.num_edges,
            n_t=topology.num_triplets,
            d_v=config.d_v,
            d_e=config.d_e,
            d_t=config.d_t,
            d_u=config.d_u,
            variant=config.variant,
        )


@dataclass(frozen=True)
class CommVolume:
    per_block: int
    total: int


def comm_volume(model: CommModel, blocks: int) -> CommVolume:
    """Elements all-reduced per forward block and in a full forward pass.

    One edge buffer, one node buffer, and one global row per block; the
    gemnet-style variant adds a second edge buffer for symmetric message
    coupling. Never a function of the triplet count or triplet dimension.
    """
    per_block = model.n_e * model.d_e + model.n_v * model.d_v + model.d_u
    if model.variant == GEMNET:
        per_block += model.n_e * model.d_e
    return CommVolume(per_block=per_block, total=blocks * per_block)

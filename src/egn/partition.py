"""Sharding of triplets, edges, and nodes across workers, plus the analytic
communication-volume model.

Shards are contiguous ranges of the deterministic sorted orderings, and
each is a ``slice`` with integer start and stop: indexing a buffer with it
gives a view of the worker's rows, not a copy. Node shards are balanced to
within one node, triplet shards to within the largest group of triplets
that share an out-edge. Every worker keeps the complete edge and node
topology; triplet features and their sums into the worker's own edges
stay shard-local.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GEMNET, ModelConfig
from .graph import GraphTopology


@dataclass(frozen=True)
class GraphPartition:
    triplet_shards: list[slice]
    edge_shards: list[slice]
    node_shards: list[slice]


def _slices(cuts) -> list[slice]:
    return [slice(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:])]


def split_range(n: int, workers: int) -> list[slice]:
    """Contiguous row ranges covering [0, n), sizes differing by at most one."""
    base, extra = divmod(n, workers)
    return _slices([p * base + min(p, extra) for p in range(workers + 1)])


def partition_graph(topology: GraphTopology, workers: int) -> GraphPartition:
    """Owner-computes shards: triplets are sorted by out-edge, so each
    balanced triplet cut moves back to the start of its out-edge's group,
    and a worker's edge shard is the out-edges of its triplets. With no
    triplets the edges are split evenly."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n_t, n_e = topology.num_triplets, topology.num_edges
    if n_t == 0:
        edge_shards = split_range(n_e, workers)
        triplet_shards = split_range(0, workers)
    else:
        inner = [s.stop for s in split_range(n_t, workers)[:-1]]
        edge_cuts = [0, *np.append(topology.trip_out, n_e)[inner], n_e]
        edge_shards = _slices(edge_cuts)
        triplet_shards = _slices(np.searchsorted(topology.trip_out, edge_cuts))
    return GraphPartition(triplet_shards, edge_shards, split_range(topology.num_nodes, workers))


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

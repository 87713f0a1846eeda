"""Sharding of center atoms across workers, plus the analytic
communication-volume model.

A worker owns one contiguous range of center atoms J, a ``slice`` with
integer bounds, balanced by their triplet counts n_j (n_j - 1) to within
the largest atom's; with no triplets the atoms are split evenly. Its
other rows derive from J: its node rows are J, and its edge rows are J's
out-edges O_J, contiguous since edges are sorted by source (see
``egn.graph.triplet_plan``). Triplet features and their sums into the
worker's own edges stay shard-local.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GEMNET, ModelConfig
from .graph import GraphTopology


def _slices(cuts) -> list[slice]:
    return [slice(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:])]


def split_range(n: int, workers: int) -> list[slice]:
    """Contiguous row ranges covering [0, n), sizes differing by at most one."""
    base, extra = divmod(n, workers)
    return _slices([p * base + min(p, extra) for p in range(workers + 1)])


def _triplets_per_atom(topology: GraphTopology) -> np.ndarray:
    """n_j (n_j - 1) per atom j of degree n_j, with no triplet listed."""
    degree = np.diff(topology.out_edge_starts())
    return degree * (degree - 1)


def partition_graph(topology: GraphTopology, workers: int) -> list[slice]:
    """Each worker's center atoms, in rank order: each balanced cut of the
    triplets, counted atom by atom, moves back to the start of the center
    atom it falls in. With no triplets the atoms are split evenly."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    n = topology.num_nodes
    before = np.concatenate([[0], np.cumsum(_triplets_per_atom(topology))])
    if before[-1] == 0:
        return split_range(n, workers)
    inner = [s.stop for s in split_range(int(before[-1]), workers)[:-1]]
    return _slices([0, *(np.searchsorted(before, inner, side="right") - 1), n])


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
            n_t=int(_triplets_per_atom(topology).sum()),
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

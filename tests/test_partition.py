import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egn.config import ModelConfig
from egn.graph import build_graph
from egn.partition import CommModel, comm_volume, partition_graph, split_range
from egn.system import random_cloud

from conftest import equilateral_triangle


def sizes(shards):
    return [s.stop - s.start for s in shards]


def assert_contiguous_cover(shards, n, spread=1):
    """Slices with integer bounds, each starting where the last stopped,
    that cover [0, n) in order, with sizes within ``spread`` of each other
    (None: any sizes)."""
    assert all(type(s.start) is int and type(s.stop) is int and s.step is None for s in shards)
    assert [s.start for s in shards] == [0] + [s.stop for s in shards[:-1]]
    assert shards[-1].stop == n
    assert min(sizes(shards)) >= 0
    assert spread is None or max(sizes(shards)) - min(sizes(shards)) <= spread


def test_split_sizes_balanced():
    assert sizes(split_range(7, 3)) == [3, 2, 2]


def test_single_worker_identity():
    assert split_range(9, 1) == [slice(0, 9)]


def test_more_workers_than_items_leaves_empty_shards():
    shards = split_range(2, 5)
    assert sizes(shards) == [1, 1, 0, 0, 0]


def test_triangle_partition_contiguous():
    topo, _ = build_graph(equilateral_triangle(), cutoff=1.5)
    part = partition_graph(topo, 2)
    assert part.triplet_shards == [slice(0, 3), slice(3, 6)]


def test_partition_rejects_zero_workers():
    topo, _ = build_graph(equilateral_triangle(), cutoff=1.5)
    with pytest.raises(ValueError):
        partition_graph(topo, 0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 200), workers=st.integers(1, 16))
def test_split_properties(n, workers):
    shards = split_range(n, workers)
    assert len(shards) == workers
    assert_contiguous_cover(shards, n)
    merged = np.concatenate([np.arange(n)[s] for s in shards])
    np.testing.assert_array_equal(merged, np.arange(n))


def random_partition(seed, workers):
    system = random_cloud(12, 0.9, np.random.default_rng(seed))
    topo, _ = build_graph(system, cutoff=1.5)
    return topo, partition_graph(topo, workers)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), workers=st.integers(1, 16))
def test_partition_properties_on_random_graphs(seed, workers):
    """Nodes split within one. Triplet and edge shards cover their rows;
    each triplet cut lies before the balanced cut by less than the largest
    out-edge group, and with no triplets the edges split within one."""
    topo, part = random_partition(seed, workers)
    n_t = topo.num_triplets
    for shards, total, spread in (
        (part.triplet_shards, n_t, None),
        (part.edge_shards, topo.num_edges, None if n_t else 1),
        (part.node_shards, topo.num_nodes, 1),
    ):
        assert_contiguous_cover(shards, total, spread)
        merged = np.concatenate([np.arange(total)[s] for s in shards])
        np.testing.assert_array_equal(np.sort(merged), np.arange(total))
    group = np.bincount(topo.trip_out).max() if n_t else 1
    for got, balanced in zip(part.triplet_shards, split_range(n_t, workers)):
        assert 0 <= balanced.start - got.start < group


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), workers=st.integers(1, 16))
def test_triplets_live_with_their_out_edges(seed, workers):
    """Every triplet's out-edge lies in its worker's edge shard, so each
    worker aggregates complete rows for the edges it owns."""
    topo, part = random_partition(seed, workers)
    for trips, edges in zip(part.triplet_shards, part.edge_shards):
        out = topo.trip_out[trips]
        assert np.all((edges.start <= out) & (out < edges.stop))


def test_comm_volume_dimenet_example():
    model = CommModel(n_v=10, n_e=40, n_t=999, d_v=4, d_e=8, d_t=16, d_u=1,
                      variant="dimenet-style")
    vol = comm_volume(model, blocks=1)
    assert vol.per_block == 361
    assert vol.total == 361


def test_comm_volume_gemnet_example():
    model = CommModel(n_v=10, n_e=40, n_t=999, d_v=4, d_e=8, d_t=16, d_u=1,
                      variant="gemnet-style")
    assert comm_volume(model, blocks=1).per_block == 681


def test_comm_volume_independent_of_triplets():
    base = CommModel(n_v=10, n_e=40, n_t=100, d_v=4, d_e=8, d_t=16, d_u=1,
                     variant="dimenet-style")
    doubled_dt = CommModel(n_v=10, n_e=40, n_t=100, d_v=4, d_e=8, d_t=32, d_u=1,
                           variant="dimenet-style")
    for n_t in (0, 1, 100, 10_000):
        swept = CommModel(n_v=10, n_e=40, n_t=n_t, d_v=4, d_e=8, d_t=16, d_u=1,
                          variant="dimenet-style")
        assert comm_volume(swept, 3).total == comm_volume(base, 3).total
    assert comm_volume(doubled_dt, 3).total == comm_volume(base, 3).total


def test_comm_volume_scales_with_blocks():
    model = CommModel(n_v=5, n_e=12, n_t=50, d_v=3, d_e=4, d_t=2, d_u=2,
                      variant="gemnet-style")
    assert comm_volume(model, 4).total == 4 * comm_volume(model, 1).per_block


def test_comm_model_from_graph():
    topo, _ = build_graph(equilateral_triangle(), cutoff=1.5)
    cfg = ModelConfig(variant="gemnet-style")
    model = CommModel.from_graph(topo, cfg)
    assert (model.n_v, model.n_e, model.n_t) == (3, 6, 6)
    assert (model.d_v, model.d_e, model.d_u) == (cfg.d_v, cfg.d_e, cfg.d_u)

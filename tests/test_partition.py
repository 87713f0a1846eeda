import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egn.config import ModelConfig
from egn.graph import build_graph, triplet_plan
from egn.partition import CommModel, comm_volume, partition_graph, split_range
from egn.system import random_cloud

from conftest import dimer, equilateral_triangle


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
    # Each atom centers 2 of the 6 triplets: the balanced cut at triplet 3
    # falls in atom 1 and moves back to its start.
    assert part == [slice(0, 1), slice(1, 3)]
    assert [triplet_plan(topo, atoms).edges for atoms in part] == [slice(0, 2), slice(2, 6)]


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
    """One list of center-atom slices, one per worker, covers the atoms in
    order; the edge rows derived from it, each worker's out-edges, cover the
    edges, so every edge cut lies at an atom boundary. Each cut, counted in
    triplets, lies before the balanced cut by less than the largest atom's
    n (n - 1), so each worker's count is within that of its balanced share;
    with no triplets the atoms split within one."""
    topo, part = random_partition(seed, workers)
    n_t = topo.num_triplets
    assert len(part) == workers
    assert_contiguous_cover(part, topo.num_nodes, None if n_t else 1)
    edges = [triplet_plan(topo, atoms).edges for atoms in part]
    assert_contiguous_cover(edges, topo.num_edges, None)
    starts = topo.out_edge_starts()
    weight = np.diff(starts) * (np.diff(starts) - 1)
    assert weight.sum() == n_t
    largest = max(int(weight.max()), 1)
    before = np.concatenate([[0], np.cumsum(weight)])
    balanced = split_range(n_t, workers)
    for atoms, rows, share in zip(part, edges, balanced):
        assert rows == slice(int(starts[atoms.start]), int(starts[atoms.stop]))
        assert 0 <= share.start - before[atoms.start] < largest
        count = before[atoms.stop] - before[atoms.start]
        assert abs(count - (share.stop - share.start)) < largest


def test_partition_without_triplets_splits_evenly():
    """A dimer has no triplet: its atoms split as evenly as any rows, and
    workers past the atom count own none."""
    topo, _ = build_graph(dimer(1.0), cutoff=1.5)
    assert topo.num_triplets == 0
    for workers in (1, 2, 5):
        assert partition_graph(topo, workers) == split_range(2, workers)
    assert sizes(partition_graph(topo, 5)) == [1, 1, 0, 0, 0]


def test_more_workers_than_atoms_leaves_empty_shards():
    """Past the atom count some workers own no atom, hence no edge row; the
    slices still cover the atoms and the edges in order."""
    topo, _ = build_graph(equilateral_triangle(), cutoff=1.5)
    part = partition_graph(topo, 8)
    assert_contiguous_cover(part, 3, None)
    assert sizes(part).count(0) == 5 and sorted(sizes(part))[-3:] == [1, 1, 1]
    edges = [triplet_plan(topo, atoms).edges for atoms in part]
    assert_contiguous_cover(edges, topo.num_edges, None)
    assert [e.stop - e.start for e in edges if e.stop > e.start] == [2, 2, 2]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), workers=st.integers(1, 16))
def test_triplets_live_with_their_out_edges(seed, workers):
    """Every triplet's out-edge lies in the edge rows of the worker that
    owns its center atom, so each worker aggregates complete rows for the
    edges it owns."""
    topo, part = random_partition(seed, workers)
    centers = topo.edge_src[topo.trip_out]
    for atoms in part:
        edges = triplet_plan(topo, atoms).edges
        out = topo.trip_out[(atoms.start <= centers) & (centers < atoms.stop)]
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


@pytest.mark.parametrize("seed", range(5))
def test_comm_model_counts_triplets_without_listing_them(seed, monkeypatch):
    """n_t is sum_j n_j (n_j - 1) over the out-edge offsets: the listed
    triplet count of a random cloud, found with no triplet listed."""
    from egn import graph

    rng = np.random.default_rng(seed)
    system = random_cloud(int(rng.integers(5, 60)), 0.9, rng)
    cfg = ModelConfig()
    topo, _ = build_graph(system, cutoff=cfg.cutoff)

    def refuse(*args):
        raise AssertionError("from_graph listed triplets")

    monkeypatch.setattr(graph, "enumerate_triplets", refuse)
    model = CommModel.from_graph(topo, cfg)
    monkeypatch.undo()
    assert model.n_t == topo.num_triplets


def test_comm_model_from_graph():
    topo, _ = build_graph(equilateral_triangle(), cutoff=1.5)
    cfg = ModelConfig(variant="gemnet-style")
    model = CommModel.from_graph(topo, cfg)
    assert (model.n_v, model.n_e, model.n_t) == (3, 6, 6)
    assert (model.d_v, model.d_e, model.d_u) == (cfg.d_v, cfg.d_e, cfg.d_u)

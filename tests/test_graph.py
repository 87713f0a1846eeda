import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egn.graph import (
    GraphTopology,
    build_graph,
    edge_distances,
    edge_vectors,
    enumerate_triplets,
    gram_blocks,
    gram_gradient,
    triplet_plan,
)
from egn.system import AtomicSystem, random_cloud
from egn.tape import Evaluator, Tape

from conftest import block_rows, collinear_chain, dimer, equilateral_triangle, triplet_cosines


def brute_force_triplets(system: AtomicSystem, cutoff: float) -> set[tuple[int, int, int]]:
    """All atom triples (k, j, i) with d_kj <= cutoff, d_ji <= cutoff, k != i."""
    pos = system.positions
    n = system.n
    found = set()
    for k in range(n):
        for j in range(n):
            if j == k:
                continue
            if np.linalg.norm(pos[j] - pos[k]) > cutoff:
                continue
            for i in range(n):
                if i == j or i == k:
                    continue
                if np.linalg.norm(pos[i] - pos[j]) > cutoff:
                    continue
                found.add((k, j, i))
    return found


def units_of(positions, topology: GraphTopology) -> np.ndarray:
    vectors = edge_vectors(positions, topology.edge_src, topology.edge_recv)
    return vectors / edge_distances(vectors)[:, None]


def cosines_of(positions, topology: GraphTopology) -> np.ndarray:
    """Triplet cosines from the Gram blocks of ``positions``, per triplet."""
    plan = triplet_plan(topology, slice(None))
    return gram_blocks(units_of(positions, topology), plan)[block_rows(plan, topology)]


def triplet_atom_set(topology: GraphTopology) -> set[tuple[int, int, int]]:
    out = set()
    for t in range(topology.num_triplets):
        k = int(topology.edge_src[topology.trip_in[t]])
        j = int(topology.edge_recv[topology.trip_in[t]])
        i = int(topology.edge_recv[topology.trip_out[t]])
        out.add((k, j, i))
    return out


def test_dimer_has_edges_but_no_triplets():
    topo, dist = build_graph(dimer(1.0), cutoff=1.5)
    assert topo.num_edges == 2
    assert topo.num_triplets == 0
    np.testing.assert_allclose(dist, [1.0, 1.0])


def test_collinear_chain_edges_triplets_angles():
    system = collinear_chain(1.0)
    topo, _ = build_graph(system, cutoff=1.5)
    assert topo.num_edges == 4
    assert topo.num_triplets == 2
    np.testing.assert_allclose(cosines_of(system.positions, topo), [-1.0, -1.0])


def test_equilateral_triangle_counts_and_angles():
    system = equilateral_triangle(1.0)
    topo, _ = build_graph(system, cutoff=1.5)
    assert topo.num_edges == 6
    assert topo.num_triplets == 6
    np.testing.assert_allclose(cosines_of(system.positions, topo), 0.5, atol=1e-12)


def test_star_graph_triplet_count():
    # center atom 0 with three leaves; leaves are mutually out of range
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]])
    system = AtomicSystem(pos, np.array([6, 1, 1, 1]))
    topo, _ = build_graph(system, cutoff=1.2)
    assert topo.num_edges == 6
    # each out-edge from the center sees 2 admissible in-edges
    assert topo.num_triplets == 6
    assert triplet_atom_set(topo) == brute_force_triplets(system, 1.2)


def test_empty_edge_list():
    t_in, t_out = enumerate_triplets(3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert t_in.size == 0 and t_out.size == 0


def test_enumerate_triplets_reproduces_topology():
    topo, _ = build_graph(equilateral_triangle(), cutoff=1.5)
    t_in, t_out = enumerate_triplets(topo.num_nodes, topo.edge_src, topo.edge_recv)
    np.testing.assert_array_equal(t_in, topo.trip_in)
    np.testing.assert_array_equal(t_out, topo.trip_out)


def test_zero_edge_graph_is_legal():
    system = AtomicSystem(np.array([[0.0, 0, 0], [10.0, 0, 0]]), np.array([1, 1]))
    topo, dist = build_graph(system, cutoff=1.0)
    assert topo.num_edges == 0
    assert topo.num_triplets == 0
    assert dist.size == 0


def test_zero_atoms_impossible_and_bad_cutoff():
    with pytest.raises(ValueError):
        build_graph(dimer(1.0), cutoff=0.0)


def test_triplet_order_sorted_by_out_then_in():
    topo, _ = build_graph(random_cloud(12, 0.9, np.random.default_rng(3)), cutoff=1.5)
    keys = list(zip(topo.trip_out.tolist(), topo.trip_in.tolist()))
    assert keys == sorted(keys)


def test_edges_sorted_and_symmetric():
    topo, _ = build_graph(random_cloud(15, 0.9, np.random.default_rng(4)), cutoff=1.5)
    pairs = list(zip(topo.edge_src.tolist(), topo.edge_recv.tolist()))
    assert pairs == sorted(pairs)
    assert set(pairs) == {(b, a) for a, b in pairs}


def test_reverse_edges_roundtrip_and_error():
    topo, _ = build_graph(equilateral_triangle(), cutoff=1.5)
    rev = topo.reverse_edges()
    np.testing.assert_array_equal(topo.edge_src[rev], topo.edge_recv)
    np.testing.assert_array_equal(topo.edge_recv[rev], topo.edge_src)

    lop_sided = GraphTopology(
        num_nodes=2,
        edge_src=np.array([0], dtype=np.int64),
        edge_recv=np.array([1], dtype=np.int64),
    )
    with pytest.raises(ValueError):
        lop_sided.reverse_edges()


@pytest.mark.parametrize("seed", range(10))
def test_triplets_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    system = random_cloud(int(rng.integers(2, 21)), 0.9, rng)
    topo, _ = build_graph(system, cutoff=1.5)
    expected = brute_force_triplets(system, 1.5)
    assert topo.num_triplets == len(expected)
    assert triplet_atom_set(topo) == expected


def test_angles_match_recomputation_from_positions(rng):
    system = random_cloud(15, 0.9, rng)
    topo, _ = build_graph(system, cutoff=1.5)
    cosines = cosines_of(system.positions, topo)
    for t in range(topo.num_triplets):
        k = topo.edge_src[topo.trip_in[t]]
        j = topo.edge_recv[topo.trip_in[t]]
        i = topo.edge_recv[topo.trip_out[t]]
        v1 = system.positions[k] - system.positions[j]
        v2 = system.positions[i] - system.positions[j]
        expected = np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2))
        assert abs(cosines[t] - expected) < 1e-12


def test_distances_match_norms(rng):
    system = random_cloud(10, 0.9, rng)
    topo, dist = build_graph(system, cutoff=1.5)
    for e in range(topo.num_edges):
        d = np.linalg.norm(system.positions[topo.edge_recv[e]] - system.positions[topo.edge_src[e]])
        assert abs(dist[e] - d) < 1e-12
        assert dist[e] <= 1.5


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 14))
def test_edge_symmetry_property(seed, n):
    system = random_cloud(n, 0.9, np.random.default_rng(seed))
    topo, _ = build_graph(system, cutoff=1.5)
    pairs = set(zip(topo.edge_src.tolist(), topo.edge_recv.tolist()))
    assert pairs == {(b, a) for a, b in pairs}
    assert all(a != b for a, b in pairs)


def test_collinear_cosine_is_minus_one_not_nan():
    # exactly collinear triplet: cosine must be -1, never NaN
    topo, _ = build_graph(collinear_chain(1.0), cutoff=1.5)
    cosines = cosines_of(collinear_chain(1.0).positions, topo)
    assert np.all(np.isfinite(cosines))
    np.testing.assert_allclose(cosines, -1.0)


# ---------------------------------------------------------------------------
# Dense reference builder: the O(n^2) pair search, per-edge triplet loop and
# dict-based reverse map that the cell-list graph must reproduce bit for bit.
# ---------------------------------------------------------------------------


def dense_triplets(num_nodes, edge_src, edge_recv):
    n_e = edge_src.shape[0]
    empty = np.empty(0, dtype=np.int64)
    if n_e == 0:
        return empty, empty
    order = np.argsort(edge_recv, kind="stable").astype(np.int64)
    bounds = np.searchsorted(edge_recv[order], np.arange(num_nodes + 1))
    ins, outs = [], []
    for out_edge in range(n_e):
        j = edge_src[out_edge]
        cand = order[bounds[j] : bounds[j + 1]]
        cand = cand[edge_src[cand] != edge_recv[out_edge]]
        if cand.size:
            ins.append(cand)
            outs.append(np.full(cand.size, out_edge, dtype=np.int64))
    if not ins:
        return empty, empty
    return np.concatenate(ins), np.concatenate(outs)


def dense_reverse_edges(topology):
    key = {}
    for idx in range(topology.num_edges):
        key[(int(topology.edge_src[idx]), int(topology.edge_recv[idx]))] = idx
    rev = np.empty(topology.num_edges, dtype=np.int64)
    for idx in range(topology.num_edges):
        pair = (int(topology.edge_recv[idx]), int(topology.edge_src[idx]))
        if pair not in key:
            raise ValueError(f"edge {idx} has no reverse edge {pair}")
        rev[idx] = key[pair]
    return rev


def _dot(a, b):
    """Row-wise dot products of (N, 3) arrays, summed left to right."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def reference_triplet_cosines(units, topology, trip_in, trip_out):
    """Per-triplet gathers: u_out . u_rev(in), the formula the Gram blocks
    must reproduce at each triplet, with the dict-based reverse map."""
    rev = dense_reverse_edges(topology)
    return _dot(units[trip_out], units[rev[trip_in]])


def reference_gram_gradient(s, units, plan, topology):
    """The Gram adjoint one center atom at a time: its out-edge rows in a
    loop, (s + s^T) @ U with s's diagonal zeroed."""
    grad = np.zeros_like(units)
    for j in range(topology.num_nodes):
        out = np.flatnonzero(topology.edge_src == j)
        n = out.size
        if n < 2:
            continue
        bucket = next(b for b in plan.buckets if b.out_rows.shape[1] == n)
        a = int(np.flatnonzero(bucket.out_rows[:, 0] == out[0])[0])
        first = bucket.rows.start + a * n * n
        s_j = s[first : first + n * n].reshape(n, n).copy()
        np.fill_diagonal(s_j, 0.0)
        grad[out] = (s_j + s_j.T) @ units[out]
    return grad


def dense_graph(system, cutoff):
    pos = system.positions
    n = system.n
    diff = pos[None, :, :] - pos[:, None, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    mask = (dist > 0.0) & (dist <= cutoff)
    np.fill_diagonal(mask, False)
    src, recv = np.nonzero(mask)  # row-major: sorted by (source, receiver)
    src = src.astype(np.int64)
    recv = recv.astype(np.int64)
    trip_in, trip_out = dense_triplets(n, src, recv)
    topology = GraphTopology(n, src, recv)
    edge_diff = pos[recv] - pos[src]
    distances = np.sqrt((edge_diff * edge_diff).sum(axis=1))
    units = edge_diff / distances[:, None]
    geometry = {
        "trip_in": trip_in,
        "trip_out": trip_out,
        "distances": distances,
        "unit_vectors": units,
        "cosines": reference_triplet_cosines(units, topology, trip_in, trip_out),
    }
    return topology, geometry, dist[src, recv]


def assert_bitwise_equal(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_matches_dense(system, cutoff):
    topo, dist = build_graph(system, cutoff)
    ref_topo, ref_geom, ref_dist = dense_graph(system, cutoff)
    assert topo.num_nodes == ref_topo.num_nodes
    for name in ("edge_src", "edge_recv"):
        assert_bitwise_equal(getattr(topo, name), getattr(ref_topo, name))
    for name in ("trip_in", "trip_out"):
        assert_bitwise_equal(getattr(topo, name), ref_geom[name])
    pos = system.positions
    assert_bitwise_equal(dist, ref_geom["distances"])
    ev = Evaluator()
    units = ev.edge_units(ev.edge_vectors(ev.leaf(pos), topo.edge_src, topo.edge_recv))
    assert_bitwise_equal(units, ref_geom["unit_vectors"])
    assert_bitwise_equal(cosines_of(pos, topo), ref_geom["cosines"])
    assert_bitwise_equal(dist, ref_dist)
    assert_bitwise_equal(topo.reverse_edges(), dense_reverse_edges(ref_topo))
    return topo


def _atoms(pos):
    pos = np.asarray(pos, dtype=float)
    return AtomicSystem(pos, np.ones(len(pos), dtype=np.int64))


def _layout(name, n, rng):
    if name == "cloud":
        return rng.uniform(0.0, (n / 0.9) ** (1 / 3), size=(n, 3))
    if name == "lattice":  # spacing 0.75: pairs at exactly 0.75, 1.5 and 2.25
        cells = rng.choice(64, size=n, replace=False)
        return 0.75 * np.stack([cells // 16, cells // 4 % 4, cells % 4], axis=1).astype(float)
    if name == "plane":
        pos = rng.uniform(0.0, n**0.5, size=(n, 3))
        pos[:, 2] = 0.0
        return pos
    pos = np.zeros((n, 3))  # line
    pos[:, 0] = rng.permutation(n) * rng.uniform(0.3, 1.5)
    return pos


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    layout=st.sampled_from(["cloud", "lattice", "plane", "line"]),
    origin=st.sampled_from([0.0, -3.7, 1e6]),
    cutoff=st.sampled_from([0.75, 1.0, 1.5, 2.25, 100.0]),
)
def test_graph_matches_dense_reference(seed, n, layout, origin, cutoff):
    rng = np.random.default_rng(seed)
    pos = _layout(layout, n, rng) + origin
    assert_matches_dense(_atoms(pos), cutoff)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    layout=st.sampled_from(["cloud", "lattice", "plane", "line"]),
    origin=st.sampled_from([0.0, -3.7, 1e6]),
)
def test_angle_gradients_match_reference(seed, n, layout, origin):
    # Lattice, plane and line layouts give zero coordinate differences,
    # whose sign must match too, and line layouts give collinear triplets.
    rng = np.random.default_rng(seed)
    system = _atoms(_layout(layout, n, rng) + origin)
    topo, _ = build_graph(system, 1.5)
    plan = triplet_plan(topo, slice(None))
    units = units_of(system.positions, topo)
    s = rng.standard_normal(plan.rows)
    actual = gram_gradient(s, units, plan)
    assert_bitwise_equal(actual, reference_gram_gradient(s, units, plan, topo))


def test_angle_gradients_of_collinear_triplets_match_reference():
    """At collinear triplets the cosine is extremal, so its position
    gradient is zero up to rounding, with no branch."""
    system = collinear_chain(0.7, n=6)
    topo, _ = build_graph(system, 1.5)
    assert topo.num_triplets
    plan = triplet_plan(topo, slice(None))
    tape = Tape()
    pos = tape.leaf(system.positions)
    units = tape.edge_units(tape.edge_vectors(pos, topo.edge_src, topo.edge_recv))
    out = tape.triplet_basis(units, plan, 2)
    seed = np.zeros((plan.rows, 2))
    seed[block_rows(plan, topo), 1] = np.random.default_rng(0).standard_normal(topo.num_triplets)
    assert np.abs(tape.backward({out: seed})[pos]).max() < 1e-14
    s = seed[:, 1]
    actual = gram_gradient(s, tape.value(units), plan)
    assert_bitwise_equal(actual, reference_gram_gradient(s, tape.value(units), plan, topo))


@pytest.mark.parametrize("seed", range(4))
def test_gram_blocks_are_the_triplet_cosines(seed):
    """The identity: read at each triplet's (center, out-edge position,
    in-edge position), the Gram blocks of the out-edge unit vectors are the
    per-triplet cosines -a . b / (|a| |b|) to rounding. Every other entry
    is a diagonal, which is zero, and atoms of degree < 2 have no block."""
    rng = np.random.default_rng(seed)
    system = random_cloud(int(rng.integers(20, 60)), 0.9, rng)
    topo, _ = build_graph(system, 1.5)
    plan = triplet_plan(topo, slice(None))
    blocks = gram_blocks(units_of(system.positions, topo), plan)
    rows = block_rows(plan, topo)
    vectors = edge_vectors(system.positions, topo.edge_src, topo.edge_recv)
    want = triplet_cosines(vectors, topo.trip_in, topo.trip_out)
    assert topo.num_triplets and np.all(rows >= 0)
    np.testing.assert_allclose(blocks[rows], want, rtol=0, atol=4 * np.finfo(float).eps)
    rest = np.ones(plan.rows, dtype=bool)
    rest[rows] = False
    degree = np.bincount(topo.edge_src, minlength=topo.num_nodes)
    assert rest.sum() == degree[degree >= 2].sum()  # one diagonal entry per out-edge
    assert not blocks[rest].any()
    in_plan = np.concatenate([b.out_rows.ravel() for b in plan.buckets])
    np.testing.assert_array_equal(np.sort(in_plan), np.flatnonzero(degree[topo.edge_src] >= 2))


def test_triplets_are_listed_only_when_read(monkeypatch):
    """build_graph lists no triplet; the first read of the topology's
    triplets lists them, through the module's enumerate_triplets."""
    calls = []
    listing = enumerate_triplets

    def counted(*args):
        calls.append(args[0])
        return listing(*args)

    monkeypatch.setattr("egn.graph.enumerate_triplets", counted)
    topo, _ = build_graph(equilateral_triangle(), cutoff=1.5)
    assert not calls
    assert topo.num_triplets == 6 and topo.trip_in.size == topo.trip_out.size == 6
    assert calls == [3]


def _lattice(side, spacing):
    idx = np.arange(side, dtype=float)
    grid = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"), axis=-1).reshape(-1, 3)
    return _atoms(spacing * grid)


def _cluster_with_outlier(offset):
    cluster = random_cloud(40, 0.9, np.random.default_rng(8)).positions
    return _atoms(np.vstack([cluster[:20], [offset], cluster[20:]]))


def test_pairs_exactly_at_cutoff_are_edges():
    topo = assert_matches_dense(dimer(1.5), 1.5)
    assert topo.num_edges == 2
    topo = assert_matches_dense(_lattice(5, 1.5), 1.5)
    assert topo.num_edges == 2 * 3 * 5 * 5 * 4  # every axis-aligned neighbour pair
    # Atoms 1 and 2 are exactly 1.5 apart, but rounding in the offsets from
    # atom 0 puts them two cutoff-wide cells apart along x.
    x = [-0.31183145201048545, 1.1881685479895143, 2.6881685479895143]
    topo = assert_matches_dense(_atoms([[v, 0.0, 0.0] for v in x]), 1.5)
    assert (1, 2) in zip(topo.edge_src.tolist(), topo.edge_recv.tolist())


@pytest.mark.parametrize(
    "system",
    [
        pytest.param(_atoms([[0.3, -1.0, 2.0]]), id="single-atom"),
        pytest.param(_atoms([[0.0, 0, 0], [10.0, 0, 0], [0, 0, 20.0]]), id="no-edges"),
        pytest.param(collinear_chain(0.7, n=9), id="collinear"),
        pytest.param(_atoms(_lattice(4, 0.9).positions[::4] + [0, 0, 2.0]), id="coplanar"),
        pytest.param(_cluster_with_outlier([1e9, 0.0, 0.0]), id="far-outlier"),
        pytest.param(_cluster_with_outlier([-1e9, 1e9, 3e8]), id="far-outlier-diagonal"),
        pytest.param(
            _atoms(random_cloud(60, 0.9, np.random.default_rng(9)).positions + 1e6),
            id="offset-1e6",
        ),
    ],
)
def test_graph_matches_dense_reference_on_edge_cases(system):
    assert_matches_dense(system, 1.5)


def test_reverse_edges_on_unsorted_hand_built_topology():
    edges = [(2, 0), (0, 1), (1, 2), (0, 2), (2, 1), (1, 0)]
    src, recv = (np.array(column, dtype=np.int64) for column in zip(*edges))
    topo = GraphTopology(3, src, recv)
    rev = topo.reverse_edges()
    np.testing.assert_array_equal(rev, dense_reverse_edges(topo))
    np.testing.assert_array_equal(rev, [3, 5, 4, 0, 2, 1])

    assert topo.reverse_edges() is rev and not rev.flags.writeable

    missing = GraphTopology(3, src[:5], recv[:5])  # (1, 0) dropped
    for _ in range(2):  # a missing reverse raises on every call
        with pytest.raises(ValueError, match=r"edge 1 has no reverse edge \(1, 0\)"):
            missing.reverse_edges()


def test_triplets_of_unsorted_edge_list_match_loop():
    rng = np.random.default_rng(5)
    topo, _ = build_graph(random_cloud(25, 0.9, rng), cutoff=1.5)
    perm = rng.permutation(topo.num_edges)
    src, recv = topo.edge_src[perm], topo.edge_recv[perm]
    t_in, t_out = enumerate_triplets(topo.num_nodes, src, recv)
    ref_in, ref_out = dense_triplets(topo.num_nodes, src, recv)
    assert_bitwise_equal(t_in, ref_in)
    assert_bitwise_equal(t_out, ref_out)


def test_ten_thousand_atoms_build_in_linear_memory():
    # A jittered lattice: random_cloud's rejection sampler is itself quadratic.
    idx = np.arange(22, dtype=float)
    grid = np.stack(np.meshgrid(idx, idx, idx, indexing="ij"), axis=-1).reshape(-1, 3)[:10_000]
    pos = grid + np.random.default_rng(0).uniform(-0.1, 0.1, size=grid.shape)
    tracemalloc.start()
    try:
        system = _atoms(pos)
        topo, _ = build_graph(system, cutoff=1.2)
        topo.reverse_edges()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert topo.num_triplets > 10 * system.n
    assert peak < 24 * (system.n + topo.num_edges + topo.num_triplets) * 8
    assert peak < 0.05 * system.n**2 * 3 * 8  # one dense n x n x 3 float64 array

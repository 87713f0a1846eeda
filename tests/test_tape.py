import ast
import re
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egn import tape as tape_module
from egn.basis import angular_basis
from egn.config import DIMENET, GEMNET, ModelConfig
from egn.engine import ModelTape
from egn.graph import DistinctRows, build_graph, edge_vectors, triplet_plan, zero_diagonals
from egn.partition import partition_graph
from egn.params import ModelParams, init_params
from egn.runtime import Collective, CommLog, WorkerGroup
from egn.system import AtomicSystem, random_cloud
from egn.tape import (
    _FORWARD,
    _VJP,
    Evaluator,
    Tape,
    run_alone,
    scatter_add,
)
from egn.tasks import predict

from conftest import block_rows, collinear_chain, dimer, load_perfbench_layers, rel_err


def numeric_vjp(build, x0, seed, h=1e-6):
    """Finite-difference estimate of d<seed, f(x)>/dx for a tape op."""
    grad = np.zeros_like(x0)
    flat = grad.ravel()
    x = x0.copy()
    xf = x.ravel()
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + h
        up = float((build(x) * seed).sum())
        xf[i] = orig - h
        down = float((build(x) * seed).sum())
        xf[i] = orig
        flat[i] = (up - down) / (2 * h)
    return grad


def check_op(record, x0, rng, h=1e-6, tol=1e-6):
    """Record one op on input x0 and compare its adjoint against FD."""
    tape = Tape()
    xid = tape.leaf(x0)
    out = record(tape, xid)
    seed = rng.standard_normal(tape.value(out).shape)
    grads = tape.backward({out: seed})
    exact = grads[xid]

    def build(x):
        t2 = Tape()
        return t2.value(record(t2, t2.leaf(x)))

    approx = numeric_vjp(build, x0, seed, h=h)
    assert np.max(rel_err(approx, exact)) < tol


def test_silu_adjoint(rng):
    check_op(lambda t, x: t.silu(x), rng.standard_normal((5, 4)), rng)


def test_linear_adjoint_all_inputs(rng):
    x0 = rng.standard_normal((6, 3))
    w0 = rng.standard_normal((4, 3))
    b0 = rng.standard_normal(4)
    tape = Tape()
    x, w, b = tape.leaf(x0), tape.leaf(w0), tape.leaf(b0)
    out = tape.linear(x, w, b)
    seed = rng.standard_normal((6, 4))
    grads = tape.backward({out: seed})
    np.testing.assert_allclose(grads[x], seed @ w0, atol=1e-12)
    np.testing.assert_allclose(grads[w], seed.T @ x0, atol=1e-12)
    np.testing.assert_allclose(grads[b], seed.sum(axis=0), atol=1e-12)


def test_mul_add_concat_adjoints(rng):
    a0 = rng.standard_normal((4, 3))
    b0 = rng.standard_normal((4, 3))
    tape = Tape()
    a, b = tape.leaf(a0), tape.leaf(b0)
    out = tape.concat(tape.mul(a, b), tape.add(a, b))
    seed = rng.standard_normal((4, 6))
    grads = tape.backward({out: seed})
    np.testing.assert_allclose(grads[a], seed[:, :3] * b0 + seed[:, 3:], atol=1e-12)
    np.testing.assert_allclose(grads[b], seed[:, :3] * a0 + seed[:, 3:], atol=1e-12)


def test_mul_broadcast_column_adjoint(rng):
    """A column of row scales broadcast over a matrix: its adjoint is the
    row sum, bit for bit the explicit sum."""
    s0 = rng.standard_normal((5, 1))
    m0 = rng.standard_normal((5, 3))
    tape = Tape()
    s, m = tape.leaf(s0), tape.leaf(m0)
    out = tape.mul(s, m)
    assert tape.value(out).tobytes() == (s0 * m0).tobytes()
    seed = rng.standard_normal((5, 3))
    grads = tape.backward({out: seed})
    assert grads[s].shape == (5, 1)
    assert grads[s].tobytes() == (seed * m0).sum(axis=1, keepdims=True).tobytes()
    assert grads[m].tobytes() == (seed * s0).tobytes()


def test_gather_segment_sum_roundtrip_adjoints(rng):
    x0 = rng.standard_normal((6, 2))
    idx = np.array([0, 0, 3, 5, 3])
    seg = np.array([1, 1, 0, 2, 2])
    tape = Tape()
    x = tape.leaf(x0)
    g = tape.gather(x, idx)
    out = tape.segment_sum(g, seg, 3)
    seed = rng.standard_normal((3, 2))
    grads = tape.backward({out: seed})
    expected = np.zeros_like(x0)
    for row, i in enumerate(idx):
        expected[i] += seed[seg[row]]
    np.testing.assert_allclose(grads[x], expected, atol=1e-12)

    # A slice gathers a view with the bits of the equal arange gather, and its
    # adjoint has the bits of that gather's scatter: a -0.0 seed gives +0.0.
    for rows in (slice(1, 5), slice(0, 6), slice(4, 4)):
        tape = Tape()
        x = tape.leaf(x0)
        by_slice = tape.gather(x, rows)
        by_index = tape.gather(x, np.arange(6)[rows])
        assert tape.value(by_slice).base is tape.value(x)
        assert tape.value(by_slice).tobytes() == tape.value(by_index).tobytes()
        seed = rng.standard_normal(tape.value(by_slice).shape)
        seed[::2] = -0.0
        grads = [tape.backward({out: seed})[x] for out in (by_slice, by_index)]
        assert grads[0].tobytes() == grads[1].tobytes()
        assert not np.signbit(grads[0][grads[0] == 0.0]).any()


def test_sum_rows_and_add_broadcast_bias_adjoints(rng):
    """A bias row broadcast over a matrix: its adjoint is the column sum,
    bit for bit the explicit sum."""
    x0 = rng.standard_normal((7, 3))
    b0 = rng.standard_normal(3)
    tape = Tape()
    x, b = tape.leaf(x0), tape.leaf(b0)
    biased = tape.add(x, b)
    assert tape.value(biased).tobytes() == (x0 + b0[None, :]).tobytes()
    out = tape.sum_rows(biased)
    seed = rng.standard_normal((1, 3))
    grads = tape.backward({out: seed})
    np.testing.assert_allclose(grads[x], np.broadcast_to(seed, x0.shape), atol=1e-12)
    np.testing.assert_allclose(grads[b], seed[0] * 7, atol=1e-12)

    tape = Tape()
    x, b = tape.leaf(x0), tape.leaf(b0)
    seed = rng.standard_normal((7, 3))
    grads = tape.backward({tape.add(x, b): seed})
    assert grads[b].shape == (3,)
    assert grads[b].tobytes() == seed.sum(axis=0).tobytes()


@pytest.fixture
def geometry_fixture(rng):
    system = random_cloud(6, 0.9, rng)
    topo, _ = build_graph(system, cutoff=1.5)
    assert topo.num_triplets > 0
    return system, topo


def _vectors(tape, positions, topo):
    return tape.edge_vectors(positions, topo.edge_src, topo.edge_recv)


def _triplet_basis(tape, vectors, topo, l_sbf):
    plan = triplet_plan(topo, slice(None))
    return tape.triplet_basis(tape.edge_units(vectors), plan, l_sbf)


def test_edge_vectors_adjoint(geometry_fixture, rng):
    system, topo = geometry_fixture
    check_op(lambda t, x: _vectors(t, x, topo), system.positions, rng)


def test_edge_distances_adjoint(geometry_fixture, rng):
    system, topo = geometry_fixture
    vectors = edge_vectors(system.positions, topo.edge_src, topo.edge_recv)
    check_op(lambda t, v: t.edge_distances(v), vectors, rng, tol=1e-5)


def test_edge_units_adjoint(geometry_fixture, rng):
    system, topo = geometry_fixture
    vectors = edge_vectors(system.positions, topo.edge_src, topo.edge_recv)
    check_op(lambda t, v: t.edge_units(v), vectors, rng, tol=1e-5)


def test_triplet_angles_adjoint(geometry_fixture, rng):
    """The triplet angle's own adjoint: at l_sbf=2 the basis rows are
    [1, cos(angle)] off the diagonals, so this checks the edge-vector
    adjoint of the angle's cosine alone, through the unit vectors, against
    central finite differences."""
    system, topo = geometry_fixture
    vectors = edge_vectors(system.positions, topo.edge_src, topo.edge_recv)
    check_op(lambda t, v: _triplet_basis(t, v, topo, 2), vectors, rng, tol=1e-5)


def test_gaussian_rbf_adjoint(rng):
    d0 = rng.uniform(0.3, 1.4, size=8)
    check_op(lambda t, x: t.gaussian_rbf(x, 5, 1.5), d0, rng)


def test_angular_sbf_adjoint(rng, angular_sbf):
    """The test-side whole-sbf reference primitive, against central finite
    differences."""
    r0 = rng.uniform(0.0, 1.0, size=(7, 4))
    a0 = angular_basis(rng.uniform(-0.95, 0.95, size=7), 3)
    tape = Tape()
    r, a = tape.leaf(r0), tape.leaf(a0)
    out = angular_sbf(tape, r, a)
    seed = rng.standard_normal(tape.value(out).shape)
    grads = tape.backward({out: seed})

    def value(rv, av):
        t2 = Tape()
        return t2.value(angular_sbf(t2, t2.leaf(rv), t2.leaf(av)))

    h = 1e-6
    for which, arr, exact in (("r", r0, grads[r]), ("a", a0, grads[a])):
        for i in np.ndindex(arr.shape):
            step = np.zeros_like(arr)
            step[i] = h
            if which == "r":
                fd = ((value(arr + step, a0) - value(arr - step, a0)) * seed).sum() / (2 * h)
            else:
                fd = ((value(r0, arr + step) - value(r0, arr - step)) * seed).sum() / (2 * h)
            assert rel_err(fd, exact[i]) < 1e-5


@pytest.mark.parametrize("l_sbf", [1, 4])
def test_angular_basis_adjoint(l_sbf, geometry_fixture, rng):
    """The triplet_basis adjoint, from the basis rows through the edge
    vectors back to the positions, against central finite differences."""
    system, topo = geometry_fixture
    check_op(
        lambda t, x: _triplet_basis(t, _vectors(t, x, topo), topo, l_sbf),
        system.positions,
        rng,
        tol=1e-5,
    )


def _position_readers(tape: Tape, positions: np.ndarray) -> list[str]:
    """The ops of the nodes that take the one positions leaf as input."""
    leaves = [
        nid
        for nid, node in enumerate(tape._nodes)
        if node.op == "leaf" and node.value.tobytes() == positions.tobytes()
    ]
    assert len(leaves) == 1, leaves
    return [node.op for node in tape._nodes if leaves[0] in node.inputs]


def test_positions_are_read_only_by_edge_vectors(monkeypatch):
    """On a ModelTape of each variant, on each worker tape at P=2 and on the
    diagnostic tape, exactly one node reads the positions: edge_vectors."""
    system = random_cloud(12, 0.9, np.random.default_rng(6))
    walked = []
    walk = Tape.walk

    def keep(self, *args):
        walked.append(self)
        return walk(self, *args)

    monkeypatch.setattr(Tape, "walk", keep)
    for variant in (DIMENET, GEMNET):
        cfg = ModelConfig(variant=variant, blocks=2)
        model = ModelTape(system, init_params(cfg))
        assert _position_readers(model.tape, system.positions) == ["edge_vectors"]
        WorkerGroup(system, init_params(cfg.replace(workers=2))).forward_backward()
        assert len(walked) == 2
        while walked:
            assert _position_readers(walked.pop(), system.positions) == ["edge_vectors"]
    predict(system, init_params(ModelConfig(diagnostic=True)))
    assert len(walked) == 1
    assert _position_readers(walked.pop(), system.positions) == ["edge_vectors"]


def _bent_chain(angle: float) -> np.ndarray:
    """Three atoms, unit bonds, bent by ``angle`` from a straight line."""
    return np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [np.sin(angle), 0.0, np.cos(angle)]])


def test_triplet_basis_gradient_is_finite_on_a_collinear_chain(rng):
    """Exactly collinear triplets have cosine -1 and a zero cosine gradient,
    with no special case; the model's position gradient is finite there."""
    positions = _bent_chain(0.0)
    topo, _ = build_graph(AtomicSystem(positions, np.full(3, 6)), cutoff=1.5)
    tape = Tape()
    pos = tape.leaf(positions)
    out = _triplet_basis(tape, _vectors(tape, pos, topo), topo, 4)
    rows = block_rows(triplet_plan(topo, slice(None)), topo)
    np.testing.assert_array_equal(tape.value(out)[rows, 1], -1.0)
    grad = tape.backward({out: rng.standard_normal(tape.value(out).shape)})[pos]
    assert np.all(np.isfinite(grad)) and not grad.any()
    for variant in (DIMENET, GEMNET):
        system = collinear_chain(0.7, n=5)  # cosines -1 and +1
        bundle = ModelTape(system, init_params(ModelConfig(variant=variant))).backward(1.0)
        assert np.all(np.isfinite(bundle.d_positions)), variant


@pytest.mark.parametrize("l_sbf", [2, 4])
def test_triplet_basis_gradient_on_a_nearly_collinear_chain(l_sbf, rng):
    """A chain bent by 1e-4 rad: the position gradient of the basis rows
    matches central differences, though the angle's sine is 1e-4."""
    positions = _bent_chain(1e-4)
    topo, _ = build_graph(AtomicSystem(positions, np.full(3, 6)), cutoff=1.5)
    assert topo.num_triplets == 2
    tape = Tape()
    pos = tape.leaf(positions)
    out = _triplet_basis(tape, _vectors(tape, pos, topo), topo, l_sbf)
    seed = rng.standard_normal(tape.value(out).shape)
    exact = tape.backward({out: seed})[pos]
    ev = Evaluator()
    approx = numeric_vjp(
        lambda x: _triplet_basis(ev, _vectors(ev, x, topo), topo, l_sbf), positions, seed
    )
    assert np.abs(approx - exact).max() < 1e-5 * np.abs(exact).max()


@pytest.mark.parametrize("l_sbf", [1, 3])
def test_triplet_contract_value_and_adjoint(l_sbf, geometry_fixture, rng):
    """Out-edge j -> i gets sum over triplets (k -> j, j -> i) of sum_l
    T_l[t] * (block l of c's row for k -> j), per triplet in a loop, where
    the blocks have a zero diagonal and c is laid out in the order of the
    in-edges, so k -> j is at the row of its reverse j -> k; the adjoints of
    the blocks and of c match central finite differences."""
    _, topo = geometry_fixture
    plan = triplet_plan(topo, slice(None))
    inputs = [
        zero_diagonals(rng.standard_normal((plan.rows, l_sbf)), plan),
        rng.standard_normal((topo.num_edges, 2 * l_sbf)),
    ]
    tape = Tape()
    out = tape.value(tape.triplet_contract(tape.leaf(inputs[0]), tape.leaf(inputs[1]), plan))
    want, scale = np.zeros((topo.num_edges, 2)), np.zeros((topo.num_edges, 2))
    rev = topo.reverse_edges()
    for t, row in enumerate(block_rows(plan, topo)):
        products = inputs[0][row][:, None] * inputs[1][rev[topo.trip_in[t]]].reshape(l_sbf, 2)
        want[topo.trip_out[t]] += products.sum(axis=0)
        scale[topo.trip_out[t]] += np.abs(products).sum(axis=0)
    # Both orders of summation lie within the rounding bound of a sum of
    # ``terms`` products: terms * eps * sum |product|.
    terms = np.bincount(topo.trip_out).max() * l_sbf
    assert np.all(np.abs(out - want) <= terms * np.finfo(float).eps * scale)

    for which in range(2):

        def record(t, x, which=which):
            ids = [x if i == which else t.leaf(a) for i, a in enumerate(inputs)]
            return t.triplet_contract(ids[0], ids[1], plan)

        check_op(record, inputs[which], rng)


def test_triplet_contract_without_triplets():
    """No center atom of degree 2 or more: a zero output, and zero adjoints
    of the inputs' shapes."""
    topo, _ = build_graph(dimer(1.0), cutoff=1.5)
    plan = triplet_plan(topo, slice(None))
    assert plan.rows == 0 and not plan.buckets
    tape = Tape()
    w, c = tape.leaf(np.zeros((0, 2))), tape.leaf(np.ones((2, 8)))
    out = tape.triplet_contract(w, c, plan)
    assert tape.value(out).shape == (2, 4) and not tape.value(out).any()
    grads = tape.backward({out: np.ones((2, 4))})
    assert grads[w].shape == (0, 2)
    assert grads[c].shape == (2, 8) and not grads[c].any()


@pytest.mark.parametrize("l_sbf", [1, 4])
def test_triplet_contract_rows_of_an_atom_range_match_the_whole_plan(l_sbf):
    """The rows of a plan over a range of center atoms J, which are local to
    J's out-edges O_J, are bit-equal to the whole plan's in the output and
    both adjoints, though J's degree buckets batch fewer atoms: each atom's
    bits do not depend on how many atoms share its batched matmul, and the
    plan reads and writes |O_J| rows and no other."""
    topo, _ = build_graph(random_cloud(60, 0.9, np.random.default_rng(2)), cutoff=1.5)
    rng = np.random.default_rng(3)
    plan = triplet_plan(topo, slice(None))
    blocks = zero_diagonals(rng.standard_normal((plan.rows, l_sbf)), plan)
    c = rng.standard_normal((topo.num_edges, 5 * l_sbf))
    g = rng.standard_normal((topo.num_edges, 5))

    def contract(plan, blocks, c, g):
        tape = Tape()
        ids = tape.leaf(blocks), tape.leaf(c)
        out = tape.triplet_contract(*ids, plan)
        grads = tape.backward({out: g})
        return tape.value(out), grads[ids[0]], grads[ids[1]]

    whole = contract(plan, blocks, c, g)
    cut = topo.num_nodes // 3
    part = triplet_plan(topo, slice(cut, 2 * cut))
    # Some bucket of J batches fewer atoms than the whole plan's of its degree.
    whole_batch = {b.out_rows.shape[1]: b.out_rows.shape[0] for b in plan.buckets}
    assert any(b.out_rows.shape[0] < whole_batch[b.out_rows.shape[1]] for b in part.buckets)
    rows = block_rows(part, topo)
    mine = rows >= 0
    part_blocks = np.zeros((part.rows, l_sbf))
    part_blocks[rows[mine]] = blocks[block_rows(plan, topo)[mine]]
    edges = part.edges
    assert edges == slice(*topo.out_edge_starts()[[cut, 2 * cut]].tolist())
    out, d_blocks, d_c = contract(part, part_blocks, c[edges], g[edges])
    assert out.shape == (edges.stop - edges.start, 5) and d_c.shape == c[edges].shape
    assert out.tobytes() == whole[0][edges].tobytes()
    assert d_c.tobytes() == whole[2][edges].tobytes()
    assert d_blocks[rows[mine]].tobytes() == whole[1][block_rows(plan, topo)[mine]].tobytes()


def test_gemnet_forward_without_triplets():
    """A gemnet-style system with edges but no triplets: the Tape and the
    Evaluator forward agree bit for bit, and no gradient reaches the gates
    of the angular orders."""
    cfg = ModelConfig(variant=GEMNET, blocks=2, d_t=3, d_bil=5, l_sbf=2)
    params = init_params(cfg)
    system = dimer(1.0)
    model = ModelTape(system, params)
    basis = [node.value for node in model.tape._nodes if node.op == "triplet_basis"]
    assert [value.shape for value in basis] == [(0, cfg.l_sbf)]
    energy, forces = predict(system, params, workers=1)
    assert _bits(energy, forces) == _bits(model.energy, model.forces)
    grads = model.backward(1.0, np.ones((system.n, 3)))
    for b in range(cfg.blocks):
        for name in ("sbf_gate", "bilinear_a", "bilinear_b"):
            assert not grads.d_params[f"block{b}.tu.{name}"].any(), name
    assert np.all(np.isfinite(grads.d_positions))


@pytest.mark.parametrize("l_sbf", [1, 3])
def test_gemnet_workers_agree_with_one(l_sbf):
    """Gemnet-style forward_backward at P=2 and P=3 agrees with P=1 to 1e-9,
    and P=1 with the sequential engine bit for bit."""
    cfg = ModelConfig(variant=GEMNET, blocks=2, d_t=3, d_bil=5, l_sbf=l_sbf)
    params = init_params(cfg)
    system = random_cloud(24, 0.9, np.random.default_rng(11))
    d_forces = np.random.default_rng(12).standard_normal((system.n, 3))
    runs = {}
    for p in (1, 2, 3):
        group = WorkerGroup(system, ModelParams(cfg.replace(workers=p), params.arrays))
        runs[p] = group.forward_backward(d_energy=0.5, d_forces=d_forces)
    model = ModelTape(system, params)
    seq = model.backward(0.5, d_forces)
    one, one_grads = runs[1]
    assert _bits(one.energy, one.forces, one_grads.d_positions) == _bits(
        model.energy, model.forces, seq.d_positions
    )
    assert _bits(*one_grads.d_params.values()) == _bits(*seq.d_params.values())
    for p in (2, 3):
        result, grads = runs[p]
        np.testing.assert_allclose(result.energy, one.energy, rtol=1e-9)
        np.testing.assert_allclose(result.forces, one.forces, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(grads.d_positions, one_grads.d_positions, rtol=1e-9, atol=1e-12)
        for name, g in one_grads.d_params.items():
            np.testing.assert_allclose(grads.d_params[name], g, rtol=1e-9, atol=1e-12, err_msg=name)


def _one_worker_total(value, rows, shape):
    """A one-worker Collective's total of ``value`` placed at ``rows`` of
    a zero buffer of ``shape``."""
    buffer = np.zeros(shape)
    buffer[rows] = value
    collective = Collective(1, CommLog())
    return collective.allreduce_sum(0, buffer, phase="forward", block=0, stage="t", level="edge")


def _every_primitive(tape, system, topo, w, b) -> dict:
    """Record each primitive once on ``tape``; map op name to its handle."""
    h = {}
    pos = h["leaf"] = tape.leaf(system.positions)
    vec = h["edge_vectors"] = _vectors(tape, pos, topo)
    dist = h["edge_distances"] = tape.edge_distances(vec)
    units = h["edge_units"] = tape.edge_units(vec)
    rbf = h["gaussian_rbf"] = tape.gaussian_rbf(dist, 4, 1.5)
    h["gather"] = tape.gather(rbf, topo.edge_recv)
    w_id, b_id = tape.leaf(w), tape.leaf(b)
    lin = tape.linear(rbf, w_id)
    column = tape.linear(rbf, tape.leaf(w[:1]))
    plan = triplet_plan(topo, slice(None))
    cos = h["triplet_basis"] = tape.triplet_basis(units, plan, 3)
    h["triplet_contract"] = tape.triplet_contract(cos, lin, plan)
    h["linear"] = tape.linear(tape.silu(lin), tape.leaf(w[:, :3]), b_id)
    h["silu"] = tape.silu(lin)
    h["add"] = tape.add(lin, units)
    h["add:bias"] = tape.add(lin, b_id)
    h["mul"] = tape.mul(lin, units)
    h["mul:rows"] = tape.mul(column, units)
    h["concat"] = tape.concat(lin, units)
    h["segment_sum"] = tape.segment_sum(units, topo.edge_recv, topo.num_nodes)
    h["sum_rows"] = tape.sum_rows(units)
    rows = slice(1, topo.num_edges // 2)
    own = h["gather:slice"] = tape.gather(lin, rows)
    total = _one_worker_total(tape.value(own), rows, (topo.num_edges, 3))
    h["allreduce"] = tape.allreduce(own, total, rows)
    return h


def test_evaluator_matches_tape_on_every_primitive(geometry_fixture, rng):
    system, topo = geometry_fixture
    w, b = rng.standard_normal((3, 4)), rng.standard_normal(3)
    tape, ev = Tape(), Evaluator()
    recorded = _every_primitive(tape, system, topo, w, b)
    evaluated = _every_primitive(ev, system, topo, w, b)
    assert {name.split(":")[0] for name in recorded} == set(_FORWARD)
    assert not ev._nodes
    for op, nid in recorded.items():
        want, got = tape.value(nid), ev.value(evaluated[op])
        assert got.shape == want.shape and got.dtype == want.dtype, op
        assert got.tobytes() == want.tobytes(), op
    with pytest.raises(RuntimeError):
        ev.backward({})


def _bits(*arrays) -> list[bytes]:
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


@pytest.mark.parametrize("variant", [DIMENET, GEMNET])
def test_no_tape_without_backward(variant, monkeypatch):
    """Inference and WorkerGroup.forward() record no Tape node and give the
    bits of the recorded path."""
    system = random_cloud(16, 0.9, np.random.default_rng(5))
    cfg = ModelConfig(variant=variant, blocks=2)
    params = init_params(cfg)
    model = ModelTape(system, params)
    recorded_runs = {}
    for p in (1, 2):
        run_params = ModelParams(cfg.replace(workers=p), params.arrays)
        recorded_runs[p] = (run_params, WorkerGroup(system, run_params).forward_backward()[0])

    def refuse(self, op, inputs, aux):
        raise AssertionError(f"recorded {op!r} on a Tape with no backward to follow")

    monkeypatch.setattr(Tape, "_record", refuse)
    with pytest.raises(AssertionError):
        ModelTape(system, params)

    if variant == GEMNET:
        energy, forces = predict(system, params, workers=1)
        assert _bits(energy, forces) == _bits(model.energy, model.forces)
    for p, (run_params, want) in recorded_runs.items():
        got = WorkerGroup(system, run_params).forward()
        assert _bits(got.energy) == _bits(want.energy), p
        if variant == GEMNET:
            assert _bits(got.forces) == _bits(want.forces), p
        for name in ("edge_features", "node_features", "global_features"):
            assert _bits(getattr(got.state, name)) == _bits(getattr(want.state, name)), (p, name)


def assert_replays(tape: Tape) -> None:
    """Re-run every recorded node's forward rule on its recorded inputs and
    demand its recorded value bit for bit."""
    for nid, node in enumerate(tape._nodes):
        vals = [tape._nodes[i].value for i in node.inputs]
        redo = _FORWARD[node.op](vals, node.aux)
        assert redo.shape == node.value.shape, f"node {nid} ({node.op}) replay shape"
        assert redo.tobytes() == node.value.tobytes(), f"node {nid} ({node.op}) replay mismatch"


def test_replay_is_bit_exact(rng):
    tape = Tape()
    x = tape.leaf(rng.standard_normal((4, 3)))
    w = tape.leaf(rng.standard_normal((2, 3)))
    tape.silu(tape.linear(x, w))
    assert_replays(tape)
    for variant in (DIMENET, GEMNET):
        cfg = ModelConfig(variant=variant, blocks=2)
        assert_replays(ModelTape(random_cloud(10, 0.9, rng), init_params(cfg)).tape)


def test_replay_mismatch_raises(rng):
    tape = Tape()
    x = tape.leaf(rng.standard_normal((4, 3)))
    out = tape.silu(x)
    tape._nodes[out].value = tape._nodes[out].value + 1e-9  # corrupt the record
    with pytest.raises(AssertionError, match="replay mismatch"):
        assert_replays(tape)


def test_backward_seed_shape_mismatch(rng):
    tape = Tape()
    x = tape.leaf(rng.standard_normal((4, 3)))
    out = tape.silu(x)
    with pytest.raises(ValueError):
        tape.backward({out: np.ones((2, 2))})


def masked_sigmoid(x: np.ndarray) -> np.ndarray:
    """The two-branch sigmoid by boolean masks, the reference of _sigmoid."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_has_the_bits_of_the_masked_branches(rng):
    """One pass of exp(-|x|) gives the bits of the masked two-branch form,
    at signed zeros, far tails, infinities and NaN too."""
    from egn.tape import _sigmoid

    special = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, 36.5, -36.5, 745.2])
    x = np.concatenate([special, rng.standard_normal(500) * 20])
    with np.errstate(over="ignore"):
        want = masked_sigmoid(x)
    got = _sigmoid(x)
    assert got.tobytes() == want.tobytes()
    assert _sigmoid(x.reshape(-1, 5)).tobytes() == want.tobytes()


def where_sigmoid(x: np.ndarray) -> np.ndarray:
    """The np.where of two quotients, the former form of _sigmoid."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_sigmoid_divides_once_with_the_bits_of_two_quotients():
    """max(e, x >= 0) / (1 + e) has the bits of the np.where of 1 / (1 + e)
    and e / (1 + e): magnitudes 1e-300 to 800 of both signs, signed zeros,
    infinities, the smallest subnormal, exp's overflow and underflow edges
    at 709 and 745, and NaNs with three payloads, one of them signalling."""
    from egn.tape import _sigmoid

    mags = np.logspace(-300.0, np.log10(800.0), 3001)
    edges = np.array([0.0, np.inf, 5e-324, 709.0, 745.0])
    payloads = np.array([0x7FF8000000000000, 0x7FF8000000000123, 0xFFF4000000000001], dtype=np.uint64)
    x = np.concatenate([mags, -mags, edges, np.negative(edges), payloads.view(np.float64)])
    assert _sigmoid(x).tobytes() == where_sigmoid(x).tobytes()


def test_multiple_consumers_accumulate(rng):
    x0 = rng.standard_normal((3, 3))
    tape = Tape()
    x = tape.leaf(x0)
    out = tape.add(tape.silu(x), tape.mul(x, x))
    seed = np.ones((3, 3))
    grads = tape.backward({out: seed})
    from egn.tape import _sigmoid

    s = _sigmoid(x0)
    expected = s * (1 + x0 * (1 - s)) + 2 * x0
    np.testing.assert_allclose(grads[x], expected, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    num=st.integers(1, 9),
    tail=st.sampled_from([(), (3,), (2, 4)]),
    rows=st.integers(1, 40),
    data=st.data(),
)
def test_scatter_add_matches_add_at_bit_for_bit(num, tail, rows, data):
    # Few output rows and many input rows: indices repeat, unsorted.
    idx = np.array(data.draw(st.lists(st.integers(0, num - 1), min_size=rows, max_size=rows)))
    size = rows * int(np.prod(tail, dtype=np.int64))
    special = st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan, 1e308, -1e308])
    values = data.draw(st.lists(st.floats() | special, min_size=size, max_size=size))
    x = np.array(values, dtype=np.float64).reshape((rows,) + tail)
    expected = np.zeros((num,) + tail)
    np.add.at(expected, idx, x)
    actual = scatter_add(idx, x, num)
    assert actual.dtype == np.float64 and actual.shape == expected.shape
    # Where two NaNs meet, add.at keeps the first operand's sign bit for
    # scalar rows and the second's for longer rows, so a NaN's bits are
    # not pinned; every other value is.
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.int64), expected[~nan].view(np.int64))


@pytest.mark.parametrize("tail", [(), (3,), (2, 4)])
def test_scatter_add_empty_index_gives_float_zeros(tail):
    out = scatter_add(np.empty(0, dtype=np.int64), np.empty((0,) + tail), 5)
    assert out.dtype == np.float64 and out.shape == (5,) + tail
    np.testing.assert_array_equal(out.view(np.int64), np.zeros((5,) + tail).view(np.int64))


@pytest.mark.parametrize("tail", [(), (2,)])
@pytest.mark.parametrize("bad", [5, 6, -1])
def test_scatter_add_index_out_of_range_raises(bad, tail):
    with pytest.raises(IndexError):
        scatter_add(np.array([0, bad, 1]), np.ones((3,) + tail), 5)


def test_scatter_add_rejects_index_of_wrong_length():
    with pytest.raises(ValueError):
        scatter_add(np.array([0, 1]), np.ones((3, 2)), 5)


def _frozen(tape: Tape, seeds: dict) -> dict:
    """Make every recorded value and every seed read-only."""
    for node in tape._nodes:
        node.value.flags.writeable = False
    frozen = {}
    for nid, seed in seeds.items():
        frozen[nid] = np.array(seed, dtype=np.float64)
        frozen[nid].flags.writeable = False
    return frozen


@pytest.mark.parametrize("variant", [DIMENET, GEMNET])
def test_backward_never_writes_into_its_inputs(variant, rng):
    cfg = ModelConfig(variant=variant, blocks=2)
    model = ModelTape(random_cloud(12, 0.9, rng), init_params(cfg))
    # Gathers by slice are views that alias other recorded values.
    views = [n for n in model.tape._nodes if n.op == "gather" and isinstance(n.aux["idx"], slice)]
    assert views and all(n.value.base is not None for n in views)
    seeds = {model.handles.energy: np.array([[0.7]])}
    if model.handles.forces is not None:
        seeds[model.handles.forces] = rng.standard_normal(model.forces.shape)
    expected = model.tape.backward(seeds)
    actual = model.tape.backward(_frozen(model.tape, seeds))
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert (got is None) == (want is None)
        if got is not None:
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def keep_all_backward(tape: Tape, seeds: dict) -> list:
    """Reference walk that keeps every node's adjoint until it returns."""
    nodes = tape._nodes
    grads = [None] * len(nodes)
    for nid, seed in seeds.items():
        grads[nid] = np.asarray(seed, dtype=np.float64)
    for nid in range(len(nodes) - 1, -1, -1):
        g, node = grads[nid], nodes[nid]
        if g is None and node.op == "allreduce":
            g = np.zeros_like(node.value)
        if g is None or node.op == "leaf":
            continue
        vals = [nodes[i].value for i in node.inputs]
        for iid, ig in zip(node.inputs, _VJP[node.op](g, vals, node.value, node.aux)):
            if ig is not None:
                grads[iid] = ig if grads[iid] is None else grads[iid] + ig
    return grads


@pytest.mark.parametrize("variant", [DIMENET, GEMNET])
def test_walk_reports_each_label_once_in_reverse(variant, rng):
    """A sequential walk calls ``enter`` once per stage label, in reverse
    recording order, from the readout to the geometry."""
    cfg = ModelConfig(variant=variant, blocks=2)
    model = ModelTape(random_cloud(12, 0.9, rng), init_params(cfg))
    per_block = ["tu", "eu", "nu", "eu2", "sym", "gu"] if variant == GEMNET else ["tu", "eu", "nu", "gu"]
    stages = ["geometry", "init", *(f"block{b}.{s}" for b in range(2) for s in per_block), "readout"]
    assert list(dict.fromkeys(node.stage for node in model.tape._nodes)) == stages
    reported = []
    grads = run_alone(model.tape.walk(model.handles.seeds(model.tape), reported.append))
    assert reported == stages[::-1]
    want = model.tape.backward(model.handles.seeds(model.tape))
    assert _bits(grads[model.handles.positions]) == _bits(want[model.handles.positions])


@pytest.mark.parametrize("variant", [DIMENET, GEMNET])
def test_backward_keeps_only_leaf_adjoints(variant, rng):
    """Non-leaf adjoints are dropped during the walk; leaf gradients keep
    the bits of a walk that holds every adjoint."""
    cfg = ModelConfig(variant=variant, blocks=2)
    model = ModelTape(random_cloud(12, 0.9, rng), init_params(cfg))
    seeds = {model.handles.energy: np.array([[0.7]])}
    if model.handles.forces is not None:
        seeds[model.handles.forces] = rng.standard_normal(model.forces.shape)
    got = model.tape.backward(seeds)
    want = keep_all_backward(model.tape, seeds)
    assert len(got) == len(want)
    leaves = 0
    for node, g, w in zip(model.tape._nodes, got, want):
        if node.op != "leaf":
            assert g is None
            continue
        leaves += w is not None
        assert (g is None) == (w is None)
        if g is not None:
            np.testing.assert_array_equal(g.view(np.int64), w.view(np.int64))
    assert leaves > len(model.handles.param_leaves.ids)  # the positions too


@pytest.mark.parametrize("variant, by_index, by_slice", [(DIMENET, 20, 10), (GEMNET, 26, 14)])
def test_backward_scatters_only_scattered_rows(variant, by_index, by_slice, monkeypatch):
    """Gathers of contiguous rows, or of rows that never repeat, take their
    adjoint without scatter_add.

    ``by_index`` is the count when contiguous rows are gathered through
    arange index arrays; with slices, only gathers by the in-edges, by rev
    and the edge-vector VJP scatter. The triplet path scatters nothing: the
    contraction's adjoint writes each row of C once and the triplet
    basis's adjoint each out-edge row once. So dimenet-style scatters 10
    times: per block ``record_ea_nu``'s gather of m by ``plan.in_edges``
    and the triplet update's gathers of m and of the rbf at the in-edges
    rev[O_J], then the edge_vectors VJP
    into atoms. The triplet update gathers its out-edges O_J by a slice.
    rev and rev[O_J] are ``DistinctRows``, whose gathers assign their
    adjoint, so only scatters into atoms remain: the edge_vectors VJP and,
    gemnet-style, eu2's gathers of node rows by receiver.
    """
    cfg = ModelConfig(variant=variant, blocks=3)
    system = random_cloud(20, 0.9, np.random.default_rng(0))
    model = ModelTape(system, init_params(cfg))
    calls = []

    def spy(idx, x, num):
        calls.append(num)
        return scatter_add(idx, x, num)

    monkeypatch.setattr(tape_module, "scatter_add", spy)
    model.backward(1.0)
    assert calls and set(calls) == {system.n}
    calls.clear()
    monkeypatch.setattr(tape_module._graph, "DistinctRows", type("Unmarked", (), {}))
    model.backward(1.0)
    assert len(calls) == by_slice < by_index


def test_distinct_gathers_match_scatter_add_bitwise(rng):
    """On the reference topology, the adjoint of a gather by rows that are
    written once has the bits of scatter_add, with -0.0 and NaN rows: by
    rev, and for each worker at P=4 by its in-edges rev[O_J], and by the
    slices of its out-edges O_J and its atoms J."""
    topo, _ = build_graph(random_cloud(300, 0.9, np.random.default_rng(0)), 2.0)
    payload_nan = np.array([0xFFF8000000000123], dtype=np.uint64).view(np.float64)[0]
    gathers = [(topo.reverse_edges(), topo.num_edges)]
    for atoms in partition_graph(topo, 4):
        plan = triplet_plan(topo, atoms)
        gathers += [(plan.in_edges, topo.num_edges), (plan.edges, topo.num_edges)]
        gathers += [(plan.atoms, topo.num_nodes)]
    assert np.isnan(payload_nan) and np.signbit(payload_nan)
    for idx, num in gathers:
        assert isinstance(idx, (DistinctRows, slice))
        rows = np.arange(num)[idx]
        g = rng.standard_normal((rows.size, 32))
        g[0::6] = -0.0
        g[1::6] = np.nan
        g[2::6] = payload_nan
        tape = Tape()
        x = tape.leaf(np.zeros((num, 32)))
        got = tape.backward({tape.gather(x, idx): g})[x]
        want = scatter_add(rows, g, num)
        assert not np.signbit(want[rows[0::6]]).any()  # -0.0 + 0.0 is +0.0
        assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()


def test_module_docstring_lists_every_primitive():
    """The primitive list in ``egn.tape``'s docstring names exactly the
    keys of ``_FORWARD``."""
    listed = re.search(r"^Primitives: (.*?)\.$", tape_module.__doc__, re.M | re.S).group(1)
    names = [name.strip() for name in re.split(r",|\band\b", listed) if name.strip()]
    assert len(names) == len(set(names)), names
    assert set(names) == set(_FORWARD)


def test_every_primitive_is_recorded_by_a_pass(monkeypatch):
    """The model in both variants, a two-worker runtime pass with its
    backward and the diagnostic well together record every primitive."""
    recorded = set()
    original = Tape._record

    def spy(self, op, inputs, aux):
        recorded.add(op)
        return original(self, op, inputs, aux)

    monkeypatch.setattr(Tape, "_record", spy)
    system = random_cloud(16, 0.9, np.random.default_rng(5))
    for variant in (DIMENET, GEMNET):
        ModelTape(system, init_params(ModelConfig(variant=variant, blocks=1)))
    params = init_params(ModelConfig(variant=GEMNET, blocks=1, workers=2))
    WorkerGroup(system, params).record().backward()
    predict(system, init_params(ModelConfig(diagnostic=True)))
    assert recorded == set(_FORWARD)


def _source_trees():
    src = Path(__file__).resolve().parents[1] / "src" / "egn"
    paths = sorted(src.rglob("*.py"))
    assert paths, f"no sources under {src}"
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def test_no_ufunc_at_under_src():
    """Every scatter goes through tape.scatter_add, the one scatter kernel."""
    found = []
    for path, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "at":
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"ufunc.at found at {found}; use tape.scatter_add"


def test_no_threads_or_timeouts_under_src():
    """Workers take turns on one thread: no module imports threading, and
    nothing waits with a timeout."""
    found = []
    for path, tree in _source_trees():
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            named = getattr(node, "id", None) or getattr(node, "attr", None)
            named = named or getattr(node, "arg", None)
            if any(m.split(".")[0] in ("threading", "concurrent") for m in modules) or (
                isinstance(named, str) and "timeout" in named.lower()
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_unused_imports_under_src():
    """Every name a module imports is used in it, listed in its
    ``__all__``, or patched on it by the benchmark's ``perfbench/layers.py``."""
    patched: dict[str, set] = {}
    for owner, attribute, *_ in load_perfbench_layers().patches():
        if isinstance(owner, types.ModuleType):
            patched.setdefault(owner.__name__.rpartition(".")[2], set()).add(attribute)
    found = []
    for path, tree in _source_trees():
        imported = {}
        used = set(patched.get(path.stem, ()))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and "__all__" in [
                getattr(target, "id", None) for target in node.targets
            ]:
                used.update(ast.literal_eval(node.value))
        found += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert not found, f"unused imports: {found}"


def test_no_arange_over_whole_buffers_under_src():
    """Contiguous rows are slices: no index array spans all edges, triplets
    or nodes."""
    counts = {"num_edges", "num_triplets", "num_nodes"}
    found = []
    for path, tree in _source_trees():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "arange"
            ):
                continue
            for arg in node.args:
                name = arg.attr if isinstance(arg, ast.Attribute) else getattr(arg, "id", None)
                if name in counts:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"arange over a whole buffer at {found}; use a slice"

"""Multi-worker runtime tests: collective semantics and engine equivalence."""

import gc
import hashlib
import re
import threading
import time
import weakref
from collections import Counter, defaultdict

import numpy as np
import pytest

from egn import engine
from egn import tape as tape_module
from egn.config import DIMENET, GEMNET, ModelConfig
from egn.engine import ModelTape
from egn.params import ModelParams, init_params, param_specs
from egn.partition import CommModel, comm_volume
from egn.runtime import (
    Collective,
    CollectiveError,
    CollectiveShapeError,
    CommLog,
    WorkerGroup,
    WorkerGroupError,
)
from egn.system import AtomicSystem, random_cloud
from egn.tasks import predict, train_simple

from conftest import DropLastCollective, basis_of, block_rows, dimer, load_perfbench_layers


def run_collective(buffers):
    """Each rank's buffer into one collective, in rank order; returns what
    each call returned and the comm log."""
    log = CommLog()
    col = Collective(len(buffers), log)
    results = [
        col.allreduce_sum(rank, buffer, phase="forward", block=0, stage="t", level="edge")
        for rank, buffer in enumerate(buffers)
    ]
    return results, log


def test_allreduce_two_workers():
    results, log = run_collective([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
    assert results[0] is None  # the sum waits for the last rank
    np.testing.assert_array_equal(results[1], [4.0, 6.0])
    assert not results[1].flags.writeable  # one total, read by every worker
    assert log.records[0].elements == 2


def test_allreduce_single_worker_identity():
    buf = np.array([[1.5, -2.0]])
    results, _ = run_collective([buf])
    np.testing.assert_array_equal(results[0], buf)
    assert results[0] is not buf


def test_allreduce_matches_rank_ordered_sum_bitwise(rng):
    buffers = [rng.standard_normal((7, 3)) for _ in range(3)]
    results, _ = run_collective(buffers)
    assert results[:2] == [None, None]
    expected = buffers[0].copy()
    for b in buffers[1:]:
        expected += b
    np.testing.assert_array_equal(results[2], expected)


def test_allreduce_shape_mismatch_names_ranks_stage_and_block():
    log = CommLog()
    col = Collective(2, log)
    col.allreduce_sum(0, np.zeros((2, 2)), phase="forward", block=3, stage="eu", level="edge")
    want = "collective 'eu' of block 3: rank 0 (2, 2), rank 1 (3, 2)"
    with pytest.raises(CollectiveShapeError, match=re.escape(want)):
        col.allreduce_sum(1, np.zeros((3, 2)), phase="forward", block=3, stage="eu", level="edge")
    assert not log.records


def test_allreduce_out_of_rank_order_names_ranks():
    """A rank that enters before a lower rank has, a missing participant,
    fails at once with no wait."""
    col = Collective(2, CommLog())
    want = "rank 1 entered collective 't' of block 0, which waits for rank 0"
    with pytest.raises(CollectiveError, match=re.escape(want)):
        col.allreduce_sum(1, np.zeros(3), phase="forward", block=0, stage="t", level="edge")
    col.allreduce_sum(0, np.zeros(3), phase="forward", block=0, stage="t", level="edge")
    want = "rank 0 entered collective 't' of block 1, which waits for rank 1"
    with pytest.raises(CollectiveError, match=re.escape(want)):
        col.allreduce_sum(0, np.zeros(3), phase="forward", block=1, stage="t", level="edge")


def test_triplet_level_buffers_are_rejected():
    log = CommLog()
    col = Collective(1, log)
    with pytest.raises(ValueError):
        col.allreduce_sum(0, np.zeros(3), phase="forward", block=0, stage="t", level="triplet")


def test_positions_and_parameters_are_all_reduced_in_the_backward_only():
    col = Collective(1, CommLog())
    for level in ("position", "param"):
        with pytest.raises(ValueError, match=f"forward buffers of level '{level}'"):
            col.allreduce_sum(0, np.ones(3), phase="forward", block=-1, stage="s", level=level)
        total = col.allreduce_sum(0, np.ones(3), phase="backward", block=-1, stage="s", level=level)
        np.testing.assert_array_equal(total, np.ones(3))
    assert [rec.level for rec in col.log.records] == ["position", "param"]


def test_ranks_that_label_a_collective_apart_fail_it(monkeypatch):
    """Rank 1 labels its edge-update collective as the node update's: the
    pass fails there with a CollectiveError naming the rank, the stage and
    the block, before anything is summed or logged."""
    system = random_cloud(20, 0.9, np.random.default_rng(0))
    group = WorkerGroup(system, init_params(ModelConfig(workers=2)))
    worker_forward = WorkerGroup._worker_forward

    def relabelled(self, ctx, record):
        step, total = worker_forward(self, ctx, record), None
        while True:
            try:
                buffer, where = step.send(total)
            except StopIteration as stop:
                return stop.value
            if ctx.rank == 1 and where["stage"] == "eu":
                where = {**where, "stage": "nu"}
            total = yield buffer, where

    monkeypatch.setattr(WorkerGroup, "_worker_forward", relabelled)
    log = CommLog()
    monkeypatch.setattr("egn.runtime.CommLog", lambda: log)
    want = "ranks [1] disagree with rank 0 on collective 'eu' of block 0"
    with pytest.raises(CollectiveError, match=re.escape(want)):
        group.forward()
    assert not log.records


def test_empty_buffers_allreduce():
    results, log = run_collective([np.zeros((0, 4)), np.zeros((0, 4))])
    assert results[1].shape == (0, 4)
    assert log.records[0].elements == 0


@pytest.fixture(scope="module")
def medium_system():
    return random_cloud(30, 0.9, np.random.default_rng(99))


def _sequential_reference(system, cfg, params):
    model = ModelTape(system, params)
    bundle = model.backward(d_energy=1.0)
    forces = model.forces if cfg.variant == "gemnet-style" else -bundle.d_positions
    return model, bundle, forces


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
def test_single_worker_matches_sequential_bitwise(variant, medium_system):
    cfg = ModelConfig(variant=variant, blocks=2, workers=1)
    params = init_params(cfg)
    model, bundle, forces = _sequential_reference(medium_system, cfg, params)
    group = WorkerGroup(medium_system, params)
    result, par_bundle = group.forward_backward(d_energy=1.0)
    assert result.energy == model.energy
    np.testing.assert_array_equal(par_bundle.d_positions, bundle.d_positions)
    for name in bundle.d_params:
        np.testing.assert_array_equal(par_bundle.d_params[name], bundle.d_params[name])
    np.testing.assert_array_equal(result.state.edge_features, model.state.edge_features)
    np.testing.assert_array_equal(result.state.node_features, model.state.node_features)
    np.testing.assert_array_equal(result.state.global_features, model.state.global_features)
    if variant == "gemnet-style":
        np.testing.assert_array_equal(result.forces, model.forces)


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
@pytest.mark.parametrize("workers", [2, 3, 4, 8])
def test_parallel_matches_sequential(variant, workers, medium_system):
    cfg = ModelConfig(variant=variant, blocks=2, workers=workers)
    params = init_params(cfg)
    model, bundle, forces = _sequential_reference(medium_system, cfg, params)
    group = WorkerGroup(medium_system, params)
    result, par_bundle = group.forward_backward(d_energy=1.0)
    assert np.isclose(result.energy, model.energy, rtol=1e-9, atol=1e-12)
    par_forces = result.forces if variant == "gemnet-style" else -par_bundle.d_positions
    np.testing.assert_allclose(par_forces, forces, rtol=1e-9, atol=1e-12)
    for name in bundle.d_params:
        np.testing.assert_allclose(
            par_bundle.d_params[name], bundle.d_params[name], rtol=1e-9, atol=1e-12,
        )
    # feature buffers of the replica
    np.testing.assert_allclose(
        result.state.edge_features, model.state.edge_features, rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        result.state.node_features, model.state.node_features, rtol=1e-9, atol=1e-12
    )
    np.testing.assert_allclose(
        result.state.global_features, model.state.global_features, rtol=1e-9, atol=1e-12
    )


def test_gemnet_force_seeded_parallel_backward(medium_system, rng):
    cfg = ModelConfig(variant="gemnet-style", blocks=2, workers=3)
    params = init_params(cfg)
    direction = rng.standard_normal((medium_system.n, 3))
    model = ModelTape(medium_system, params)
    seq = model.backward(d_energy=1.0, d_forces=direction)
    group = WorkerGroup(medium_system, params)
    _, par = group.forward_backward(d_energy=1.0, d_forces=direction)
    np.testing.assert_allclose(par.d_positions, seq.d_positions, rtol=1e-9, atol=1e-12)
    for name in seq.d_params:
        np.testing.assert_allclose(par.d_params[name], seq.d_params[name], rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_triplet_geometry_is_recorded_per_shard(workers, medium_system, monkeypatch):
    """In both variants each worker computes the triplet basis over its own
    center atoms only, and its blocks, read at those atoms' triplets, have
    the bits of the sequential blocks: the workers' blocks assemble to them."""
    cfg = ModelConfig(blocks=2, workers=workers)
    topo, whole = basis_of(medium_system, cfg)
    want = whole.triplet_basis[block_rows(whole.plan, topo)]
    centers = topo.edge_src[topo.trip_out]
    degree = np.bincount(topo.edge_src, minlength=topo.num_nodes)

    seen = defaultdict(list)  # the plan's atoms -> [(plan, value)]
    rule = tape_module._FORWARD["triplet_basis"]

    def wrapped(vals, aux):
        value = rule(vals, aux)
        atoms = aux["plan"].atoms
        seen[atoms.start, atoms.stop].append((aux["plan"], value))
        return value

    monkeypatch.setitem(tape_module._FORWARD, "triplet_basis", wrapped)
    for variant in (DIMENET, GEMNET):
        group = WorkerGroup(medium_system, init_params(cfg.replace(variant=variant)))
        group.forward()
        group.forward_backward()
        rows = 0
        for atoms in group.partition:
            calls = seen.pop((atoms.start, atoms.stop))
            assert len(calls) == 2, variant
            mine = (atoms.start <= centers) & (centers < atoms.stop)
            in_shard = np.arange(atoms.start, atoms.stop)
            for plan, value in calls:
                first = [plan.edges.start + b.out_rows[:, 0] for b in plan.buckets]
                owned = [int(j) for rows in first for j in topo.edge_src[rows]]
                assert sorted(owned) == in_shard[degree[in_shard] >= 2].tolist()
                at = block_rows(plan, topo)
                assert np.all(at[mine] >= 0) and np.all(at[~mine] == -1)
                assert value[at[mine]].tobytes() == want[mine].tobytes()
            rows += plan.rows
        assert rows == whole.plan.rows
        assert not seen, sorted(seen)  # no triplet geometry outside the workers


def test_more_workers_than_triplets_contributes_zeros():
    system = dimer(1.0)  # two edges, zero triplets
    cfg = ModelConfig(variant="dimenet-style", blocks=2, workers=6)
    params = init_params(cfg)
    model, bundle, forces = _sequential_reference(system, cfg, params)
    group = WorkerGroup(system, params)
    result, par_bundle = group.forward_backward(d_energy=1.0)
    assert np.isclose(result.energy, model.energy, rtol=1e-9)
    np.testing.assert_allclose(-par_bundle.d_positions, forces, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("variant", [DIMENET, GEMNET])
@pytest.mark.parametrize("workers", [2, 3])
def test_triplet_update_runs_on_the_workers_own_edges(variant, workers, medium_system, monkeypatch):
    """Each worker's triplet update returns exactly the rows of its center
    atoms' out-edges O_J, and every linear recorded inside it projects
    |O_J| rows, never N_e: gates and C_l run at the in-edges rev[O_J], the
    tail at O_J."""
    cfg = ModelConfig(variant=variant, blocks=2, workers=workers)
    group = WorkerGroup(medium_system, init_params(cfg))
    inside = []  # rows of each linear inside the open record_tu, if one is open
    seen = defaultdict(list)  # the plan's atoms -> [(rows returned, rows of each linear)]
    record_tu, linear = engine.record_tu, tape_module._FORWARD["linear"]

    def spy_tu(tape, pl, block, config, m_id, basis):
        inside.append([])
        out = record_tu(tape, pl, block, config, m_id, basis)
        atoms = basis.plan.atoms
        seen[atoms.start, atoms.stop].append((tape.value(out).shape[0], inside.pop()))
        return out

    def spy_linear(vals, aux):
        if inside:
            inside[-1].append(vals[0].shape[0])
        return linear(vals, aux)

    monkeypatch.setattr(engine, "record_tu", spy_tu)
    monkeypatch.setitem(tape_module._FORWARD, "linear", spy_linear)
    group.forward()
    group.forward_backward()
    starts = group.topology.out_edge_starts()
    for atoms in group.partition:
        own = int(starts[atoms.stop] - starts[atoms.start])
        assert 0 < own < group.topology.num_edges
        calls = seen.pop((atoms.start, atoms.stop))
        assert [rows for rows, _ in calls] == [own] * (2 * cfg.blocks)
        for _, linears in calls:
            assert len(linears) == (7 if variant == GEMNET else 4) and set(linears) == {own}
    assert not seen


@pytest.mark.parametrize("variant", [DIMENET, GEMNET])
def test_workers_that_own_no_atom(variant):
    """At P=8 over 6 atoms some workers own no atom, hence no edge and no
    node row: they issue the same collectives as at P=2, and the results
    agree with the sequential engine to 1e-9."""
    system = random_cloud(6, 0.9, np.random.default_rng(4))
    cfg = ModelConfig(variant=variant, blocks=2, workers=8)
    params = init_params(cfg)
    group = WorkerGroup(system, params)
    assert group.topology.num_triplets > 0
    assert [a.stop - a.start for a in group.partition].count(0) >= 2
    d_forces = np.random.default_rng(5).standard_normal((6, 3)) if variant == GEMNET else None
    result, grads = group.forward_backward(d_energy=1.0, d_forces=d_forces)
    pair = WorkerGroup(system, ModelParams(cfg.replace(workers=2), params.arrays))
    assert result.comm_log.records == pair.forward_backward(1.0, d_forces)[0].comm_log.records
    model = ModelTape(system, params)
    want = model.backward(d_energy=1.0, d_forces=d_forces)
    assert np.isclose(result.energy, model.energy, rtol=1e-9, atol=1e-12)
    if variant == GEMNET:
        np.testing.assert_allclose(result.forces, model.forces, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(grads.d_positions, want.d_positions, rtol=1e-9, atol=1e-12)
    for name, g in want.d_params.items():
        np.testing.assert_allclose(grads.d_params[name], g, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(
        result.state.edge_features, model.state.edge_features, rtol=1e-9, atol=1e-12
    )


def test_reverse_edges_are_computed_once_per_group(medium_system, monkeypatch):
    """A WorkerGroup's forward() and forward_backward() at two workers
    compute the reverse-edge map of its topology once, and every read
    returns that one read-only array."""
    from functools import cached_property

    from egn.graph import GraphTopology

    computed = []
    compute = GraphTopology._reverse.func

    def counting(topology):
        computed.append(topology)
        return compute(topology)

    spy = cached_property(counting)
    spy.__set_name__(GraphTopology, "_reverse")
    monkeypatch.setattr(GraphTopology, "_reverse", spy)
    group = WorkerGroup(medium_system, init_params(ModelConfig(blocks=2, workers=2)))
    group.forward()
    group.forward_backward()
    group.forward_backward()
    assert len(computed) == 1 and computed[0] is group.topology
    rev = group.topology.reverse_edges()
    assert rev is group.topology.reverse_edges() and not rev.flags.writeable


def test_zero_edge_graph_parallel():
    system = AtomicSystem(np.array([[0.0, 0, 0], [40.0, 0, 0]]), np.array([1, 1]))
    cfg = ModelConfig(variant="gemnet-style", blocks=1, workers=3)
    params = init_params(cfg)
    group = WorkerGroup(system, params)
    result, _ = group.forward_backward(d_energy=1.0)
    seq = ModelTape(system, params)
    assert np.isclose(result.energy, seq.energy, rtol=1e-9)
    np.testing.assert_array_equal(result.forces, np.zeros((2, 3)))


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
@pytest.mark.parametrize("workers", [1, 2, 5])
def test_forward_comm_matches_prediction_exactly(variant, workers, medium_system):
    cfg = ModelConfig(variant=variant, blocks=3, workers=workers)
    params = init_params(cfg)
    group = WorkerGroup(medium_system, params)
    result, _ = group.forward_backward(d_energy=1.0)
    expected = comm_volume(CommModel.from_graph(group.topology, cfg), cfg.blocks)
    per_block = result.comm_log.forward_blocks()
    assert sorted(per_block) == list(range(cfg.blocks))
    for block, elements in per_block.items():
        assert elements == expected.per_block
    assert result.comm_log.elements(phase="forward") == expected.total


def test_forward_comm_invariant_under_triplet_dim(medium_system):
    counts = {}
    for d_t in (4, 8):
        cfg = ModelConfig(variant="gemnet-style", blocks=2, workers=2, d_t=d_t, d_bil=d_t)
        group = WorkerGroup(medium_system, init_params(cfg))
        result = group.forward()
        counts[d_t] = result.comm_log.elements(phase="forward")
    assert counts[4] == counts[8]


def test_no_triplet_buffers_in_collectives(medium_system):
    cfg = ModelConfig(variant="gemnet-style", blocks=2, workers=4)
    group = WorkerGroup(medium_system, init_params(cfg))
    result, _ = group.forward_backward(d_energy=1.0)
    forward_levels = {r.level for r in result.comm_log.records if r.phase == "forward"}
    assert forward_levels == {"edge", "node", "global"}
    assert "triplet" not in {r.level for r in result.comm_log.records}
    # every forward buffer size is one of the replicated-buffer sizes
    sizes = {
        group.topology.num_edges * cfg.d_e,
        group.topology.num_nodes * cfg.d_v,
        cfg.d_u,
    }
    for rec in result.comm_log.records:
        if rec.phase == "forward":
            assert rec.elements in sizes


def test_replica_buffers_identical_after_every_collective(
    medium_system, replica_digests, monkeypatch
):
    """Every worker records, at each collective node of its tape, the total
    the collective made, and its walk takes its rows of the backward's
    totals in turn; the final two totals are the position and parameter
    gradients."""
    cfg = ModelConfig(variant="gemnet-style", blocks=2, workers=4)
    group = WorkerGroup(medium_system, init_params(cfg))
    made = _recorded_tapes(monkeypatch)
    summed = {}  # id of a collective node's aux -> digest of the adjoint sum it took
    vjp = tape_module._VJP["allreduce"]

    def spy(g, vals, out, aux):
        summed[id(aux)] = hashlib.sha256(g.tobytes()).hexdigest()
        return vjp(g, vals, out, aux)

    monkeypatch.setitem(tape_module._VJP, "allreduce", spy)
    group.forward_backward(d_energy=1.0)
    (digests,) = replica_digests
    assert len(made) == cfg.workers
    for tape in made:
        nodes = [node for node in tape._nodes if node.op == "allreduce"]
        forward = [hashlib.sha256(node.value.tobytes()).hexdigest() for node in nodes]
        backward = [summed[id(node.aux)] for node in reversed(nodes)]
        assert forward + backward == digests[:-2]


def test_fixed_seed_and_workers_bit_identical_across_runs(medium_system):
    cfg = ModelConfig(variant="dimenet-style", blocks=2, workers=3, seed=21)
    params = init_params(cfg)
    runs = []
    for _ in range(2):
        group = WorkerGroup(medium_system, params)
        result, bundle = group.forward_backward(d_energy=1.0)
        runs.append((result.energy, bundle))
    assert runs[0][0] == runs[1][0]
    np.testing.assert_array_equal(runs[0][1].d_positions, runs[1][1].d_positions)
    for name in runs[0][1].d_params:
        np.testing.assert_array_equal(runs[0][1].d_params[name], runs[1][1].d_params[name])


def test_worker_failure_names_stage(medium_system, monkeypatch):
    cfg = ModelConfig(variant="dimenet-style", blocks=1, workers=2)
    params = init_params(cfg)
    group = WorkerGroup(medium_system, params)

    original = engine.record_eu

    def broken(*args, **kwargs):
        raise FloatingPointError("synthetic failure")

    monkeypatch.setattr(engine, "record_eu", broken)
    with pytest.raises(WorkerGroupError) as info:
        group.forward()
    monkeypatch.setattr(engine, "record_eu", original)
    assert "block0.eu" in info.value.stage
    assert isinstance(info.value.__cause__, FloatingPointError)


def test_fault_injection_breaks_equivalence(medium_system, monkeypatch):
    from egn import runtime as rt

    cfg = ModelConfig(variant="dimenet-style", blocks=2, workers=3)
    params = init_params(cfg)
    reference = ModelTape(medium_system, params).energy
    monkeypatch.setattr(rt, "Collective", DropLastCollective)
    group = WorkerGroup(medium_system, params)
    result = group.forward()
    assert not np.isclose(result.energy, reference, rtol=1e-9, atol=1e-12)


def test_comm_accounting_over_randomized_configs(medium_system):
    rng = np.random.default_rng(123)
    for trial in range(6):
        cfg = ModelConfig(
            variant=("gemnet-style" if trial % 2 else "dimenet-style"),
            blocks=int(rng.integers(1, 4)),
            d_u=int(rng.integers(1, 5)),
            d_v=int(rng.integers(1, 7)),
            d_e=int(rng.integers(1, 9)),
            d_t=int(rng.integers(1, 5)),
            d_bil=int(rng.integers(1, 5)),
            k_rbf=int(rng.integers(1, 6)),
            l_sbf=int(rng.integers(1, 5)),
            workers=int(rng.integers(1, 6)),
        )
        group = WorkerGroup(medium_system, init_params(cfg))
        result, _ = group.forward_backward(d_energy=1.0)
        expected = comm_volume(CommModel.from_graph(group.topology, cfg), cfg.blocks)
        assert result.comm_log.elements(phase="forward") == expected.total, cfg


def test_stage_timing_csv(medium_system):
    """Rank 0's stages, block index removed, are the benchmark's STAGES (the
    variant's subset of them) in order, so none of its stage metrics reads 0."""
    layers = load_perfbench_layers()
    for variant in ("dimenet-style", "gemnet-style"):
        cfg = ModelConfig(variant=variant, blocks=2, workers=2)
        group = WorkerGroup(medium_system, init_params(cfg))
        result, _ = group.forward_backward(d_energy=1.0)
        stages = list(result.stage_seconds)
        assert {"init", "block0.tu", "block1.gu", "backward.block0.tu"} <= set(stages)
        assert all(seconds >= 0.0 for seconds in result.stage_seconds.values())
        want = [
            s for s in layers.STAGES
            if variant == "gemnet-style" or not s.endswith(("eu2", "sym"))
        ]
        assert list(dict.fromkeys(layers._BLOCK.sub("", s) for s in stages)) == want, variant


def test_each_worker_closes_its_own_last_stage(medium_system, monkeypatch):
    """A rank's stage clock runs only while the rank is stepped: a primitive
    that sleeps on rank 1's tape alone, forward and backward, lengthens
    rank 1's stages and none of rank 0's, and every rank times its own."""
    cfg = ModelConfig(variant=GEMNET, blocks=1, workers=2)
    group = WorkerGroup(medium_system, init_params(cfg))
    slow = group.partition[1]

    def sleeping(rule):
        def wrapped(*args):
            if args[-1]["plan"].atoms == slow:
                time.sleep(0.3)
            return rule(*args)

        return wrapped

    for table in (tape_module._FORWARD, tape_module._VJP):
        monkeypatch.setitem(table, "triplet_basis", sleeping(table["triplet_basis"]))
    result, _ = group.forward_backward()
    rank0, rank1 = result.rank_stage_seconds
    assert result.stage_seconds is rank0
    assert rank0.keys() == rank1.keys() and "readout" in rank0 and "backward.reduce" in rank0
    assert max(rank0.values()) < 0.1
    assert rank1["init"] >= 0.3 and rank1["backward.geometry"] >= 0.3


def _bytes(x):
    return None if x is None else np.asarray(x, dtype=np.float64).tobytes()


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_recorded_pass_matches_forward_backward(
    variant, workers, medium_system, rng, replica_digests
):
    cfg = ModelConfig(variant=variant, blocks=2, workers=workers)
    params = init_params(cfg)
    d_forces = rng.standard_normal((medium_system.n, 3)) if variant == "gemnet-style" else None
    want, want_grads = WorkerGroup(medium_system, params).forward_backward(0.7, d_forces)
    got = WorkerGroup(medium_system, params).record()
    got_grads = got.backward(0.7, d_forces)

    assert _bytes(got.energy) == _bytes(want.energy)
    assert _bytes(got.forces) == _bytes(want.forces)
    assert _bytes(got_grads.d_positions) == _bytes(want_grads.d_positions)
    assert got_grads.d_params.keys() == want_grads.d_params.keys()
    for name, grad in want_grads.d_params.items():
        assert _bytes(got_grads.d_params[name]) == _bytes(grad), name
    assert got.comm_log.records == want.comm_log.records
    phases = [rec.phase for rec in got.comm_log.records]
    n_forward = phases.count("forward")
    assert 0 < n_forward < len(phases)
    assert set(phases[n_forward:]) == {"backward"}  # the forward, then the backward
    want_digests, got_digests = replica_digests
    assert got_digests == want_digests
    assert len(got_digests) == len(phases)


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_backward_traffic_per_pass(variant, workers, medium_system, rng):
    """The backward mirrors the forward's collectives: per block one global,
    one node and 1 (dimenet-style) or 2 (gemnet-style) edge all-reduces;
    then one of positions and one of parameters."""
    cfg = ModelConfig(variant=variant, blocks=3, workers=workers)
    d_forces = rng.standard_normal((medium_system.n, 3)) if variant == "gemnet-style" else None
    result, _ = WorkerGroup(medium_system, init_params(cfg)).forward_backward(0.7, d_forces)
    backward = [rec for rec in result.comm_log.records if rec.phase == "backward"]
    edges = 2 if variant == "gemnet-style" else 1
    assert len(backward) == (edges + 2) * cfg.blocks + 2
    for block in range(cfg.blocks):
        levels = Counter(rec.level for rec in backward if rec.block == block)
        assert levels == {"global": 1, "node": 1, "edge": edges}, block
    levels = Counter(rec.level for rec in backward if rec.block == -1)
    assert levels == {"position": 1, "param": 1}


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_backward_elements_mirror_forward(variant, workers, medium_system):
    """The backward all-reduces the forward's buffers again, then the
    positions (3 N_v) and the parameters."""
    cfg = ModelConfig(variant=variant, blocks=3, workers=workers)
    params = init_params(cfg)
    result, _ = WorkerGroup(medium_system, params).forward_backward()
    log = result.comm_log
    extra = 3 * medium_system.n + params.num_params()
    assert log.elements("backward") == log.elements("forward") + extra


def _calls_per_worker(monkeypatch, names) -> dict:
    """Wrap the block pipeline's recorders ``names``; returns the tape each
    ran on -> [(recorder name, its last argument)] of every call."""
    calls = defaultdict(list)
    for name in names:
        def spy(*args, _name=name, _fn=getattr(engine, name)):
            calls[args[0]].append((_name, args[-1]))
            return _fn(*args)

        monkeypatch.setattr(engine, name, spy)
    return calls


@pytest.mark.parametrize("workers", [2, 3])
def test_edge_update_runs_on_the_edge_shard(workers, medium_system, monkeypatch):
    """Each rank updates exactly its own edges, once per block."""
    cfg = ModelConfig(variant="gemnet-style", blocks=2, workers=workers)
    group = WorkerGroup(medium_system, init_params(cfg))
    calls = _calls_per_worker(monkeypatch, ["record_eu"])
    group.forward_backward()
    starts = group.topology.out_edge_starts()
    want = [
        [("record_eu", slice(int(starts[atoms.start]), int(starts[atoms.stop])))] * cfg.blocks
        for atoms in group.partition
    ]
    assert sorted(calls.values(), key=lambda seen: seen[0][1].start) == want


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_recording_computes_full_edge_stages_once(workers, medium_system, monkeypatch):
    """A recording worker computes init, sym and the force head once, on its
    tape, and builds no Evaluator beside it."""
    from egn import runtime as rt

    cfg = ModelConfig(variant="gemnet-style", blocks=2, workers=workers)
    group = WorkerGroup(medium_system, init_params(cfg))
    names = ["record_edge_init", "record_sym", "record_force_head"]
    calls = _calls_per_worker(monkeypatch, names)
    monkeypatch.setattr(rt, "Evaluator", None)
    group.forward_backward()
    assert len(calls) == workers
    for seen in calls.values():
        assert Counter(name for name, _ in seen) == {
            "record_edge_init": 1, "record_sym": cfg.blocks, "record_force_head": 1,
        }


def _recorded_tapes(monkeypatch) -> list:
    """Make every Tape the runtime builds append itself to the returned list."""
    from egn import runtime as rt

    made = []

    class SeenTape(tape_module.Tape):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(rt, "Tape", SeenTape)
    return made


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
def test_one_forward_definition(variant, medium_system, monkeypatch):
    """A one-worker runtime tape is the sequential tape, op for op and
    label for label, plus its collective nodes."""
    cfg = ModelConfig(variant=variant, blocks=2)
    params = init_params(cfg)
    sequential = [(node.op, node.stage) for node in ModelTape(medium_system, params).tape._nodes]
    made = _recorded_tapes(monkeypatch)
    WorkerGroup(medium_system, params).record()
    (worker,) = made
    ops = [(node.op, node.stage) for node in worker._nodes]
    assert [op for op in ops if op[0] != "allreduce"] == sequential
    stages = list(dict.fromkeys(stage for _, stage in ops))
    assert len(stages) == 2 + cfg.blocks * (6 if variant == GEMNET else 4) + 1


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
def test_recorded_tapes_hold_no_callable(variant, medium_system, monkeypatch):
    """A tape is plain data: no node of the sequential tape, nor of any
    worker tape at P=1, 2 and 3, holds a callable in its aux."""
    cfg = ModelConfig(variant=variant, blocks=2)
    tapes = [ModelTape(medium_system, init_params(cfg)).tape]
    made = _recorded_tapes(monkeypatch)
    for workers in (1, 2, 3):
        WorkerGroup(medium_system, init_params(cfg.replace(workers=workers))).forward_backward()
    tapes += made
    assert len(tapes) == 1 + 1 + 2 + 3
    held = [
        (node.op, key)
        for tape in tapes
        for node in tape._nodes
        for key, value in node.aux.items()
        if callable(value)
    ]
    assert not held, held


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_one_tape_per_worker(workers, medium_system, monkeypatch):
    """A recording worker keeps its geometry and model on one tape, and its
    backward walks it once."""
    cfg = ModelConfig(variant="gemnet-style", blocks=2, workers=workers)
    group = WorkerGroup(medium_system, init_params(cfg))
    made = _recorded_tapes(monkeypatch)
    walks = []
    walk = tape_module.Tape.walk

    def counted(self, *args):
        walks.append(self)
        return walk(self, *args)

    monkeypatch.setattr(tape_module.Tape, "walk", counted)
    group.forward_backward()
    assert len(made) == workers
    assert sorted(map(id, walks)) == sorted(map(id, made))


@pytest.mark.parametrize("workers", [1, 2])
def test_force_seed_shape_is_checked_before_backward(workers, medium_system):
    n = medium_system.n
    cfg = ModelConfig(variant="gemnet-style", blocks=1, workers=workers)
    group = WorkerGroup(medium_system, init_params(cfg))
    recorded = group.record()
    forward_records = list(recorded.comm_log.records)
    for shape in [(n + 1, 3), (n - 1, 3), (n, 2), (3 * n,)]:
        with pytest.raises(ValueError, match="force seed"):
            recorded.backward(d_forces=np.ones(shape))
        with pytest.raises(ValueError, match="force seed"):
            group.forward_backward(d_forces=np.ones(shape))
    assert recorded.comm_log.records == forward_records  # no backward began
    recorded.backward(d_forces=np.ones((n, 3)))

    dimenet = WorkerGroup(medium_system, init_params(cfg.replace(variant="dimenet-style")))
    with pytest.raises(ValueError, match="force-centric"):
        dimenet.record().backward(d_forces=np.ones((n, 3)))


@pytest.mark.parametrize("workers", [1, 2], ids=["sequential", "P2"])
def test_force_seed_is_checked_with_one_set_of_messages(workers):
    """A sequential ModelTape and a two-worker pass reject a bad force seed
    with the same message, before any backward begins."""
    system = random_cloud(6, 0.9, np.random.default_rng(2))

    def recorded(variant):
        params = init_params(ModelConfig(variant=variant, blocks=1, workers=workers))
        return ModelTape(system, params) if workers == 1 else WorkerGroup(system, params).record()

    with pytest.raises(ValueError, match=re.escape("force seed has shape (1, 3), expected (6, 3)")):
        recorded(GEMNET).backward(d_forces=np.ones((1, 3)))
    message = "a force seed needs the force head of the force-centric variant"
    with pytest.raises(ValueError, match=re.escape(message)):
        recorded(DIMENET).backward(d_forces=np.ones((6, 3)))


@pytest.mark.parametrize("variant", [DIMENET, GEMNET])
def test_sequential_and_parallel_passes_share_one_contract(variant):
    """A sequential ModelTape and a two-worker recorded pass hold their
    energy, forces and state as plain values of the same types and shapes,
    and backward(0.0) with no force seed returns zero position gradients
    and a zero gradient of every declared parameter, in declaration order."""
    system = random_cloud(10, 0.9, np.random.default_rng(4))
    params = init_params(ModelConfig(variant=variant, blocks=2, workers=2))
    passes = [ModelTape(system, params), WorkerGroup(system, params).record()]
    shapes = []
    for run in passes:
        assert {"energy", "forces", "state"} <= vars(run).keys()
        assert type(run.energy) is float
        assert isinstance(run.state, engine.FeatureState)
        if variant == GEMNET:
            assert type(run.forces) is np.ndarray and run.forces.shape == (system.n, 3)
        else:
            assert run.forces is None
        state = run.state
        buffers = (state.global_features, state.node_features, state.edge_features)
        assert all(type(b) is np.ndarray for b in buffers)
        shapes.append([b.shape for b in buffers])
    assert shapes[0] == shapes[1]

    specs = [(s.name, s.shape) for s in param_specs(params.config)]
    for run in passes:
        bundle = run.backward(0.0)
        assert bundle.d_positions.shape == (system.n, 3)
        assert not bundle.d_positions.any()
        assert [(name, g.shape) for name, g in bundle.d_params.items()] == specs
        assert not any(g.any() for g in bundle.d_params.values())


def test_diagnostic_config_runs_no_network_pass(medium_system, monkeypatch):
    """A diagnostic config names the quadratic well that predict and relax
    run, so ModelTape and WorkerGroup reject it before any worker starts."""
    started = []
    monkeypatch.setattr(WorkerGroup, "_worker_forward", lambda *args: started.append(args))
    for workers in (1, 2):
        params = init_params(ModelConfig(diagnostic=True, workers=workers))
        with pytest.raises(ValueError, match="diagnostic config is the quadratic well"):
            ModelTape(medium_system, params)
        with pytest.raises(ValueError, match="diagnostic config is the quadratic well"):
            WorkerGroup(medium_system, params)
    assert not started


def test_recorded_pass_runs_one_backward(medium_system):
    cfg = ModelConfig(variant="gemnet-style", blocks=1, workers=2)
    recorded = WorkerGroup(medium_system, init_params(cfg)).record()
    recorded.backward()
    log = recorded.comm_log
    records = list(log.records)
    with pytest.raises(RuntimeError, match="already run its backward"):
        recorded.backward()
    assert log.records == records


def test_forward_result_has_no_backward(medium_system):
    cfg = ModelConfig(variant="gemnet-style", blocks=1, workers=2)
    result = WorkerGroup(medium_system, init_params(cfg)).forward()
    records = list(result.comm_log.records)
    with pytest.raises(RuntimeError, match="kept no tapes"):
        result.backward()
    assert result.comm_log.records == records


def test_passes_leave_no_reference_cycles(medium_system):
    """A pass's tapes are freed when it is dropped, with or without its
    backward, not at the next cyclic garbage collection."""
    cfg = ModelConfig(variant="gemnet-style", blocks=2, workers=2)
    params = init_params(cfg)
    gc.collect()
    gc.disable()
    try:
        WorkerGroup(medium_system, params).forward_backward()
        recorded = WorkerGroup(medium_system, params).record()
        del recorded
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "op, stage", [("triplet_contract", "backward.block0.tu"), ("triplet_basis", "backward.geometry")]
)
def test_backward_failure_names_rank_and_stage(op, stage, medium_system, monkeypatch):
    cfg = ModelConfig(variant="dimenet-style", blocks=1, workers=2)
    group = WorkerGroup(medium_system, init_params(cfg))
    recorded = group.record()
    records = len(recorded.comm_log.records)
    original = tape_module._VJP[op]

    def broken(g, vals, out, aux):
        if aux["plan"].atoms == group.partition[1]:
            raise FloatingPointError("synthetic backward failure")
        return original(g, vals, out, aux)

    monkeypatch.setitem(tape_module._VJP, op, broken)
    with pytest.raises(WorkerGroupError) as info:
        recorded.backward()
    assert info.value.rank == 1
    assert info.value.stage == stage
    assert isinstance(info.value.__cause__, FloatingPointError)
    # At once: the backward's last collectives, of positions and
    # parameters, never ran.
    assert [rec.stage for rec in recorded.comm_log.records[records:]] == ["gu", "nu", "eu"]
    with pytest.raises(RuntimeError, match="already run its backward"):
        recorded.backward()


def _weak_tapes(monkeypatch) -> list:
    """Make every Tape and Evaluator the runtime builds append a weak
    reference to itself to the returned list."""
    from egn import runtime as rt

    made = []
    for name in ("Tape", "Evaluator"):
        base = getattr(rt, name)

        def init(self, _base=base):
            _base.__init__(self)
            made.append(weakref.ref(self))

        monkeypatch.setattr(rt, name, type("Seen" + name, (base,), {"__init__": init}))
    return made


@pytest.mark.parametrize("phase", ["forward", "record", "backward"])
def test_failure_closes_every_worker_and_keeps_no_tape(phase, medium_system, monkeypatch):
    """A rank that raises fails the pass at once with its rank and stage;
    the other ranks are closed, and no tape outlives the error, with no
    reference cycle left for the garbage collector."""
    cfg = ModelConfig(variant=GEMNET, blocks=2, workers=3)
    group = WorkerGroup(medium_system, init_params(cfg))
    made = _weak_tapes(monkeypatch)
    op = "triplet_contract"
    table = tape_module._VJP if phase == "backward" else tape_module._FORWARD
    original = table[op]
    calls = []

    def broken(*args):
        calls.append(args[-1]["plan"].atoms)
        if args[-1]["plan"].atoms == group.partition[1] and len(calls) > 3:
            raise FloatingPointError("synthetic failure")
        return original(*args)

    monkeypatch.setitem(table, op, broken)
    closed = []
    for name in ("_worker_forward", "_worker_backward"):

        def tracked(self, ctx, *args, _work=getattr(WorkerGroup, name)):
            try:
                return (yield from _work(self, ctx, *args))
            except GeneratorExit:
                closed.append(ctx.rank)
                raise

        monkeypatch.setattr(WorkerGroup, name, tracked)
    gc.collect()
    gc.disable()
    try:
        try:
            if phase == "forward":
                group.forward()
            elif phase == "record":
                group.record()
            else:
                group.forward_backward()
        except WorkerGroupError as err:
            failure = (err.rank, err.stage, type(err.__cause__))
            assert sorted(closed) == [0, 2]  # before the error reaches the caller
        block = "block0" if phase == "backward" else "block1"
        stage = ("backward." if phase == "backward" else "") + block + ".tu"
        assert failure == (1, stage, FloatingPointError)
        # Rank 2 never reached the stage rank 1 failed in.
        assert calls[-2:] == [group.partition[0], group.partition[1]]
        assert len(made) == cfg.workers
        assert all(ref() is None for ref in made)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rank_that_returns_early_fails_the_collective(medium_system, monkeypatch):
    """A rank that returns while the others wait at a collective fails the
    pass with a CollectiveError naming the ranks, stage and block."""
    cfg = ModelConfig(variant=DIMENET, blocks=2, workers=3)
    group = WorkerGroup(medium_system, init_params(cfg))
    original = WorkerGroup._worker_forward

    def early(self, ctx, record):
        if ctx.rank == 1:
            return {}
        return (yield from original(self, ctx, record))

    monkeypatch.setattr(WorkerGroup, "_worker_forward", early)
    want = "ranks [1] returned while ranks [0, 2] wait at collective 'eu' of block 0"
    with pytest.raises(CollectiveError, match=re.escape(want)):
        group.forward()


def test_runtime_starts_no_thread(monkeypatch):
    """Workers take turns on the caller's thread: with thread starts
    refused, a P=4 forward, a P=4 recorded pass and its backward, and a
    two-epoch P=2 training run complete."""
    def refuse(self):
        raise AssertionError(f"thread {self.name!r} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    system = random_cloud(16, 0.9, np.random.default_rng(3))
    params = init_params(ModelConfig(variant=GEMNET, blocks=2, workers=4))
    WorkerGroup(system, params).forward()
    WorkerGroup(system, params).record().backward(1.0, np.ones((system.n, 3)))
    teacher = init_params(ModelConfig(variant=GEMNET, blocks=1, seed=8))
    dataset = [(system, *predict(system, teacher, workers=1))]
    _, history = train_simple(
        dataset, init_params(ModelConfig(variant=GEMNET, blocks=1, workers=2)), 1e-3, 2, 1.0, 1.0
    )
    assert len(history) == 2 and np.isfinite(history).all()

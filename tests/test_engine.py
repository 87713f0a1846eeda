"""Engine tests, anchored by an independent per-triplet/per-edge loop oracle."""

from functools import partial

import numpy as np
import pytest

from egn import engine
from egn.basis import BasisFeatures
from egn.config import DIMENET, GEMNET, ModelConfig
from egn.engine import ModelTape
from egn.graph import build_graph, edge_distances, edge_vectors, triplet_plan
from egn.params import ModelParams, init_params
from egn.system import AtomicSystem, random_cloud

from conftest import (
    basis_of,
    block_rows,
    dimer,
    equilateral_triangle,
    record_angular_sbf,
    triplet_cosines,
    zero_params,
)


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _mlp(arrays, prefix, x):
    h = arrays[prefix + ".w1"] @ x + arrays[prefix + ".b1"]
    return arrays[prefix + ".w2"] @ _silu(h) + arrays[prefix + ".b2"]


def naive_forward(system: AtomicSystem, params: ModelParams):
    """Straightforward loop-based forward pass with no grouping tricks."""
    cfg = params.config
    arrays = params.arrays
    topo, basis = basis_of(system, cfg)
    vectors = edge_vectors(system.positions, topo.edge_src, topo.edge_recv)
    units = vectors / edge_distances(vectors)[:, None]
    cosines = triplet_cosines(vectors, topo.trip_in, topo.trip_out)
    angles = np.arccos(np.clip(cosines, -1.0, 1.0))
    n_e, n_t, n_v = topo.num_edges, topo.num_triplets, topo.num_nodes
    rev = topo.reverse_edges() if cfg.variant == GEMNET else None

    m = np.array([arrays["edge_init.w"] @ basis.edge_rbf[e] + arrays["edge_init.b"] for e in range(n_e)]) if n_e else np.zeros((0, cfg.d_e))
    u = np.zeros(cfg.d_u)
    v = np.array([arrays["atom_embedding"][z - 1] for z in system.atomic_numbers])

    for b in range(cfg.blocks):
        p = f"block{b}."
        ta = np.zeros((n_e, cfg.d_e))
        for t in range(n_t):
            e_in, e_out = topo.trip_in[t], topo.trip_out[t]
            down = arrays[p + "tu.down"] @ m[e_in]
            g_rbf = arrays[p + "tu.rbf_gate"] @ basis.edge_rbf[e_out]
            # sbf entry (k * l_sbf + l) = rbf_k(in-edge) * cos(l * angle)
            sbf = np.outer(basis.edge_rbf[e_in], np.cos(np.arange(cfg.l_sbf) * angles[t]))
            g_sbf = arrays[p + "tu.sbf_gate"] @ sbf.ravel()
            if cfg.variant == GEMNET:
                a = arrays[p + "tu.bilinear_a"] @ down
                msg = a * (arrays[p + "tu.bilinear_b"] @ g_sbf)
                mixed = arrays[p + "tu.bilinear_proj"] @ msg
            else:
                mixed = down * g_sbf
            ta[e_out] += arrays[p + "tu.up"] @ (mixed * g_rbf)

        m_new = np.zeros_like(m)
        for e in range(n_e):
            m_new[e] = m[e] + _mlp(arrays, p + "eu", np.concatenate([m[e], ta[e]]))

        v = np.zeros((n_v, cfg.d_v))
        for i in range(n_v):
            h = np.zeros(cfg.d_e)
            for e in range(n_e):
                if topo.edge_recv[e] == i:
                    h += m_new[e]
            v[i] = _mlp(arrays, p + "nu", h)

        if cfg.variant == GEMNET:
            m2 = np.zeros_like(m_new)
            for e in range(n_e):
                x = np.concatenate([m_new[e], v[topo.edge_recv[e]]])
                m2[e] = m_new[e] + _mlp(arrays, p + "eu2", x)
            m = np.array([m2[e] + arrays[p + "sym.w"] @ m2[rev[e]] for e in range(n_e)]) if n_e else m2
        else:
            m = m_new

        s = np.zeros(cfg.d_v)
        for i in range(n_v):
            s += v[i]
        z = arrays[p + "gu.w1"] @ s
        u = u + (arrays[p + "gu.w2"] @ _silu(z + arrays[p + "gu.b1"]) + arrays[p + "gu.b2"])

    energy = float((arrays["energy_head.w"] @ u + arrays["energy_head.b"])[0])
    forces = None
    if cfg.variant == GEMNET:
        forces = np.zeros((n_v, 3))
        for e in range(n_e):
            scale = float((arrays["force_head.w"] @ m[e])[0])
            forces[topo.edge_recv[e]] += scale * units[e]
    return energy, m, v, u, forces


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
def test_forward_matches_naive_loops(variant):
    rng = np.random.default_rng(7)
    system = random_cloud(14, 0.9, rng)
    cfg = ModelConfig(variant=variant, blocks=2)
    params = init_params(cfg)
    model = ModelTape(system, params)
    energy, m, v, u, forces = naive_forward(system, params)

    assert abs(model.energy - energy) < 1e-12
    state = model.state
    np.testing.assert_allclose(state.edge_features, m, atol=1e-12)
    np.testing.assert_allclose(state.node_features, v, atol=1e-12)
    np.testing.assert_allclose(state.global_features[0], u, atol=1e-12)
    if variant == "gemnet-style":
        np.testing.assert_allclose(model.forces, forces, atol=1e-12)


def test_forward_matches_naive_on_larger_system():
    rng = np.random.default_rng(42)
    system = random_cloud(50, 0.9, rng)
    cfg = ModelConfig(variant="gemnet-style", blocks=1, d_u=2, d_v=3, d_e=4, d_t=2, d_bil=2, k_rbf=3, l_sbf=2)
    params = init_params(cfg)
    model = ModelTape(system, params)
    energy, m, *_ = naive_forward(system, params)
    assert abs(model.energy - energy) < 1e-12
    np.testing.assert_allclose(model.state.edge_features, m, atol=1e-12)


def test_zero_edge_graph_forward():
    system = AtomicSystem(np.array([[0.0, 0, 0], [50.0, 0, 0]]), np.array([1, 8]))
    cfg = ModelConfig()
    model = ModelTape(system, init_params(cfg))
    assert model.state.edge_features.shape == (0, cfg.d_e)
    assert np.isfinite(model.energy)


def test_embedding_table_bound():
    cfg = ModelConfig()
    with pytest.raises(ValueError):
        system = AtomicSystem(np.zeros((1, 3)) + [[0, 0, 0]], np.array([119]))
        ModelTape(system, init_params(cfg))


def test_zero_triplet_block_reduces_to_residual_mlp():
    system = dimer(1.0)
    cfg = ModelConfig(blocks=1)
    params = init_params(cfg)
    model = ModelTape(system, params)
    arrays = params.arrays
    topo, basis = basis_of(system, cfg)
    m0 = basis.edge_rbf @ arrays["edge_init.w"].T + arrays["edge_init.b"]
    expected = np.array(
        [m0[e] + _mlp(arrays, "block0.eu", np.concatenate([m0[e], np.zeros(cfg.d_e)])) for e in range(2)]
    )
    np.testing.assert_allclose(model.state.edge_features, expected, atol=1e-14)


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
def test_all_zero_params_pass_state_through(variant):
    rng = np.random.default_rng(0)
    system = random_cloud(8, 0.9, rng)
    cfg = ModelConfig(variant=variant, blocks=2)
    params = zero_params(cfg)
    model = ModelTape(system, params)
    state = model.state
    assert np.all(state.edge_features == 0)
    assert np.all(state.node_features == 0)
    assert np.all(state.global_features == 0)
    assert model.energy == 0.0


def test_zero_readout_weights_energy_is_bias(rng):
    system = random_cloud(6, 0.9, rng)
    cfg = ModelConfig()
    params = init_params(cfg)
    arrays = dict(params.arrays)
    arrays["energy_head.w"] = np.zeros_like(arrays["energy_head.w"])
    arrays["energy_head.b"] = np.array([2.5])
    model = ModelTape(system, ModelParams(cfg, arrays))
    assert model.energy == pytest.approx(2.5, abs=1e-15)


def _rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
def test_energy_invariant_under_rigid_motion(variant, rng):
    system = random_cloud(12, 0.9, rng)
    cfg = ModelConfig(variant=variant, blocks=2)
    params = init_params(cfg)
    e0 = ModelTape(system, params).energy
    for _ in range(5):
        rot = _rotation(rng)
        shift = rng.uniform(-4, 4, size=3)
        moved = AtomicSystem(system.positions @ rot.T + shift, system.atomic_numbers)
        e1 = ModelTape(moved, params).energy
        assert abs(e1 - e0) <= 1e-9 * max(1.0, abs(e0))


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
def test_energy_invariant_under_same_species_permutation(variant, rng):
    positions = random_cloud(10, 0.9, rng).positions
    system = AtomicSystem(positions, np.full(10, 6, dtype=np.int64))
    cfg = ModelConfig(variant=variant)
    params = init_params(cfg)
    e0 = ModelTape(system, params).energy
    perm = rng.permutation(10)
    permuted = AtomicSystem(positions[perm], system.atomic_numbers[perm])
    e1 = ModelTape(permuted, params).energy
    assert abs(e1 - e0) <= 1e-9 * max(1.0, abs(e0))


def test_force_head_isolated_atom_zero_force():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [30.0, 0, 0]])
    system = AtomicSystem(pos, np.array([1, 1, 1]))
    cfg = ModelConfig(variant="gemnet-style")
    model = ModelTape(system, init_params(cfg))
    np.testing.assert_array_equal(model.forces[2], 0.0)


def test_force_head_symmetric_dimer_antiparallel():
    cfg = ModelConfig(variant="gemnet-style")
    model = ModelTape(dimer(1.0), init_params(cfg))
    f = model.forces
    np.testing.assert_allclose(f[0], -f[1], atol=1e-9)
    assert np.linalg.norm(f[0]) > 0


def test_force_head_equivariant_under_rotation(rng):
    system = random_cloud(10, 0.9, rng)
    cfg = ModelConfig(variant="gemnet-style")
    params = init_params(cfg)
    f0 = ModelTape(system, params).forces
    rot = _rotation(rng)
    moved = AtomicSystem(system.positions @ rot.T, system.atomic_numbers)
    f1 = ModelTape(moved, params).forces
    np.testing.assert_allclose(f1, f0 @ rot.T, atol=1e-9)


def test_force_head_quarter_turn_about_z(rng):
    system = random_cloud(8, 0.9, rng)
    params = init_params(ModelConfig(variant="gemnet-style"))
    f0 = ModelTape(system, params).forces
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    moved = AtomicSystem(system.positions @ rot.T, system.atomic_numbers)
    f1 = ModelTape(moved, params).forces
    np.testing.assert_allclose(f1, f0 @ rot.T, atol=1e-9)


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
def test_forward_bitwise_deterministic(variant, rng):
    system = random_cloud(12, 0.9, rng)
    params = init_params(ModelConfig(variant=variant, seed=3))
    a = ModelTape(system, params)
    b = ModelTape(system, params)
    assert a.energy == b.energy
    np.testing.assert_array_equal(a.state.edge_features, b.state.edge_features)
    np.testing.assert_array_equal(a.state.node_features, b.state.node_features)
    np.testing.assert_array_equal(a.state.global_features, b.state.global_features)
    if variant == "gemnet-style":
        np.testing.assert_array_equal(a.forces, b.forces)


def test_state_buffers_all_finite(rng):
    system = random_cloud(20, 0.9, rng)
    for variant in ("dimenet-style", "gemnet-style"):
        model = ModelTape(system, init_params(ModelConfig(variant=variant, blocks=3)))
        state = model.state
        for buf in (state.edge_features, state.node_features, state.global_features):
            assert np.all(np.isfinite(buf))


@pytest.mark.parametrize("variant", [DIMENET, GEMNET])
def test_triplet_update_edge_factors_run_on_edge_rows(variant):
    """No linear projects triplet rows: every factor projects N_e rows once
    per block, the sbf gate as a view over all angular orders, and ``down``
    too dimenet-style, ``bilinear_a`` and ``bilinear_b`` gemnet-style."""
    cfg = ModelConfig(variant=variant, blocks=3)
    model = ModelTape(random_cloud(20, 0.9, np.random.default_rng(0)), init_params(cfg))
    topo, _ = build_graph(model.system, cfg.cutoff)
    n_e, n_t = topo.num_edges, topo.num_triplets
    assert 0 < n_e < n_t
    leaves = model.handles.param_leaves
    weight_names = {nid: name for name, nid in leaves.ids.items()}
    weight_names.update({nid: name for name, views in leaves.views.items() for nid, _ in views})
    linears = [
        (weight_names[node.inputs[1]], model.tape.value(node.inputs[0]).shape[0])
        for node in model.tape._nodes
        if node.op == "linear"
    ]

    edge_factors = ["down", "rbf_gate", "sbf_gate", "up"]
    if variant == GEMNET:
        edge_factors += ["bilinear_a", "bilinear_b", "bilinear_proj"]
    for b in range(cfg.blocks):
        for factor in edge_factors:
            name = f"block{b}.tu.{factor}"
            assert [n for w, n in linears if w == name] == [n_e], name
    assert not [w for w, n in linears if n == n_t]


def test_gemnet_triplet_rows_carry_only_the_angle():
    """In both variants the only recorded value on triplet rows (the rows
    of the per-atom blocks) is the triplet basis, l_sbf wide: no linear, no
    mul, no gather and no per-triplet message runs on them."""
    for variant in (GEMNET, DIMENET):
        cfg = ModelConfig(variant=variant, blocks=3, d_t=6, d_bil=3, l_sbf=5)
        model = ModelTape(random_cloud(20, 0.9, np.random.default_rng(0)), init_params(cfg))
        topo, _ = build_graph(model.system, cfg.cutoff)
        rows = triplet_plan(topo, slice(None)).rows
        assert rows > topo.num_triplets > max(topo.num_edges, topo.num_nodes)
        on_triplets = [
            (node.op, node.value.shape)
            for node in model.tape._nodes
            if node.value.shape[:1] in ((rows,), (topo.num_triplets,))
        ]
        assert on_triplets == [("triplet_basis", (rows, cfg.l_sbf))], variant


# ---------------------------------------------------------------------------
# References of the triplet stage.
#
# ``gather_then_project_tu`` is the order in which the in-edge factors are
# gathered into triplet rows and projected there, and ``sbf_gate``,
# ``bilinear_b`` and ``bilinear_proj`` project triplet rows of the whole
# sbf, whose radial part is a second Gaussian evaluation of the gathered
# in-edge distances (``per_triplet_radial_basis``, through the reference
# primitive ``angular_sbf``). The engine keeps sbf's radial factor on the
# in-edge instead, projects per edge and contracts the angle last.
#
# ``triplet_rows_tu`` is the order before messages were aggregated at d_t:
# every factor runs on triplet rows, each triplet is gated and up-projected,
# and the d_e-wide results are summed into out-edges. It computes the same
# function up to rounding.
# ---------------------------------------------------------------------------


def gather_then_project_tu(tape, pl, block, config, m_id, basis, topology):
    p = f"block{block}.tu"
    down = tape.linear(tape.gather(m_id, topology.trip_in), pl[p + ".down"])
    g_sbf = tape.linear(basis.triplet_basis, pl[p + ".sbf_gate"])
    if config.variant == GEMNET:
        a = tape.linear(down, pl[p + ".bilinear_a"])
        b = tape.linear(g_sbf, pl[p + ".bilinear_b"])
        t_msg = tape.linear(tape.mul(a, b), pl[p + ".bilinear_proj"])
    else:
        t_msg = tape.mul(down, g_sbf)
    agg = tape.segment_sum(t_msg, topology.trip_out, topology.num_edges)
    gated = tape.mul(agg, tape.linear(basis.edge_rbf, pl[p + ".rbf_gate"]))
    return tape.linear(gated, pl[p + ".up"])


def triplet_rows_tu(tape, pl, block, config, m_id, basis, topology):
    p = f"block{block}.tu"
    t_in, t_out = topology.trip_in, topology.trip_out
    down = tape.linear(tape.gather(m_id, t_in), pl[p + ".down"])
    g_rbf = tape.linear(tape.gather(basis.edge_rbf, t_out), pl[p + ".rbf_gate"])
    g_sbf = tape.linear(basis.triplet_basis, pl[p + ".sbf_gate"])
    if config.variant == GEMNET:
        a = tape.linear(down, pl[p + ".bilinear_a"])
        b = tape.linear(g_sbf, pl[p + ".bilinear_b"])
        t_msg = tape.linear(tape.mul(a, b), pl[p + ".bilinear_proj"])
    else:
        t_msg = tape.mul(down, g_sbf)
    up = tape.linear(tape.mul(t_msg, g_rbf), pl[p + ".up"])
    return tape.segment_sum(up, t_out, topology.num_edges)


def per_triplet_radial_basis(tape, pos_id, topology, config, centers):
    """Whole sbf rows per triplet: the angular blocks read at each triplet's
    row, times a second Gaussian evaluation of its in-edge distance."""
    vectors = tape.edge_vectors(pos_id, topology.edge_src, topology.edge_recv)
    dist = tape.edge_distances(vectors)
    units = tape.edge_units(vectors)
    plan = triplet_plan(topology, centers)
    blocks = tape.triplet_basis(units, plan, config.l_sbf)
    angular = tape.gather(blocks, block_rows(plan, topology))
    rbf = tape.gaussian_rbf(dist, config.k_rbf, config.cutoff)
    radial = tape.gaussian_rbf(tape.gather(dist, topology.trip_in), config.k_rbf, config.cutoff)
    sbf = record_angular_sbf(tape, radial, angular)
    return BasisFeatures(rbf, units, sbf, plan)


def _close(got, want, rel=1e-12):
    scale = np.max(np.abs(want), initial=0.0)
    return np.max(np.abs(got - want), initial=0.0) <= rel * scale


def _cloud_above_blas_threading():
    # Above about 5.5k triplets OpenBLAS runs the triplet-row products on
    # more than one thread, so the two orders meet threaded and unthreaded
    # products alike.
    return random_cloud(120, 0.9, np.random.default_rng(1))


@pytest.mark.parametrize("variant", [DIMENET, GEMNET])
@pytest.mark.parametrize(
    "make_system", [_cloud_above_blas_threading, equilateral_triangle, lambda: dimer(1.0)],
    ids=["cloud", "triangle", "no-triplets"],
)
@pytest.mark.usefixtures("angular_sbf")
def test_edge_projection_matches_gather_then_project(variant, make_system, monkeypatch):
    """Both references gate triplet rows of the whole sbf, where the engine
    keeps sbf's radial factor on the in-edge and contracts the angle last;
    values and gradients agree to 1e-12. Dimenet-style, the energy on these
    systems is that of ``gather_then_project_tu`` bit for bit. The order
    that gated and up-projected every triplet before the out-edge sum
    agrees to 1e-12 in value and gradient too."""
    system = make_system()
    cfg = ModelConfig(variant=variant, blocks=2)
    params = init_params(cfg)
    d_forces = None
    if variant == GEMNET:
        d_forces = np.random.default_rng(3).standard_normal(system.positions.shape)

    def run():
        model = ModelTape(system, params)
        return model, model.backward(d_energy=1.0, d_forces=d_forces)

    model, grads = run()
    topology = build_graph(system, cfg.cutoff)[0]
    monkeypatch.setattr("egn.basis.compute_basis", per_triplet_radial_basis)
    monkeypatch.setattr(engine, "record_tu", partial(gather_then_project_tu, topology=topology))
    ref, ref_grads = run()
    monkeypatch.setattr(engine, "record_tu", partial(triplet_rows_tu, topology=topology))
    old, old_grads = run()

    if make_system is _cloud_above_blas_threading:
        assert topology.num_triplets > 5500
    if variant == DIMENET:
        assert np.float64(model.energy).tobytes() == np.float64(ref.energy).tobytes()
    for other in (ref, old):
        assert _close(np.float64(model.energy), np.float64(other.energy))
        if variant == GEMNET:
            assert _close(model.forces, other.forces)
    for other in (ref_grads, old_grads):
        # Energy-centric forces are the negative position gradient.
        assert _close(grads.d_positions, other.d_positions)
        assert grads.d_params.keys() == other.d_params.keys()
        for name, g in grads.d_params.items():
            assert _close(g, other.d_params[name]), name


@pytest.mark.parametrize("variant", [DIMENET, GEMNET])
def test_model_never_lists_triplets(variant, monkeypatch):
    """predict, one relax step and WorkerGroup.forward_backward at one and
    two workers run with no triplet list; the topology still lists its
    triplets when read, Σ deg (deg - 1) of them."""
    from egn import graph
    from egn.runtime import WorkerGroup
    from egn.tasks import predict, relax

    def refuse(*args):
        raise AssertionError("the model listed triplets")

    system = random_cloud(24, 0.9, np.random.default_rng(8))
    params = init_params(ModelConfig(variant=variant, blocks=2))
    groups = []
    monkeypatch.setattr(graph, "enumerate_triplets", refuse)
    for workers in (1, 2):
        predict(system, params, workers=workers)
        at_p = ModelParams(params.config.replace(workers=workers), params.arrays)
        relax(system, at_p, 1e-9, max_steps=1)
        groups.append(WorkerGroup(system, at_p))
        groups[-1].forward_backward()
    monkeypatch.undo()
    degree = np.bincount(groups[0].topology.edge_src, minlength=system.n)
    for group in groups:
        assert group.topology.num_triplets == (degree * (degree - 1)).sum() > 0


def argsort_receiver_plan(topology, nodes):
    """Edges grouped by receiver through a stable argsort of the receivers:
    the order a plan's in-edges and receivers must reproduce."""
    lo, hi, _ = nodes.indices(topology.num_nodes)
    order = np.argsort(topology.edge_recv, kind="stable")
    bounds = np.searchsorted(topology.edge_recv[order], np.arange(topology.num_nodes + 1))
    edge_sel = order[bounds[lo] : bounds[hi]]
    return edge_sel, topology.edge_recv[edge_sel] - lo, hi - lo


@pytest.mark.parametrize("atoms", [40, 100, 300])
def test_receiver_plan_is_a_slice_of_the_reverse_edges(atoms):
    """For every atom and for each worker's atoms of a 3-way partition, the
    receiver plan read from the reverse-edge map, the triplet plan's
    in-edges rev[O_J] and their local receivers, has the bits of the
    argsort plan."""
    from egn.partition import partition_graph

    topo, _ = build_graph(random_cloud(atoms, 0.9, np.random.default_rng(atoms)), 2.0)
    for nodes in [slice(None), *partition_graph(topo, 3)]:
        plan = triplet_plan(topo, nodes)
        got = (plan.in_edges, plan.receivers, plan.atoms.stop - plan.atoms.start)
        want = argsort_receiver_plan(topo, nodes)
        assert got[2] == want[2]
        for a, b in zip(got[:2], want[:2]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

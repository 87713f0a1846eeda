import numpy as np

from egn.bench import sample_smooth_system
from egn.config import ModelConfig
from egn.engine import ModelTape
from egn.graph import build_graph, edge_distances, edge_vectors, triplet_plan
from egn.params import ModelParams, init_params
from egn.system import AtomicSystem
from egn.tape import Tape
from egn.tasks import predict

from conftest import (
    block_rows,
    dimer,
    equilateral_triangle,
    fd_allowance,
    rel_err,
    triplet_cosines,
    zero_params,
)

SMALL = ModelConfig(variant="dimenet-style", blocks=2, d_u=2, d_v=3, d_e=4, d_t=2,
                    d_bil=2, k_rbf=3, l_sbf=2)


def position_jacobian(record, positions: np.ndarray, column=()) -> np.ndarray:
    """(rows, atoms, 3) Jacobian of a recorded geometry op, or of one
    ``column`` of its output, one tape VJP per output row."""
    tape = Tape()
    pos = tape.leaf(positions)
    out = record(tape, pos)
    n_rows = tape.value(out).shape[0]
    rows = []
    for r in range(n_rows):
        seed = np.zeros(tape.value(out).shape)
        seed[(r, *column)] = 1.0
        rows.append(tape.backward({out: seed})[pos])
    return np.array(rows).reshape(n_rows, *positions.shape)


def record_vectors(tape, pos, topo):
    return tape.edge_vectors(pos, topo.edge_src, topo.edge_recv)


def distance_jacobian(positions, topo):
    return position_jacobian(
        lambda t, p: t.edge_distances(record_vectors(t, p, topo)), positions
    )


def cosine_jacobian(positions, topo):
    """Jacobian of each triplet's cosine, column T_1 of its angular basis,
    read from the Gram blocks at the triplet's row."""
    plan = triplet_plan(topo, slice(None))
    jacobian = position_jacobian(
        lambda t, p: t.triplet_basis(t.edge_units(record_vectors(t, p, topo)), plan, 2),
        positions,
        (1,),
    )
    return jacobian[block_rows(plan, topo)]


def test_geometry_grads_dimer_unit_vectors():
    system = dimer(1.0)
    topo, _ = build_graph(system, cutoff=1.5)
    grads = distance_jacobian(system.positions, topo)
    # edge 0 runs from atom 0 to atom 1 along +z
    np.testing.assert_allclose(grads[0, 1], [0, 0, 1.0], atol=1e-14)
    np.testing.assert_allclose(grads[0, 0], [0, 0, -1.0], atol=1e-14)


def test_angle_grads_sum_to_zero_translation_invariance():
    system = equilateral_triangle()
    topo, _ = build_graph(system, cutoff=1.5)
    total = cosine_jacobian(system.positions, topo).sum(axis=1)
    np.testing.assert_allclose(total, 0.0, atol=1e-14)


def test_geometry_grads_match_finite_differences(rng):
    system = sample_smooth_system(rng, 5, cutoff=1.5)
    topo, _ = build_graph(system, cutoff=1.5)
    dist_grads = distance_jacobian(system.positions, topo)
    cosine_grads = cosine_jacobian(system.positions, topo)
    h = 1e-6
    for atom in range(system.n):
        for axis in range(3):
            step = np.zeros_like(system.positions)
            step[atom, axis] = h
            plus = edge_vectors(system.positions + step, topo.edge_src, topo.edge_recv)
            minus = edge_vectors(system.positions - step, topo.edge_src, topo.edge_recv)
            fd_d = (edge_distances(plus) - edge_distances(minus)) / (2 * h)
            assert np.max(np.abs(fd_d - dist_grads[:, atom, axis])) < 1e-7

            c_plus = triplet_cosines(plus, topo.trip_in, topo.trip_out)
            c_minus = triplet_cosines(minus, topo.trip_in, topo.trip_out)
            fd_c = (c_plus - c_minus) / (2 * h)
            assert np.max(np.abs(fd_c - cosine_grads[:, atom, axis])) < 1e-7


def test_collinear_angle_gradient_is_zero_subgradient():
    """At an exactly collinear triplet the cosine is at its minimum, so its
    gradient is zero with no special case."""
    from conftest import collinear_chain

    system = collinear_chain(1.0)
    topo, _ = build_graph(system, cutoff=1.5)
    grads = cosine_jacobian(system.positions, topo)
    assert grads.shape == (topo.num_triplets, system.n, 3)
    assert np.all(np.isfinite(grads)) and np.all(grads == 0)


def test_constant_model_gradient_hits_only_readout_bias(rng):
    system = sample_smooth_system(rng, 4, cutoff=1.5)
    params = zero_params(SMALL)
    arrays = dict(params.arrays)
    arrays["energy_head.b"] = np.array([3.0])
    model = ModelTape(system, ModelParams(SMALL, arrays))
    bundle = model.backward(d_energy=1.0)
    np.testing.assert_allclose(bundle.d_params["energy_head.b"], [1.0])
    for name, g in bundle.d_params.items():
        if name in ("energy_head.b", "energy_head.w"):
            continue
        # every other path is multiplied by some zero weight downstream
        assert np.all(g == 0.0), name
    np.testing.assert_array_equal(bundle.d_positions, 0.0)


def test_single_linear_layer_weight_gradient_is_input(rng):
    x0 = rng.standard_normal((1, 4))
    w0 = rng.standard_normal((1, 4))
    tape = Tape()
    x, w = tape.leaf(x0), tape.leaf(w0)
    out = tape.linear(x, w)
    grads = tape.backward({out: np.array([[1.0]])})
    np.testing.assert_allclose(grads[w], x0, atol=1e-15)


def test_full_model_parameter_gradients_match_fd(rng):
    system = sample_smooth_system(rng, 4, cutoff=SMALL.cutoff)
    params = init_params(SMALL)
    model = ModelTape(system, params)
    bundle = model.backward(d_energy=1.0)
    h = 1e-6
    for name, arr in params.arrays.items():
        flat = arr.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            e_plus = ModelTape(system, ModelParams(SMALL, params.arrays)).energy
            flat[i] = orig - h
            e_minus = ModelTape(system, ModelParams(SMALL, params.arrays)).energy
            flat[i] = orig
            fd = (e_plus - e_minus) / (2 * h)
            exact = bundle.d_params[name].ravel()[i]
            scale = max(abs(e_plus), abs(e_minus))
            # tolerance as stated plus the oracle's own roundoff resolution
            assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1e-8) + fd_allowance(scale, h), (
                f"{name}[{i}]: fd={fd} exact={exact}"
            )


def test_forces_energy_centric_net_force_and_torque(rng):
    system = sample_smooth_system(rng, 6, cutoff=1.5)
    params = init_params(ModelConfig(variant="dimenet-style", blocks=2))
    _, forces = predict(system, params)
    bundle = ModelTape(system, params).backward(d_energy=1.0)
    assert np.all(np.isfinite(bundle.d_positions))
    assert all(np.all(np.isfinite(g)) for g in bundle.d_params.values())
    assert forces.tobytes() == (-bundle.d_positions).tobytes()
    assert np.abs(forces.sum(axis=0)).max() < 1e-8
    torque = np.cross(system.positions, forces).sum(axis=0)
    assert np.abs(torque).max() < 1e-8


def test_forces_energy_centric_match_fd(rng):
    cfg = ModelConfig(variant="dimenet-style", blocks=2)
    system = sample_smooth_system(rng, 6, cutoff=cfg.cutoff)
    params = init_params(cfg)
    energy, forces = predict(system, params)
    h = 1e-5
    for atom in range(system.n):
        for axis in range(3):
            step = np.zeros_like(system.positions)
            step[atom, axis] = h
            e_plus = ModelTape(system.with_positions(system.positions + step), params).energy
            e_minus = ModelTape(system.with_positions(system.positions - step), params).energy
            fd = -(e_plus - e_minus) / (2 * h)
            assert rel_err(fd, forces[atom, axis]) < 1e-5


def test_forces_equivariant_under_rotation(rng):
    cfg = ModelConfig(variant="dimenet-style", blocks=2)
    system = sample_smooth_system(rng, 6, cutoff=cfg.cutoff)
    params = init_params(cfg)
    _, f0 = predict(system, params)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    moved = AtomicSystem(system.positions @ q.T, system.atomic_numbers)
    _, f1 = predict(moved, params)
    np.testing.assert_allclose(f1, f0 @ q.T, rtol=1e-9, atol=1e-9)


def test_gemnet_force_seeded_backward_matches_fd(rng):
    cfg = ModelConfig(variant="gemnet-style", blocks=2, d_u=2, d_v=3, d_e=4, d_t=2,
                      d_bil=3, k_rbf=3, l_sbf=2)
    system = sample_smooth_system(rng, 5, cutoff=cfg.cutoff)
    params = init_params(cfg)
    direction = rng.standard_normal((system.n, 3))

    def objective(p: ModelParams) -> float:
        m = ModelTape(system, p)
        return m.energy + float((m.forces * direction).sum())

    model = ModelTape(system, params)
    bundle = model.backward(d_energy=1.0, d_forces=direction)
    h = 1e-6
    for name, arr in params.arrays.items():
        flat = arr.ravel()
        stride = max(1, flat.size // 8)
        for i in range(0, flat.size, stride):
            orig = flat[i]
            flat[i] = orig + h
            up = objective(ModelParams(cfg, params.arrays))
            flat[i] = orig - h
            down = objective(ModelParams(cfg, params.arrays))
            flat[i] = orig
            fd = (up - down) / (2 * h)
            exact = bundle.d_params[name].ravel()[i]
            scale = max(abs(up), abs(down))
            assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1e-8) + fd_allowance(scale, h)

import numpy as np
import pytest

import checks


@pytest.fixture
def cloud():
    rng = np.random.default_rng(5)
    return rng.uniform(0.0, 3.0, size=(30, 3))


def _pairs(positions, cutoff):
    n = len(positions)
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and np.linalg.norm(positions[i] - positions[j]) <= cutoff]


def test_graph_counts_pass_on_loop_count_and_fail_off_by_one(cloud):
    pairs = _pairs(cloud, 1.2)
    deg = np.bincount([i for i, _ in pairs], minlength=len(cloud))
    triplets = sum(d * (d - 1) for d in deg)
    degrees = checks.neighbour_degrees(cloud, 1.2, chunk=7)
    assert np.array_equal(degrees, deg)
    assert checks.graph_counts(len(pairs), triplets, degrees) is None
    assert "edges" in checks.graph_counts(len(pairs) + 1, triplets, degrees)
    assert "edges" in checks.graph_counts(len(pairs) - 1, triplets, degrees)
    assert "triplets" in checks.graph_counts(len(pairs), triplets + 1, degrees)


def test_neighbour_degrees_includes_pairs_exactly_at_cutoff():
    pos = np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [3.5, 0.0, 0.0]])
    assert checks.neighbour_degrees(pos, 1.5).tolist() == [1, 1, 0]


def test_energy_rise_in_trajectory_fails():
    assert checks.energy_never_rises([3.0, 2.0, 2.0, 1.0]) is None
    assert "step 2" in checks.energy_never_rises([3.0, 2.0, 2.5, 1.0])
    assert checks.energy_never_rises([3.0, np.nextafter(3.0, 4.0)]) is not None


def test_step_budget():
    assert checks.step_count(4, 4) is None
    assert checks.step_count(3, 4) is not None


def test_forces_against_finite_differences():
    forces = np.array([0.5, -2.0, 1.0])
    assert checks.forces_match_fd(forces * (1 + 1e-7), forces, 1e-5) is None
    wrong = forces.copy()
    wrong[1] *= 1 + 1e-4
    assert "-2.0" in checks.forces_match_fd(wrong, forces, 1e-5)
    assert checks.forces_match_fd([np.nan, -2.0, 1.0], forces, 1e-5) is not None


def test_rigid_motion_fails_on_unrotated_forces_or_moved_energy():
    rot, _ = checks.random_rigid_motion(np.random.default_rng(0))
    assert np.allclose(rot @ rot.T, np.eye(3)) and np.linalg.det(rot) == pytest.approx(1.0)
    forces = np.random.default_rng(1).standard_normal((6, 3))
    assert checks.rigid_motion(2.0, 2.0, forces, forces @ rot.T, rot, 1e-9) is None
    assert "forces" in checks.rigid_motion(2.0, 2.0, forces, forces, rot, 1e-9)
    assert "energy" in checks.rigid_motion(2.0, 2.0 + 1e-6, forces, forces @ rot.T, rot, 1e-9)
    assert checks.rigid_motion(2.0, 2.0, None, None, rot, 1e-9) is None


def test_allreduce_volume_exact_and_triplet_free():
    blocks, n_e, n_v, d_e, d_v, d_u, n_params = 2, 50, 10, 8, 6, 4, 123
    per_block = [("forward", "edge", n_e * d_e), ("forward", "node", n_v * d_v),
                 ("forward", "edge", n_e * d_e), ("forward", "global", d_u)]
    backward = [("backward", "edge", n_e * d_e), ("backward", "position", 3 * n_v),
                ("backward", "param", n_params)]
    records = per_block * blocks + backward
    args = (blocks, n_e, n_v, d_e, d_v, d_u, n_params)
    assert checks.allreduce_volume(records, *args) is None
    assert "forward" in checks.allreduce_volume(records[1:], *args)
    short = records[:-1] + [("backward", "param", n_params - 1)]
    assert "param" in checks.allreduce_volume(short, *args)
    triplet_sized = records + [("backward", "edge", 400 * 4)]
    assert "carries" in checks.allreduce_volume(triplet_sized, *args)


def test_directional_derivative():
    # L(p) = |p|^2 at p = (1, 2): g = (2, 4), |g|^2 = 20, exact for a quadratic.
    p, g, h = np.array([1.0, 2.0]), np.array([2.0, 4.0]), 1e-3
    plus, minus = ((p + h * g) ** 2).sum(), ((p - h * g) ** 2).sum()
    assert checks.directional_derivative(plus, minus, h, 20.0, 1e-9) is None
    assert checks.directional_derivative(plus, minus, h, 20.0 * (1 + 1e-5), 1e-6) is not None


def test_loss_decreased_and_finite():
    assert checks.loss_decreased([3.0, 2.0, 1.0]) is None
    assert checks.loss_decreased([3.0, 2.0, 3.0]) is not None
    assert checks.loss_decreased([3.0]) is not None
    assert checks.all_finite(loss=1.0, forces=np.zeros(3)) is None
    assert "loss" in checks.all_finite(loss=np.inf)
    assert "forces" in checks.all_finite(loss=1.0, forces=np.array([0.0, np.nan]))


def test_bitwise_equal_and_close():
    a = np.array([1.0, 2.0])
    assert checks.bitwise_equal("x", a, a.copy()) is None
    assert checks.bitwise_equal("x", a, np.nextafter(a, 3.0)) is not None
    assert checks.bitwise_equal("x", a, a[:1]) is not None
    assert checks.close("x", 1.0 + 1e-10, 1.0, 1e-9) is None
    assert checks.close("x", 1.0 + 1e-8, 1.0, 1e-9) is not None
    assert checks.close("x", np.nan, 1.0, 1e-9) is not None

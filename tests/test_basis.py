import numpy as np
import pytest

from egn.basis import angular_basis, angular_basis_dcos, rbf_centers, rbf_features
from egn.config import DIMENET, GEMNET, ModelConfig
from egn.graph import edge_distances, edge_vectors
from egn.system import AtomicSystem, random_cloud

from conftest import angular_outer, basis_of, block_rows


def test_rbf_peak_at_center():
    centers = rbf_centers(6, 1.5)
    feats = rbf_features(np.array([centers[2]]), 6, 1.5)
    assert feats[0, 2] == pytest.approx(1.0)


def test_rbf_single_center_value():
    feats = rbf_features(np.array([1.0]), 1, 1.0)
    assert feats.shape == (1, 1)
    assert feats[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-15)


def test_rbf_monotone_decay_from_center():
    k = 4
    cutoff = 2.0
    centers = rbf_centers(k, cutoff)
    offsets = np.array([0.05, 0.1, 0.2, 0.4])
    values = rbf_features(centers[1] + offsets, k, cutoff)[:, 1]
    assert np.all(np.diff(values) < 0)


def test_rbf_range_and_errors():
    feats = rbf_features(np.linspace(0.1, 1.5, 20), 5, 1.5)
    assert np.all(feats > 0) and np.all(feats <= 1.0)
    with pytest.raises(ValueError):
        rbf_features(np.array([1.0]), 0, 1.5)
    with pytest.raises(ValueError):
        rbf_features(np.array([2.0]), 3, 1.5)  # beyond cutoff
    with pytest.raises(ValueError):
        rbf_features(np.array([0.0]), 3, 1.5)


def sbf(distances, cosines, k_rbf, l_sbf, cutoff):
    """The sbf rows of in-edge distances and angle cosines, as the reference
    ``angular_outer`` composes them."""
    radial = rbf_features(distances, k_rbf, cutoff)
    return angular_outer(radial, angular_basis(cosines, l_sbf))


def test_sbf_l_zero_equals_radial():
    d = np.array([0.7, 1.1])
    cos = np.cos([0.3, 2.0])
    radial = rbf_features(d, 3, 1.5)
    rows = sbf(d, cos, 3, 2, 1.5)
    np.testing.assert_allclose(rows[:, 0::2], radial, atol=1e-15)


def test_sbf_right_angle_kills_l1():
    rows = sbf(np.array([1.0]), np.cos([np.pi / 2]), 2, 2, 1.5)
    np.testing.assert_allclose(rows[0, 1::2], 0.0, atol=1e-15)


def test_sbf_value_at_center_and_l2():
    k, l, cutoff = 3, 3, 1.5
    centers = rbf_centers(k, cutoff)
    rows = sbf(np.array([centers[1]]), np.cos([np.pi / 3]), k, l, cutoff)
    # radial entry 1 is exactly 1; angular order 2 gives cos(2*pi/3) = -0.5
    assert rows[0, 1 * l + 2] == pytest.approx(-0.5, abs=1e-12)


def test_sbf_errors():
    with pytest.raises(ValueError):
        sbf(np.array([1.0]), np.array([0.5]), 3, 0, 1.5)
    with pytest.raises(ValueError):
        sbf(np.array([1.0]), np.array([1.5]), 3, 2, 1.5)  # cosine beyond 1


@pytest.mark.parametrize("l_sbf", range(1, 7))
def test_angular_basis_is_cos_of_multiple_angles(l_sbf):
    """The Chebyshev recurrence gives cos(l * arccos(c)) to 1e-13 on [-1, 1],
    the collinear cosines -1 and 1 included."""
    c = np.concatenate([np.linspace(-1.0, 1.0, 2001), [-1.0, 1.0, 0.0]])
    want = np.cos(np.arange(l_sbf) * np.arccos(c)[:, None])
    got = angular_basis(c, l_sbf)
    assert got.shape == (c.size, l_sbf)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("l_sbf", [1, 2, 5])
def test_angular_basis_dcos_matches_central_differences(l_sbf):
    c = np.linspace(-0.99, 0.99, 41)
    h = 1e-6
    fd = (angular_basis(c + h, l_sbf) - angular_basis(c - h, l_sbf)) / (2 * h)
    np.testing.assert_allclose(angular_basis_dcos(c, l_sbf), fd, rtol=0, atol=1e-7)


def _rigid_motion(system: AtomicSystem, rng) -> AtomicSystem:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.uniform(-5, 5, size=3)
    return AtomicSystem(system.positions @ q.T + shift, system.atomic_numbers)


def test_basis_invariant_under_rigid_motion(rng):
    cutoff = 1.5
    system = random_cloud(12, 0.9, rng)
    cfg = ModelConfig(k_rbf=5, l_sbf=3, cutoff=cutoff)
    topo, basis = basis_of(system, cfg)
    for _ in range(5):
        moved = _rigid_motion(system, rng)
        topo2, basis2 = basis_of(moved, cfg)
        # same edge/triplet sets in the same deterministic order
        np.testing.assert_array_equal(topo.edge_src, topo2.edge_src)
        np.testing.assert_array_equal(topo.trip_in, topo2.trip_in)
        np.testing.assert_allclose(basis2.edge_rbf, basis.edge_rbf, atol=1e-12)
        np.testing.assert_allclose(basis2.triplet_basis, basis.triplet_basis, atol=1e-12)


def test_basis_all_finite(rng):
    system = random_cloud(20, 0.9, rng)
    topo, basis = basis_of(system, ModelConfig(k_rbf=6, l_sbf=4, cutoff=1.5))
    assert np.all(np.isfinite(basis.edge_rbf))
    assert np.all(np.isfinite(basis.triplet_basis))
    assert basis.edge_rbf.shape == (topo.num_edges, 6)
    # One n x n block per center atom of degree n >= 2: its triplets and
    # its n diagonal entries.
    degree = np.bincount(topo.edge_src, minlength=topo.num_nodes)
    assert basis.triplet_basis.shape == (topo.num_triplets + degree[degree >= 2].sum(), 4)


def test_triplet_basis_is_the_angular_factor_in_both_variants(rng):
    """Both variants' triplet blocks hold the same cos(l * angle) bits, L
    wide: read at each triplet, the angular basis of its cosine u_out .
    u_rev(in) of edge unit vectors, summed left to right; with the in-edge
    rbf they compose the whole sbf rows exactly."""
    system = random_cloud(20, 0.9, rng)
    cfg = ModelConfig(k_rbf=6, l_sbf=4, cutoff=1.5)
    topo, dimenet = basis_of(system, cfg.replace(variant=DIMENET))
    _, gemnet = basis_of(system, cfg.replace(variant=GEMNET))
    assert topo.num_triplets > 0
    assert dimenet.triplet_basis.tobytes() == gemnet.triplet_basis.tobytes()
    rows = dimenet.triplet_basis[block_rows(dimenet.plan, topo)]
    assert rows.shape == (topo.num_triplets, 4)
    np.testing.assert_array_equal(rows[:, 0], 1.0)
    radial = dimenet.edge_rbf[topo.trip_in]
    composed = np.einsum("tk,tl->tkl", radial, rows).reshape(-1, 24)
    vectors = edge_vectors(system.positions, topo.edge_src, topo.edge_recv)
    units = vectors / edge_distances(vectors)[:, None]
    u_out, u_in = units[topo.trip_out], units[topo.reverse_edges()[topo.trip_in]]
    cosines = u_out[:, 0] * u_in[:, 0] + u_out[:, 1] * u_in[:, 1] + u_out[:, 2] * u_in[:, 2]
    angular = angular_basis(cosines, 4)
    assert rows.tobytes() == angular.tobytes()
    whole = angular_outer(radial, angular)
    assert composed.tobytes() == whole.tobytes()

"""Radial and angular basis features, and the one recorder of model geometry.

The radial basis is a Gaussian comb on [0, cutoff] with gamma = (K/cutoff)^2;
the angular basis is cos(l * angle) = T_l(cos angle) for l = 0..L-1, the
Chebyshev polynomials of the angle's cosine. Both depend only on distances
and cosines, so features are invariant under rigid motion. The spherical
basis (sbf) of triplet (k->j, j->i) is the outer product of the radial
basis of its in-edge k->j with the angular basis of its angle.

``compute_basis`` records everything the model reads of the positions: the
edge vectors, once, and from them distances, unit vectors and the rbf of
every edge. sbf's radial factor stays on the in-edge (see
``egn.engine.record_tu``), so the triplet basis is only the angular basis,
L wide: T_l of each center atom's Gram block of out-edge unit vectors, in
the block layout of a ``egn.graph.TripletPlan``, for the center atoms a
forward owns: every atom sequentially, a range on a runtime worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .graph import GraphTopology, TripletPlan, triplet_plan


@dataclass(frozen=True)
class BasisFeatures:
    """Basis handles from ``compute_basis``; on an Evaluator, the arrays."""

    edge_rbf: np.ndarray  # (N_e, K)
    edge_units: np.ndarray  # (N_e, 3)
    # sbf's angular factor cos(l * angle) of the plan's center atoms, in its
    # block layout, with zero rows where k == i: (plan.rows, L).
    triplet_basis: np.ndarray
    plan: TripletPlan


def rbf_centers(k_rbf: int, cutoff: float) -> np.ndarray:
    if k_rbf < 1:
        raise ValueError("k_rbf must be >= 1")
    return np.linspace(0.0, cutoff, k_rbf)


def rbf_gamma(k_rbf: int, cutoff: float) -> float:
    return (k_rbf / cutoff) ** 2


def rbf_features(distances: np.ndarray, k_rbf: int, cutoff: float) -> np.ndarray:
    """Gaussian radial features, entry (e, k) = exp(-gamma (d_e - c_k)^2)."""
    d = np.asarray(distances, dtype=np.float64)
    if d.size and (np.any(d <= 0.0) or np.any(d > cutoff)):
        raise ValueError("distances must lie in (0, cutoff]")
    centers = rbf_centers(k_rbf, cutoff)
    gamma = rbf_gamma(k_rbf, cutoff)
    return np.exp(-gamma * (d[:, None] - centers[None, :]) ** 2)


def rbf_features_ddist(distances: np.ndarray, k_rbf: int, cutoff: float) -> np.ndarray:
    """Derivative of each radial feature with respect to its distance."""
    d = np.asarray(distances, dtype=np.float64)
    centers = rbf_centers(k_rbf, cutoff)
    gamma = rbf_gamma(k_rbf, cutoff)
    delta = d[:, None] - centers[None, :]
    return -2.0 * gamma * delta * np.exp(-gamma * delta**2)


def angular_basis(cosines: np.ndarray, l_sbf: int) -> np.ndarray:
    """The angular basis: entry (t, l) = cos(l * angle_t) = T_l(c_t), from
    c_t = cos(angle_t) by T_0 = 1, T_1 = c and T_{l+1} = 2c T_l - T_{l-1}."""
    if l_sbf < 1:
        raise ValueError("l_sbf must be >= 1")
    c = np.asarray(cosines, dtype=np.float64)
    if c.size and np.any(np.abs(c) > 1.0 + 1e-12):
        raise ValueError("cosines must lie in [-1, 1]")
    cols = np.empty((l_sbf, c.shape[0]))  # one contiguous row per order
    cols[0] = 1.0
    for l in range(1, l_sbf):
        cols[l] = c if l == 1 else 2.0 * c * cols[l - 1] - cols[l - 2]
    return cols.T.copy()


def angular_basis_dcos(cosines: np.ndarray, l_sbf: int) -> np.ndarray:
    """Derivative of each angular basis entry with respect to its cosine:
    T_l'(c) = l U_{l-1}(c), with U_{-1} = 0, U_0 = 1 and
    U_{l+1} = 2c U_l - U_{l-1}."""
    c = np.asarray(cosines, dtype=np.float64)
    cols = np.zeros((l_sbf, c.shape[0]))
    u_prev, u = np.zeros_like(c), np.ones_like(c)
    for l in range(1, l_sbf):
        cols[l] = l * u
        u_prev, u = u, 2.0 * c * u - u_prev
    return cols.T.copy()


def compute_basis(
    tape, pos_id, topology: GraphTopology, config: ModelConfig, atoms: slice
) -> BasisFeatures:
    """Record the model's geometry and basis from the positions leaf ``pos_id``.

    The edge vectors are the one node that reads the positions; distances,
    units and rbf cover every edge. The center atoms J this forward owns,
    ``atoms``, enter here only, through the plan built once per forward;
    the triplet basis reads the units of J's out-edges O_J. On a Tape this
    records for a backward pass; on an Evaluator it returns the arrays.
    """
    vectors = tape.edge_vectors(pos_id, topology.edge_src, topology.edge_recv)
    dist = tape.edge_distances(vectors)
    units = tape.edge_units(vectors)
    rbf = tape.gaussian_rbf(dist, config.k_rbf, config.cutoff)
    plan = triplet_plan(topology, atoms)
    blocks = tape.triplet_basis(tape.gather(units, plan.edges), plan, config.l_sbf)
    return BasisFeatures(rbf, units, blocks, plan)

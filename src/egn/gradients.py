"""Gradient surfaces: closed-form geometry derivatives and energy forces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import GradientBundle, ModelTape
from .graph import GraphTopology, angle_gradients, distance_gradients
from .params import ModelParams
from .system import AtomicSystem


@dataclass(frozen=True)
class GeometryGrads:
    """Closed-form derivatives of distances and angles w.r.t. positions.

    ``dist_d_src``/``dist_d_recv``: (N_e, 3), the gradient of each edge
    length with respect to its source and receiver atom. ``angle_d_k`` /
    ``angle_d_j`` / ``angle_d_i``: (N_t, 3), the gradient of each triplet
    angle with respect to the outer atom k, middle atom j, and outer atom i.
    Collinear triplets carry the zero subgradient.
    """

    dist_d_src: np.ndarray
    dist_d_recv: np.ndarray
    angle_d_k: np.ndarray
    angle_d_j: np.ndarray
    angle_d_i: np.ndarray


def geometry_grads(positions: np.ndarray, topology: GraphTopology) -> GeometryGrads:
    d_src, d_recv = distance_gradients(positions, topology.edge_src, topology.edge_recv)
    g_k, g_j, g_i = angle_gradients(positions, topology)
    return GeometryGrads(d_src, d_recv, g_k, g_j, g_i)


def forces_energy_centric(
    system: AtomicSystem, params: ModelParams
) -> tuple[float, np.ndarray, GradientBundle]:
    """Energy and forces as the negative position gradient of the energy.

    The graph topology is held fixed during differentiation; a position
    step that crosses the cutoff changes the edge set discontinuously and
    is outside the differentiated path.
    """
    model = ModelTape(system, params)
    bundle = model.backward(d_energy=1.0)
    forces = -bundle.d_positions
    return model.energy, forces, bundle

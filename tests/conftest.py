import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from egn import runtime
from egn import tape as tape_module
from egn.basis import compute_basis
from egn.graph import build_graph
from egn.params import ModelParams, param_specs
from egn.runtime import Collective
from egn.system import AtomicSystem
from egn.tape import Evaluator

EPS = np.finfo(np.float64).eps
PERFBENCH_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_perfbench_layers():
    """The benchmark's ``perfbench/layers.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fd_allowance(value_scale: float, h: float) -> float:
    """Roundoff bound of a central difference of values of this magnitude.

    The subtraction (f(x+h) - f(x-h)) resolves at best a few ulps of f, so
    a finite-difference oracle cannot certify gradients below this scale.
    """
    return 64.0 * EPS * max(value_scale, 1.0) / h


def rel_err(approx, exact, floor=1e-8):
    approx = np.asarray(approx, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(approx), np.abs(exact)), floor)
    return np.abs(approx - exact) / denom


def min_pair_distance(positions: np.ndarray) -> float:
    """Smallest distance between any two distinct rows of ``positions``.

    Takes O(n^2) time but only O(n) memory, one row against the rest at a time.
    """
    pos = np.asarray(positions, dtype=np.float64)
    best = np.inf
    for row in range(pos.shape[0] - 1):
        diff = pos[row + 1 :] - pos[row]
        best = min(best, float(np.sqrt((diff * diff).sum(axis=1)).min()))
    return best


def basis_of(system: AtomicSystem, config):
    """The topology and basis arrays of a system, over all center atoms, with no tape."""
    topology, _ = build_graph(system, config.cutoff)
    ev = Evaluator()
    return topology, compute_basis(ev, ev.leaf(system.positions), topology, config, slice(None))


def triplet_cosines(vectors: np.ndarray, trip_in: np.ndarray, trip_out: np.ndarray) -> np.ndarray:
    """Per-triplet reference cosine of the bond angle at the shared atom j,
    c = -a . b / (|a| |b|), from the edge vectors a = x_j - x_k of the
    in-edges and b = x_i - x_j of the out-edges, summed left to right."""
    a, b = vectors[trip_in].T, vectors[trip_out].T

    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

    return -dot(a, b) / (np.sqrt(dot(a, a)) * np.sqrt(dot(b, b)))


def block_rows(plan, topology) -> np.ndarray:
    """Each triplet's row in the block layout of ``plan``: (center j,
    position of its out-edge in O_j, position of its in-edge's reverse in
    O_j); -1 for triplets whose center is not one of the plan's atoms."""
    starts = topology.out_edge_starts()
    base = np.full(topology.num_nodes, -1)
    degree = np.zeros(topology.num_nodes, dtype=np.int64)
    for bucket in plan.buckets:
        m, n = bucket.out_rows.shape
        centers = topology.edge_src[plan.edges.start + bucket.out_rows[:, 0]]
        base[centers] = bucket.rows.start + np.arange(m) * n * n
        degree[centers] = n
    j = topology.edge_src[topology.trip_out]
    q = topology.trip_out - starts[j]
    p = topology.reverse_edges()[topology.trip_in] - starts[j]
    return np.where(base[j] >= 0, base[j] + q * degree[j] + p, -1)


def angular_outer(radial: np.ndarray, angular: np.ndarray) -> np.ndarray:
    """The whole sbf: row-wise outer product of radial rows and angular basis
    rows cos(l * angle), flattened, entry (t, k * L + l) = radial[t, k] *
    angular[t, l].

    The engine never forms it (it keeps sbf's radial factor on the in-edge);
    tests compare against it. Each entry is one product with no summation.
    """
    out = np.einsum("tk,tl->tkl", radial, angular)
    return out.reshape(angular.shape[0], radial.shape[1] * angular.shape[1])


def _angular_sbf_vjp(g, vals, out, aux):
    radial, angular = vals
    g = g.reshape(radial.shape + angular.shape[1:])
    return np.einsum("tkl,tl->tk", g, angular), np.einsum("tkl,tk->tl", g, radial)


def record_angular_sbf(tape, radial: int, angular: int) -> int:
    """Record the whole sbf of ``radial`` rows and ``angular`` basis rows as
    one node of the reference primitive ``angular_sbf`` (see the fixture)."""
    return tape._record("angular_sbf", (radial, angular), {})


@pytest.fixture
def angular_sbf(monkeypatch):
    """Register the reference primitive ``angular_sbf`` (forward
    ``angular_outer``, with its adjoint) for one test; returns
    ``record_angular_sbf``."""
    monkeypatch.setitem(
        tape_module._FORWARD, "angular_sbf", lambda vals, aux: angular_outer(vals[0], vals[1])
    )
    monkeypatch.setitem(tape_module._VJP, "angular_sbf", _angular_sbf_vjp)
    return record_angular_sbf


class DropLastCollective(Collective):
    """A corrupted all-reduce that leaves out the last rank's buffer (P > 1).

    Tests swap it in for ``egn.runtime.Collective`` to check that the
    equivalence checks catch a broken reduction.
    """

    def sum_slots(self, slots):
        return super().sum_slots(slots[:-1] if len(slots) > 1 else slots)


@pytest.fixture
def replica_digests(monkeypatch):
    """Swap in an ``egn.runtime.Collective`` that keeps a SHA-256 digest of
    every total it hands the workers.

    Returns a list with one entry per collective made, that is per pass, in
    order: the digests of its totals.
    """
    made = []

    class DigestCollective(Collective):
        def __init__(self, workers, log):
            super().__init__(workers, log)
            self.digests = []
            made.append(self.digests)

        def allreduce_sum(self, rank, buffer, **kwargs):
            total = super().allreduce_sum(rank, buffer, **kwargs)
            if total is not None:
                self.digests.append(hashlib.sha256(total.tobytes()).hexdigest())
            return total

    monkeypatch.setattr(runtime, "Collective", DigestCollective)
    return made


def zero_params(config) -> ModelParams:
    """Every weight of the declared layout set to zero."""
    arrays = {s.name: np.zeros(s.shape, dtype=np.float64) for s in param_specs(config)}
    return ModelParams(config, arrays)


def dimer(distance: float, z=(1, 1)) -> AtomicSystem:
    pos = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, distance]])
    return AtomicSystem(pos, np.array(z, dtype=np.int64))


def collinear_chain(spacing: float = 1.0, n: int = 3) -> AtomicSystem:
    pos = np.zeros((n, 3))
    pos[:, 2] = spacing * np.arange(n)
    return AtomicSystem(pos, np.full(n, 6, dtype=np.int64))


def equilateral_triangle(side: float = 1.0) -> AtomicSystem:
    pos = np.array(
        [[0.0, 0.0, 0.0], [side, 0.0, 0.0], [side / 2, side * np.sqrt(3) / 2, 0.0]]
    )
    return AtomicSystem(pos, np.array([6, 6, 6], dtype=np.int64))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)

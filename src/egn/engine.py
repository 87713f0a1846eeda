"""Sequential engine for stacked interaction blocks over an atomic graph.

One block runs triplet update (TU) -> triplet aggregation (TA) -> edge
update (EU) -> edge aggregation (EA) -> node update (NU), then for the
gemnet-style variant a second edge update (EU2) and symmetric coupling of
the two directed messages on each undirected edge, and finally the global
update (GU). The dimenet-style variant is energy-centric (forces come from
the position gradient); the gemnet-style variant adds a direct force head.

Each stage has one ``record_*`` definition that takes the tape first, and
``record_model`` chains them from the basis (``egn.basis.compute_basis``)
to the readout. A forward owns the center atoms of its basis's plan, and
its edge and node rows derive from them; ``record_tu`` runs over the owned
atoms' edges only, their in-edges and out-edges. ``record_model`` is a
generator that yields each buffer its rows only partly compute, as
``(buffer, where)``, and resumes with the buffer's total. The sequential
forward ``record_system`` is the one owner of every atom: it resumes with
None and its tape holds no collective node. A runtime worker owns a range
of atoms and resumes with the all-reduced total, which the engine records
as a collective node, so one worker reproduces this engine bit for bit.
``ModelHandles`` reads out, seeds and differentiates a pass for both.
Without a backward (inference) the stages run on an ``Evaluator``, which
computes the same values and keeps no tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import basis as _basis
from .basis import BasisFeatures
from .config import GEMNET, ModelConfig
from .graph import GraphTopology, TripletPlan, build_graph
from .params import ModelParams
from .system import AtomicSystem
from .tape import Tape, run_alone, scatter_add


@dataclass(frozen=True)
class FeatureState:
    """Dense feature buffers after a forward pass."""

    global_features: np.ndarray  # (1, d_u)
    node_features: np.ndarray  # (N_v, d_v)
    edge_features: np.ndarray  # (N_e, d_e)


@dataclass
class GradientBundle:
    """Parameter and position gradients from one backward pass."""

    d_params: dict[str, np.ndarray]
    d_positions: np.ndarray  # (n, 3)


class ParamLeaves:
    """Create tape leaves for parameter arrays on first use.

    ``view(name, index)`` is a leaf of a parameter's entries laid out anew:
    entry i is the parameter's flat entry index[i], or zero where index[i]
    is -1. An entry may appear more than once; the gradient of each
    appearance is summed into the parameter's gradient.
    """

    def __init__(self, tape: Tape, params: ModelParams):
        self._tape = tape
        self._arrays = params.arrays
        self.ids: dict[str, int] = {}
        self.views: dict[str, list[tuple[int, np.ndarray]]] = {}

    def __getitem__(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = self._tape.leaf(self._arrays[name])
        return self.ids[name]

    def view(self, name: str, index: np.ndarray) -> int:
        flat = self._arrays[name].ravel()
        nid = self._tape.leaf(np.where(index >= 0, flat[index], 0.0))
        self.views.setdefault(name, []).append((nid, index))
        return nid

    def gradients(self, grads: list) -> dict[str, np.ndarray]:
        """Every parameter's gradient from a backward of the tape, in
        declaration order; zeros where a parameter was unused or no
        gradient reached it."""
        out = {}
        for name, arr in self._arrays.items():
            g = grads[self.ids[name]] if name in self.ids else None
            for nid, index in self.views.get(name, ()):
                if grads[nid] is not None:
                    used = index >= 0
                    part = scatter_add(index[used], grads[nid][used], arr.size)
                    g = part.reshape(arr.shape) if g is None else g + part.reshape(arr.shape)
            out[name] = g if g is not None else np.zeros_like(arr)
        return out


# ---------------------------------------------------------------------------
# Stage recorders: the one definition of each stage. Run on a Tape they record
# for a backward pass; run on an Evaluator they return the values and keep
# nothing.
# ---------------------------------------------------------------------------


def record_mlp2(tape: Tape, x: int, pl: ParamLeaves, prefix: str) -> int:
    h = tape.linear(x, pl[prefix + ".w1"], pl[prefix + ".b1"])
    return tape.linear(tape.silu(h), pl[prefix + ".w2"], pl[prefix + ".b2"])


def record_edge_init(tape: Tape, pl: ParamLeaves, rbf_id: int) -> int:
    return tape.linear(rbf_id, pl["edge_init.w"], pl["edge_init.b"])


@lru_cache(maxsize=8)
def bilinear_layout(
    l_sbf: int, d_t: int, d_bil: int, k_rbf: int, d_e: int
) -> dict[str, np.ndarray]:
    """Read-only ``ParamLeaves.view`` indices that regroup the triplet gates
    by angular order l, for one product per edge over all orders:

      * ``sbf_gate`` (L d_t, K): row (l, j) is ``sbf_gate[j, k L + l]`` over
        k, the gate of sbf's order-l columns;
      * ``down`` (L d_t, d_e): ``down`` once per order (dimenet-style);
      * ``bilinear_b`` (L d_bil, L d_t): ``bilinear_b`` once per order, on
        the block diagonal;
      * ``bilinear_a`` (L d_bil, d_t): ``bilinear_a`` once per order.
    """
    gate = np.arange(d_t * k_rbf * l_sbf).reshape(d_t, k_rbf, l_sbf).transpose(2, 0, 1)
    bil = np.arange(d_bil * d_t).reshape(d_bil, d_t)
    diag = np.full((l_sbf, d_bil, l_sbf, d_t), -1)
    for l in range(l_sbf):
        diag[l, :, l, :] = bil
    layout = {
        "sbf_gate": gate.reshape(l_sbf * d_t, k_rbf),
        "down": np.tile(np.arange(d_t * d_e).reshape(d_t, d_e), (l_sbf, 1)),
        "bilinear_b": diag.reshape(l_sbf * d_bil, l_sbf * d_t),
        "bilinear_a": np.tile(bil, (l_sbf, 1)),
    }
    for index in layout.values():
        index.setflags(write=False)
    return layout


def record_tu(
    tape: Tape,
    pl: ParamLeaves,
    block: int,
    config: ModelConfig,
    m_id: int,
    basis: BasisFeatures,
) -> int:
    """Triplet update + aggregation for the center atoms J of ``basis.plan``:
    it reads m and the rbf at J's in-edges rev[O_J] only, and returns the
    rows of J's out-edges O_J, complete, since J owns them.

    As in GemNet's efficient layout, sbf = rbf(in-edge) (x) cos(l * angle)
    keeps its radial factor on the in-edge, and only the angle, the blocks
    of ``basis.triplet_basis``, runs on triplets. ``sbf_gate`` gates each
    in-edge's rbf by sbf's order-l columns, giving G_l for every l in one
    product of width L d_t (see ``bilinear_layout``). Dimenet-style the
    message of triplet (k -> j, j -> i) is sum_l cos(l * angle) C_l[k -> j]
    with C_l = ``down``(m) * G_l; gemnet-style, ``sbf_gate`` and
    ``bilinear_b`` compose with no bias between them, and C_l =
    ``bilinear_a``(``down``(m)) * ``bilinear_b``(G_l), L d_bil wide. In
    the order of rev[O_J], C_l at atom j's in-edges are j's own local rows,
    and the messages summed into j's out-edges are one product of j's
    blocks with them, ``triplet_contract``.

    The sum is projected by ``bilinear_proj`` (gemnet-style), gated by the
    out-edge's rbf and up-projected; none of these maps has a bias and the
    gate depends on the out-edge alone, so they commute with the sum.
    """
    p = f"block{block}.tu"
    plan = basis.plan
    layout = bilinear_layout(config.l_sbf, config.d_t, config.d_bil, config.k_rbf, config.d_e)
    m_in = tape.gather(m_id, plan.in_edges)
    rbf_in = tape.gather(basis.edge_rbf, plan.in_edges)
    gates = tape.linear(rbf_in, pl.view(p + ".sbf_gate", layout["sbf_gate"]))
    if config.variant == GEMNET:
        b = tape.linear(gates, pl.view(p + ".bilinear_b", layout["bilinear_b"]))
        down = tape.linear(m_in, pl[p + ".down"])
        a = tape.linear(down, pl.view(p + ".bilinear_a", layout["bilinear_a"]))
        blocks = tape.mul(a, b)
    else:
        blocks = tape.mul(tape.linear(m_in, pl.view(p + ".down", layout["down"])), gates)
    agg = tape.triplet_contract(basis.triplet_basis, blocks, plan)
    if config.variant == GEMNET:
        agg = tape.linear(agg, pl[p + ".bilinear_proj"])
    rbf_out = tape.gather(basis.edge_rbf, plan.edges)
    gated = tape.mul(agg, tape.linear(rbf_out, pl[p + ".rbf_gate"]))
    return tape.linear(gated, pl[p + ".up"])


def record_eu(
    tape: Tape, pl: ParamLeaves, block: int, m_id: int, ta_id: int, rows: slice
) -> int:
    m_rows = tape.gather(m_id, rows)
    x = tape.concat(m_rows, ta_id)
    return tape.add(m_rows, record_mlp2(tape, x, pl, f"block{block}.eu"))


def record_ea_nu(tape: Tape, pl: ParamLeaves, block: int, m_id: int, plan: TripletPlan) -> int:
    """Edge aggregation and node update of the center atoms J of ``plan``:
    each atom sums m over its in-edges rev[O_J], in ascending order, as a
    direct scatter over all edges would."""
    gathered = tape.gather(m_id, plan.in_edges)
    h = tape.segment_sum(gathered, plan.receivers, plan.atoms.stop - plan.atoms.start)
    return record_mlp2(tape, h, pl, f"block{block}.nu")


def record_eu2(
    tape: Tape,
    pl: ParamLeaves,
    block: int,
    m_id: int,
    v_id: int,
    rows: slice,
    topology: GraphTopology,
) -> int:
    m_rows = tape.gather(m_id, rows)
    v_rows = tape.gather(v_id, topology.edge_recv[rows])
    x = tape.concat(m_rows, v_rows)
    return tape.add(m_rows, record_mlp2(tape, x, pl, f"block{block}.eu2"))


def record_sym(tape: Tape, pl: ParamLeaves, block: int, m2_id: int, rev: np.ndarray) -> int:
    mirrored = tape.gather(m2_id, rev)
    return tape.add(m2_id, tape.linear(mirrored, pl[f"block{block}.sym.w"]))


def record_gu_head(tape: Tape, pl: ParamLeaves, block: int, v_id: int, rows: slice) -> int:
    s = tape.sum_rows(tape.gather(v_id, rows))
    return tape.linear(s, pl[f"block{block}.gu.w1"])


def record_gu_tail(tape: Tape, pl: ParamLeaves, block: int, z_id: int, u_id: int) -> int:
    p = f"block{block}.gu"
    pre = tape.add(z_id, pl[p + ".b1"])
    return tape.add(u_id, tape.linear(tape.silu(pre), pl[p + ".w2"], pl[p + ".b2"]))


def record_energy(tape: Tape, pl: ParamLeaves, u_id: int) -> int:
    return tape.linear(u_id, pl["energy_head.w"], pl["energy_head.b"])


def record_force_head(
    tape: Tape, pl: ParamLeaves, m_id: int, units_id: int, topology: GraphTopology
) -> int:
    """Each atom's force, summed over its in-edges rev[O_j] in ascending
    order, as ``record_ea_nu`` sums a plan of every atom."""
    rev = topology.reverse_edges()
    scale = tape.linear(tape.gather(m_id, rev), pl["force_head.w"])
    scaled = tape.mul(scale, tape.gather(units_id, rev))
    return tape.segment_sum(scaled, topology.edge_src, topology.num_nodes)


@dataclass(frozen=True)
class ModelHandles:
    """Handles of one model forward, from the positions leaf to the
    readout; on an Evaluator they are the values. What a pass reads out,
    seeds and differentiates is defined here once, for the sequential
    ``ModelTape`` and each runtime worker alike."""

    param_leaves: ParamLeaves
    positions: int
    m: int
    v: int
    u: int
    energy: int
    forces: int | None  # force-centric variant only

    def outputs(self, tape: Tape) -> tuple[float, np.ndarray | None, FeatureState]:
        """The energy, the direct forces (None energy-centric) and the final
        feature buffers of the forward recorded on ``tape``."""
        forces = None if self.forces is None else tape.value(self.forces)
        state = FeatureState(tape.value(self.u), tape.value(self.v), tape.value(self.m))
        return float(tape.value(self.energy)[0, 0]), forces, state

    def seeds(
        self, tape: Tape, d_energy: float = 1.0, d_forces: np.ndarray | None = None
    ) -> dict[int, np.ndarray]:
        """A backward's seeds: ``d_energy`` on the energy unless it is zero,
        ``d_forces`` on the direct forces, and a zero energy seed where
        neither remains. A bad force seed raises ValueError here, before
        any walk begins."""
        seeds = {}
        if d_energy != 0.0:
            seeds[self.energy] = np.array([[d_energy]], dtype=np.float64)
        if d_forces is not None:
            if self.forces is None:
                raise ValueError("a force seed needs the force head of the force-centric variant")
            d_forces = np.asarray(d_forces, dtype=np.float64)
            shape = tape.value(self.forces).shape
            if d_forces.shape != shape:
                raise ValueError(f"force seed has shape {d_forces.shape}, expected {shape}")
            seeds[self.forces] = d_forces
        return seeds or {self.energy: np.zeros((1, 1), dtype=np.float64)}

    def gradients(self, tape: Tape, grads: list) -> GradientBundle:
        """The parameter and position gradients of a walk of ``tape``, zeros
        where none reached."""
        d_positions = grads[self.positions]
        if d_positions is None:
            d_positions = np.zeros_like(tape.value(self.positions))
        return GradientBundle(self.param_leaves.gradients(grads), d_positions)


def _shared(tape: Tape, x: int, stage: str, level: str, block: int, rows=None, num=None):
    """The whole buffer of which ``x`` holds the rows ``rows`` of ``num``,
    or all of it where ``rows`` is None, as a generator. It yields
    ``(buffer, where)``: the rows placed in a zero buffer unless they are
    the whole of it, and the keywords that label the buffer's collective.
    It returns the handle of the total it is resumed with, recorded as a
    collective node. Resumed with None, as ``run_alone`` does for the one
    owner of every row, it returns ``x`` and records nothing."""
    buffer = tape.value(x)
    if rows is not None and buffer.shape[0] != num:
        buffer = np.zeros((num,) + buffer.shape[1:], dtype=np.float64)
        buffer[rows] = tape.value(x)
    where = {"block": block, "stage": stage, "level": level}
    total = yield buffer, {"phase": "forward", **where}
    if total is None:
        return x
    return tape.allreduce(x, total, rows, {"phase": "backward", **where})


def record_model(
    tape: Tape,
    params: ModelParams,
    topology: GraphTopology,
    positions: int,
    basis: BasisFeatures,
    enter=lambda stage: None,
):
    """The block pipeline from the basis, recorded from the ``positions``
    leaf, to the readout: the one definition of the model forward, as a
    generator that returns the ``ModelHandles``.

    The forward owns the center atoms J of ``basis.plan``, every atom
    sequentially and a contiguous range on a runtime worker; its edge rows
    are J's out-edges O_J and its node rows are J. It shares a buffer by
    the rows or partial sums it owns, or computes the whole buffer itself
    and shares nothing. Per block:

      * triplet update of J over J's edges only: gates and C_l at the
        in-edges rev[O_J], summed into O_J, gated and up-projected there,
        |O_J| complete rows, not shared;
      * edge update over O_J, shared as N_e x d_e;
      * edge aggregation and node update of J, shared as N_v x d_v;
      * gemnet-style, the second edge update over O_J, shared as N_e x
        d_e, then the symmetric coupling over all edges;
      * global head: J's node sum projected to d_u, shared as 1 x d_u, and
        its tail finished whole.

    The initial edge embedding and the force head run over all rows too.
    Each shared buffer is one step of ``_shared``: the generator yields
    ``(buffer, where)`` and is resumed with the buffer's total, an
    all-reduce in the runtime, or with None by ``run_alone`` for the one
    owner. ``enter(stage)`` is called as each stage begins.
    """
    config = params.config
    gemnet = config.variant == GEMNET
    plan = basis.plan
    edges, atoms = plan.edges, plan.atoms
    num_edges, num_nodes = topology.num_edges, topology.num_nodes
    pl = ParamLeaves(tape, params)

    m_id = record_edge_init(tape, pl, basis.edge_rbf)
    u_id = tape.leaf(np.zeros((1, config.d_u)))
    for b in range(config.blocks):
        enter(f"block{b}.tu")
        ta_id = record_tu(tape, pl, b, config, m_id, basis)
        enter(f"block{b}.eu")
        m_id = record_eu(tape, pl, b, m_id, ta_id, edges)
        m_id = yield from _shared(tape, m_id, "eu", "edge", b, edges, num_edges)
        enter(f"block{b}.nu")
        v_id = record_ea_nu(tape, pl, b, m_id, plan)
        v_id = yield from _shared(tape, v_id, "nu", "node", b, atoms, num_nodes)
        if gemnet:
            enter(f"block{b}.eu2")
            m_id = record_eu2(tape, pl, b, m_id, v_id, edges, topology)
            m_id = yield from _shared(tape, m_id, "eu2", "edge", b, edges, num_edges)
            enter(f"block{b}.sym")
            m_id = record_sym(tape, pl, b, m_id, topology.reverse_edges())
        enter(f"block{b}.gu")
        z_id = record_gu_head(tape, pl, b, v_id, atoms)
        z_id = yield from _shared(tape, z_id, "gu", "global", b)
        u_id = record_gu_tail(tape, pl, b, z_id, u_id)

    enter("readout")
    energy_id = record_energy(tape, pl, u_id)
    forces_id = None
    if gemnet:
        forces_id = record_force_head(tape, pl, m_id, basis.edge_units, topology)
    return ModelHandles(pl, positions, m_id, v_id, u_id, energy_id, forces_id)


def record_system(tape: Tape, system: AtomicSystem, params: ModelParams) -> ModelHandles:
    """The sequential forward over a whole system, the one owner of every
    atom, whose rows compute each buffer whole."""
    topology, _ = build_graph(system, params.config.cutoff)
    pos_id = tape.leaf(system.positions)
    basis = _basis.compute_basis(tape, pos_id, topology, params.config, slice(None))
    return run_alone(record_model(tape, params, topology, pos_id, basis))


def network_config(params: ModelParams) -> ModelConfig:
    """``params.config``, which must describe the graph network. A
    diagnostic config names the quadratic well of ``egn.tasks``, which
    only ``predict`` and ``relax`` run, so a pass of the network over it
    would run another model than they do."""
    if params.config.diagnostic:
        raise ValueError("a diagnostic config is the quadratic well, which only predict and relax run")
    return params.config


class ModelTape:
    """One recorded sequential forward pass over a system.

    Holds the energy, the direct forces for the force-centric variant and
    the final feature buffers as values, as a ``ParallelRunResult`` does,
    and a backward() that yields parameter and position gradients, as
    often as it is called. Inference that needs no backward runs
    ``record_system`` on an ``Evaluator`` instead.
    """

    def __init__(self, system: AtomicSystem, params: ModelParams):
        self.system = system
        self.params = params
        self.config = network_config(params)
        self.tape = Tape()
        self.handles = record_system(self.tape, system, params)
        self.energy, self.forces, self.state = self.handles.outputs(self.tape)

    def backward(
        self, d_energy: float = 1.0, d_forces: np.ndarray | None = None
    ) -> GradientBundle:
        grads = self.tape.backward(self.handles.seeds(self.tape, d_energy, d_forces))
        return self.handles.gradients(self.tape, grads)

"""Simulated multi-worker execution of the block pipeline.

P workers run as threads that communicate only through a Collective
endpoint offering a deterministic all-reduce (reduction in ascending rank
order, identical result delivered everywhere). Worker-local state is owned
exclusively by its worker between collectives.

Each worker records its geometry and basis from the positions with
``compute_basis``: distances and rbf over every edge, angles and sbf over
its own triplet shard only. A worker's edge shard is the out-edges of its
triplets (see ``egn.partition``), and it gets every shared buffer in one of
two ways: it all-reduces the rows or partial sums it owns, or it computes
the whole buffer itself with no collective. Per block (dimenet-style):
  * triplet update over the worker's shard, its d_t-wide messages summed by
    out-edge, gated and up-projected: complete on its own edges, so no
    collective (the in-edge factors are projected over all edges first),
  * edge update over the edge shard into a zero edge buffer, all-reduce
    (N_e * d_e elements),
  * edge aggregation + node update for the node shard into a zero node
    buffer, all-reduce (N_v * d_v elements),
  * global head: the node sum of the shard projected to d_u, all-reduce
    (d_u elements), tail finished by every worker.
The gemnet-style variant adds the second edge update over the edge shard
and its edge all-reduce, then every worker forms the symmetric coupling
over all edges. The initial edge embedding and the force head also run
over all rows on every worker.

A recording worker keeps every stage on one tape, where each all-reduce is
a collective node (see ``egn.tape``): its adjoint sums the workers' partial
adjoints and hands each worker its rows, so the backward is one walk of
that tape and its collectives mirror the forward's. A buffer every worker
computed in full each differentiates in full from its own partial adjoint;
every VJP is linear in its adjoint, so the collectives upstream and the
final all-reduce of position and parameter gradients sum the partials to
the exact gradient, and only rank 0 seeds the energy and the forces.
Boundary nodes mark the forward's stage switches, so the backward books
its time to its stage. The worker's geometry is on a second tape, whose
backward gives the position gradient, with each triplet's angle and sbf
differentiated by its owner alone. Triplet features never enter a
collective in either direction.

A pass that needs its backward is recorded once: ``WorkerGroup.record()``
runs the forward and returns its ``ParallelRunResult`` holding each
worker's shard tapes, whose ``backward()`` runs the workers again over
those tapes on the same collective, after the caller has read the energy
and forces it seeds from. ``forward()`` keeps no tape.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .basis import compute_basis
from .config import GEMNET
from .engine import (
    ALL_ROWS,
    FeatureState,
    GradientBundle,
    ParamLeaves,
    receiver_plan,
    record_ea_nu,
    record_edge_init,
    record_energy,
    record_eu,
    record_eu2,
    record_force_head,
    record_gu_head,
    record_gu_tail,
    record_sym,
    record_tu,
)
from .graph import build_graph
from .params import ModelParams
from .partition import GraphPartition, partition_graph
from .system import AtomicSystem
from .tape import Evaluator, Tape

ALLOWED_LEVELS = frozenset({"edge", "node", "global", "position", "param"})


class CollectiveError(RuntimeError):
    pass


class CollectiveShapeError(CollectiveError):
    pass


class CollectiveTimeoutError(CollectiveError):
    pass


class WorkerGroupError(RuntimeError):
    def __init__(self, stage: str, rank: int, cause: BaseException):
        super().__init__(f"worker {rank} failed during stage {stage!r}: {cause!r}")
        self.stage = stage
        self.rank = rank


@dataclass(frozen=True)
class CommRecord:
    phase: str  # "forward" | "backward"
    block: int  # -1 for model-level collectives
    stage: str
    level: str
    elements: int


@dataclass
class CommLog:
    records: list[CommRecord] = field(default_factory=list)

    def elements(self, phase: str | None = None) -> int:
        return sum(rec.elements for rec in self.records if phase is None or rec.phase == phase)

    def forward_blocks(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for rec in self.records:
            if rec.phase == "forward" and rec.block >= 0:
                out[rec.block] = out.get(rec.block, 0) + rec.elements
        return out


class Collective:
    """Group endpoint: deterministic all-reduce-sum for P workers."""

    def __init__(self, workers: int, log: CommLog, timeout: float = 30.0):
        self.workers = workers
        self.log = log
        self.timeout = timeout
        self._slots: list[np.ndarray | None] = [None] * workers
        self._result: np.ndarray | None = None
        self._error: str | None = None
        self._enter = threading.Barrier(workers)
        self._exit = threading.Barrier(workers)

    def abort(self) -> None:
        self._enter.abort()
        self._exit.abort()

    def _wait(self, barrier: threading.Barrier) -> None:
        try:
            barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            if barrier.broken:
                raise CollectiveTimeoutError(
                    f"collective did not complete within {self.timeout}s "
                    "(missing participant or aborted group)"
                ) from None
            raise

    def sum_slots(self, slots: list[np.ndarray]) -> np.ndarray:
        """Sum the workers' buffers in ascending rank order into a new array."""
        total = slots[0].copy()
        for slot in slots[1:]:
            total += slot
        return total

    def allreduce_sum(
        self,
        rank: int,
        buffer: np.ndarray,
        *,
        phase: str,
        block: int,
        stage: str,
        level: str,
    ) -> np.ndarray:
        """Rank-ordered sum of all workers' buffers, identical on every worker."""
        if level not in ALLOWED_LEVELS:
            raise ValueError(f"buffers of level {level!r} must never enter a collective")
        self._slots[rank] = np.asarray(buffer, dtype=np.float64)
        self._wait(self._enter)
        if rank == 0:
            shapes = {slot.shape for slot in self._slots}
            if len(shapes) != 1:
                self._error = f"shape mismatch across workers: {sorted(shapes)}"
                self._result = None
            else:
                self._result = self.sum_slots(self._slots)
                self._error = None
                self.log.records.append(
                    CommRecord(phase=phase, block=block, stage=stage, level=level,
                               elements=int(self._result.size))
                )
        self._wait(self._exit)
        if self._error is not None:
            raise CollectiveShapeError(self._error)
        return self._result.copy()


@dataclass
class ParallelRunResult:
    """One forward over the workers of a group.

    A result of ``WorkerGroup.record()`` has the interface of
    ``engine.ModelTape``: ``energy``, ``forces`` and ``backward(d_energy,
    d_forces)``, which runs the workers again over the shard tapes they
    recorded, on the same collective, so the comm log holds the forward's
    records followed by the backward's. A pass runs one backward, and its
    tapes are released then; a result of ``forward()`` has none.
    """

    energy: float
    forces: np.ndarray | None
    state: FeatureState
    triplet_shards: list[np.ndarray]
    comm_log: CommLog
    stage_seconds: dict[str, float]
    # (group, worker contexts, shards) of a recorded pass until its backward.
    _pending: tuple | None = field(default=None, compare=False, repr=False)

    def backward(
        self, d_energy: float = 1.0, d_forces: np.ndarray | None = None
    ) -> GradientBundle:
        if self._pending is None:
            raise RuntimeError(
                "this pass kept no tapes or has already run its backward; record() a new pass"
            )
        group, contexts, shards = self._pending
        if d_forces is not None:
            if group.config.variant != GEMNET:
                raise ValueError("force seeds require the force-centric variant")
            d_forces = np.asarray(d_forces, dtype=np.float64)
            shape = group.system.positions.shape
            if d_forces.shape != shape:
                raise ValueError(f"force seed has shape {d_forces.shape}, expected {shape}")
        self._pending = None
        bundles = group._launch(
            contexts,
            lambda ctx: group._worker_backward(ctx, shards[ctx.rank], d_energy, d_forces),
        )
        return bundles[0]


class _WorkerContext:
    def __init__(self, rank: int, collective: Collective, timed: bool):
        self.rank = rank
        self.collective = collective
        self.stage = "setup"
        self.stage_seconds: dict[str, float] = {}
        self._timed = timed
        self._tic: float | None = None

    def set_stage(self, name: str) -> None:
        now = time.perf_counter()
        if self._timed and self._tic is not None:
            self.stage_seconds[self.stage] = (
                self.stage_seconds.get(self.stage, 0.0) + now - self._tic
            )
        self.stage = name
        self._tic = now

    def finish_timing(self) -> None:
        """Close the running stage; the gap before the next phase is not timed."""
        self.set_stage("done")
        self._tic = None


@dataclass(frozen=True)
class _Shard:
    """What a worker's recording forward keeps for its backward: the
    model-shard tape with its seeds and parameter leaves, and the geometry
    tape with the model-tape leaf that each basis handle feeds.

    Not kept on the ``_WorkerContext``: the tape's collective and boundary
    nodes refer to the context, and that cycle would hold every pass's
    tapes until the cyclic garbage collector ran.
    """

    tape: Tape
    params: ParamLeaves
    energy: int  # seeded on rank 0 only, like the forces
    forces: int | None  # force-centric variant only
    geometry: Tape
    positions: int
    basis_leaves: dict[int, int]


class WorkerGroup:
    """P simulated workers bound to one system, partition, and parameter set.

    Workers share read-only views of the positions, topology and parameters
    (each conceptually holds a full replica); the only cross-worker channel
    is the Collective. Each worker records its own geometry and basis, with
    angles and sbf over its triplet shard only. A group serves one driver at
    a time and runs any number of passes:

      * ``forward()`` runs the workers once and keeps no tape (inference);
      * ``record()`` runs them once, keeping each worker's shard tapes, and
        returns a result whose ``backward()`` completes the pass;
      * ``forward_backward()`` is ``record()`` followed by its backward.
    """

    def __init__(
        self,
        system: AtomicSystem,
        params: ModelParams,
        timeout: float = 30.0,
    ):
        config = params.config
        self.system = system
        self.params = params
        self.config = config
        self.workers = config.workers
        self.timeout = timeout

        self.topology, _ = build_graph(system, config.cutoff)
        self.partition: GraphPartition = partition_graph(self.topology, self.workers)
        self.rev = self.topology.reverse_edges() if config.variant == GEMNET else None
        self.full_plan = receiver_plan(self.topology, ALL_ROWS)
        self._rank_plans = [receiver_plan(self.topology, s) for s in self.partition.node_shards]

    # -- public API ----------------------------------------------------

    def forward(self) -> ParallelRunResult:
        return self._forward(record=False)

    def record(self) -> ParallelRunResult:
        return self._forward(record=True)

    def forward_backward(
        self, d_energy: float = 1.0, d_forces: np.ndarray | None = None
    ) -> tuple[ParallelRunResult, GradientBundle]:
        run = self.record()
        return run, run.backward(d_energy, d_forces)

    # -- orchestration ---------------------------------------------------

    def _forward(self, record: bool):
        log = CommLog()
        collective = Collective(self.workers, log, timeout=self.timeout)
        contexts = [
            _WorkerContext(rank, collective, timed=rank == 0) for rank in range(self.workers)
        ]
        outputs = self._launch(contexts, lambda ctx: self._worker_forward(ctx, record))
        fwd0 = outputs[0]
        # Bit patterns, not values: identical NaNs agree, since NaN != NaN.
        energies = {np.float64(out["energy"]).tobytes() for out in outputs}
        if len(energies) != 1:
            raise WorkerGroupError("finalize", 0, AssertionError("worker outputs diverged"))

        state = FeatureState(
            global_features=fwd0["u"],
            node_features=fwd0["v"],
            edge_features=fwd0["m"],
            triplet_features=None,
        )
        return ParallelRunResult(
            energy=float(fwd0["energy"]),
            forces=fwd0["forces"],
            state=state,
            triplet_shards=[out["t_own"] for out in outputs],
            comm_log=log,
            stage_seconds=contexts[0].stage_seconds,
            _pending=(self, contexts, [out["shard"] for out in outputs]) if record else None,
        )

    def _launch(self, contexts: list[_WorkerContext], work) -> list:
        """Run ``work(ctx)`` for every rank on its own thread; return the
        outputs by rank, or raise the primary failure as a WorkerGroupError
        (a rank's own error before the timeouts it caused elsewhere)."""
        outputs: list = [None] * self.workers
        errors: list = [None] * self.workers

        def body(rank: int) -> None:
            try:
                outputs[rank] = work(contexts[rank])
            except BaseException as exc:  # noqa: BLE001 - reported to the caller
                errors[rank] = exc
                contexts[rank].collective.abort()

        if self.workers == 1:
            body(0)
        else:
            threads = [
                threading.Thread(target=body, args=(rank,), name=f"egn-worker-{rank}")
                for rank in range(self.workers)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        primary = None
        for rank, exc in enumerate(errors):
            if exc is None:
                continue
            if primary is None or (
                isinstance(primary[1], CollectiveTimeoutError)
                and not isinstance(exc, CollectiveTimeoutError)
            ):
                primary = (rank, exc)
        if primary is not None:
            rank, exc = primary
            raise WorkerGroupError(contexts[rank].stage, rank, exc) from exc
        contexts[0].finish_timing()
        return outputs

    # -- worker forward ----------------------------------------------------

    def _worker_forward(self, ctx: _WorkerContext, record: bool) -> dict:
        """With ``record`` (a backward follows), this worker's stages are
        kept on one tape and its geometry on another; without it, both run
        on an Evaluator. ``init``, ``sym`` and the force head are computed
        over all rows by every worker; every other stage over its shard."""
        cfg = self.config
        topo = self.topology
        rank = ctx.rank
        trip_rows = self.partition.triplet_shards[rank]
        edge_rows = self.partition.edge_shards[rank]
        node_rows = self.partition.node_shards[rank]
        ea_plan = self._rank_plans[rank]
        gemnet = cfg.variant == GEMNET
        tape = Tape() if record else Evaluator()
        pl = ParamLeaves(tape, self.params)
        val = tape.value

        def link(name: str, level: str, block: int):
            """This worker's end of a collective node: its all-reduce with
            the comm record's block, stage name and level bound."""
            c = ctx.collective
            return partial(c.allreduce_sum, rank, block=block, stage=name, level=level)

        def enter(stage: str) -> None:
            tape.boundary(partial(ctx.set_stage, "backward." + ctx.stage))
            ctx.set_stage(stage)

        ctx.set_stage("init")
        geo = Tape() if record else tape
        pos = geo.leaf(self.system.positions)
        basis = compute_basis(geo, pos, topo, cfg, trip_rows)
        rbf = tape.leaf(geo.value(basis.edge_rbf))
        sbf = tape.leaf(geo.value(basis.triplet_sbf))
        units = tape.leaf(geo.value(basis.edge_units)) if gemnet else None
        m = record_edge_init(tape, pl, rbf, ALL_ROWS)
        u = tape.leaf(np.zeros((1, cfg.d_u), dtype=np.float64))
        edge_shape = (topo.num_edges, cfg.d_e)

        for b in range(cfg.blocks):
            enter(f"block{b}.tu")
            t, ta = record_tu(tape, pl, b, cfg, m, rbf, sbf, trip_rows, topo)

            enter(f"block{b}.eu")
            m_new = record_eu(tape, pl, b, m, ta, edge_rows)
            m_new = tape.allreduce(m_new, link("eu", "edge", b), edge_rows, edge_shape)

            enter(f"block{b}.nu")
            v = record_ea_nu(tape, pl, b, m_new, *ea_plan)
            v = tape.allreduce(v, link("nu", "node", b), node_rows, (topo.num_nodes, cfg.d_v))

            if gemnet:
                enter(f"block{b}.eu2")
                m2 = record_eu2(tape, pl, b, m_new, v, edge_rows, topo)
                m2 = tape.allreduce(m2, link("eu2", "edge", b), edge_rows, edge_shape)

                enter(f"block{b}.sym")
                m = record_sym(tape, pl, b, m2, ALL_ROWS, self.rev)
            else:
                m = m_new

            enter(f"block{b}.gu")
            z = record_gu_head(tape, pl, b, v, node_rows)
            z = tape.allreduce(z, link("gu", "global", b))
            u = record_gu_tail(tape, pl, b, z, u)

        enter("readout")
        energy = record_energy(tape, pl, u)
        forces = shard = None
        if gemnet:
            forces = record_force_head(tape, pl, m, units, *self.full_plan)
        if record:
            basis_leaves = {basis.edge_rbf: rbf, basis.triplet_sbf: sbf}
            if gemnet:
                basis_leaves[basis.edge_units] = units
            shard = _Shard(tape, pl, energy, forces, geo, pos, basis_leaves)

        return {
            "energy": float(val(energy)[0, 0]),
            "forces": None if forces is None else val(forces),
            "m": val(m),
            "v": val(v),
            "u": val(u),
            "t_own": val(t),
            "shard": shard,
        }

    # -- worker backward -----------------------------------------------

    def _worker_backward(
        self, ctx: _WorkerContext, shard: _Shard, d_energy: float, d_forces: np.ndarray | None
    ) -> GradientBundle:
        """One walk of the model-shard tape, whose collective nodes sum the
        adjoints across workers, one of the geometry tape, then the
        all-reduce of the partial position and parameter gradients."""
        ctx.set_stage("backward.readout")
        seeds = {}
        if ctx.rank == 0 and d_energy != 0.0:
            seeds[shard.energy] = np.array([[d_energy]], dtype=np.float64)
        if ctx.rank == 0 and d_forces is not None:
            seeds[shard.forces] = d_forces
        grads = shard.tape.backward(seeds)

        ctx.set_stage("backward.geometry")
        geo_seeds = {
            nid: grads[leaf] for nid, leaf in shard.basis_leaves.items() if grads[leaf] is not None
        }
        pos_bar = shard.geometry.backward(geo_seeds)[shard.positions]

        ctx.set_stage("backward.reduce")
        allreduce = ctx.collective.allreduce_sum
        pos_grad = allreduce(
            ctx.rank, pos_bar, phase="backward", block=-1, stage="positions", level="position"
        )
        d_params = shard.params.gradients(grads)
        flat = np.concatenate([g.ravel() for g in d_params.values()])
        flat = allreduce(ctx.rank, flat, phase="backward", block=-1, stage="params", level="param")
        offset = 0
        for name, g in d_params.items():
            d_params[name] = flat[offset : offset + g.size].reshape(g.shape)
            offset += g.size
        return GradientBundle(d_params, pos_grad)

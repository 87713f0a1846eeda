"""Simulated multi-worker execution of the block pipeline.

P workers run as threads that communicate only through a Collective
endpoint offering a deterministic all-reduce (reduction in ascending rank
order, identical result delivered everywhere) and a barrier. Worker-local
state is owned exclusively by its worker between collectives.

Each worker first records its geometry and basis from the positions with
``compute_basis``: distances and rbf over every edge, angles and sbf over
its own triplet shard only.

Forward schedule per block (dimenet-style):
  * triplet update over the worker's shard, local aggregation by out-edge
    into a zero edge buffer, all-reduce (N_e * d_e elements),
  * edge update recomputed identically on every worker from the replicated
    inputs (no communication),
  * edge aggregation + node update for the worker's node shard into a zero
    node buffer, all-reduce (N_v * d_v elements),
  * global head: the node sum of the shard projected to d_u, all-reduce
    (d_u elements), tail finished redundantly.
The gemnet-style variant inserts the second edge update over the edge shard
followed by one additional edge all-reduce, after which the symmetric
coupling is formed redundantly from the replicated buffer.

Backward mirrors the schedule: the adjoint of an all-reduced buffer is
itself summed across workers at each replicated-buffer boundary, each
worker differentiates only the rows it owns, and parameter and position
gradients are all-reduced once at the end. The position gradient is one
backward of the worker's geometry segment, so each triplet's angle and sbf
are differentiated by its owner alone. Triplet features never enter a
collective in either direction.

A pass that needs its backward is recorded once: ``WorkerGroup.record()``
runs the forward and keeps each worker's shard tapes in a ``ParallelPass``,
whose ``backward()`` runs the workers again over those tapes on the same
collective, after the caller has read the energy and forces it seeds from.
``forward()`` keeps no tape.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .basis import compute_basis
from .config import GEMNET
from .engine import (
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
from .params import ModelParams, param_specs
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

    def elements(self, phase: str | None = None, block: int | None = None) -> int:
        total = 0
        for rec in self.records:
            if phase is not None and rec.phase != phase:
                continue
            if block is not None and rec.block != block:
                continue
            total += rec.elements
        return total

    def forward_blocks(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for rec in self.records:
            if rec.phase == "forward" and rec.block >= 0:
                out[rec.block] = out.get(rec.block, 0) + rec.elements
        return out

    def levels(self) -> set[str]:
        return {rec.level for rec in self.records}

    def to_csv_rows(self) -> list[str]:
        rows = ["phase,block,stage,level,elements,bytes"]
        for rec in self.records:
            rows.append(
                f"{rec.phase},{rec.block},{rec.stage},{rec.level},{rec.elements},{rec.elements * 8}"
            )
        return rows


class Collective:
    """Group endpoint: deterministic all-reduce-sum and barrier for P workers."""

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

    def barrier(self, rank: int) -> None:
        self._wait(self._enter)
        self._wait(self._exit)

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
    energy: float
    forces: np.ndarray | None
    state: FeatureState
    triplet_shards: list[np.ndarray]
    comm_log: CommLog
    replica_digests: list[list[str]]
    stage_seconds: dict[str, float]

    def timing_csv_rows(self) -> list[str]:
        rows = ["stage,seconds"]
        for stage, seconds in self.stage_seconds.items():
            rows.append(f"{stage},{seconds!r}")
        return rows


class _Seg:
    """One tape segment: owned rows of a stage, with named input leaves."""

    def __init__(self, params: ModelParams, tape: Tape):
        self.tape = tape
        self.pl = ParamLeaves(self.tape, params)
        self.leaves: dict[str, int] = {}
        self.out: int | None = None

    def leaf(self, key: str, value: np.ndarray) -> int:
        nid = self.tape.leaf(value)
        self.leaves[key] = nid
        return nid

    def backward(self, seed: np.ndarray) -> list[np.ndarray | None]:
        return self.tape.backward({self.out: seed})

    def leaf_grad(self, grads, key: str, shape) -> np.ndarray:
        g = grads[self.leaves[key]]
        return g if g is not None else np.zeros(shape, dtype=np.float64)


class _WorkerContext:
    def __init__(self, rank: int, timed: bool):
        self.rank = rank
        self.stage = "setup"
        self.segs: dict = {}
        self.basis = None  # geometry segment handles, seeds for backward.geometry
        self.digests: list[str] = []
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


class ParallelPass:
    """One forward recorded over the workers of a group, awaiting its backward.

    Has the interface of ``engine.ModelTape``: ``energy`` and ``forces`` of
    the forward, and ``backward(d_energy, d_forces)``, which runs the workers
    again over the shard tapes they recorded, on the same collective. The
    pass's comm log therefore holds its forward records followed by its
    backward records. A pass runs one backward; its tapes are released then.
    """

    def __init__(self, group: WorkerGroup, result: ParallelRunResult,
                 contexts: list[_WorkerContext], collective: Collective):
        self.group = group
        self.result = result
        self._contexts: list[_WorkerContext] | None = contexts
        self._collective = collective

    @property
    def energy(self) -> float:
        return self.result.energy

    @property
    def forces(self) -> np.ndarray | None:
        return self.result.forces

    def backward(
        self, d_energy: float = 1.0, d_forces: np.ndarray | None = None
    ) -> GradientBundle:
        group = self.group
        if self._contexts is None:
            raise RuntimeError(
                "this pass has already run its backward; record() a new pass"
            )
        if d_forces is not None:
            if group.config.variant != GEMNET:
                raise ValueError("force seeds require the force-centric variant")
            d_forces = np.asarray(d_forces, dtype=np.float64)
            shape = group.system.positions.shape
            if d_forces.shape != shape:
                raise ValueError(f"force seed has shape {d_forces.shape}, expected {shape}")
        contexts, self._contexts = self._contexts, None
        col = self._collective
        bundles = group._launch(
            contexts, col,
            lambda ctx: group._worker_backward(ctx, col, d_energy, d_forces),
        )
        return bundles[0]


class WorkerGroup:
    """P simulated workers bound to one system, partition, and parameter set.

    Workers share read-only views of the positions, topology and parameters
    (each conceptually holds a full replica); the only cross-worker channel
    is the Collective. Each worker records its own geometry and basis, with
    angles and sbf over its triplet shard only. A group serves one driver at
    a time and runs any number of passes:

      * ``forward()`` runs the workers once and keeps no tape (inference);
      * ``record()`` runs them once, keeping each worker's shard tapes, and
        returns a ``ParallelPass`` whose ``backward()`` completes the pass;
      * ``forward_backward()`` is ``record()`` followed by its backward.
    """

    def __init__(
        self,
        system: AtomicSystem,
        params: ModelParams,
        timeout: float = 30.0,
        track_replicas: bool = False,
    ):
        config = params.config
        self.system = system
        self.params = params
        self.config = config
        self.workers = config.workers
        self.timeout = timeout
        self.track_replicas = track_replicas

        self.topology, _ = build_graph(system, config.cutoff)
        self.partition: GraphPartition = partition_graph(self.topology, self.workers)
        self.rev = self.topology.reverse_edges() if config.variant == GEMNET else None
        self.full_plan = receiver_plan(self.topology, 0, self.topology.num_nodes)
        self._node_ranges = []
        self._rank_plans = []
        for shard in self.partition.node_shards:
            lo, hi = (int(shard[0]), int(shard[-1]) + 1) if shard.size else (0, 0)
            self._node_ranges.append((lo, hi))
            self._rank_plans.append(receiver_plan(self.topology, lo, hi))

    # -- public API ----------------------------------------------------

    def forward(self) -> ParallelRunResult:
        return self._forward(record=False)[0]

    def record(self) -> ParallelPass:
        return ParallelPass(self, *self._forward(record=True))

    def forward_backward(
        self, d_energy: float = 1.0, d_forces: np.ndarray | None = None
    ) -> tuple[ParallelRunResult, GradientBundle]:
        pass_ = self.record()
        return pass_.result, pass_.backward(d_energy, d_forces)

    # -- orchestration ---------------------------------------------------

    def _forward(self, record: bool):
        log = CommLog()
        collective = Collective(self.workers, log, timeout=self.timeout)
        contexts = [_WorkerContext(rank, timed=rank == 0) for rank in range(self.workers)]
        outputs = self._launch(
            contexts, collective,
            lambda ctx: self._worker_forward(ctx, collective, record),
        )
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
            topology=self.topology,
            basis=None,
        )
        result = ParallelRunResult(
            energy=float(fwd0["energy"]),
            forces=fwd0["forces"],
            state=state,
            triplet_shards=[out["t_own"] for out in outputs],
            comm_log=log,
            replica_digests=[ctx.digests for ctx in contexts],
            stage_seconds=contexts[0].stage_seconds,
        )
        return result, contexts, collective

    def _launch(self, contexts: list[_WorkerContext], collective: Collective, work) -> list:
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
                collective.abort()

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

    def _worker_forward(self, ctx: _WorkerContext, col: Collective, record: bool) -> dict:
        """Shard stages are kept on tapes only if ``record`` (a backward
        follows); replicated buffers come from the same recorders run over
        all rows on an Evaluator, identically on every worker."""
        cfg = self.config
        topo = self.topology
        rank = ctx.rank
        trip_rows = self.partition.triplet_shards[rank]
        edge_rows = self.partition.edge_shards[rank]
        node_rows = self.partition.node_shards[rank]
        lo, hi = self._node_ranges[rank]
        ea_sel, ea_seg = self._rank_plans[rank]
        gemnet = cfg.variant == GEMNET
        ev = Evaluator()
        epl = ParamLeaves(ev, self.params)
        all_edges = np.arange(topo.num_edges, dtype=np.int64)

        def ar(buf, level, block, stage):
            out = col.allreduce_sum(
                rank, buf, phase="forward", block=block, stage=stage, level=level
            )
            if self.track_replicas:
                ctx.digests.append(hashlib.sha256(out.tobytes()).hexdigest())
            return out

        def shard(key) -> _Seg:
            seg = _Seg(self.params, Tape() if record else ev)
            if record:
                ctx.segs[key] = seg
            return seg

        ctx.set_stage("init")
        geo = shard("geometry")
        pos_leaf = geo.leaf("positions", self.system.positions)
        basis = compute_basis(geo.tape, pos_leaf, topo, cfg, trip_rows)
        rbf, sbf = geo.tape.value(basis.edge_rbf), geo.tape.value(basis.triplet_sbf)
        units = geo.tape.value(basis.edge_units) if gemnet else None
        if record:
            ctx.basis = basis
            seg = shard("init")
            rbf_leaf = seg.leaf("rbf", rbf)
            seg.out = record_edge_init(seg.tape, seg.pl, rbf_leaf, edge_rows)

        m = record_edge_init(ev, epl, rbf, all_edges)
        u = np.zeros((1, cfg.d_u), dtype=np.float64)
        v = np.zeros((topo.num_nodes, cfg.d_v), dtype=np.float64)
        t_own = np.zeros((trip_rows.size, cfg.d_t), dtype=np.float64)

        for b in range(cfg.blocks):
            ctx.set_stage(f"block{b}.tu")
            seg = shard(("tu", b))
            m_leaf = seg.leaf("m", m)
            rbf_leaf = seg.leaf("rbf", rbf)
            sbf_leaf = seg.leaf("sbf", sbf)
            t_id, ta_id = record_tu(seg.tape, seg.pl, b, cfg, m_leaf, rbf_leaf, sbf_leaf, trip_rows, topo)
            seg.out = ta_id
            t_own = seg.tape.value(t_id)
            ta = ar(seg.tape.value(ta_id), "edge", b, "ta")

            ctx.set_stage(f"block{b}.eu")
            if record:
                seg = shard(("eu", b))
                m_leaf = seg.leaf("m", m)
                ta_leaf = seg.leaf("ta", ta)
                seg.out = record_eu(seg.tape, seg.pl, b, m_leaf, ta_leaf, edge_rows)
            m_new = record_eu(ev, epl, b, m, ta, all_edges)

            ctx.set_stage(f"block{b}.nu")
            seg = shard(("eanu", b))
            m_leaf = seg.leaf("m", m_new)
            seg.out = record_ea_nu(seg.tape, seg.pl, b, m_leaf, ea_sel, ea_seg, hi - lo)
            v_local = np.zeros((topo.num_nodes, cfg.d_v), dtype=np.float64)
            v_local[lo:hi] = seg.tape.value(seg.out)
            v = ar(v_local, "node", b, "nu")

            if gemnet:
                ctx.set_stage(f"block{b}.eu2")
                seg = shard(("eu2", b))
                m_leaf = seg.leaf("m", m_new)
                v_leaf = seg.leaf("v", v)
                seg.out = record_eu2(seg.tape, seg.pl, b, m_leaf, v_leaf, edge_rows, topo)
                m2_local = np.zeros((topo.num_edges, cfg.d_e), dtype=np.float64)
                m2_local[edge_rows] = seg.tape.value(seg.out)
                m2 = ar(m2_local, "edge", b, "eu2")

                ctx.set_stage(f"block{b}.sym")
                if record:
                    seg = shard(("sym", b))
                    m2_leaf = seg.leaf("m2", m2)
                    seg.out = record_sym(seg.tape, seg.pl, b, m2_leaf, edge_rows, self.rev)
                m = record_sym(ev, epl, b, m2, all_edges, self.rev)
            else:
                m = m_new

            ctx.set_stage(f"block{b}.gu")
            seg = shard(("guh", b))
            v_leaf = seg.leaf("v", v)
            seg.out = record_gu_head(seg.tape, seg.pl, b, v_leaf, node_rows)
            z = ar(seg.tape.value(seg.out), "global", b, "gu")

            if record and rank == 0:
                seg = shard(("gut", b))
                z_leaf = seg.leaf("z", z)
                u_leaf = seg.leaf("u", u)
                seg.out = record_gu_tail(seg.tape, seg.pl, b, z_leaf, u_leaf)
            u = record_gu_tail(ev, epl, b, z, u)

        ctx.set_stage("readout")
        energy = float(record_energy(ev, epl, u)[0, 0])
        if record and rank == 0:
            seg = shard("energy")
            u_leaf = seg.leaf("u", u)
            seg.out = record_energy(seg.tape, seg.pl, u_leaf)
        forces = None
        if gemnet:
            forces = record_force_head(ev, epl, m, units, *self.full_plan, topo.num_nodes)
            if record:
                seg = shard("force")
                m_leaf = seg.leaf("m", m)
                units_leaf = seg.leaf("units", units)
                seg.out = record_force_head(seg.tape, seg.pl, m_leaf, units_leaf, ea_sel, ea_seg, hi - lo)

        return {
            "energy": energy,
            "forces": forces,
            "m": m,
            "v": v,
            "u": u,
            "t_own": t_own,
        }

    # -- worker backward -----------------------------------------------

    def _worker_backward(
        self,
        ctx: _WorkerContext,
        col: Collective,
        d_energy: float,
        d_forces: np.ndarray | None,
    ) -> GradientBundle:
        cfg = self.config
        topo = self.topology
        rank = ctx.rank
        n_own = self.partition.triplet_shards[rank].size
        edge_rows = self.partition.edge_shards[rank]
        lo, hi = self._node_ranges[rank]
        gemnet = cfg.variant == GEMNET
        specs = param_specs(cfg)
        param_bar = {s.name: np.zeros(s.shape, dtype=np.float64) for s in specs}
        rbf_bar = np.zeros((topo.num_edges, cfg.k_rbf), dtype=np.float64)
        sbf_bar = np.zeros((n_own, cfg.k_rbf * cfg.l_sbf), dtype=np.float64)
        units_bar = np.zeros((topo.num_edges, 3), dtype=np.float64)

        def ar(buf, level, block, stage):
            out = col.allreduce_sum(
                rank, buf, phase="backward", block=block, stage=stage, level=level
            )
            if self.track_replicas:
                ctx.digests.append(hashlib.sha256(out.tobytes()).hexdigest())
            return out

        def pull_params(seg: _Seg, grads) -> None:
            for name, nid in seg.pl.ids.items():
                g = grads[nid]
                if g is not None:
                    param_bar[name] += g

        ctx.set_stage("backward.readout")
        if rank == 0 and d_energy != 0.0:
            seg = ctx.segs["energy"]
            grads = seg.backward(np.array([[d_energy]], dtype=np.float64))
            pull_params(seg, grads)
            u_bar_part = seg.leaf_grad(grads, "u", (1, cfg.d_u))
        else:
            u_bar_part = np.zeros((1, cfg.d_u), dtype=np.float64)
        u_bar = ar(u_bar_part, "global", -1, "energy")

        m_bar = np.zeros((topo.num_edges, cfg.d_e), dtype=np.float64)
        if d_forces is not None:
            seg = ctx.segs["force"]
            grads = seg.backward(d_forces[lo:hi])
            pull_params(seg, grads)
            units_bar += seg.leaf_grad(grads, "units", units_bar.shape)
            m_bar = ar(seg.leaf_grad(grads, "m", m_bar.shape), "edge", -1, "force")

        for b in range(cfg.blocks - 1, -1, -1):
            ctx.set_stage(f"backward.block{b}.gu")
            if rank == 0:
                seg = ctx.segs[("gut", b)]
                grads = seg.backward(u_bar)
                pull_params(seg, grads)
                z_bar_part = seg.leaf_grad(grads, "z", (1, cfg.d_u))
            else:
                z_bar_part = np.zeros((1, cfg.d_u), dtype=np.float64)
            z_bar = ar(z_bar_part, "global", b, "gu")

            seg = ctx.segs[("guh", b)]
            grads = seg.backward(z_bar)
            pull_params(seg, grads)
            v_bar_part = seg.leaf_grad(grads, "v", (topo.num_nodes, cfg.d_v))

            m_new_bar_part = None
            if gemnet:
                ctx.set_stage(f"backward.block{b}.sym")
                seg = ctx.segs[("sym", b)]
                grads = seg.backward(m_bar[edge_rows])
                pull_params(seg, grads)
                m2_bar = ar(seg.leaf_grad(grads, "m2", m_bar.shape), "edge", b, "sym")

                ctx.set_stage(f"backward.block{b}.eu2")
                seg = ctx.segs[("eu2", b)]
                grads = seg.backward(m2_bar[edge_rows])
                pull_params(seg, grads)
                m_new_bar_part = seg.leaf_grad(grads, "m", m_bar.shape)
                v_bar_part = v_bar_part + seg.leaf_grad(grads, "v", v_bar_part.shape)

            ctx.set_stage(f"backward.block{b}.nu")
            v_bar = ar(v_bar_part, "node", b, "nu")
            seg = ctx.segs[("eanu", b)]
            grads = seg.backward(v_bar[lo:hi])
            pull_params(seg, grads)
            ea_contrib = seg.leaf_grad(grads, "m", m_bar.shape)
            if gemnet:
                m_new_bar = ar(m_new_bar_part + ea_contrib, "edge", b, "m_new")
            else:
                m_new_bar = m_bar + ar(ea_contrib, "edge", b, "m_new")

            ctx.set_stage(f"backward.block{b}.eu")
            seg = ctx.segs[("eu", b)]
            grads = seg.backward(m_new_bar[edge_rows])
            pull_params(seg, grads)
            m_in_part = seg.leaf_grad(grads, "m", m_bar.shape)
            ta_bar = ar(seg.leaf_grad(grads, "ta", m_bar.shape), "edge", b, "ta")

            ctx.set_stage(f"backward.block{b}.tu")
            seg = ctx.segs[("tu", b)]
            grads = seg.backward(ta_bar)
            pull_params(seg, grads)
            m_in_part = m_in_part + seg.leaf_grad(grads, "m", m_bar.shape)
            rbf_bar += seg.leaf_grad(grads, "rbf", rbf_bar.shape)
            sbf_bar += seg.leaf_grad(grads, "sbf", sbf_bar.shape)
            m_bar = ar(m_in_part, "edge", b, "m_in")

        ctx.set_stage("backward.init")
        seg = ctx.segs["init"]
        grads = seg.backward(m_bar[edge_rows])
        pull_params(seg, grads)
        rbf_bar += seg.leaf_grad(grads, "rbf", rbf_bar.shape)

        # One backward of this worker's geometry segment: its partial
        # position gradient is summed by the position all-reduce below.
        ctx.set_stage("backward.geometry")
        geo, basis = ctx.segs["geometry"], ctx.basis
        seeds = {basis.edge_rbf: rbf_bar, basis.triplet_sbf: sbf_bar}
        if gemnet:
            seeds[basis.edge_units] = units_bar
        pos_bar = geo.leaf_grad(geo.tape.backward(seeds), "positions", self.system.positions.shape)

        ctx.set_stage("backward.reduce")
        pos_grad = ar(pos_bar, "position", -1, "positions")
        flat = np.concatenate([param_bar[s.name].ravel() for s in specs])
        flat = ar(flat, "param", -1, "params")
        d_params: dict[str, np.ndarray] = {}
        offset = 0
        for s in specs:
            size = int(np.prod(s.shape, dtype=np.int64))
            d_params[s.name] = flat[offset : offset + size].reshape(s.shape)
            offset += size
        return GradientBundle(d_params, pos_grad)

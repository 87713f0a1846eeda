"""Simulated multi-worker execution of the block pipeline.

P workers run as threads that communicate only through a Collective
endpoint offering a deterministic all-reduce (reduction in ascending rank
order, identical result delivered everywhere). Worker-local state is owned
exclusively by its worker between collectives.

A worker owns a contiguous range of center atoms J (see
``egn.partition``); its edge rows are J's out-edges O_J and its node rows
are J. It records its geometry and basis with ``compute_basis``: edge
vectors, distances, unit vectors and rbf over every edge, and the triplet
basis of J only. It then runs the engine's block pipeline
``record_model``, the one definition of the model forward, over those
rows, with a ``share`` hook that all-reduces and an ``enter`` hook that
marks the stages. A worker gets every shared buffer by all-reducing the
rows or partial sums it owns, or computes the whole buffer itself with no
collective. Per block (dimenet-style):
  * triplet update of J over J's edges only: gates and C_l at the
    in-edges rev[O_J], summed into O_J, gated and up-projected there:
    |O_J| complete rows, no collective;
  * edge update over O_J, all-reduce (N_e * d_e elements);
  * edge aggregation + node update for J, all-reduce (N_v * d_v
    elements);
  * global head: J's node sum projected to d_u, all-reduce (d_u
    elements), tail finished by every worker.
The gemnet-style variant adds the second edge update over O_J and its
edge all-reduce, then every worker forms the symmetric coupling over all
edges. The initial edge embedding and the force head also run over all
rows on every worker.

A recording worker keeps its geometry and every stage on one tape, where
each all-reduce is a collective node (see ``egn.tape``): its adjoint sums
the workers' partial adjoints and hands each worker its rows, so the
backward is one walk of that tape. Every VJP is linear in its adjoint, so
the collectives and the final all-reduce of position and parameter
gradients sum the partials to the exact gradient; only rank 0 seeds the
energy and the forces. Boundary nodes book the backward's time to the
forward's stages, the geometry's VJPs to ``backward.geometry``. Each
center atom's triplet blocks are differentiated by their owner alone, and
triplet features never enter a collective in either direction.

``WorkerGroup.record()`` runs a forward and returns its
``ParallelRunResult`` holding each worker's tape, whose ``backward()``
runs the workers again over those tapes on the same collective, after the
caller has read the energy and forces it seeds from. ``forward()`` keeps
no tape.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .basis import compute_basis
from .engine import FeatureState, GradientBundle, force_seed, record_model
from .graph import build_graph
from .params import ModelParams
from .partition import partition_graph
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
    d_forces)``, which runs the workers again over the tapes they
    recorded, on the same collective, so the comm log holds the forward's
    records followed by the backward's. A pass runs one backward, and its
    tapes are released then; a result of ``forward()`` has none.
    """

    energy: float
    forces: np.ndarray | None
    state: FeatureState
    comm_log: CommLog
    stage_seconds: dict[str, float]  # rank 0's
    # (group, worker contexts, each worker's (tape, positions leaf, model
    # handles)) of a recorded pass until its backward.
    _pending: tuple | None = field(default=None, compare=False, repr=False)

    def backward(
        self, d_energy: float = 1.0, d_forces: np.ndarray | None = None
    ) -> GradientBundle:
        if self._pending is None:
            raise RuntimeError(
                "this pass kept no tapes or has already run its backward; record() a new pass"
            )
        group, contexts, recorded = self._pending
        d_forces = force_seed(d_forces, group.config, group.system.n)
        self._pending = None
        bundles = group._launch(
            contexts,
            lambda ctx: group._worker_backward(ctx, recorded[ctx.rank], d_energy, d_forces),
        )
        return bundles[0]


class _WorkerContext:
    def __init__(self, rank: int, collective: Collective):
        self.rank = rank
        self.collective = collective
        self.stage = "setup"
        self.stage_seconds: dict[str, float] = {}
        self._tic: float | None = None

    def set_stage(self, name: str) -> None:
        now = time.perf_counter()
        if self._tic is not None:
            self.stage_seconds[self.stage] = (
                self.stage_seconds.get(self.stage, 0.0) + now - self._tic
            )
        self.stage = name
        self._tic = now

    def finish_timing(self) -> None:
        """Close the running stage; the gap before the next phase is not timed."""
        self.set_stage("done")
        self._tic = None


class WorkerGroup:
    """P simulated workers bound to one system, partition, and parameter set.

    Workers share read-only views of the positions, topology and parameters
    (each conceptually holds a full replica); the only cross-worker channel
    is the Collective. Each worker records its own geometry and basis, with
    the triplet basis over its own center atoms only. A group serves
    one driver at a time and runs any number of passes:

      * ``forward()`` runs the workers once and keeps no tape (inference);
      * ``record()`` runs them once, keeping each worker's tape, and
        returns a result whose ``backward()`` completes the pass;
      * ``forward_backward()`` is ``record()`` followed by its backward.
    """

    def __init__(self, system: AtomicSystem, params: ModelParams):
        config = params.config
        self.system = system
        self.params = params
        self.config = config
        self.workers = config.workers

        self.topology, _ = build_graph(system, config.cutoff)
        # Each worker's center atoms; its edge and node rows derive from them.
        self.partition: list[slice] = partition_graph(self.topology, self.workers)
        self.topology.reverse_edges()  # once, before the workers read it

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
        collective = Collective(self.workers, log)
        contexts = [_WorkerContext(rank, collective) for rank in range(self.workers)]
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
        )
        return ParallelRunResult(
            energy=float(fwd0["energy"]),
            forces=fwd0["forces"],
            state=state,
            comm_log=log,
            stage_seconds=contexts[0].stage_seconds,
            _pending=(self, contexts, [out["recorded"] for out in outputs]) if record else None,
        )

    def _launch(self, contexts: list[_WorkerContext], work) -> list:
        """Run ``work(ctx)`` for every rank on its own thread, which closes
        its last stage as soon as its work returns; return the outputs by
        rank, or raise the primary failure as a WorkerGroupError (a rank's
        own error before the timeouts it caused elsewhere)."""
        outputs: list = [None] * self.workers
        errors: list = [None] * self.workers

        def body(rank: int) -> None:
            try:
                outputs[rank] = work(contexts[rank])
                contexts[rank].finish_timing()
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
        return outputs

    # -- worker forward ----------------------------------------------------

    def _worker_forward(self, ctx: _WorkerContext, record: bool) -> dict:
        """This worker's shard of the model: its geometry and basis, then
        the block pipeline over its rows, all on one tape when ``record``
        (a backward follows), otherwise on an Evaluator."""
        rank = ctx.rank
        tape = Tape() if record else Evaluator()

        def share(x, stage: str, level: str, block: int, rows=None, shape=None):
            """All-reduce ``x`` over the workers, placed at ``rows`` of a
            zero buffer of ``shape`` if given; the comm record carries
            ``block``, ``stage`` and ``level``."""
            c = ctx.collective
            link = partial(c.allreduce_sum, rank, block=block, stage=stage, level=level)
            return tape.allreduce(x, link, rows, shape)

        def enter(stage: str) -> None:
            tape.boundary(partial(ctx.set_stage, "backward." + ctx.stage))
            ctx.set_stage(stage)

        ctx.set_stage("init")
        pos = tape.leaf(self.system.positions)
        basis = compute_basis(tape, pos, self.topology, self.config, self.partition[rank])
        tape.boundary(partial(ctx.set_stage, "backward.geometry"))
        h = record_model(tape, self.params, self.topology, basis, share, enter)
        val = tape.value
        return {
            "energy": float(val(h.energy)[0, 0]),
            "forces": None if h.forces is None else val(h.forces),
            "m": val(h.m),
            "v": val(h.v),
            "u": val(h.u),
            # Not kept on the context: the tape's collective and boundary
            # nodes refer to it, and that cycle would hold every pass's
            # tape until the cyclic garbage collector ran.
            "recorded": (tape, pos, h) if record else None,
        }

    # -- worker backward -----------------------------------------------

    def _worker_backward(
        self, ctx: _WorkerContext, recorded: tuple, d_energy: float, d_forces: np.ndarray | None
    ) -> GradientBundle:
        """One walk of the worker's tape, whose collective nodes sum the
        adjoints across workers, then the all-reduce of the partial position
        and parameter gradients. Only rank 0 seeds the energy and forces."""
        tape, pos, h = recorded
        ctx.set_stage("backward.readout")
        seeds = {}
        if ctx.rank == 0 and d_energy != 0.0:
            seeds[h.energy] = np.array([[d_energy]], dtype=np.float64)
        if ctx.rank == 0 and d_forces is not None:
            seeds[h.forces] = d_forces
        grads = tape.backward(seeds)

        ctx.set_stage("backward.reduce")
        allreduce = ctx.collective.allreduce_sum
        pos_grad = allreduce(
            ctx.rank, grads[pos], phase="backward", block=-1, stage="positions", level="position"
        )
        d_params = h.param_leaves.gradients(grads)
        flat = np.concatenate([g.ravel() for g in d_params.values()])
        flat = allreduce(ctx.rank, flat, phase="backward", block=-1, stage="params", level="param")
        offset = 0
        for name, g in d_params.items():
            d_params[name] = flat[offset : offset + g.size].reshape(g.shape)
            offset += g.size
        return GradientBundle(d_params, pos_grad)

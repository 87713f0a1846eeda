"""Simulated multi-worker execution of the block pipeline.

P workers take turns on one thread and communicate only through a
Collective endpoint offering a deterministic all-reduce (reduction in
ascending rank order, one read-only total read by every worker). Each
worker is a generator that runs to its next all-reduce and yields its
buffer there; ``WorkerGroup`` steps ranks 0..P-1 to their next
collective, sums their buffers once, outside every rank, and resumes each
with the total. Worker-local state is owned by its worker alone, and a
rank's stage clock runs only while it is stepped, so stage times are its
own compute and no worker ever waits.

A worker owns a contiguous range of center atoms J (see
``egn.partition``); its edge and node rows derive from them. It records
its geometry and basis with ``compute_basis``: edge vectors, distances,
unit vectors and rbf over every edge, and the triplet basis of J only.
It then runs the engine's block pipeline ``record_model``, the one
definition of the model forward and of which buffers it shares; the
worker all-reduces each buffer the pipeline yields and resumes it with the
total, and an ``enter`` hook marks its stages.

A recording worker keeps its geometry and every stage on one tape, where
each all-reduce is a collective node (see ``egn.tape``). Its backward is
one walk of that tape, which yields at each collective node the adjoint
of the whole buffer; the group sums the workers' adjoints as in the
forward, and each worker takes its rows of the sum. Every VJP is linear
in its adjoint, so the collectives and the final all-reduce of position
and parameter gradients sum the partials to the exact gradient; only rank
0 seeds the energy and the forces. The engine's ``ModelHandles`` read
out, seed and differentiate the pass, as for the sequential engine.
Boundary nodes book the backward's time to the forward's stages, the
geometry's VJPs to ``backward.geometry``. Each center atom's triplet
blocks are differentiated by their owner alone, and triplet features
never enter a collective in either direction.

``WorkerGroup.record()`` runs a forward and returns its
``ParallelRunResult`` holding each worker's tape, whose ``backward()``
runs the workers again over those tapes on the same collective, after the
caller has read the energy and forces it seeds from. ``forward()`` keeps
no tape. A rank that raises fails the pass at once with its rank and
stage. ``COLLECTIVE_LEVELS`` is the one table of the levels each phase
may all-reduce; the ``Collective`` rejects a buffer of any other level,
and a collective whose ranks disagree with rank 0 on its labels (phase,
block, stage and level) fails with a ``CollectiveError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .basis import compute_basis
from .engine import GradientBundle, network_config, record_model
from .graph import build_graph
from .params import ModelParams
from .partition import partition_graph
from .system import AtomicSystem
from .tape import Evaluator, Tape

# The levels each phase may all-reduce: triplet features never enter a collective.
COLLECTIVE_LEVELS = {"forward": frozenset({"edge", "node", "global"})}
COLLECTIVE_LEVELS["backward"] = COLLECTIVE_LEVELS["forward"] | {"position", "param"}


class CollectiveError(RuntimeError):
    pass


class CollectiveShapeError(CollectiveError):
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
    """Group endpoint: deterministic all-reduce-sum for P workers.

    Each collective takes one ``allreduce_sum`` call per rank, in rank
    order; the last rank's call sums the buffers and logs the collective.
    """

    def __init__(self, workers: int, log: CommLog):
        self.workers = workers
        self.log = log
        self._slots: list[np.ndarray] = []

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
    ) -> np.ndarray | None:
        """Rank ``rank``'s buffer for the open collective. Returns None until
        the last rank's call, which returns the rank-ordered sum of all
        buffers, read-only: the one total every worker reads."""
        if level not in COLLECTIVE_LEVELS.get(phase, ()):
            raise ValueError(f"{phase} buffers of level {level!r} must never enter a collective")
        if rank != len(self._slots):
            raise CollectiveError(
                f"rank {rank} entered collective {stage!r} of block {block}, "
                f"which waits for rank {len(self._slots)}"
            )
        self._slots.append(np.asarray(buffer, dtype=np.float64))
        if rank < self.workers - 1:
            return None
        slots, self._slots = self._slots, []
        shapes = [slot.shape for slot in slots]
        if len(set(shapes)) != 1:
            ranks = ", ".join(f"rank {r} {shape}" for r, shape in enumerate(shapes))
            raise CollectiveShapeError(
                f"buffer shapes disagree at collective {stage!r} of block {block}: {ranks}"
            )
        total = self.sum_slots(slots)
        total.setflags(write=False)
        self.log.records.append(
            CommRecord(phase=phase, block=block, stage=stage, level=level, elements=total.size)
        )
        return total


@dataclass
class ParallelRunResult:
    """One forward over the workers of a group.

    A result of ``WorkerGroup.record()`` has the interface of
    ``engine.ModelTape``: ``energy``, ``forces`` and ``backward(d_energy,
    d_forces)``, which runs the workers again over the tapes they
    recorded, on the same collective, so the comm log holds the forward's
    records followed by the backward's. A pass runs one backward, and its
    tapes are released then; a result of ``forward()`` has none. The stage
    clocks of the backward add to those of the forward. Arrays that are a
    collective's total, the backward's gradients among them, are read-only.
    """

    energy: float
    forces: np.ndarray | None
    state: object  # the engine's FeatureState, the final feature buffers
    comm_log: CommLog
    rank_stage_seconds: list[dict[str, float]]  # one per rank: its compute per stage
    # (group, collective, worker contexts, each worker's (model handles,
    # tape)) of a recorded pass until its backward.
    _pending: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Rank 0's seconds per stage."""
        return self.rank_stage_seconds[0]

    def backward(
        self, d_energy: float = 1.0, d_forces: np.ndarray | None = None
    ) -> GradientBundle:
        if self._pending is None:
            raise RuntimeError(
                "this pass kept no tapes or has already run its backward; record() a new pass"
            )
        group, collective, contexts, recorded = self._pending
        handles, tape = recorded[0]
        seeds = handles.seeds(tape, d_energy, d_forces)  # checked before any worker runs
        self._pending = None
        steps = [
            group._worker_backward(ctx, recorded[ctx.rank], seeds if ctx.rank == 0 else {})
            for ctx in contexts
        ]
        return group._run(collective, contexts, steps)[0]


class _WorkerContext:
    """A rank's stage clock. It runs only while the scheduler steps the
    rank, so each stage books the rank's own compute, never a wait."""

    def __init__(self, rank: int):
        self.rank = rank
        self.stage: str | None = None  # the open stage
        self.stage_seconds: dict[str, float] = {}
        self._tic: float | None = None  # while the rank runs, when it last booked

    def _book(self) -> None:
        now = time.perf_counter()
        if self._tic is not None and self.stage is not None:
            self.stage_seconds[self.stage] = (
                self.stage_seconds.get(self.stage, 0.0) + now - self._tic
            )
        self._tic = now

    def set_stage(self, name: str | None) -> None:
        """Close the open stage and open ``name``; None opens none."""
        self._book()
        self.stage = name

    def resume(self) -> None:
        self._tic = time.perf_counter()

    def pause(self) -> None:
        self._book()
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
        config = network_config(params)
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
        contexts = [_WorkerContext(rank) for rank in range(self.workers)]
        steps = [self._worker_forward(ctx, record) for ctx in contexts]
        outputs = self._run(collective, contexts, steps)
        # Bit patterns, not values: identical NaNs agree, since NaN != NaN.
        energies = {tape.value(handles.energy).tobytes() for handles, tape in outputs}
        if len(energies) != 1:
            raise WorkerGroupError("finalize", 0, AssertionError("worker outputs diverged"))
        handles, tape = outputs[0]
        energy, forces, state = handles.outputs(tape)
        return ParallelRunResult(
            energy=energy,
            forces=forces,
            state=state,
            comm_log=log,
            rank_stage_seconds=[ctx.stage_seconds for ctx in contexts],
            _pending=(self, collective, contexts, outputs) if record else None,
        )

    def _run(self, collective: Collective, contexts: list[_WorkerContext], steps: list) -> list:
        """Step each rank's generator to its next collective, rank 0 first,
        sum their buffers through ``collective`` and resume every rank with
        the one total, until all return; their return values by rank.

        A generator yields ``(buffer, where)``, ``where`` the keywords of
        ``Collective.allreduce_sum`` besides rank and buffer. A rank that
        raises fails the group at once as a WorkerGroupError naming its rank
        and stage; a rank that returns while others wait at a collective, or
        labels it otherwise than rank 0 does, fails it as a CollectiveError.
        Either way every generator is closed.
        """
        outputs: list = [None] * self.workers
        total = None
        try:
            while True:
                requests = []
                for ctx, step in zip(contexts, steps):
                    ctx.resume()
                    try:
                        requests.append(step.send(total))
                    except StopIteration as stop:
                        requests.append(None)
                        outputs[ctx.rank] = stop.value
                        ctx.set_stage(None)  # its last stage ends with it
                    except Exception as exc:
                        raise WorkerGroupError(ctx.stage, ctx.rank, exc) from exc
                    finally:
                        ctx.pause()
                waiting = [rank for rank, request in enumerate(requests) if request is not None]
                if not waiting:
                    return outputs
                if len(waiting) < self.workers:
                    where = requests[waiting[0]][1]
                    done = [rank for rank, request in enumerate(requests) if request is None]
                    raise CollectiveError(
                        f"ranks {done} returned while ranks {waiting} wait at collective "
                        f"{where['stage']!r} of block {where['block']}"
                    )
                where = requests[0][1]
                differ = [rank for rank, request in enumerate(requests) if request[1] != where]
                if differ:
                    raise CollectiveError(
                        f"ranks {differ} disagree with rank 0 on collective "
                        f"{where['stage']!r} of block {where['block']}"
                    )
                for rank, (buffer, _) in enumerate(requests):
                    total = collective.allreduce_sum(rank, buffer, **where)
        finally:
            for step in steps:
                step.close()

    # -- worker forward ----------------------------------------------------

    def _worker_forward(self, ctx: _WorkerContext, record: bool):
        """This worker's shard of the model: its geometry and basis, then
        the block pipeline over its rows, all on one tape when ``record``
        (a backward follows), otherwise on an Evaluator. Returns (the
        model's handles, the tape); the tape is not kept on the context,
        since its boundary nodes refer to the context, and that cycle would
        hold every pass's tape until the cyclic garbage collector ran."""
        tape = Tape() if record else Evaluator()

        def enter(stage: str) -> None:
            tape.boundary(partial(ctx.set_stage, "backward." + ctx.stage))
            ctx.set_stage(stage)

        ctx.set_stage("init")
        pos = tape.leaf(self.system.positions)
        basis = compute_basis(tape, pos, self.topology, self.config, self.partition[ctx.rank])
        tape.boundary(partial(ctx.set_stage, "backward.geometry"))
        handles = yield from record_model(tape, self.params, self.topology, pos, basis, enter)
        return handles, tape

    # -- worker backward -----------------------------------------------

    def _worker_backward(self, ctx: _WorkerContext, recorded: tuple, seeds: dict):
        """One walk of the worker's tape from ``seeds``, whose collective
        nodes yield their adjoints to be summed across workers, then the
        all-reduce of the partial position and parameter gradients."""
        handles, tape = recorded
        ctx.set_stage("backward.readout")
        grads = yield from tape.walk(seeds)

        ctx.set_stage("backward.reduce")
        bundle = handles.gradients(tape, grads)
        where = {"phase": "backward", "block": -1, "stage": "positions", "level": "position"}
        bundle.d_positions = yield bundle.d_positions, where
        flat = np.concatenate([g.ravel() for g in bundle.d_params.values()])
        flat = yield flat, {**where, "stage": "params", "level": "param"}
        offset = 0
        for name, g in bundle.d_params.items():
            bundle.d_params[name] = flat[offset : offset + g.size].reshape(g.shape)
            offset += g.size
        return bundle

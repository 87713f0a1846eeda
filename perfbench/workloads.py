"""The three workloads: inputs made from the seed, one op, and its checks.

Each workload exposes
  setup()            make inputs, labels and parameters, run the warm-up op;
  next_input(i)      the input of timed op i (made outside the op's timing);
  op(inp)            one op through egn's public drivers;
  finish_op(inp, out)  per-op output checks, as [(check, reason)];
  check_run(tracer)  checks run once per run outside the timed ops;
and names in ``op_clock`` the clock its end-to-end op times are read on.
``tracer`` is a callable returning an installed ``spans.Tracer``; the
run-level checks use it to compare a traced op with the untraced warm-up
op bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import checks
from egn import graph, runtime, tasks
from egn.config import DIMENET, GEMNET, ModelConfig
from egn.params import ModelParams, init_params
from egn.system import AtomicSystem, random_cloud

DENSITY = 0.9  # atoms per unit volume of the generated clouds
CUTOFF = 1.5

# Streams of the seeded generator, so inputs of one kind never reuse another's.
OP_INPUTS, CHECK_INPUTS, CHECK_MOTION = 1, 2, 3


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _failed(name: str, reason: str | None) -> list[tuple[str, str]]:
    return [] if reason is None else [(name, reason)]


class Relax:
    """IS2RS proxy: tasks.relax, energy-centric, one worker, fixed steps."""

    name = "relax-dimenet"
    # Whether BLAS helper threads run, and spin on after their call, depends
    # on how many triplets a cloud has at each step, so the op's CPU time
    # doubles on some clouds while its wall time does not move.
    op_clock = "wall"
    atoms = 100
    steps = 4
    fmax = 1e-9  # far below any force reached in `steps` steps
    fd_step = 1e-5
    fd_coords = 4
    fd_rtol = 1e-5
    motion_rtol = 1e-9

    def __init__(self, seed: int):
        self.seed = seed
        self.config = ModelConfig(variant=DIMENET, blocks=2, cutoff=CUTOFF, seed=seed)

    def describe(self) -> dict:
        return {"atoms": self.atoms, "density": DENSITY, "cutoff": CUTOFF,
                "variant": DIMENET, "blocks": self.config.blocks, "steps": self.steps,
                "workers": 1}

    def setup(self) -> None:
        self.params = init_params(self.config)
        self.warm_input = self.next_input(0)
        self.warm_output = self.op(self.warm_input)

    def next_input(self, i: int) -> AtomicSystem:
        return random_cloud(self.atoms, DENSITY, _rng(self.seed, OP_INPUTS, i))

    def op(self, system: AtomicSystem):
        return tasks.relax(system, self.params, self.fmax, max_steps=self.steps)

    def finish_op(self, system, result) -> list[tuple[str, str]]:
        return (
            _failed("relax.energy_never_rises", checks.energy_never_rises(result.energies))
            + _failed("relax.step_budget", checks.step_count(result.steps, self.steps))
            + _failed("relax.finite", checks.all_finite(
                energies=result.energies, positions=result.trajectory[-1]))
        )

    def _smooth_system(self) -> AtomicSystem:
        """A cloud with no pair within ten FD steps of the cutoff."""
        margin = 10 * self.fd_step
        for k in range(100):
            system = random_cloud(self.atoms, DENSITY, _rng(self.seed, CHECK_INPUTS, k))
            pos = system.positions
            diff = pos[:, None, :] - pos[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            if not np.any(np.abs(dist - CUTOFF) < margin):
                return system
        raise RuntimeError("no cloud away from cutoff crossings in 100 draws")

    def check_run(self, tracer) -> list[tuple[str, str]]:
        failed = []
        system = self._smooth_system()
        energy, forces = tasks.predict(system, self.params)
        rng = _rng(self.seed, CHECK_MOTION)
        big = np.flatnonzero(np.abs(forces).ravel() >= 0.1 * np.abs(forces).max())
        coords = rng.choice(big, size=min(self.fd_coords, big.size), replace=False)
        fd = []
        for c in coords:
            pair = []
            for sign in (1.0, -1.0):
                pos = system.positions.copy()
                pos.ravel()[c] += sign * self.fd_step
                pair.append(tasks.predict(system.with_positions(pos), self.params)[0])
            fd.append(-(pair[0] - pair[1]) / (2.0 * self.fd_step))
        failed += _failed("relax.forces_match_fd", checks.forces_match_fd(
            fd, forces.ravel()[coords], self.fd_rtol))

        rot, shift = checks.random_rigid_motion(rng)
        moved = system.with_positions(system.positions @ rot.T + shift)
        moved_energy, moved_forces = tasks.predict(moved, self.params)
        failed += _failed("relax.rigid_motion", checks.rigid_motion(
            energy, moved_energy, forces, moved_forces, rot, self.motion_rtol))

        with tracer():
            traced = self.op(self.warm_input)
        failed += _failed("relax.traced_equals_untraced", checks.bitwise_equal(
            "traced energies", traced.energies, self.warm_output.energies)
            or checks.bitwise_equal(
                "traced trajectory", traced.trajectory, self.warm_output.trajectory))
        return failed


class PredictLarge:
    """S2EF inference at scale: AtomicSystem + tasks.predict, force-centric."""

    name = "predict-gemnet-large"
    op_clock = "cpu"
    atoms = 900
    motion_rtol = 1e-9

    def __init__(self, seed: int):
        self.seed = seed
        self.config = ModelConfig(variant=GEMNET, blocks=1, cutoff=CUTOFF, seed=seed)

    def describe(self) -> dict:
        return {"atoms": self.atoms, "density": DENSITY, "cutoff": CUTOFF,
                "variant": GEMNET, "blocks": self.config.blocks, "workers": 1}

    def setup(self) -> None:
        self.params = init_params(self.config)
        cloud = random_cloud(self.atoms, DENSITY, _rng(self.seed, OP_INPUTS))
        self.positions = cloud.positions
        self.numbers = cloud.atomic_numbers
        self.warm_output = self.op(None)

    def next_input(self, i: int):
        return None  # every op rebuilds the same structure from its raw arrays

    def op(self, _):
        system = AtomicSystem(self.positions, self.numbers)
        return tasks.predict(system, self.params)

    def finish_op(self, _, out) -> list[tuple[str, str]]:
        energy, forces = out
        return (
            _failed("predict.finite", checks.all_finite(energy=energy, forces=forces))
            + _failed("predict.repeatable", checks.bitwise_equal(
                "forces of a repeated op", forces, self.warm_output[1]))
        )

    def check_run(self, tracer) -> list[tuple[str, str]]:
        failed = []
        degrees = checks.neighbour_degrees(self.positions, CUTOFF)
        topology, _ = graph.build_graph(AtomicSystem(self.positions, self.numbers), CUTOFF)
        failed += _failed("predict.graph_counts", checks.graph_counts(
            topology.num_edges, topology.num_triplets, degrees))

        energy, forces = self.warm_output
        rot, shift = checks.random_rigid_motion(_rng(self.seed, CHECK_MOTION))
        moved = AtomicSystem(self.positions @ rot.T + shift, self.numbers)
        moved_energy, moved_forces = tasks.predict(moved, self.params)
        failed += _failed("predict.rigid_motion", checks.rigid_motion(
            energy, moved_energy, forces, moved_forces, rot, self.motion_rtol))

        with tracer():
            traced = self.op(None)
        failed += _failed("predict.traced_equals_untraced", checks.bitwise_equal(
            "traced energy", traced[0], energy)
            or checks.bitwise_equal("traced forces", traced[1], forces))
        return failed


@dataclass
class _Epoch:
    params: ModelParams
    loss: float


class TrainP2:
    """One tasks.train_simple epoch, energy+force loss, two workers."""

    name = "train-gemnet-p2"
    op_clock = "cpu"  # its threads outnumber the cores, so its wall time tracks host load
    systems = 3
    atoms = 40
    lr = 1e-4
    w_energy = 1.0
    w_forces = 1.0
    teacher_offset = 7919  # teacher parameters use seed + offset
    grad_rtol = 1e-9
    slope_step = 3e-6  # length of the parameter step along the gradient
    slope_rtol = 1e-6

    def __init__(self, seed: int):
        self.seed = seed
        self.config = ModelConfig(variant=GEMNET, blocks=2, cutoff=CUTOFF, seed=seed, workers=2)

    def describe(self) -> dict:
        return {"systems": self.systems, "atoms": self.atoms, "density": DENSITY,
                "cutoff": CUTOFF, "variant": GEMNET, "blocks": self.config.blocks,
                "workers": self.config.workers, "lr": self.lr,
                "w_energy": self.w_energy, "w_forces": self.w_forces}

    def setup(self) -> None:
        teacher = init_params(self.config.replace(seed=self.seed + self.teacher_offset))
        self.dataset = []
        for i in range(self.systems):
            system = random_cloud(self.atoms, DENSITY, _rng(self.seed, OP_INPUTS, i))
            energy, forces = tasks.predict(system, teacher, workers=1)
            self.dataset.append((system, energy, forces))
        self.params0 = init_params(self.config)
        self.warm_output = self.op(self.params0)
        self.params = self.warm_output.params
        self.history = [self.warm_output.loss]

    def next_input(self, i: int) -> ModelParams:
        return self.params

    def op(self, params: ModelParams) -> _Epoch:
        fitted, history = tasks.train_simple(
            self.dataset, params, self.lr, 1, self.w_energy, self.w_forces)
        return _Epoch(fitted, history[0])

    def finish_op(self, _, out: _Epoch) -> list[tuple[str, str]]:
        self.params = out.params
        self.history.append(out.loss)
        return _failed("train.finite_loss", checks.all_finite(loss=out.loss))

    def _loss_and_grads(self, params, workers):
        return tasks.loss_and_grads(self.dataset, params, self.w_energy, self.w_forces, workers)

    def check_run(self, tracer) -> list[tuple[str, str]]:
        failed = []
        loss1, grads1 = self._loss_and_grads(self.params0, 1)
        _, grads2 = self._loss_and_grads(self.params0, 2)
        problem = checks.close("first epoch loss vs one worker", self.history[0], loss1,
                               self.grad_rtol)
        for name in grads1:
            problem = problem or checks.close(
                f"gradient {name} vs one worker", grads2[name], grads1[name], self.grad_rtol)
        failed += _failed("train.matches_one_worker", problem)

        norm2 = sum(float((g * g).sum()) for g in grads2.values())
        step = self.slope_step / np.sqrt(norm2)
        losses = []
        for sign in (1.0, -1.0):
            arrays = {k: a + sign * step * grads2[k] for k, a in self.params0.arrays.items()}
            losses.append(self._loss_and_grads(ModelParams(self.config, arrays), 2)[0])
        failed += _failed("train.loss_slope", checks.directional_derivative(
            losses[0], losses[1], step, norm2, self.slope_rtol))

        system = self.dataset[0][0]
        result, _ = runtime.WorkerGroup(system, self.params0).forward_backward(
            d_energy=1.0, d_forces=np.ones_like(system.positions))
        records = [(r.phase, r.level, r.elements) for r in result.comm_log.records]
        c = self.config
        failed += _failed("train.allreduce_volume", checks.allreduce_volume(
            records, c.blocks, int(checks.neighbour_degrees(system.positions, CUTOFF).sum()),
            system.n, c.d_e, c.d_v, c.d_u, self.params0.num_params()))

        failed += _failed("train.loss_decreased", checks.loss_decreased(self.history))

        with tracer():
            traced = self.op(self.params0)
        problem = checks.bitwise_equal("traced loss", traced.loss, self.warm_output.loss)
        for name, value in self.warm_output.params.arrays.items():
            problem = problem or checks.bitwise_equal(
                f"traced {name}", traced.params.arrays[name], value)
        failed += _failed("train.traced_equals_untraced", problem)
        return failed


WORKLOADS = {w.name: w for w in (Relax, PredictLarge, TrainP2)}

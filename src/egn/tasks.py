"""Model-level drivers: prediction, structure relaxation, toy training."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import DIMENET, GEMNET, ModelConfig
from .engine import ModelTape, record_system
from .graph import build_graph
from .params import ModelParams, load_params, param_specs, save_params
from .runtime import WorkerGroup
from .system import AtomicSystem
from .tape import Evaluator, Tape

# Center of the quadratic diagnostic well: the energy of a diagnostic model
# is sum over edges of (d - WELL_CENTER)^2, which has an analytic minimum.
WELL_CENTER = 1.5


def _predict_diagnostic(system: AtomicSystem, config: ModelConfig) -> tuple[float, np.ndarray]:
    topology, _ = build_graph(system, config.cutoff)
    tape = Tape()
    pos = tape.leaf(system.positions)
    dist = tape.edge_distances(tape.edge_vectors(pos, topology.edge_src, topology.edge_recv))
    x = tape.add(dist, tape.leaf(-WELL_CENTER))
    total = tape.sum_rows(tape.mul(x, x))
    energy = float(tape.value(total)[0])
    grads = tape.backward({total: np.ones(1, dtype=np.float64)})
    d_pos = grads[pos]
    forces = -d_pos if d_pos is not None else np.zeros_like(system.positions)
    return energy, forces


def _record(system: AtomicSystem, params: ModelParams):
    """One forward recorded for its backward, over ``params.config.workers``
    workers: a ``ModelTape`` for one, otherwise a runtime pass."""
    if params.config.workers == 1:
        return ModelTape(system, params)
    return WorkerGroup(system, params).record()


def predict(
    system: AtomicSystem, params: ModelParams, workers: int | None = None
) -> tuple[float, np.ndarray]:
    """Energy and per-atom forces for one system.

    The energy-centric variant obtains forces as the negative position
    gradient of the energy; the force-centric variant reads them from the
    force head, so its forward keeps no tape. Runs sequentially for one
    worker, otherwise through the multi-worker runtime.
    """
    config = params.config
    p = config.workers if workers is None else workers
    if config.diagnostic:
        if p != 1:
            raise ValueError("the diagnostic model runs sequentially only")
        return _predict_diagnostic(system, config)
    if config.variant == GEMNET:
        if p == 1:
            tape = Evaluator()
            energy, forces, _ = record_system(tape, system, params).outputs(tape)
            return energy, forces
        result = WorkerGroup(system, params.at_workers(p)).forward()
        return result.energy, result.forces
    model = _record(system, params.at_workers(p))
    bundle = model.backward(d_energy=1.0)
    return model.energy, -bundle.d_positions


@dataclass
class RelaxationResult:
    trajectory: list[np.ndarray]  # positions after each iteration; entry 0 is the input
    max_forces: list[float]
    energies: list[float]
    converged: bool
    steps: int


def relax(
    system: AtomicSystem,
    params: ModelParams,
    fmax_threshold: float,
    max_steps: int = 200,
    step_size: float = 0.05,
) -> RelaxationResult:
    """Iterate x <- x + eta * F until the largest force drops below the
    threshold or the step cap is reached.

    For energy-based models the step is rejected and eta halved whenever the
    proposed position raises the energy, which makes the energy sequence
    non-increasing. The neighbor graph is rebuilt at every evaluation. It
    runs at ``params.config.workers``; ``params.at_workers(p)`` sets another.
    """
    if not (np.isfinite(fmax_threshold) and fmax_threshold > 0):
        raise ValueError(f"fmax_threshold must be finite and positive, got {fmax_threshold}")
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    if not (np.isfinite(step_size) and step_size > 0):
        raise ValueError(f"step_size must be finite and positive, got {step_size}")
    guard = params.config.variant == DIMENET or params.config.diagnostic
    eta = step_size
    x = system.positions.copy()
    trajectory = [x.copy()]
    energies: list[float] = []
    max_forces: list[float] = []
    steps = 0
    converged = False

    energy, forces = predict(system.with_positions(x), params)
    while True:
        if not (np.isfinite(energy) and np.all(np.isfinite(forces))):
            raise RuntimeError(f"non-finite prediction at step {steps}")
        fmax = float(np.sqrt((forces * forces).sum(axis=1)).max())
        energies.append(energy)
        max_forces.append(fmax)
        if fmax < fmax_threshold:
            converged = True
            break
        if steps >= max_steps:
            break
        proposal = x + eta * forces
        steps += 1
        new_energy, new_forces = predict(system.with_positions(proposal), params)
        if guard and new_energy > energy:
            eta *= 0.5
        else:
            x = proposal
            energy, forces = new_energy, new_forces
        trajectory.append(x.copy())
    return RelaxationResult(trajectory, max_forces, energies, converged, steps)


def loss_and_grads(
    dataset: list[tuple[AtomicSystem, float, np.ndarray | None]],
    params: ModelParams,
    w_energy: float = 1.0,
    w_forces: float = 0.0,
    workers: int | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean squared loss over the dataset and its exact parameter gradient.

    Loss per sample: w_energy * (E - E*)^2 + w_forces * mean_i ||f_i - f*_i||^2,
    averaged over samples. The force term is only differentiable for the
    force-centric variant (forces are a forward output there). Every energy
    target must be a real scalar; targets are checked, by sample, before
    any forward runs.
    """
    config = params.config
    if config.diagnostic:
        raise ValueError("the diagnostic model has no trainable parameters")
    if not all(np.isfinite(w) and w >= 0 for w in (w_energy, w_forces)):
        raise ValueError(
            f"loss weights must be finite and non-negative, got {w_energy} and {w_forces}"
        )
    if w_forces != 0.0 and config.variant != GEMNET:
        raise ValueError(
            "force-loss gradients require the force-centric variant; "
            "set w_forces=0 for energy-centric training"
        )
    p = config.workers if workers is None else workers
    n = len(dataset)
    if n == 0:
        raise ValueError("dataset is empty")
    for index, (system, e_target, f_target) in enumerate(dataset):
        target = np.asarray(e_target)
        if target.shape != () or target.dtype.kind not in "iuf":
            raise ValueError(
                f"sample {index}: energy target must be a real number, got {e_target!r}"
            )
        if w_forces != 0.0 and (f_target is None or np.shape(f_target) != (system.n, 3)):
            got = "None" if f_target is None else f"shape {np.shape(f_target)}"
            raise ValueError(
                f"sample {index}: force target must be a ({system.n}, 3) array, got {got}"
            )
    run_params = params.at_workers(p)
    total_loss = 0.0
    grad_sum = {s.name: np.zeros(s.shape, dtype=np.float64) for s in param_specs(config)}
    for system, e_target, f_target in dataset:
        # One recorded forward per sample; its backward completes the pass.
        model = _record(system, run_params)
        residual = np.float64(model.energy - e_target)  # numpy scalar: overflow -> inf, not an exception
        d_energy = float(2.0 * w_energy * residual / n)
        loss = float(w_energy * residual * residual)
        d_forces = None
        if w_forces != 0.0:
            delta = model.forces - np.asarray(f_target, dtype=np.float64)
            loss += w_forces * float((delta * delta).sum()) / system.n
            d_forces = 2.0 * w_forces * delta / (n * system.n)

        bundle = model.backward(d_energy=d_energy, d_forces=d_forces)
        del model  # drop this sample's tapes before the next sample records
        for name, g in bundle.d_params.items():
            grad_sum[name] += g
        total_loss += loss / n
    return total_loss, grad_sum


def train_simple(
    dataset: list[tuple[AtomicSystem, float, np.ndarray | None]],
    params: ModelParams,
    lr: float,
    epochs: int,
    w_energy: float = 1.0,
    w_forces: float = 0.0,
    workers: int | None = None,
) -> tuple[ModelParams, list[float]]:
    """Plain gradient descent; returns fitted parameters and the loss history."""
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not np.isfinite(lr):
        raise ValueError(f"lr must be finite, got {lr}")
    config = params.config
    arrays = {name: arr.copy() for name, arr in params.arrays.items()}
    history: list[float] = []
    for _ in range(epochs):
        current = ModelParams(config, arrays)
        loss, grads = loss_and_grads(dataset, current, w_energy, w_forces, workers)
        if not np.isfinite(loss):
            raise RuntimeError(f"non-finite loss {loss}")
        history.append(loss)
        if lr != 0.0:
            arrays = {name: arrays[name] - lr * grads[name] for name in arrays}
    return ModelParams(config, arrays), history


def save_checkpoint(params: ModelParams, path) -> None:
    """Write the binary parameter container plus a JSON config sidecar."""
    path = Path(path)
    save_params(params, path)
    path.with_suffix(path.suffix + ".json").write_text(params.config.to_json())


def load_checkpoint(path) -> ModelParams:
    path = Path(path)
    config = ModelConfig.from_json(path.with_suffix(path.suffix + ".json").read_text())
    return load_params(path, config)

import re

import numpy as np
import pytest

from egn import basis
from egn.bench import sample_smooth_system
from egn.config import ModelConfig
from egn.params import ModelParams, init_params, param_specs
from egn.runtime import WorkerGroup
from egn.system import random_cloud
from egn.tasks import (
    WELL_CENTER,
    load_checkpoint,
    loss_and_grads,
    predict,
    relax,
    save_checkpoint,
    train_simple,
)

from conftest import dimer, fd_allowance


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
def test_predict_sequential_vs_parallel(variant, rng):
    system = random_cloud(16, 0.9, rng)
    params = init_params(ModelConfig(variant=variant, blocks=2))
    e1, f1 = predict(system, params, workers=1)
    e4, f4 = predict(system, params, workers=4)
    assert np.isclose(e4, e1, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(f4, f1, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
def test_predict_dimer_forces_antiparallel(variant):
    params = init_params(ModelConfig(variant=variant, blocks=2))
    _, forces = predict(dimer(1.0), params)
    np.testing.assert_allclose(forces[0], -forces[1], atol=1e-9)


def test_predict_energy_centric_zero_net_force(rng):
    system = random_cloud(12, 0.9, rng)
    params = init_params(ModelConfig(variant="dimenet-style", blocks=2))
    _, forces = predict(system, params)
    assert np.abs(forces.sum(axis=0)).max() < 1e-9


def test_diagnostic_energy_and_forces():
    cfg = ModelConfig(diagnostic=True, cutoff=3.0)
    params = init_params(cfg)
    system = dimer(2.0)
    energy, forces = predict(system, params)
    assert energy == pytest.approx(2 * (2.0 - WELL_CENTER) ** 2, abs=1e-12)
    # both directed edges pull the atoms together
    assert forces[1][2] < 0 < forces[0][2]
    with pytest.raises(ValueError):
        predict(system, params, workers=2)


def test_relax_already_converged_takes_zero_steps():
    cfg = ModelConfig(diagnostic=True, cutoff=3.0)
    params = init_params(cfg)
    system = dimer(WELL_CENTER)
    result = relax(system, params, fmax_threshold=1e-6, max_steps=200)
    assert result.converged and result.steps == 0
    assert len(result.trajectory) == 1


def test_relax_quadratic_dimer_to_well_center():
    cfg = ModelConfig(diagnostic=True, cutoff=3.0)
    params = init_params(cfg)
    result = relax(dimer(2.0), params, fmax_threshold=1e-4, max_steps=200, step_size=0.05)
    assert result.converged
    assert result.steps <= 200
    final = result.trajectory[-1]
    distance = np.linalg.norm(final[1] - final[0])
    assert abs(distance - WELL_CENTER) < 1e-3
    energies = np.array(result.energies)
    assert np.all(np.diff(energies) <= 1e-12)


def test_relax_step_cap_honored():
    cfg = ModelConfig(diagnostic=True, cutoff=3.0)
    params = init_params(cfg)
    result = relax(dimer(2.0), params, fmax_threshold=1e-12, max_steps=1, step_size=0.05)
    assert not result.converged
    assert result.steps == 1
    assert len(result.trajectory) == 2


def test_relax_rejects_bad_threshold():
    params = init_params(ModelConfig(diagnostic=True))
    with pytest.raises(ValueError):
        relax(dimer(1.0), params, fmax_threshold=0.0)


@pytest.mark.parametrize("fmax", [np.nan, np.inf])
def test_relax_rejects_non_finite_threshold(fmax):
    params = init_params(ModelConfig(diagnostic=True))
    with pytest.raises(ValueError, match="fmax_threshold must be finite"):
        relax(dimer(1.0), params, fmax_threshold=fmax, max_steps=5)


@pytest.mark.parametrize("step_size", [0.0, -0.05, float("nan"), float("inf")])
def test_relax_rejects_bad_step_size(step_size):
    params = init_params(ModelConfig(diagnostic=True))
    with pytest.raises(ValueError, match="step_size"):
        relax(dimer(1.0), params, fmax_threshold=1e-3, max_steps=5, step_size=step_size)


def test_relax_trajectory_lengths_consistent(rng):
    cfg = ModelConfig(variant="dimenet-style", blocks=1, cutoff=1.5)
    params = init_params(cfg)
    system = random_cloud(6, 0.9, rng)
    result = relax(system, params, fmax_threshold=1e-3, max_steps=5, step_size=0.01)
    assert result.steps <= 5
    assert len(result.trajectory) == result.steps + 1
    assert len(result.energies) == len(result.max_forces)


def _toy_dataset(rng, config, samples=3):
    teacher = init_params(config.replace(seed=config.seed + 100))
    dataset = []
    for _ in range(samples):
        system = random_cloud(int(rng.integers(4, 8)), 0.9, rng)
        energy, forces = predict(system, teacher, workers=1)
        dataset.append((system, energy, forces))
    return dataset


def test_train_lr_zero_keeps_params_bit_exact(rng):
    cfg = ModelConfig(variant="gemnet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg)
    params = init_params(cfg)
    fitted, history = train_simple(dataset, params, lr=0.0, epochs=3, w_forces=1.0)
    assert len(history) == 3
    assert history[0] == history[1] == history[2]
    for name in params.arrays:
        np.testing.assert_array_equal(fitted.arrays[name], params.arrays[name])


def test_train_single_sample_reduces_loss(rng):
    cfg = ModelConfig(variant="gemnet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg, samples=1)
    params = init_params(cfg)
    _, history = train_simple(dataset, params, lr=0.05, epochs=200, w_forces=1.0)
    assert history[-1] < history[0]


def test_train_energy_centric_rejects_force_loss(rng):
    cfg = ModelConfig(variant="dimenet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg)
    with pytest.raises(ValueError):
        train_simple(dataset, init_params(cfg), lr=0.1, epochs=1, w_forces=1.0)


@pytest.mark.parametrize("epochs", [0, -1])
def test_train_rejects_fewer_than_one_epoch(rng, epochs):
    cfg = ModelConfig(variant="dimenet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg, samples=1)
    with pytest.raises(ValueError, match="epochs"):
        train_simple(dataset, init_params(cfg), lr=0.1, epochs=epochs)


@pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
def test_train_rejects_non_finite_lr(rng, lr):
    cfg = ModelConfig(variant="dimenet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg, samples=1)
    with pytest.raises(ValueError, match="lr must be finite"):
        train_simple(dataset, init_params(cfg), lr=lr, epochs=1)


@pytest.mark.parametrize(
    "w_energy, w_forces", [(np.nan, 0.0), (-np.inf, 0.0), (1.0, np.inf), (-0.001, 0.0)]
)
def test_train_rejects_non_finite_loss_weights(rng, w_energy, w_forces):
    cfg = ModelConfig(variant="gemnet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg, samples=1)
    with pytest.raises(ValueError, match="loss weights must be finite"):
        train_simple(dataset, init_params(cfg), 0.1, 1, w_energy=w_energy, w_forces=w_forces)


@pytest.mark.parametrize("target", ["row", "flat", "none"])
def test_loss_rejects_force_target_of_wrong_shape(rng, target):
    """With a force loss, a target that is not the sample's (n, 3) array is
    rejected by sample, rather than broadcast into a wrong loss or a NaN."""
    cfg = ModelConfig(variant="gemnet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg)
    system, energy, forces = dataset[1]
    bad, got = {
        "row": (forces[:1], "shape (1, 3)"),
        "flat": (forces[0], "shape (3,)"),
        "none": (None, "None"),
    }[target]
    dataset[1] = (system, energy, bad)
    error = rf"sample 1: force target must be a \({system.n}, 3\) array, got {re.escape(got)}"
    with pytest.raises(ValueError, match=error):
        loss_and_grads(dataset, init_params(cfg), w_forces=1.0)
    loss_and_grads(dataset, init_params(cfg), w_forces=0.0)  # no force loss reads no target


@pytest.mark.parametrize(
    "target", [None, np.array([1.0, 2.0]), "1.0"], ids=["none", "vector", "string"]
)
def test_loss_rejects_energy_target_that_is_not_a_real_number(rng, target, monkeypatch):
    """An energy target that is not a real scalar is rejected by sample,
    before any forward runs."""
    import egn.tasks as tasks

    cfg = ModelConfig(variant="dimenet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg)
    system, _, forces = dataset[1]
    dataset[1] = (system, target, forces)

    def refuse(*args):
        raise AssertionError("a forward ran before the targets were checked")

    monkeypatch.setattr(tasks, "_record", refuse)
    error = rf"sample 1: energy target must be a real number, got {re.escape(repr(target))}"
    with pytest.raises(ValueError, match=error):
        loss_and_grads(dataset, init_params(cfg))


def test_loss_accepts_integer_and_zero_dimensional_energy_targets(rng):
    """An int or a 0-d array target gives the loss and gradients of the
    equal float, bit for bit."""
    cfg = ModelConfig(variant="dimenet-style", blocks=1)
    params = init_params(cfg)
    dataset = [(s, float(round(e)), f) for s, e, f in _toy_dataset(rng, cfg)]
    want_loss, want_grads = loss_and_grads(dataset, params)
    for convert in (int, np.array):
        loss, grads = loss_and_grads([(s, convert(e), f) for s, e, f in dataset], params)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes(), convert
        for name, g in want_grads.items():
            assert grads[name].tobytes() == g.tobytes(), (convert, name)


def test_train_energy_centric_energy_only_loss(rng):
    cfg = ModelConfig(variant="dimenet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg)
    _, history = train_simple(dataset, init_params(cfg), lr=0.1, epochs=50, w_forces=0.0)
    assert history[-1] < history[0]


def test_loss_gradient_matches_fd(rng):
    cfg = ModelConfig(variant="gemnet-style", blocks=1, d_u=2, d_v=3, d_e=4, d_t=2,
                      d_bil=2, k_rbf=3, l_sbf=2)
    dataset = [
        (sample_smooth_system(rng, 5, cfg.cutoff), 0.7, rng.standard_normal((5, 3)))
    ]
    params = init_params(cfg)
    loss, grads = loss_and_grads(dataset, params, w_energy=1.0, w_forces=0.5)
    h = 1e-6
    for name, arr in params.arrays.items():
        flat = arr.ravel()
        stride = max(1, flat.size // 6)
        for i in range(0, flat.size, stride):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = loss_and_grads(dataset, ModelParams(cfg, params.arrays), 1.0, 0.5)
            flat[i] = orig - h
            down, _ = loss_and_grads(dataset, ModelParams(cfg, params.arrays), 1.0, 0.5)
            flat[i] = orig
            fd = (up - down) / (2 * h)
            exact = grads[name].ravel()[i]
            assert abs(fd - exact) <= 1e-5 * max(abs(exact), abs(fd), 1e-8) + fd_allowance(
                max(abs(up), abs(down)), h
            ), f"{name}[{i}]"


def test_loss_and_grads_parallel_matches_sequential(rng):
    cfg = ModelConfig(variant="gemnet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg, samples=2)
    params = init_params(cfg)
    loss1, grads1 = loss_and_grads(dataset, params, 1.0, 1.0, workers=1)
    loss2, grads2 = loss_and_grads(dataset, params, 1.0, 1.0, workers=3)
    assert np.isclose(loss1, loss2, rtol=1e-9)
    for name in grads1:
        np.testing.assert_allclose(grads2[name], grads1[name], rtol=1e-9, atol=1e-12)


def _two_pass_loss_and_grads(dataset, params, w_energy, w_forces, workers):
    """Reference training loop at workers > 1 that runs the forward twice per
    sample: forward() for the loss seeds, then forward_backward()."""
    run_params = ModelParams(params.config.replace(workers=workers), params.arrays)
    n = len(dataset)
    total_loss = 0.0
    grad_sum = {s.name: np.zeros(s.shape, dtype=np.float64) for s in param_specs(params.config)}
    for system, e_target, f_target in dataset:
        group = WorkerGroup(system, run_params)
        result = group.forward()
        residual = np.float64(result.energy - e_target)
        loss = float(w_energy * residual * residual)
        d_forces = None
        if w_forces != 0.0:
            delta = result.forces - np.asarray(f_target, dtype=np.float64)
            loss += w_forces * float((delta * delta).sum()) / system.n
            d_forces = 2.0 * w_forces * delta / (n * system.n)
        _, bundle = group.forward_backward(float(2.0 * w_energy * residual / n), d_forces)
        for name, g in bundle.d_params.items():
            grad_sum[name] += g
        total_loss += loss / n
    return total_loss, grad_sum


@pytest.mark.parametrize("variant", ["dimenet-style", "gemnet-style"])
@pytest.mark.parametrize("workers", [2, 3])
def test_loss_and_grads_matches_two_pass_loop(variant, workers, rng):
    cfg = ModelConfig(variant=variant, blocks=2)
    dataset = _toy_dataset(rng, cfg)
    params = init_params(cfg)
    w_forces = 1.0 if variant == "gemnet-style" else 0.0
    want_loss, want_grads = _two_pass_loss_and_grads(dataset, params, 1.0, w_forces, workers)
    loss, grads = loss_and_grads(dataset, params, 1.0, w_forces, workers=workers)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grads.keys() == want_grads.keys()
    for name, grad in want_grads.items():
        assert grads[name].tobytes() == grad.tobytes(), name


def test_loss_and_grads_runs_one_forward_per_sample(rng, monkeypatch):
    cfg = ModelConfig(variant="gemnet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg, samples=2)
    calls = []
    compute_basis = basis.compute_basis

    def spy(tape, pos, topology, config, atoms):
        calls.append((topology.num_nodes, atoms))
        return compute_basis(tape, pos, topology, config, atoms)

    monkeypatch.setattr(basis, "compute_basis", spy)
    loss_and_grads(dataset, init_params(cfg), 1.0, 1.0, workers=2)
    # Per sample, rank 0 then rank 1, each over its own atoms.
    want = []
    for system, _, _ in dataset:
        half = WorkerGroup(system, init_params(cfg.replace(workers=2))).partition
        want += [(system.n, atoms) for atoms in half]
    assert calls == want


def test_checkpoint_roundtrip(tmp_path, rng):
    cfg = ModelConfig(variant="gemnet-style", blocks=2, cutoff=1.7, seed=9)
    params = init_params(cfg)
    path = tmp_path / "ckpt.egn"
    save_checkpoint(params, path)
    assert path.exists() and path.with_suffix(".egn.json").exists()
    loaded = load_checkpoint(path)
    assert loaded.config == cfg
    for name in params.arrays:
        np.testing.assert_array_equal(loaded.arrays[name], params.arrays[name])


def test_checkpoint_sidecar_mismatch(tmp_path):
    cfg = ModelConfig(blocks=2)
    params = init_params(cfg)
    path = tmp_path / "ckpt.egn"
    save_checkpoint(params, path)
    sidecar = path.with_suffix(".egn.json")
    sidecar.write_text(cfg.replace(blocks=3).to_json())
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_non_finite_loss(rng):
    cfg = ModelConfig(variant="gemnet-style", blocks=1)
    dataset = _toy_dataset(rng, cfg, samples=1)
    with pytest.raises(RuntimeError):
        # absurd learning rate blows the weights up to overflow
        train_simple(dataset, init_params(cfg), lr=1e18, epochs=25, w_forces=1.0)


def test_relax_aborts_on_non_finite_forces(rng, monkeypatch):
    cfg = ModelConfig(variant="dimenet-style", blocks=1)
    params = init_params(cfg)
    system = random_cloud(5, 0.9, rng)

    import egn.tasks as tasks

    def bad_predict(*args, **kwargs):
        return np.nan, np.full((system.n, 3), np.nan)

    monkeypatch.setattr(tasks, "predict", bad_predict)
    with pytest.raises(RuntimeError):
        tasks.relax(system, params, fmax_threshold=1e-3)


def test_nan_energy_is_the_same_result_at_any_worker_count(rng):
    system = random_cloud(20, 0.9, rng)
    params = init_params(ModelConfig(variant="gemnet-style", blocks=1))
    arrays = dict(params.arrays)
    arrays["energy_head.b"] = np.full_like(arrays["energy_head.b"], np.nan)
    broken = ModelParams(params.config, arrays)
    for workers in (1, 2):
        energy, _ = predict(system, broken, workers=workers)
        assert np.isnan(energy)
        with pytest.raises(RuntimeError, match="non-finite loss"):
            train_simple([(system, 0.0, None)], broken, lr=1e-3, epochs=1, workers=workers)

"""Verification suite, weak-scaling benchmark, and synthetic system tools."""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import compute_basis
from .config import DIMENET, GEMNET, ModelConfig
from .engine import ModelTape
from .graph import build_graph
from .neighbours import neighbour_pairs
from .params import init_params
from .partition import CommModel, comm_volume
from .runtime import COLLECTIVE_LEVELS, WorkerGroup
from .system import AtomicSystem, format_xyz, random_cloud
from .tape import Evaluator
from .tasks import predict

CSV_HEADER = "P,label,params,median_ms,throughput_graphs_per_s,allreduced_elements,efficiency"


def gen_xyz(n: int, density: float, seed: int, out_path) -> AtomicSystem:
    """Write a reproducible random atom cloud as XYZ; returns the system."""
    rng = np.random.default_rng(seed)
    system = random_cloud(n, density, rng)
    comment = f"random cloud n={n} density={density} seed={seed}"
    Path(out_path).write_text(format_xyz(system, comment))
    return system


def sample_smooth_system(rng: np.random.Generator, n: int, cutoff: float) -> AtomicSystem:
    """Random cloud at density 0.9 whose pair distances sit at least 1e-3
    from the cutoff and whose angles sit at least 0.05 rad from collinear,
    so small finite-difference steps stay smooth; up to 200 draws."""
    config = ModelConfig(cutoff=cutoff)
    for _ in range(200):
        system = random_cloud(n, 0.9, rng)
        topology, _ = build_graph(system, cutoff)
        _, _, dist = neighbour_pairs(system.positions, cutoff + 1e-3)
        if np.any(np.abs(dist - cutoff) < 1e-3):
            continue
        basis = compute_basis(Evaluator(), system.positions, topology, config, slice(None))
        # Column 1 is T_1, the cosine itself, zero where k == i.
        if np.any(np.abs(basis.triplet_basis[:, 1]) > np.cos(0.05)):
            continue
        return system
    raise RuntimeError("could not sample a smooth system within the retry budget")


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _pass_values(run, grads, variant: str) -> dict[str, np.ndarray]:
    """Energy, forces and every parameter gradient of a pass, by label."""
    forces = run.forces if variant == GEMNET else -grads.d_positions
    d_params = {f"gradient {name}": g for name, g in grads.d_params.items()}
    values = {"energy": run.energy, "forces": forces, **d_params}
    return {label: np.asarray(v, dtype=np.float64) for label, v in values.items()}


def _mismatch(got: dict, want: dict, exact: bool) -> str:
    """The first label whose values differ: by their bytes where ``exact``,
    otherwise beyond 1e-9 relative."""
    for label, a in got.items():
        b = want[label]
        if (a.tobytes() != b.tobytes()) if exact else not np.allclose(a, b, rtol=1e-9, atol=1e-12):
            rel = float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-8)))
            return f"{label} mismatch, rel {rel:.3e}" + (" (bytes must match)" if exact else "")
    return ""


def _accounting_mismatch(group: WorkerGroup, log) -> str:
    """Forward elements per block measured against ``comm_volume``."""
    config = group.config
    predicted = comm_volume(CommModel.from_graph(group.topology, config), config.blocks).per_block
    measured = log.forward_blocks()
    if measured != dict.fromkeys(range(config.blocks), predicted):
        return f"forward elements per block {measured} != predicted {predicted} in each"
    return ""


def _level_mismatch(log) -> str:
    """Records of either phase at a level that phase may not all-reduce."""
    bad = sorted({f"{rec.phase} {rec.level}" for rec in log.records
                  if rec.level not in COLLECTIVE_LEVELS[rec.phase]})
    return f"levels {bad} entered a collective" if bad else ""


def _runtime_checks(config, seeds, p_list) -> list[CheckResult]:
    """``parallel-vs-sequential``, ``comm-accounting`` and
    ``no-triplet-communication``, all read off one ``forward_backward`` per
    seed and worker count on the seed's cloud of 8 to 23 atoms. One worker
    must match the sequential engine bit for bit, more to 1e-9 relative."""
    names = ("parallel-vs-sequential", "comm-accounting", "no-triplet-communication")
    failures: dict[str, str] = {}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        system = random_cloud(int(rng.integers(8, 24)), 0.9, rng)
        params = init_params(config.replace(seed=seed))
        model = ModelTape(system, params)
        want = _pass_values(model, model.backward(d_energy=1.0), config.variant)
        for p in p_list:
            group = WorkerGroup(system, params.at_workers(p))
            result, bundle = group.forward_backward(d_energy=1.0)
            details = (
                _mismatch(_pass_values(result, bundle, config.variant), want, exact=p == 1),
                _accounting_mismatch(group, result.comm_log),
                _level_mismatch(result.comm_log),
            )
            for name, detail in zip(names, details):
                if detail:
                    failures.setdefault(name, f"seed={seed} P={p} {detail}")
    return [CheckResult(name, name not in failures, failures.get(name, "")) for name in names]


def _fd_forces_check(config, seeds) -> CheckResult:
    fd_cfg = config.replace(variant=DIMENET, workers=1)
    h = 1e-5
    for seed in seeds:
        rng = np.random.default_rng(seed)
        system = sample_smooth_system(rng, n=6, cutoff=fd_cfg.cutoff)
        params = init_params(fd_cfg.replace(seed=seed))
        _, forces = predict(system, params, workers=1)
        for atom in range(system.n):
            for axis in range(3):
                shift = np.zeros_like(system.positions)
                shift[atom, axis] = h
                e_plus, _ = predict(system.with_positions(system.positions + shift), params, 1)
                e_minus, _ = predict(system.with_positions(system.positions - shift), params, 1)
                fd = -(e_plus - e_minus) / (2 * h)
                rel = abs(fd - forces[atom, axis]) / max(abs(fd), abs(forces[atom, axis]), 1e-8)
                if rel > 1e-5:
                    return CheckResult(
                        "finite-difference-forces", False,
                        f"seed={seed} atom={atom} axis={axis} rel={rel:.3e}",
                    )
    return CheckResult("finite-difference-forces", True)


def _rigid_motion(system: AtomicSystem, forces: np.ndarray, rng: np.random.Generator):
    """A random rotation, then a shift: the moved system and its forces."""
    rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(rot) < 0:
        rot[:, 0] = -rot[:, 0]
    shift = rng.uniform(-3, 3, size=3)
    return AtomicSystem(system.positions @ rot.T + shift, system.atomic_numbers), forces @ rot.T


def _permutation(system: AtomicSystem, forces: np.ndarray, rng: np.random.Generator):
    """A random reordering of the atoms, each keeping its species."""
    perm = rng.permutation(system.n)
    return AtomicSystem(system.positions[perm], system.atomic_numbers[perm]), forces[perm]


def _invariance_check(name: str, n: int, move, config, seeds) -> CheckResult:
    """The energy is unchanged and the forces move along when ``move``
    carries a seed's cloud of ``n`` atoms and its forces elsewhere."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        system = random_cloud(n, 0.9, rng)
        params = init_params(config.replace(seed=seed, workers=1))
        e0, f0 = predict(system, params, workers=1)
        moved, f_moved = move(system, f0, rng)
        e1, f1 = predict(moved, params, workers=1)
        if abs(e1 - e0) > 1e-9 * max(1.0, abs(e0)):
            return CheckResult(name, False, f"seed={seed} dE={e1 - e0:.3e}")
        if not np.allclose(f1, f_moved, rtol=1e-9, atol=1e-9):
            return CheckResult(name, False, f"seed={seed} forces did not move along")
    return CheckResult(name, True)


def verify_suite(
    config: ModelConfig,
    seeds: list[int],
    p_list: list[int],
) -> list[CheckResult]:
    """Run the invariant suite; one result per named check. Every check
    loops over the seeds or worker counts, so neither list may be empty."""
    if not seeds:
        raise ValueError("seeds must not be empty")
    if not p_list:
        raise ValueError("p_list must not be empty")
    equivalence, accounting, isolation = _runtime_checks(config, seeds, p_list)
    return [
        equivalence,
        _fd_forces_check(config, seeds[:2]),
        _invariance_check("rigid-motion-invariance", 12, _rigid_motion, config, seeds[:2]),
        _invariance_check("permutation-invariance", 10, _permutation, config, seeds[:2]),
        accounting,
        isolation,
    ]


# ---------------------------------------------------------------------------
# Weak scaling
# ---------------------------------------------------------------------------


@dataclass
class BenchRow:
    p: int
    label: str
    params: int
    median_ms: float
    throughput_graphs_per_s: float
    allreduced_elements: int
    efficiency: float

    def to_csv(self) -> str:
        return (
            f"{self.p},{self.label},{self.params},{self.median_ms!r},"
            f"{self.throughput_graphs_per_s!r},{self.allreduced_elements},{self.efficiency!r}"
        )


@dataclass
class BenchReport:
    rows: list[BenchRow]

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER] + [row.to_csv() for row in self.rows]) + "\n"


def parse_csv(text: str) -> BenchReport:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    rows = []
    for line in lines[1:]:
        p, label, n_params, median_ms, thr, elems, eff = line.split(",")
        rows.append(
            BenchRow(int(p), label, int(n_params), float(median_ms), float(thr), int(elems), float(eff))
        )
    return BenchReport(rows)


def weak_scaling(
    base_config: ModelConfig,
    p_list: list[int],
    n_atoms: int = 40,
    warmup: int = 2,
    repeats: int = 10,
) -> BenchReport:
    """Scale the triplet dimension with the worker count and time
    forward+backward passes on one random cloud at density 0.9. The config
    seed draws the cloud and the parameters. Graph construction happens
    once per row and is excluded from timing. Efficiency is median time at
    P=1 over median time at P; no target value is asserted.
    """
    if sorted(p_list) != list(p_list) or not p_list or p_list[0] != 1:
        raise ValueError("p_list must be sorted ascending and start at 1")
    if repeats < 1 or warmup < 0:
        raise ValueError(f"repeats must be >= 1 and warmup >= 0, got {repeats} and {warmup}")
    system = random_cloud(n_atoms, 0.9, np.random.default_rng(base_config.seed))
    rows: list[BenchRow] = []
    base_ms = None
    for p in p_list:
        config = base_config.replace(workers=p, d_t=base_config.d_t * p, d_bil=base_config.d_bil * p)
        params = init_params(config)
        group = WorkerGroup(system, params)
        for _ in range(warmup):
            group.forward_backward(d_energy=1.0)
        times = []
        for _ in range(repeats):
            tic = time.perf_counter()
            result, _ = group.forward_backward(d_energy=1.0)
            times.append((time.perf_counter() - tic) * 1000.0)
        detail = _accounting_mismatch(group, result.comm_log)
        if detail:
            raise AssertionError(detail)
        median_ms = float(np.median(times))
        if base_ms is None:
            base_ms = median_ms
        rows.append(
            BenchRow(
                p=p,
                label=f"B{config.blocks}-dt{config.d_t}",
                params=params.num_params(),
                median_ms=median_ms,
                throughput_graphs_per_s=1000.0 / median_ms,
                allreduced_elements=result.comm_log.elements(phase="forward"),
                efficiency=base_ms / median_ms,
            )
        )
    return BenchReport(rows)

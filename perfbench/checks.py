"""Output checks, each computed apart from the program or from a property
the method must have.

Every check returns ``None`` when it passes and a one-line reason when it
fails, so the caller can name the failed check and count its op as failed.
"""

from __future__ import annotations

import numpy as np


def rel_err(a, b) -> float:
    """Largest absolute difference relative to the largest magnitude of ``b``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return np.inf
    if a.size == 0:
        return 0.0
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def close(what: str, a, b, rtol: float) -> str | None:
    err = rel_err(a, b)
    if not err <= rtol:  # also catches NaN
        return f"{what} differs by {err:.3e} relative (limit {rtol:g})"
    return None


def all_finite(**arrays) -> str | None:
    for name, value in arrays.items():
        if not np.all(np.isfinite(np.asarray(value, dtype=np.float64))):
            return f"{name} is not finite"
    return None


def bitwise_equal(what: str, a, b) -> str | None:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return f"{what} differs bitwise"
    return None


# -- relaxation ------------------------------------------------------------


def energy_never_rises(energies) -> str | None:
    e = np.asarray(energies, dtype=np.float64)
    rises = np.nonzero(np.diff(e) > 0.0)[0]
    if rises.size:
        k = int(rises[0])
        return f"energy rises at step {k + 1}: {e[k]!r} -> {e[k + 1]!r}"
    return None


def step_count(steps: int, budget: int) -> str | None:
    if steps != budget:
        return f"relaxation took {steps} steps, budget is {budget}"
    return None


def forces_match_fd(fd, forces, rtol: float) -> str | None:
    """Central-difference forces against predicted forces, per coordinate."""
    fd = np.asarray(fd, dtype=np.float64)
    forces = np.asarray(forces, dtype=np.float64)
    err = np.abs(fd - forces) / np.maximum(np.abs(forces), 1e-300)
    worst = int(np.argmax(err))
    if not err[worst] <= rtol:
        return (f"force {forces[worst]!r} vs finite difference {fd[worst]!r}: "
                f"{err[worst]:.3e} relative (limit {rtol:g})")
    return None


def random_rigid_motion(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A proper rotation matrix and a translation vector."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-5.0, 5.0, size=3)


def rigid_motion(energy, moved_energy, forces, moved_forces, rotation, rtol) -> str | None:
    """Energy invariant, forces rotated with the input (rows: f @ R.T)."""
    problem = close("energy under rigid motion", moved_energy, energy, rtol)
    if problem is None and forces is not None:
        expected = np.asarray(forces) @ np.asarray(rotation).T
        problem = close("rotated forces", moved_forces, expected, rtol)
    return problem


# -- graph counts ----------------------------------------------------------


def neighbour_degrees(positions, cutoff: float, chunk: int = 256) -> np.ndarray:
    """Per-atom count of other atoms at distance 0 < d <= cutoff, brute force."""
    pos = np.asarray(positions, dtype=np.float64)
    deg = np.zeros(pos.shape[0], dtype=np.int64)
    for lo in range(0, pos.shape[0], chunk):
        diff = pos[None, :, :] - pos[lo:lo + chunk, None, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        deg[lo:lo + chunk] = ((dist > 0.0) & (dist <= cutoff)).sum(axis=1)
    return deg


def graph_counts(num_edges: int, num_triplets: int, degrees) -> str | None:
    """Edges = ordered neighbour pairs; triplets = sum_j deg_j (deg_j - 1)."""
    deg = np.asarray(degrees, dtype=np.int64)
    edges = int(deg.sum())
    triplets = int((deg * (deg - 1)).sum())
    if num_edges != edges:
        return f"graph has {num_edges} edges, brute force counts {edges}"
    if num_triplets != triplets:
        return f"graph has {num_triplets} triplets, sum deg(deg-1) is {triplets}"
    return None


# -- training --------------------------------------------------------------


def allreduce_volume(records, blocks, n_e, n_v, d_e, d_v, d_u, n_params) -> str | None:
    """Forward traffic of the force-centric variant against the paper's model.

    ``records`` are (phase, level, elements). Per block the forward pass
    all-reduces two edge buffers, one node buffer and one global row; no
    collective in either direction may carry a buffer of any other size,
    which keeps triplet-level buffers out. ``n_params`` is the size of the
    one parameter-gradient reduction at the end of the backward pass.
    """
    expected = blocks * (2 * n_e * d_e + n_v * d_v + d_u)
    forward = sum(el for phase, _, el in records if phase == "forward")
    if forward != expected:
        return f"forward all-reduced {forward} elements, model says {expected}"
    allowed = {"edge": n_e * d_e, "node": n_v * d_v, "global": d_u,
               "position": 3 * n_v, "param": n_params}
    for phase, level, elements in records:
        if allowed.get(level) != elements:
            return f"{phase} collective of level {level!r} carries {elements} elements"
    return None


def directional_derivative(loss_plus, loss_minus, step, grad_norm2, rtol) -> str | None:
    """(L(p + h g) - L(p - h g)) / 2h must equal |g|^2."""
    fd = (loss_plus - loss_minus) / (2.0 * step)
    return close("loss slope along the gradient", fd, grad_norm2, rtol)


def loss_decreased(history) -> str | None:
    h = np.asarray(history, dtype=np.float64)
    if h.size < 2:
        return f"{h.size} epochs recorded, need at least 2"
    if not h[-1] < h[0]:
        return f"last epoch loss {h[-1]!r} is not below the first {h[0]!r}"
    return None

"""Atomic systems: validation, XYZ parsing/writing, random cloud generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elements import MAX_Z, SYMBOL_TO_Z, symbol_of
from .neighbours import neighbour_pairs

# Two atoms closer than this are treated as coincident and rejected.
MIN_SEPARATION = 1e-12


class XyzParseError(ValueError):
    """Malformed XYZ input; ``line`` is the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class AtomicSystem:
    """Positions and atomic numbers of ``n >= 1`` atoms.

    positions: (n, 3) float64 coordinates, no two atoms coincident.
    atomic_numbers: (n,) integers in 1..MAX_Z.
    """

    positions: np.ndarray
    atomic_numbers: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        z = np.asarray(self.atomic_numbers, dtype=np.int64)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "atomic_numbers", z)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must have shape (n, 3), got {pos.shape}")
        if z.shape != (pos.shape[0],):
            raise ValueError("positions and atomic_numbers disagree on atom count")
        if pos.shape[0] < 1:
            raise ValueError("system must contain at least one atom")
        if np.any(z < 1):
            raise ValueError("atomic numbers must be >= 1")
        if np.any(z > MAX_Z):
            raise ValueError(f"atomic number {int(z.max())} exceeds the largest element ({MAX_Z})")
        if not np.all(np.isfinite(pos)):
            raise ValueError("positions must be finite")
        if neighbour_pairs(pos, MIN_SEPARATION)[0].size:
            raise ValueError("two atoms share (nearly) identical coordinates")

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def with_positions(self, positions: np.ndarray) -> "AtomicSystem":
        return AtomicSystem(positions, self.atomic_numbers)


def parse_xyz(text: str) -> AtomicSystem:
    """Parse standard XYZ text: count line, comment line, then ``SYMBOL x y z`` rows."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise XyzParseError(1, "missing atom count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise XyzParseError(1, f"malformed atom count {lines[0].strip()!r}") from None
    if n < 1:
        raise XyzParseError(1, f"atom count must be >= 1, got {n}")
    if len(lines) < n + 2:
        raise XyzParseError(len(lines) + 1, f"expected {n} atom lines, found {len(lines) - 2}")

    positions = np.empty((n, 3), dtype=np.float64)
    numbers = np.empty(n, dtype=np.int64)
    for row in range(n):
        lineno = row + 3
        fields = lines[row + 2].split()
        if len(fields) != 4:
            raise XyzParseError(lineno, f"expected 'SYMBOL x y z', got {lines[row + 2]!r}")
        sym = fields[0]
        if sym not in SYMBOL_TO_Z:
            raise XyzParseError(lineno, f"unknown element symbol {sym!r}")
        numbers[row] = SYMBOL_TO_Z[sym]
        for axis in range(3):
            try:
                positions[row, axis] = float(fields[axis + 1])
            except ValueError:
                raise XyzParseError(lineno, f"non-numeric coordinate {fields[axis + 1]!r}") from None
            if not np.isfinite(positions[row, axis]):
                raise XyzParseError(lineno, f"non-finite coordinate {fields[axis + 1]!r}")

    for extra in range(n + 2, len(lines)):
        if lines[extra].strip():
            raise XyzParseError(extra + 1, f"unexpected content {lines[extra].strip()!r}")

    src, _, _ = neighbour_pairs(positions, MIN_SEPARATION)
    if src.size:  # pairs come both ways, so src holds the later atom of each
        raise XyzParseError(int(src.max()) + 3, "duplicate atom positions")
    return AtomicSystem(positions, numbers)


def format_xyz(system: AtomicSystem, comment: str = "") -> str:
    """Serialize a system to XYZ text (deterministic, 12 decimal places)."""
    out = [str(system.n), comment]
    for z, (x, y, w) in zip(system.atomic_numbers, system.positions):
        out.append(f"{symbol_of(int(z))} {x:.12f} {y:.12f} {w:.12f}")
    return "\n".join(out) + "\n"


# Species drawn for generated clouds; values are arbitrary light elements.
_CLOUD_SPECIES = (1, 6, 7, 8, 14, 29)
# Rejection-sampling draws per atom before random_cloud gives up.
_TRIES_PER_ATOM = 500


def random_cloud(n: int, density: float, rng: np.random.Generator) -> AtomicSystem:
    """Sample ``n`` atoms in a cube at the given number density.

    Atoms are rejection-sampled so that no pair is closer than
    ``0.8 * density**(-1/3)``. Raises RuntimeError when the packing cannot
    be achieved within the retry budget.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (np.isfinite(density) and density > 0):
        raise ValueError(f"density must be finite and positive, got {density}")
    spacing = density ** (-1.0 / 3.0)
    min_dist = 0.8 * spacing
    side = (n / density) ** (1.0 / 3.0)

    placed = np.empty((n, 3), dtype=np.float64)
    for i in range(n):
        for _ in range(_TRIES_PER_ATOM):
            candidate = rng.uniform(0.0, side, size=3)
            if i == 0:
                placed[0] = candidate
                break
            dist = np.sqrt(((placed[:i] - candidate) ** 2).sum(axis=1))
            if dist.min() >= min_dist:
                placed[i] = candidate
                break
        else:
            raise RuntimeError(
                f"could not place atom {i + 1}/{n} at density {density} "
                f"after {_TRIES_PER_ATOM} tries"
            )
    numbers = rng.choice(_CLOUD_SPECIES, size=n)
    return AtomicSystem(placed, numbers.astype(np.int64))

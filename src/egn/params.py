"""Model parameters: declaration, seeded initialization, binary container.

The container format is: magic bytes ``EGN1``, nine little-endian u32 header
words (blocks, d_u, d_v, d_e, d_t, d_bil, k_rbf, l_sbf, variant code), then
the raw float64 weight blobs in declaration order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .config import DIMENET, GEMNET, ModelConfig
from .elements import MAX_Z

MAGIC = b"EGN1"
_VARIANT_CODE = {DIMENET: 0, GEMNET: 1}
_HEADER_FIELDS = ("blocks", "d_u", "d_v", "d_e", "d_t", "d_bil", "k_rbf", "l_sbf", "variant")


def _header_words(config: ModelConfig) -> tuple[int, ...]:
    return tuple(
        _VARIANT_CODE[config.variant] if name == "variant" else getattr(config, name)
        for name in _HEADER_FIELDS
    )


@dataclass(frozen=True)
class ParamSpec:
    name: str
    shape: tuple[int, ...]
    fan_in: int


def param_specs(config: ModelConfig) -> list[ParamSpec]:
    """All weight arrays of the model, in declaration (= serialization) order."""
    c = config
    specs = [
        ParamSpec("atom_embedding", (MAX_Z, c.d_v), 1),
        ParamSpec("edge_init.w", (c.d_e, c.k_rbf), c.k_rbf),
        ParamSpec("edge_init.b", (c.d_e,), c.k_rbf),
    ]
    for b in range(c.blocks):
        p = f"block{b}."
        specs.append(ParamSpec(p + "tu.down", (c.d_t, c.d_e), c.d_e))
        specs.append(ParamSpec(p + "tu.rbf_gate", (c.d_t, c.k_rbf), c.k_rbf))
        specs.append(ParamSpec(p + "tu.sbf_gate", (c.d_t, c.k_rbf * c.l_sbf), c.k_rbf * c.l_sbf))
        if c.variant == GEMNET:
            specs.append(ParamSpec(p + "tu.bilinear_a", (c.d_bil, c.d_t), c.d_t))
            specs.append(ParamSpec(p + "tu.bilinear_b", (c.d_bil, c.d_t), c.d_t))
            specs.append(ParamSpec(p + "tu.bilinear_proj", (c.d_t, c.d_bil), c.d_bil))
        specs.append(ParamSpec(p + "tu.up", (c.d_e, c.d_t), c.d_t))
        specs.append(ParamSpec(p + "eu.w1", (c.d_e, 2 * c.d_e), 2 * c.d_e))
        specs.append(ParamSpec(p + "eu.b1", (c.d_e,), 2 * c.d_e))
        specs.append(ParamSpec(p + "eu.w2", (c.d_e, c.d_e), c.d_e))
        specs.append(ParamSpec(p + "eu.b2", (c.d_e,), c.d_e))
        specs.append(ParamSpec(p + "nu.w1", (c.d_v, c.d_e), c.d_e))
        specs.append(ParamSpec(p + "nu.b1", (c.d_v,), c.d_e))
        specs.append(ParamSpec(p + "nu.w2", (c.d_v, c.d_v), c.d_v))
        specs.append(ParamSpec(p + "nu.b2", (c.d_v,), c.d_v))
        if c.variant == GEMNET:
            specs.append(ParamSpec(p + "eu2.w1", (c.d_e, c.d_e + c.d_v), c.d_e + c.d_v))
            specs.append(ParamSpec(p + "eu2.b1", (c.d_e,), c.d_e + c.d_v))
            specs.append(ParamSpec(p + "eu2.w2", (c.d_e, c.d_e), c.d_e))
            specs.append(ParamSpec(p + "eu2.b2", (c.d_e,), c.d_e))
            specs.append(ParamSpec(p + "sym.w", (c.d_e, c.d_e), c.d_e))
        specs.append(ParamSpec(p + "gu.w1", (c.d_u, c.d_v), c.d_v))
        specs.append(ParamSpec(p + "gu.b1", (c.d_u,), c.d_v))
        specs.append(ParamSpec(p + "gu.w2", (c.d_u, c.d_u), c.d_u))
        specs.append(ParamSpec(p + "gu.b2", (c.d_u,), c.d_u))
    specs.append(ParamSpec("energy_head.w", (1, c.d_u), c.d_u))
    specs.append(ParamSpec("energy_head.b", (1,), c.d_u))
    if c.variant == GEMNET:
        specs.append(ParamSpec("force_head.w", (1, c.d_e), c.d_e))
    return specs


@dataclass(frozen=True)
class ModelParams:
    config: ModelConfig
    arrays: dict[str, np.ndarray]  # insertion order == declaration order

    def num_params(self) -> int:
        return sum(a.size for a in self.arrays.values())

    def at_workers(self, workers: int) -> "ModelParams":
        """These arrays with the config's worker count set to ``workers``."""
        if self.config.workers == workers:
            return self
        return ModelParams(self.config.replace(workers=workers), self.arrays)

    def validate(self) -> None:
        specs = param_specs(self.config)
        if [s.name for s in specs] != list(self.arrays):
            raise ValueError("parameter names do not match the declared layout")
        for spec in specs:
            arr = self.arrays[spec.name]
            if arr.shape != spec.shape or arr.dtype != np.float64:
                raise ValueError(f"{spec.name}: expected float64 {spec.shape}, got {arr.dtype} {arr.shape}")


def init_params(config: ModelConfig) -> ModelParams:
    """Initialize all weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

    Each array draws from its own stream split off the config seed, so the
    initialization of early arrays never shifts when later ones are added.
    """
    root = np.random.SeedSequence(config.seed)
    specs = param_specs(config)
    children = root.spawn(len(specs))
    arrays: dict[str, np.ndarray] = {}
    for spec, child in zip(specs, children):
        rng = np.random.default_rng(child)
        bound = 1.0 / np.sqrt(spec.fan_in)
        arrays[spec.name] = rng.uniform(-bound, bound, size=spec.shape)
    return ModelParams(config, arrays)


def save_params(params: ModelParams, path) -> None:
    params.validate()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<9I", *_header_words(params.config)))
        for arr in params.arrays.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_params(path, config: ModelConfig) -> ModelParams:
    """Read a container written for ``config``; its header must agree."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError(f"bad magic bytes {blob[:4]!r}")
    if len(blob) < 40:
        raise ValueError("container truncated")
    head = struct.unpack("<9I", blob[4:40])
    for name, got, want in zip(_HEADER_FIELDS, head, _header_words(config)):
        if got != want:
            raise ValueError(f"container header and config disagree on {name}")
    arrays: dict[str, np.ndarray] = {}
    offset = 40
    for spec in param_specs(config):
        count = int(np.prod(spec.shape, dtype=np.int64))
        end = offset + 8 * count
        if end > len(blob):
            raise ValueError("container truncated")
        flat = np.frombuffer(blob[offset:end], dtype="<f8")
        arrays[spec.name] = flat.reshape(spec.shape).astype(np.float64)
        offset = end
    if offset != len(blob):
        raise ValueError("container has trailing bytes")
    return ModelParams(config, arrays)

"""Model configuration shared by the engines, runtime, and CLI."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

DIMENET = "dimenet-style"
GEMNET = "gemnet-style"
VARIANTS = (DIMENET, GEMNET)


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions and hyperparameters of one model instance.

    JSON config files use exactly these field names.
    """

    variant: str = DIMENET
    blocks: int = 2
    d_u: int = 4
    d_v: int = 6
    d_e: int = 8
    d_t: int = 4
    d_bil: int = 4
    k_rbf: int = 6
    l_sbf: int = 4
    cutoff: float = 1.5
    seed: int = 0
    workers: int = 1
    diagnostic: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        ints = ("blocks", "d_u", "d_v", "d_e", "d_t", "d_bil", "k_rbf", "l_sbf", "workers", "seed")
        for name in ints:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name != "seed":
                raise ValueError(f"{name} must be >= 1")
        real = isinstance(self.cutoff, (int, float)) and not isinstance(self.cutoff, bool)
        if not (real and 0 < self.cutoff < math.inf):
            raise ValueError(f"cutoff must be finite and positive, got {self.cutoff!r}")
        if not isinstance(self.diagnostic, bool):
            raise ValueError(f"diagnostic must be true or false, got {self.diagnostic!r}")

    def replace(self, **kwargs) -> "ModelConfig":
        data = asdict(self)
        data.update(kwargs)
        return ModelConfig(**data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {json.dumps(data)[:40]}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

"""Run configuration shared by the pipeline, baselines, and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .util import decode_utf8


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    k_risky: int = 20
    lime_n: int = 5000
    lime_sigma: float = 25.0
    lime_k_features: int = 100
    entropy_threshold_within: float = 0.7
    entropy_threshold_cross: float = 0.6
    folds: int = 10
    repeats: int = 10
    parallelism: int = 1

    def __post_init__(self) -> None:
        for name in ("k_risky", "lime_n", "lime_k_features", "repeats", "parallelism"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("lime_sigma", "entropy_threshold_within", "entropy_threshold_cross"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.folds < 2:
            raise ValueError("folds must be >= 2: with one fold, within-release validation has no training files")
        if self.lime_n < 2:
            raise ValueError("lime_n must be >= 2: the surrogate needs at least two neighbor samples")
        if self.lime_k_features < self.k_risky:
            raise ValueError("lime_k_features must be >= k_risky")


# each setting's type, in field order; the config file and the CLI flags parse values with it
FIELD_TYPES: dict[str, type] = get_type_hints(RunConfig)


def load_config_file(path: str | Path) -> dict[str, object]:
    """Parse a key=value config file; '#' starts a comment, blank lines ignored."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(decode_utf8(Path(path).read_bytes(), path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        kind = FIELD_TYPES[key]
        try:
            values[key] = kind(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} must be {kind.__name__}, got {value!r}") from None
    return values

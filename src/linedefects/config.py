"""Run configuration shared by the pipeline, baselines, and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints


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
        for name in ("k_risky", "lime_n", "lime_k_features", "folds", "repeats", "parallelism"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        for name in ("lime_sigma", "entropy_threshold_within", "entropy_threshold_cross"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lime_n < 2:
            raise ValueError("lime_n must be >= 2: the surrogate needs at least two neighbor samples")
        if self.lime_k_features < self.k_risky:
            raise ValueError("lime_k_features must be >= k_risky")


# each setting's type, in field order; the config file and the CLI flags parse values with it
FIELD_TYPES: dict[str, type] = get_type_hints(RunConfig)


def load_config_file(path: str | Path) -> dict[str, object]:
    """Parse a key=value config file; '#' starts a comment, blank lines ignored."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = FIELD_TYPES[key](value)
    return values


def make_config(file_path: str | Path | None = None, **overrides) -> RunConfig:
    """Build a RunConfig from an optional config file; explicit overrides win."""
    values: dict[str, object] = {}
    if file_path is not None:
        values.update(load_config_file(file_path))
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**values)

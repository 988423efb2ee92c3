"""Numerical acceptance thresholds, overridable through a config file.

The defaults reflect what an exactly-normalized table achieves: residuals
at machine precision, far under 1e-9.  Point the environment variable named by
``CONFIG_ENV_VAR`` at a ``key=value`` file to override any of them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ValidationError

CONFIG_ENV_VAR = "CONCEPT_INTERFERENCE_CONFIG"


@dataclass(frozen=True)
class Thresholds:
    orthogonality: float = 1e-9
    norm: float = 1e-9
    reconstruction: float = 1e-9

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (isinstance(value, (int, float)) and value > 0):
                raise ValidationError(
                    f"threshold {field.name} must be positive, got {value!r}"
                )

    @classmethod
    def from_file(cls, path: str | Path) -> "Thresholds":
        """Parse ``key=value`` lines; blank lines and '#' comments ignored."""
        known = {field.name for field in fields(cls)}
        overrides: dict[str, float] = {}
        for line_number, raw in enumerate(
            Path(path).read_text(encoding="utf-8").splitlines(), start=1
        ):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in known:
                raise ValidationError(
                    f"{path}, line {line_number}: expected '<name>=<value>' "
                    f"with name in {sorted(known)}, got {line!r}"
                )
            try:
                overrides[key] = float(value.strip())
            except ValueError as exc:
                raise ValidationError(
                    f"{path}, line {line_number}: non-numeric value {value.strip()!r}"
                ) from exc
        return cls(**overrides)

    @classmethod
    def from_env(cls) -> "Thresholds":
        """Thresholds from the file named by the env var, or the defaults."""
        path = os.environ.get(CONFIG_ENV_VAR)
        if not path:
            return cls()
        try:
            return cls.from_file(path)
        except OSError as exc:
            raise ValidationError(
                f"cannot read config file {path!r} from ${CONFIG_ENV_VAR}: {exc}"
            ) from exc

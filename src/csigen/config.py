"""Key-value text configuration files used by the command-line tools.

Syntax: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Consumers pop the keys they know; leftover keys are a
hard error so typos never pass silently.  Every number must be finite.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """Malformed configuration file or unknown/invalid key."""


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def load_config(path: str | Path) -> dict[str, str]:
    return parse_config_text(Path(path).read_text())


def format_config(entries: dict[str, object]) -> str:
    """Render entries back into config-file syntax (resolved-config copies)."""
    lines = []
    for key, value in entries.items():
        if isinstance(value, (list, tuple, np.ndarray)):
            value = ", ".join(repr(float(v)) for v in np.asarray(value).ravel())
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


_MISSING = object()


def _pop_raw(entries: dict[str, str], key: str, default):
    """The raw value of ``key``, removed from ``entries``; ``_MISSING`` when
    the key is absent and has a default."""
    raw = entries.pop(key, _MISSING)
    if raw is _MISSING and default is _MISSING:
        raise ConfigError(f"missing required config key {key!r}")
    return raw


def pop_int(entries: dict[str, str], key: str, default=_MISSING) -> int:
    raw = _pop_raw(entries, key, default)
    if raw is _MISSING:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: expected integer, got {raw!r}") from exc


def _finite(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: expected number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: expected a finite number, got {text!r}")
    return value


def pop_float(entries: dict[str, str], key: str, default=_MISSING) -> float:
    raw = _pop_raw(entries, key, default)
    if raw is _MISSING:
        return default
    return _finite(raw, key)


def pop_bool(entries: dict[str, str], key: str, default=_MISSING) -> bool:
    raw = _pop_raw(entries, key, default)
    if raw is _MISSING:
        return default
    lowered = str(raw).strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"config key {key!r}: expected boolean, got {raw!r}")


def pop_vector(entries: dict[str, str], key: str, length: int, default=_MISSING) -> np.ndarray:
    raw = _pop_raw(entries, key, default)
    if raw is _MISSING:
        return np.asarray(default, dtype=np.float64)
    parts = [p for p in raw.replace(",", " ").split() if p]
    if len(parts) != length:
        raise ConfigError(
            f"config key {key!r}: expected {length} comma-separated numbers, got {raw!r}"
        )
    return np.array([_finite(p, key) for p in parts])

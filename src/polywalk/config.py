"""Flat key = value configuration files for experiments.

Lines hold `key = value` pairs; `#` starts a comment; blank lines are
ignored.  Every consumer declares its allowed keys and unknown keys are
rejected, so a typo in an experiment file fails loudly instead of silently
running with defaults.
"""

from __future__ import annotations

from pathlib import Path


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        out[key] = value.strip()
    return out


class Config:
    """Typed access over a parsed key/value table."""

    def __init__(self, values: dict[str, str]):
        self.values = dict(values)

    @classmethod
    def from_path(cls, path: str | Path) -> Config:
        return cls(parse_config_text(Path(path).read_text(encoding="utf-8")))

    def require_known(self, allowed: set[str], prefixes: tuple[str, ...] = ()):
        for key in self.values:
            if key in allowed:
                continue
            if any(key.startswith(p) and key[len(p):].isdigit() for p in prefixes):
                continue
            raise ConfigError(f"unknown config key '{key}'")

    def override(self, key: str, value):
        if value is not None:
            self.values[key] = str(value)

    def has(self, key: str) -> bool:
        return key in self.values

    def get_str(self, key: str, default: str | None = None) -> str:
        if key in self.values:
            return self.values[key]
        if default is None:
            raise ConfigError(f"missing config key '{key}'")
        return default

    def get_int(self, key: str, default: int | None = None) -> int:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing config key '{key}'")
            return default
        try:
            return int(self.values[key])
        except ValueError:
            raise ConfigError(f"key '{key}' is not an integer: {self.values[key]!r}")

    def get_float(self, key: str, default: float | None = None) -> float:
        if key not in self.values:
            if default is None:
                raise ConfigError(f"missing config key '{key}'")
            return default
        try:
            return float(self.values[key])
        except ValueError:
            raise ConfigError(f"key '{key}' is not a number: {self.values[key]!r}")

    def get_int_list(self, key: str) -> list[int]:
        raw = self.get_str(key)
        try:
            return [int(x) for x in raw.replace(",", " ").split()]
        except ValueError:
            raise ConfigError(f"key '{key}' is not an integer list: {raw!r}")

    def indexed_keys(self, prefix: str) -> list[str]:
        """Keys prefix1, prefix2, ... in index order."""
        return sorted((key for key in self.values
                       if key.startswith(prefix) and key[len(prefix):].isdigit()),
                      key=lambda key: int(key[len(prefix):]))

    def indexed(self, prefix: str) -> list[str]:
        """Values of prefix1, prefix2, ... in index order."""
        return [self.values[key] for key in self.indexed_keys(prefix)]

"""Fail-closed construction of config dataclasses from parsed JSON."""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from typing import Any, get_type_hints

from .errors import ConfigurationError


def build_value(hint: type, value: Any, key_path: str, defaulted: list[str]):
    """``value`` as a ``hint``: a dataclass built from an object, or a scalar of
    that type (a bool is not an int, an int is a float, a float is finite)."""
    if is_dataclass(hint):
        return build_dataclass(hint, value, key_path, defaulted)
    if (
        not isinstance(value, (int, float) if hint is float else hint)
        or (isinstance(value, bool) and hint is not bool)
        or (isinstance(value, float) and not math.isfinite(value))
    ):
        expected = "a finite float" if hint is float else hint.__name__
        raise ConfigurationError(f"{key_path}: expected {expected}, got {value!r}")
    return value


def build_dataclass(cls, data: Any, path: str, defaulted: list[str]):
    """``cls`` from a JSON object; appends each defaulted key's path to ``defaulted``."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: expected an object, got {type(data).__name__}")
    hints = get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(f"{path}: unknown key(s) {unknown}; allowed: {sorted(known)}")
    kwargs = {}
    for f in fields(cls):
        key_path = f"{path}.{f.name}" if path else f.name
        if f.name in data:
            kwargs[f.name] = build_value(hints[f.name], data[f.name], key_path, defaulted)
        else:
            defaulted.append(key_path)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc

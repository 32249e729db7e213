"""Fail-closed construction of config dataclasses from parsed JSON."""

from __future__ import annotations

import json
import math
from dataclasses import Field, fields, is_dataclass
from typing import Any, Union, get_args, get_origin, get_type_hints

from .errors import ConfigurationError


def json_key(f: Field) -> str:
    """A field's JSON key: its ``metadata["key"]`` where one is set, else its name."""
    return f.metadata.get("key", f.name)


class _RepeatedKey(dict):
    """A JSON object in which the key ``repeated`` appears more than once."""


def load_json(text: str) -> Any:
    """``json.loads``; an object that repeats a key, at any depth, is one that
    ``build_dataclass`` refuses, naming the key's path."""

    def parse_object(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            obj = _RepeatedKey(obj)
            obj.repeated = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        return obj

    return json.loads(text, object_pairs_hook=parse_object)


def _refuse_repeated(obj: Any, path: str) -> None:
    """ConfigurationError naming the repeated key when ``obj``, at ``path``, repeats one."""
    if isinstance(obj, _RepeatedKey):
        raise ConfigurationError(f"{path + '.' if path else ''}{obj.repeated}: repeated key")


def refuse_repeated_keys(data: Any, path: str = "") -> Any:
    """``data``, a ``load_json`` document, unless an object in it repeats a key:
    then ConfigurationError naming the key's path, as ``build_dataclass`` does."""
    _refuse_repeated(data, path)
    if isinstance(data, dict):
        for key, value in data.items():
            refuse_repeated_keys(value, f"{path}.{key}" if path else key)
    elif isinstance(data, list):
        for i, value in enumerate(data):
            refuse_repeated_keys(value, f"{path}[{i}]")
    return data


def build_value(hint: type, value: Any, key_path: str, defaulted: list[str]):
    """``value`` as a ``hint``: a dataclass built from an object, a list of X for
    ``list[X]``, None or an X for ``Optional[X]``, or a scalar of that type (a
    bool is not an int, an int is a float, a float is finite)."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:  # Optional[X], the one union a config declares
        return None if value is None else build_value(args[0], value, key_path, defaulted)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigurationError(f"{key_path}: expected a list, got {value!r}")
        return [build_value(args[0], v, f"{key_path}[{i}]", defaulted) for i, v in enumerate(value)]
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
    """``cls`` from a JSON object; appends each defaulted key's path to ``defaulted``.
    An empty ``path`` is the top level of the document."""
    where = path or "top level"
    _refuse_repeated(data, path)
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where}: expected an object, got {type(data).__name__}")
    hints = get_type_hints(cls)
    names = {json_key(f): f.name for f in fields(cls)}
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ConfigurationError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(names)}")
    kwargs = {}
    for key, name in names.items():
        key_path = f"{path}.{key}" if path else key
        if key in data:
            kwargs[name] = build_value(hints[name], data[key], key_path, defaulted)
        else:
            defaulted.append(key_path)
    try:
        return cls(**kwargs)
    except (TypeError, ConfigurationError) as exc:  # a missing field or a failed range check
        raise ConfigurationError(f"{where}: {exc}") from exc

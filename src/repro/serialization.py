"""Canonical serialization and fingerprinting of configuration dataclasses.

Every configuration object in the simulator is a frozen dataclass built from
ints, floats, bools, strings, enums and nested configuration dataclasses.
This module provides one canonical mapping of such objects to plain dicts
(:func:`to_dict`), the inverse (:func:`from_dict`), and a stable
content-addressed hash (:func:`fingerprint`) suitable for cache keys.

The fingerprint is computed over the canonical JSON rendering of the full
field tree, so *every* field of *every* nested config participates --
unlike the hand-maintained ``_config_key`` tuple it replaces, which silently
ignored the memory-system and branch-predictor configurations and let
configs differing only in those fields collide in the result cache.

:class:`SerializableConfig` is a mixin that exposes the three operations as
methods; the concrete config classes
(:class:`~repro.core.config.MachineConfig`,
:class:`~repro.integration.config.IntegrationConfig`,
:class:`~repro.memsys.hierarchy.MemSysConfig`,
:class:`~repro.frontend.branch_predictor.BranchPredictorConfig`, ...)
inherit it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import typing
from typing import Any, Dict, Type, TypeVar

T = TypeVar("T")


def to_dict(config: Any) -> Any:
    """Recursively convert a configuration dataclass to plain JSON types.

    Enums serialize to their ``value``; nested dataclasses to nested dicts.
    Fields named in the class's ``_ELIDE_DEFAULT`` set are *omitted* while
    they hold their default value: such fields extend a configuration class
    without perturbing the canonical JSON -- and therefore the fingerprint
    and every cache key -- of configurations that do not use them (the
    ``variant`` field relies on this so pre-variant cache entries keep
    resolving for the baseline machine).
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        elide = getattr(type(config), "_ELIDE_DEFAULT", ())
        out = {}
        for f in dataclasses.fields(config):
            value = getattr(config, f.name)
            if (f.name in elide and f.default is not dataclasses.MISSING
                    and value == f.default):
                continue
            out[f.name] = to_dict(value)
        return out
    if isinstance(config, enum.Enum):
        return config.value
    if isinstance(config, (list, tuple)):
        return [to_dict(item) for item in config]
    if config is None or isinstance(config, (bool, int, float, str)):
        return config
    raise TypeError(
        f"cannot serialize {type(config).__name__} ({config!r}) -- "
        f"configuration fields must be JSON scalars, enums or dataclasses")


def from_dict(cls: Type[T], data: Dict[str, Any]) -> T:
    """Rebuild a configuration dataclass from :func:`to_dict` output.

    Unknown keys are rejected (they indicate a version mismatch); missing
    keys fall back to the dataclass defaults.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"{cls!r} is not a dataclass")
    types = _field_types(cls)
    unknown = data.keys() - types.keys()
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} fields: {sorted(unknown)}")
    kwargs = {name: _coerce(types[name], value)
              for name, value in data.items()}
    return cls(**kwargs)


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Dict[str, Any]:
    """Field name -> resolved annotation of a dataclass, decoded once per
    class: resolving string annotations is most of a cold
    :func:`from_dict`."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _coerce(annotation: Any, value: Any) -> Any:
    """Convert one JSON value back to its annotated field type."""
    origin = typing.get_origin(annotation)
    if origin is typing.Union:
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        if value is None:
            return None
        annotation = args[0]
    if isinstance(annotation, type):
        if dataclasses.is_dataclass(annotation):
            return from_dict(annotation, value)
        if issubclass(annotation, enum.Enum):
            return annotation(value)
    if origin in (list, tuple):
        item_types = typing.get_args(annotation)
        item = item_types[0] if item_types else Any
        converted = [_coerce(item, v) for v in value]
        return tuple(converted) if origin is tuple else converted
    return value


def canonical_json(config: Any) -> str:
    """Deterministic JSON rendering used for fingerprinting."""
    payload = {"__config__": type(config).__name__, "fields": to_dict(config)}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint(config: Any) -> str:
    """Stable 16-hex-digit content hash of a configuration object."""
    digest = hashlib.sha256(canonical_json(config).encode("utf-8"))
    return digest.hexdigest()[:16]


class SerializableConfig:
    """Mixin giving a config dataclass canonical serde + fingerprinting."""

    def to_dict(self) -> Dict[str, Any]:
        return to_dict(self)

    @classmethod
    def from_dict(cls: Type[T], data: Dict[str, Any]) -> T:
        return from_dict(cls, data)

    def fingerprint(self) -> str:
        return fingerprint(self)

"""Flat key-value configuration for the CLI and the External-Interface contract.

Accepted file syntax: one ``key = value`` pair per line ('#' comments, blank
lines ignored), or a flat JSON object.  Overrides arrive as repeatable
``key=value`` strings and are validated against the owning module's parameter
domain before anything runs; unknown keys are rejected.

The keys, defaults and parsers of the four config objects come from their
dataclass fields: a key names a field (relay knobs carry a ``tf.`` prefix), a
missing key gives the field's default, and the default's type picks the
parser.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .core import ChannelParams, ProtocolParams
from .errors import ConfigError, ParameterError
from .proto_bb84 import SessionConfig
from .proto_tf import TfConfig

_SESSION_SIZE = 100_000  # n_qubits / n_pulses of a simulation whose config omits it


def _tf_key(name: str) -> str:
    return name if name in ("n_pulses", "rng_seed") else f"tf.{name}"


def _keys(cls: type, key: Callable[[str], str] = str) -> tuple[str, ...]:
    """Config keys of the scalar fields of ``cls`` (a nested config is skipped)."""
    return tuple(key(f.name) for f in fields(cls) if not is_dataclass(f.default))


CHANNEL_KEYS = _keys(ChannelParams)
PROTOCOL_KEYS = _keys(ProtocolParams)
BB84_KEYS = _keys(SessionConfig)
TF_KEYS = _keys(TfConfig, _tf_key)
CURVE_KEYS = ("l_min", "l_max", "l_step")
SIGMA_KEYS = ("k_min", "k_max", "p", "n_bits")
SQUEEZE_KEYS = ("k", "bits_format")


def load_flat_config(path: str | Path) -> dict[str, str]:
    """Read a flat config file into a string-to-string mapping."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: JSON config must be a flat object")
        return {str(k): _scalar_to_str(path, k, v) for k, v in obj.items()}

    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _scalar_to_str(path, key, v) -> str:
    if isinstance(v, (str, int, float, bool)):
        return str(v)
    raise ConfigError(f"{path}: key {key!r} must be a scalar")


def apply_overrides(cfg: Mapping[str, str], sets: Iterable[str]) -> dict[str, str]:
    merged = dict(cfg)
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    return merged


def reject_unknown(cfg: Mapping[str, str], allowed: Iterable[str]) -> None:
    allowed_set = set(allowed)
    unknown = sorted(k for k in cfg if k not in allowed_set)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _float(cfg: Mapping[str, str], key: str, default: float) -> float:
    raw = cfg.get(key)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}") from exc
    if math.isnan(value):
        raise ConfigError(f"key {key!r}: not a number: {raw!r}")
    return value


def _int(cfg: Mapping[str, str], key: str, default: int) -> int:
    raw = cfg.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        as_float = float(raw)  # allow 1e6-style counts
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}") from exc
    if not as_float.is_integer():
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}")
    return int(as_float)


def _bool(cfg: Mapping[str, str], key: str, default: bool) -> bool:
    raw = cfg.get(key)
    if raw is None:
        return default
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: not a boolean: {raw!r}")


_PARSERS = {float: _float, int: _int, bool: _bool}


def _build(cls: type, cfg: Mapping[str, str], key: Callable[[str], str] = str, **given):
    """``cls`` with each field not ``given`` read from ``cfg`` under ``key(name)``."""
    values = {
        f.name: _PARSERS[type(f.default)](cfg, key(f.name), f.default)
        for f in fields(cls) if f.name not in given
    }
    try:
        return cls(**values, **given)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def channel_from_mapping(cfg: Mapping[str, str]) -> ChannelParams:
    return _build(ChannelParams, cfg)


def protocol_from_mapping(cfg: Mapping[str, str]) -> ProtocolParams:
    return _build(ProtocolParams, cfg)


def bb84_from_mapping(cfg: Mapping[str, str], seed: int | None = None) -> SessionConfig:
    return _build(
        SessionConfig, cfg,
        n_qubits=_int(cfg, "n_qubits", _SESSION_SIZE),
        channel=channel_from_mapping(cfg),
        **({} if seed is None else {"rng_seed": seed}),
    )


def tf_from_mapping(cfg: Mapping[str, str], seed: int | None = None) -> TfConfig:
    return _build(
        TfConfig, cfg, _tf_key,
        n_pulses=_int(cfg, "n_pulses", _SESSION_SIZE),
        **({} if seed is None else {"rng_seed": seed}),
    )

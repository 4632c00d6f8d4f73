"""Run configuration: nested frozen dataclasses with a flat dotted-key view.

Config files are YAML (JSON is a subset) and may use nested mappings,
dotted flat keys, or a mix. CLI overrides are ``--set key=value`` with the
same dotted keys; values parse as YAML scalars and are coerced to the field
type. The fingerprint is a hash of the canonical config dict, so it changes
exactly when some setting changes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .errors import ConfigError
from .reid import DEFAULT_TOMBSTONE_CAP, canonical_json


@dataclass(frozen=True)
class ArenaConfig:
    width: float = 25.0
    height: float = 25.0
    # Obstacles as (x0, y0, x1, y1) in arena coordinates (origin-centered).
    obstacles: tuple[tuple[float, float, float, float], ...] = ()


@dataclass(frozen=True)
class RobotConfig:
    count: int = 4
    speed: float = 1.0
    fov_half_angle: float = math.pi / 4
    sensing_range: float = 6.0
    comm_range: float = 8.0
    lambda_turn: float = 0.15


@dataclass(frozen=True)
class PeopleConfig:
    count: int = 6
    speed: float = 0.6
    lambda_turn: float = 0.25
    distinct_outfits: bool = False


@dataclass(frozen=True)
class PerceptionConfig:
    description_period: int = 10
    max_gap_ticks: int = 10
    p_track_break: float = 0.01


@dataclass(frozen=True)
class NoiseConfig:
    p_drop: float = 0.0
    p_synonym: float = 0.0
    p_color_confusion: float = 0.0


@dataclass(frozen=True)
class ThresholdConfig:
    theta_local: float = 0.8
    theta_merge: float = 0.8


@dataclass(frozen=True)
class ProviderEndpoint:
    transport: str = "subprocess"  # "subprocess" | "http"
    command: tuple[str, ...] = ()
    url: str = ""


@dataclass(frozen=True)
class ProvidersConfig:
    describer: ProviderEndpoint | None = None
    embedder: ProviderEndpoint | None = None
    summarizer: ProviderEndpoint | None = None


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    duration_ticks: int = 6000
    dt: float = 0.1
    arena: ArenaConfig = field(default_factory=ArenaConfig)
    robots: RobotConfig = field(default_factory=RobotConfig)
    people: PeopleConfig = field(default_factory=PeopleConfig)
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    exchange_cooldown_ticks: int = 50
    communication_enabled: bool = True
    mode: str = "text"  # "text" | "vector-baseline"
    tombstone_cap: int = DEFAULT_TOMBSTONE_CAP
    providers: ProvidersConfig = field(default_factory=ProvidersConfig)


_PROVIDER_FIELDS = ("describer", "embedder", "summarizer")


def _to_dict(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj):
        return {f.name: _to_dict(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_to_dict(v) for v in obj]
    return obj


def to_dict(config: SimConfig) -> dict:
    return _to_dict(config)


def fingerprint(config: SimConfig) -> str:
    return hashlib.sha256(canonical_json(to_dict(config)).encode("utf-8")).hexdigest()


def _coerce(value: Any, target_type: Any, key: str) -> Any:
    """Coerce a YAML scalar into the annotated field type."""
    if target_type is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key}: expected an integer, got {value!r}")
        return value
    if target_type is float:
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            try:
                number = float(value)
            except (ValueError, OverflowError):
                number = math.nan
            # YAML 1.1 reads 1e-9 and 1.0e6 as strings, and .inf and .nan as
            # floats: a value is taken only when it gives a finite float.
            if math.isfinite(number):
                return number
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if target_type is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        return value
    return value


def _set_on_dataclass(obj: Any, path: list[str], value: Any, key: str) -> Any:
    """Return a copy of a (possibly nested) frozen dataclass with one field set."""
    name = path[0]
    fields = {f.name: f for f in dataclasses.fields(obj)}
    if name not in fields:
        raise ConfigError(f"unknown config key {key!r}")
    current = getattr(obj, name)
    is_provider = isinstance(obj, ProvidersConfig) and name in _PROVIDER_FIELDS
    if len(path) == 1:
        if name == "obstacles":
            value = _coerce_obstacles(value, key)
        elif name == "command":
            if isinstance(value, str):
                value = tuple(value.split())
            elif isinstance(value, (list, tuple)):
                value = tuple(str(v) for v in value)
            else:
                raise ConfigError(f"{key}: expected a string or a list, got {value!r}")
        elif is_provider:
            if value is not None:
                if not isinstance(value, dict):
                    raise ConfigError(f"{key}: expected a mapping or null")
                value = _fold(ProviderEndpoint(), value, key + ".")
        elif dataclasses.is_dataclass(current):
            raise ConfigError(f"{key!r} is a section, not a settable value")
        else:
            value = _coerce(value, type(current), key)
        return dataclasses.replace(obj, **{name: value})
    if current is None and is_provider:
        current = ProviderEndpoint()
    if not dataclasses.is_dataclass(current):
        raise ConfigError(f"{key!r} indexes into a plain value")
    return dataclasses.replace(obj, **{name: _set_on_dataclass(current, path[1:], value, key)})


def _coerce_obstacles(value: Any, key: str) -> tuple:
    if isinstance(value, str):
        value = yaml.safe_load(value)
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: expected a list of [x0, y0, x1, y1] rectangles")
    out = []
    for i, item in enumerate(value):
        if not (isinstance(item, (list, tuple)) and len(item) == 4):
            raise ConfigError(f"{key}: bad rectangle {item!r}")
        out.append(tuple(_coerce(v, float, f"{key}[{i}]") for v in item))
    return tuple(out)


def set_value(config: SimConfig, dotted_key: str, value: Any) -> SimConfig:
    """Copy of the config with one flat key changed."""
    path = dotted_key.split(".")
    return _set_on_dataclass(config, path, value, dotted_key)


def apply_overrides(config: SimConfig, pairs: list[str]) -> SimConfig:
    """Apply ``key=value`` strings; values parse as YAML scalars."""
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not of the form key=value")
        key, _, raw = pair.partition("=")
        try:
            value = yaml.safe_load(raw)
        except yaml.YAMLError:
            value = raw
        config = set_value(config, key.strip(), value)
    return config


def _flatten(mapping: dict, prefix: str = "") -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for k, v in mapping.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict) and k not in ("obstacles",):
            flat.update(_flatten(v, key + "."))
        else:
            flat[key] = v
    return flat


def _fold(obj: Any, mapping: dict, prefix: str = "") -> Any:
    """Copy of a config dataclass with every flat key of ``mapping`` set."""
    for key, value in sorted(_flatten(mapping).items()):
        obj = _set_on_dataclass(obj, key.split("."), value, prefix + key)
    return obj


def from_dict(d: dict) -> SimConfig:
    """Config from a (possibly nested) mapping over the defaults; unknown
    keys and mistyped values raise ConfigError."""
    return _fold(SimConfig(), d)


def load_config(path: str | Path) -> SimConfig:
    """Load a YAML/JSON config file over the defaults; a file that is not
    UTF-8 or not YAML raises ConfigError naming it."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = "" if mark is None else f" (line {mark.line + 1}, column {mark.column + 1})"
        raise ConfigError(f"config file {path} is not YAML{where}") from None
    if raw is None:
        return SimConfig()
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must contain a mapping")
    return from_dict(raw)


def validate(config: SimConfig) -> list[str]:
    """All constraint violations as ``key: problem`` strings."""
    problems = []

    def check(cond: bool, key: str, message: str) -> None:
        if not cond:
            problems.append(f"{key}: {message}")

    check(config.seed >= 0, "seed", "must be non-negative")
    check(config.duration_ticks >= 0, "duration_ticks", "must be non-negative")
    check(config.dt > 0, "dt", "must be positive")
    check(config.arena.width > 0, "arena.width", "must be positive")
    check(config.arena.height > 0, "arena.height", "must be positive")
    for i, (x0, y0, x1, y1) in enumerate(config.arena.obstacles):
        ok = x0 < x1 and y0 < y1
        check(ok, f"arena.obstacles[{i}]", "degenerate rectangle")
        if ok:
            inside = (abs(x0) <= config.arena.width / 2 and abs(x1) <= config.arena.width / 2
                      and abs(y0) <= config.arena.height / 2 and abs(y1) <= config.arena.height / 2)
            check(inside, f"arena.obstacles[{i}]", "outside the arena")
    check(config.robots.count >= 1, "robots.count", "must be at least 1")
    check(config.robots.speed >= 0, "robots.speed", "must be non-negative")
    check(0 < config.robots.fov_half_angle <= math.pi,
          "robots.fov_half_angle", "must be in (0, pi]")
    check(config.robots.sensing_range > 0, "robots.sensing_range", "must be positive")
    check(config.robots.comm_range > 0, "robots.comm_range", "must be positive")
    check(config.robots.lambda_turn >= 0, "robots.lambda_turn", "must be non-negative")
    check(config.people.count >= 1, "people.count", "must be at least 1")
    check(config.people.speed >= 0, "people.speed", "must be non-negative")
    check(config.people.lambda_turn >= 0, "people.lambda_turn", "must be non-negative")
    check(config.perception.description_period >= 1,
          "perception.description_period", "must be at least 1")
    check(config.perception.max_gap_ticks >= 0,
          "perception.max_gap_ticks", "must be non-negative")
    for key in ("p_track_break",):
        v = getattr(config.perception, key)
        check(0 <= v <= 1, f"perception.{key}", "must be in [0, 1]")
    for key in ("p_drop", "p_synonym", "p_color_confusion"):
        v = getattr(config.noise, key)
        check(0 <= v <= 1, f"noise.{key}", "must be in [0, 1]")
    for key in ("theta_local", "theta_merge"):
        v = getattr(config.thresholds, key)
        check(0 <= v <= 1, f"thresholds.{key}", "must be in [0, 1]")
    check(config.exchange_cooldown_ticks >= 1,
          "exchange_cooldown_ticks", "must be at least 1")
    check(config.mode in ("text", "vector-baseline"),
          "mode", "must be 'text' or 'vector-baseline'")
    check(config.tombstone_cap >= 0, "tombstone_cap", "must be non-negative")
    for name in ("describer", "embedder", "summarizer"):
        ep = getattr(config.providers, name)
        if ep is None:
            continue
        check(ep.transport in ("subprocess", "http"),
              f"providers.{name}.transport", "must be 'subprocess' or 'http'")
        if ep.transport == "subprocess":
            check(bool(ep.command), f"providers.{name}.command", "must be non-empty")
        if ep.transport == "http":
            check(bool(ep.url), f"providers.{name}.url", "must be non-empty")
    return problems


def require_valid(config: SimConfig) -> None:
    problems = validate(config)
    if problems:
        raise ConfigError("invalid config: " + "; ".join(problems))

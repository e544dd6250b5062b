"""Run configuration files: YAML schema, validation, and normalization.

A config file is a declarative mirror of :class:`PipelineConfig`.  Loading
fills documented defaults, rejects unknown keys, validates every value,
builds the environment, and keeps a normalized dict whose key order and
value types are canonical, so normalization is idempotent and the
normalized form round-trips through serialization unchanged.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import re
from pathlib import Path
from typing import Any, Callable, TypeVar

import yaml

from .bandit import BanditConfig
from .environments import ENVIRONMENT_CLASSES, make_environment
from .mixing import Stage2Config
from .pipeline import PipelineConfig
from .runlog import SettingError

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending key."""

    subject = "config key"

    def __init__(self, key: str, problem: str):
        super().__init__(f"{self.subject} '{key}': {problem}")
        self.key = key


class ConfigFileError(ConfigError):
    """A config file that cannot be read, is not YAML or is not a mapping;
    no key is at fault, so the message names the file, and ``key`` is its path."""

    subject = "config file"


def _as_int(key: str, value: Any) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(key, f"expected an integer, got {value!r}")
    return value


# A YAML 1.2 float with an exponent, which PyYAML (YAML 1.1) leaves as a
# string unless it has a dot and a signed exponent: 1e6, 1.5e6, -2E-3.
_EXPONENT_FLOAT = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)[eE][-+]?[0-9]+")


def _as_float(key: str, value: Any) -> float:
    if isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(key, f"expected a finite number, got {value!r}")
    return out


def _as_str(key: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ConfigError(key, f"expected a string, got {value!r}")
    return value


def _float_list(key: str, value: Any) -> list[float]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(key, f"expected a non-empty list of numbers, got {value!r}")
    return [_as_float(f"{key}[{i}]", v) for i, v in enumerate(value)]


def _str_list(key: str, value: Any) -> list[str]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(key, f"expected a non-empty list of strings, got {value!r}")
    return [_as_str(f"{key}[{i}]", v) for i, v in enumerate(value)]


# Each field: (default, coercer); key order is the canonical order of the
# normalized form.  A default of None means the key is omitted unless given.
Field = tuple[Any, Callable[[str, Any], Any]]

# Coercer per annotation, as the string that ``from __future__ import
# annotations`` leaves on the dataclasses and environment constructors.
_COERCERS: dict[str, Callable[[str, Any], Any]] = {
    "int": _as_int,
    "float": _as_float,
    "Sequence[float]": _float_list,
    "Sequence[str]": _str_list,
}


def _field(owner: type, name: str, annotation: Any, default: Any) -> Field:
    if annotation not in _COERCERS:
        raise TypeError(f"{owner.__name__}.{name}: no config coercer for {annotation!r}")
    return default, _COERCERS[annotation]


def _dataclass_fields(cls: type) -> dict[str, Field]:
    return {
        f.name: _field(cls, f.name, f.type, None if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(cls)
    }


def _constructor_fields(cls: type) -> dict[str, Field]:
    """The constructor's parameters, less ``batches_per_round``, which
    :func:`make_environment` takes from the bandit section."""
    return {
        p.name: _field(cls, p.name, p.annotation, None if p.default is p.empty else p.default)
        for p in inspect.signature(cls).parameters.values()
        if p.name != "batches_per_round"
    }


_BANDIT_FIELDS = _dataclass_fields(BanditConfig)  # n_tasks: derived from the environment
_STAGE2_FIELDS = _dataclass_fields(Stage2Config)
_ENV_FIELDS = {family: _constructor_fields(cls) for family, cls in ENVIRONMENT_CLASSES.items()}
_DEFAULT_MODE = PipelineConfig.mode


def _normalize_section(
    raw: Any, fields: dict[str, Field], prefix: str
) -> dict[str, Any]:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(prefix, f"expected a mapping, got {raw!r}")
    for key in raw:
        if key not in fields:
            raise ConfigError(f"{prefix}.{key}", "unknown key")
    out: dict[str, Any] = {}
    for key, (default, coerce) in fields.items():
        if key in raw:
            out[key] = coerce(f"{prefix}.{key}", raw[key])
        elif default is not None:
            out[key] = coerce(f"{prefix}.{key}", default)
    return out


# The key whose length fixes each family's task count, and so bandit.n_tasks.
_TASK_LIST_KEY = {"planted": "theta_star", "shared-linear": "task_profile"}


def _env_n_tasks(env: dict) -> int:
    return len(env[_TASK_LIST_KEY[env["family"]]])


def _normal_form(raw: dict | None) -> dict:
    """Fill defaults, check keys and types, and order keys canonically; idempotent."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("<root>", f"expected a mapping at top level, got {raw!r}")
    known_top = {"schema_version", "mode", "output_dir", "environment", "bandit", "stage2"}
    for key in raw:
        if key not in known_top:
            raise ConfigError(key, "unknown key")

    version = _as_int("schema_version", raw.get("schema_version", CONFIG_SCHEMA_VERSION))
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(
            "schema_version", f"unsupported version {version}; this build reads {CONFIG_SCHEMA_VERSION}"
        )

    mode = _as_str("mode", raw.get("mode", _DEFAULT_MODE))

    output_dir = raw.get("output_dir")
    if output_dir is not None:
        output_dir = _as_str("output_dir", output_dir)

    env_raw = raw.get("environment")
    if env_raw is None:
        env_raw = {}
    if not isinstance(env_raw, dict):
        raise ConfigError("environment", f"expected a mapping, got {env_raw!r}")
    family = _as_str("environment.family", env_raw.get("family", "planted"))
    if family not in _ENV_FIELDS:
        raise ConfigError(
            "environment.family",
            f"must be one of {sorted(_ENV_FIELDS)}, got {family!r}",
        )
    env_rest = {k: v for k, v in env_raw.items() if k != "family"}
    environment = {"family": family}
    environment.update(_normalize_section(env_rest, _ENV_FIELDS[family], "environment"))

    # n_tasks, BanditConfig's first field, defaults to the environment's task count.
    bandit = {
        "n_tasks": _env_n_tasks(environment),
        **_normalize_section(raw.get("bandit"), _BANDIT_FIELDS, "bandit"),
    }

    stage2 = _normalize_section(raw.get("stage2"), _STAGE2_FIELDS, "stage2")

    return {
        "schema_version": version,
        "mode": mode,
        "output_dir": output_dir,
        "environment": environment,
        "bandit": bandit,
        "stage2": stage2,
    }


T = TypeVar("T")


def _build(
    normalized: dict, section: str, make: Callable[..., T], /, *args: Any, **kwargs: Any
) -> T:
    """``make(*args, **kwargs)``, with a rejected setting reported under its key.

    A :class:`SettingError` becomes a :class:`ConfigError` for
    ``section.field``; the top-level section ``"<root>"`` names dotted keys
    as its fields.  Any other ``ValueError`` is reported under ``section``.
    """
    try:
        return make(*args, **kwargs)
    except SettingError as exc:
        key = exc.field if section == "<root>" else f"{section}.{exc.field}"
        problem = str(exc)
        env = normalized["environment"]
        if exc.field == "n_tasks" and normalized["bandit"]["n_tasks"] == _env_n_tasks(env):
            # n_tasks is the environment's own task count, so the
            # environment's task list is what has to change.
            key = f"environment.{_TASK_LIST_KEY[env['family']]}"
            problem = f"the environment defines {_env_n_tasks(env)} task(s): {problem}"
        raise ConfigError(key, problem) from exc
    except ValueError as exc:
        raise ConfigError(section, str(exc)) from exc


def to_pipeline_config(raw: dict | None) -> PipelineConfig:
    """The config loader: a raw or normalized config dict as a runnable
    :class:`PipelineConfig`, with its normal form and its environment, built
    once.  Raises :class:`ConfigError`, naming the offending key, for any
    unknown key, type mismatch or invariant violation."""
    normalized = _normal_form(raw)
    bandit = _build(normalized, "bandit", BanditConfig, **normalized["bandit"])
    stage2 = _build(normalized, "stage2", Stage2Config, **normalized["stage2"])
    environment = normalized["environment"]
    env = _build(normalized, "environment", make_environment, environment, bandit.batches_per_round)
    return _build(
        normalized,
        "<root>",
        PipelineConfig,
        bandit=bandit,
        stage2=stage2,
        env=env,
        mode=normalized["mode"],
        normalized=normalized,
    )


def normalize(raw: dict | None) -> dict:
    """Fill defaults, validate, and order keys canonically; raises as :func:`to_pipeline_config`."""
    return to_pipeline_config(raw).normalized


def apply_overrides(raw: dict, overrides: dict[str, str]) -> dict:
    """Apply dotted-key overrides (values parsed as YAML scalars) to a raw config."""
    out = copy.deepcopy(raw) if raw else {}
    for dotted, text in overrides.items():
        parts = dotted.split(".")
        if not all(parts):
            raise ConfigError(dotted, "override key must be non-empty dotted path")
        node = out
        for p in parts[:-1]:
            nxt = node.get(p)
            if nxt is None:
                nxt = {}
                node[p] = nxt
            if not isinstance(nxt, dict):
                raise ConfigError(dotted, f"cannot descend into non-mapping at '{p}'")
            node = nxt
        try:
            value = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(dotted, f"unparseable override value {text!r}: {exc}") from exc
        node[parts[-1]] = value
    return out


def read_config(path: str | Path, overrides: dict[str, str] | None = None) -> dict:
    """Read a YAML config file and apply overrides, without normalizing.

    Raises :class:`ConfigFileError` for an unreadable or non-UTF-8 file, a
    YAML syntax error or a top level that is not a mapping, and
    :class:`ConfigError` for a bad override.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigFileError(str(path), f"cannot read it: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigFileError(str(path), f"invalid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigFileError(str(path), "top level of the config must be a mapping")
    return apply_overrides(raw, overrides) if overrides else raw


def load_config(path: str | Path, overrides: dict[str, str] | None = None) -> dict:
    """Read a YAML config file, apply overrides, and normalize."""
    return normalize(read_config(path, overrides))


def dump_config(normalized: dict) -> str:
    """Serialize a normalized config as stable YAML (insertion order kept)."""
    return yaml.safe_dump(normalized, sort_keys=False, default_flow_style=False)

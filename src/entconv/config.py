"""Run configuration for the CLI: one check against the schema, and the document is the configuration.

``config_schema.json`` next to this module is the one statement of what a
document may hold, with units.  ``load_config`` writes the command-line flags
over the fields they set (``--seed`` over ``seed``, ``--out`` over
``output.path``, ...) and checks the result once against the schema, with
JSON's numbers: a boolean is not a number, an integer-valued float is an
integer, NaN and infinities are not numbers, and an integer of any size meets
the bounds exactly.  ``config_from_dict`` returns the checked document with its
protocol section, when present and not null, as a ``ProtocolSpec``.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from pathlib import Path

from .cavity import CavityParams
from .protocols import ProtocolSpec


class ConfigError(ValueError):
    """Invalid or missing configuration input (CLI exit code 2)."""


_TYPE_NAMES = {"object": "an object", "array": "an array", "string": "a string", "integer": "an integer",
               "number": "a number", "boolean": "a boolean", "null": "null"}
_PYTHON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "null": type(None)}
_BOUNDS = (("minimum", operator.ge, ">="), ("exclusiveMinimum", operator.gt, ">"), ("maximum", operator.le, "<="))


def _is_type(value, name: str) -> bool:
    if name == "number":
        finite = isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
        return finite and not isinstance(value, bool)
    if name == "integer":
        return _is_type(value, "number") and (isinstance(value, int) or value.is_integer())
    return isinstance(value, _PYTHON_TYPES[name])


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


def _checked(schema: dict, value, path: str = ""):
    """``value`` as ``schema`` accepts it, an integer made an int and any other number a float; else a ConfigError naming ``path``."""
    where = path or "config"
    types = schema.get("type", [])
    types = [types] if isinstance(types, str) else types
    if types and not any(_is_type(value, name) for name in types):
        raise ConfigError(f"{where} must be {' or '.join(_TYPE_NAMES[name] for name in types)}")
    if "integer" in types and _is_type(value, "integer"):
        value = int(value)
    if "enum" in schema and value not in schema["enum"]:
        raise ConfigError(f"{where} must be one of {schema['enum']}")
    if _is_type(value, "number"):
        for keyword, holds, relation in _BOUNDS:
            if keyword in schema and not holds(value, schema[keyword]):
                raise ConfigError(f"{where} must be {relation} {schema[keyword]}")
        if "number" in types:   # a number field's bounds keep it within the float range
            value = float(value)
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise ConfigError(f"{where} must have at least {schema['minItems']} items")
        if len(value) > schema.get("maxItems", math.inf):
            raise ConfigError(f"{where} must have at most {schema['maxItems']} items")
        value = [_checked(schema.get("items", {}), item, f"{where}[{i}]") for i, item in enumerate(value)]
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        unknown = sorted(set(value) - set(properties))
        if unknown and schema.get("additionalProperties") is False:
            raise ConfigError(f"unknown {where} keys: {unknown}")
        for name in schema.get("required", []):
            if name not in value:
                raise ConfigError(f"{_join(path, name)} is required")
        value = {name: _checked(properties.get(name, {}), v, _join(path, name)) for name, v in value.items()}
    return value


@functools.cache
def _schema() -> dict:
    return json.loads(schema_path().read_text())


def config_from_dict(data) -> dict:
    """The document as the schema accepts it, its protocol section (when not null) a ``ProtocolSpec``."""
    data = _checked(_schema(), data)
    protocol = data.get("protocol")
    if protocol is not None:
        if "params" in protocol:
            protocol = {**protocol, "params": CavityParams(**protocol["params"])}
        data["protocol"] = ProtocolSpec(**protocol)
    return data


def _write_field(data, field_path: str, value) -> None:
    """Set a dotted field; an absent or null section becomes an object, any other non-object is left as it is."""
    *sections, name = field_path.split(".")
    for section in sections:
        if isinstance(data, dict) and data.get(section) is None:
            data[section] = {}
        data = data.get(section) if isinstance(data, dict) else None
    if isinstance(data, dict):
        data[name] = value


def load_config(path: str | Path | None, flags: dict | None = None) -> dict:
    """The document at ``path`` (empty for None), each non-None flag written over its dotted field, checked once."""
    data = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read config: {err}") from err
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as err:   # ValueError also for an integer past int()'s digit limit
            raise ConfigError(f"malformed config JSON: {err}") from err
    for field_path, value in (flags or {}).items():
        if value is not None:
            _write_field(data, field_path, value)
    return config_from_dict(data)


def schema_path() -> Path:
    return Path(__file__).with_name("config_schema.json")

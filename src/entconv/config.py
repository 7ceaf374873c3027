"""Run configuration for the CLI: JSON (de)serialization plus validation.

The accepted document shape, with units, is described in
``config_schema.json`` next to this module.  Command-line flags override
config fields.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .cavity import CavityParams
from .protocols import ProtocolSpec


class ConfigError(ValueError):
    """Invalid or missing configuration input (CLI exit code 2)."""


# Upper bounds of the config's counts; config_schema.json states the same.
MAX_TRIALS = 2**63 - 1     # the largest count rng.multinomial takes
MAX_SWEEP_STEPS = 200      # a grid pass holds ~2 kB per grid point: ~110 MB at 200x200


@dataclass(frozen=True)
class SweepGrid:
    g_over_kappa: tuple[float, float]
    g_over_gamma: tuple[float, float]
    steps: int

    def __post_init__(self) -> None:
        for name in ("g_over_kappa", "g_over_gamma"):
            lo, hi = getattr(self, name)
            if not (0 < lo < math.inf and 0 < hi < math.inf):
                raise ConfigError(f"sweep range {name} must be positive and finite")
        if not 2 <= self.steps <= MAX_SWEEP_STEPS:
            raise ConfigError(f"sweep steps must be between 2 and {MAX_SWEEP_STEPS}")


@dataclass(frozen=True)
class OutputSpec:
    path: str | None = None
    format: str | None = None   # None: command default (json for run, csv for tables)

    def __post_init__(self) -> None:
        if not isinstance(self.path, (str, type(None))):
            raise ConfigError("output.path must be a string")
        if self.format not in (None, "csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")


@dataclass(frozen=True)
class RunConfig:
    protocol: ProtocolSpec | None = None
    sweep: SweepGrid | None = None
    trials: int = 1
    seed: int | None = None
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self) -> None:
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must be between 1 and {MAX_TRIALS}")


def _check_keys(section: str, data: dict, allowed: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")


def _integer(name: str, value) -> int:
    """An integer field; like JSON Schema, a float with no fractional part counts."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer")
    return value


def _number(name: str, value):
    """A number field; a JSON boolean is not a number, nor is an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} is beyond the float range")
    return value


def _protocol_from_dict(data: dict) -> ProtocolSpec:
    _check_keys(
        "protocol",
        data,
        {"n_photons", "max_iterations", "gate_mode", "homodyne_mode", "params", "theta", "alpha", "standardize_flipped"},
    )
    if "n_photons" not in data:
        raise ConfigError("protocol.n_photons is required")
    kwargs = dict(data)
    for name, check in (("n_photons", _integer), ("max_iterations", _integer), ("theta", _number), ("alpha", _number)):
        if name in kwargs:
            kwargs[name] = check(f"protocol.{name}", kwargs[name])
    if not isinstance(kwargs.get("standardize_flipped", False), bool):
        raise ConfigError("protocol.standardize_flipped must be a boolean")
    try:
        if "params" in kwargs:
            params = kwargs["params"]
            if not isinstance(params, dict):
                raise ConfigError("protocol.params must be an object")
            _check_keys("params", params, {"g", "kappa", "gamma", "omega_c", "omega_0", "omega_p"})
            kwargs["params"] = CavityParams(**{name: _number(f"params.{name}", v) for name, v in params.items()})
        return ProtocolSpec(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid protocol section: {err}") from err


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys("config", data, {"protocol", "sweep", "trials", "seed", "output"})
    for section in ("protocol", "sweep", "output"):
        if not isinstance(data.get(section, {}), (dict, type(None))):
            raise ConfigError(f"{section} section must be an object")
    protocol = _protocol_from_dict(data["protocol"]) if data.get("protocol") is not None else None
    sweep = None
    if data.get("sweep") is not None:
        sweep_data = data["sweep"]
        _check_keys("sweep", sweep_data, {"g_over_kappa", "g_over_gamma", "steps"})
        try:
            sweep = SweepGrid(
                tuple(float(_number("sweep.g_over_kappa", x)) for x in sweep_data["g_over_kappa"]),
                tuple(float(_number("sweep.g_over_gamma", x)) for x in sweep_data["g_over_gamma"]),
                _integer("sweep.steps", sweep_data["steps"]),
            )
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"invalid sweep section: {err}") from err
    output_data = data.get("output") or {}
    _check_keys("output", output_data, {"path", "format"})
    if output_data.get("format", "csv") is None:   # only an absent format means the command's default
        raise ConfigError("output.format must be csv or json")
    output = OutputSpec(**output_data)
    seed = None if data.get("seed") is None else _integer("seed", data["seed"])
    if seed is not None and seed < 0:   # np.random.SeedSequence takes no negative seed
        raise ConfigError("seed must be a non-negative integer")
    trials = _integer("trials", data.get("trials", 1))
    return RunConfig(protocol=protocol, sweep=sweep, trials=trials, seed=seed, output=output)


def config_to_dict(config: RunConfig) -> dict:
    """The config as a document that ``config_from_dict`` reads back; an unset output format is left out."""
    out = json.loads(json.dumps(asdict(config)))   # tuples become lists, as in a JSON document
    if config.output.format is None:
        del out["output"]["format"]
    return out


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"malformed config JSON: {err}") from err
    return config_from_dict(data)


def schema_path() -> Path:
    return Path(__file__).with_name("config_schema.json")

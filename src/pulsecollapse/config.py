"""Scenario configuration: YAML schema, strict validation, typed access.

Config files are nested key-value YAML. One table states every key a
scenario takes, with its type and its default or the ``REQUIRED`` marker:
a key without a default is required, and so is a section that holds one.
A scenario's ``debug`` section holds only the negative-control switches
its runner reads. Validation is strict in both directions: a missing
required key and an unknown key are both errors, and the offending key is
named in the message (unknown keys are likelier typos than extensions).
"""

from __future__ import annotations

import copy
import functools
import math
import re
from dataclasses import dataclass
from typing import Any, Dict, Tuple

import yaml

from .errors import ConfigError

__all__ = ["ScenarioConfig", "SCENARIO_NAMES", "load_config", "parse_config"]

MAX_GRID_POINTS = 1 << 20

# The one statement of every key: section -> key -> (type, default), with REQUIRED in place of
# the default of a key a config must give. A section that holds such a key is required.
REQUIRED = object()
Schema = Dict[str, Dict[str, Tuple[type, Any]]]

_BASE_SCHEMA: Schema = {
    "scenario": {
        "name": (str, REQUIRED), "seed": (int, REQUIRED), "dt": (float, REQUIRED),
        "trials": (int, 100_000), "tail_steps": (int, 20),
    },
    "grid": {"n_points": (int, REQUIRED), "spacing": (float, REQUIRED), "origin": (float, 0.0)},
}

_ENVELOPE = {
    "kind": (str, REQUIRED), "t_start": (float, REQUIRED), "t_end": (float, REQUIRED), "fraction": (float, 1.0),
}
_FORMATION = {
    "mode": (str, REQUIRED), "target_sigma": (float, REQUIRED),
    "tau": (float, 0.01), "neighbor_radius": (int, 1), "settle_steps": (int, 150),
}
# the negative-control switches: each scenario takes only those its runner reads, so one it
# would ignore is an unknown key
_BIAS = {"bias_site_selection": (bool, False)}

_ONE_SOURCE: Schema = {
    "envelope": _ENVELOPE,
    "source": {"amplitude": (float, REQUIRED)},
    "pulses": {
        "conscious_center": (float, REQUIRED), "conscious_sigma": (float, REQUIRED),
        "ready_center": (float, REQUIRED), "ready_sigma": (float, REQUIRED),
    },
    "formation": _FORMATION,
    "debug": _BIAS,
}
_TWO_SOURCES: Schema = {
    "envelope": _ENVELOPE,
    "source": {"amplitude1": (float, REQUIRED), "amplitude2": (float, REQUIRED)},
    "pulses": {
        "center1": (float, REQUIRED), "sigma1": (float, REQUIRED),
        "center2": (float, REQUIRED), "sigma2": (float, REQUIRED),
    },
    "variant": {"arrangement": (str, "overlap")},
    "formation": _FORMATION,
    "debug": _BIAS,
}

# the sections each scenario takes after the base ones, in the order a missing one is reported
_SCENARIO_SCHEMAS: Dict[str, Schema] = {
    "interaction": _ONE_SOURCE,
    "unresolvable_observation": _TWO_SOURCES,
    "turn_off": {**_TWO_SOURCES, "turn_off": {"t_off": (float, REQUIRED)}},
    "disengage": {**_TWO_SOURCES, "disengage": {"t_dis": (float, REQUIRED), "hold_steps": (int, 50)}},
    "pulse_drift": {
        "pulses": {"center": (float, REQUIRED), "sigma": (float, REQUIRED)},
        "drift": {"velocity": (float, REQUIRED), "shed_rate": (float, 0.02), "duration": (float, REQUIRED)},
        "debug": {"tamper_phantom": (bool, False), "intra_ready_transfer": (bool, False)},
    },
    "fade_in": _ONE_SOURCE,
}

SCENARIO_NAMES = tuple(_SCENARIO_SCHEMAS)


def _coerce(section: str, key: str, want: type, value: Any):
    if want is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{section}.{key} must be a number, got {value!r}")
        return float(value)
    if want is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{section}.{key} must be an integer, got {value!r}")
        return int(value)
    if want is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("on", "off"):
            return value.lower() == "on"
        raise ConfigError(f"{section}.{key} must be a boolean or on/off, got {value!r}")
    if want is str:
        if not isinstance(value, str):
            raise ConfigError(f"{section}.{key} must be a string, got {value!r}")
        return value
    raise ConfigError(f"unsupported schema type for {section}.{key}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario configuration.

    ``data`` holds the fully defaulted nested mapping; dotted ``get`` is the
    accessor runners use. ``raw`` is the input mapping as given, before
    defaults; no output carries it.
    """

    name: str
    data: Dict[str, Dict[str, Any]]
    raw: Dict[str, Any]

    def get(self, dotted: str, default=None):
        section, _, key = dotted.partition(".")
        if not key:
            return self.data.get(section, default)
        sec = self.data.get(section)
        if sec is None:
            return default
        return sec.get(key, default)

    @property
    def seed(self) -> int:
        return self.data["scenario"]["seed"]

    @property
    def dt(self) -> float:
        return self.data["scenario"]["dt"]

    @property
    def trials(self) -> int:
        return self.data["scenario"]["trials"]

    def with_overrides(self, **scalar_overrides) -> "ScenarioConfig":
        """New config with scenario/formation scalars replaced, checked as a parsed one is.

        Recognized names: seed, trials, formation_mode.
        """
        data = copy.deepcopy(self.data)
        for name, value in scalar_overrides.items():
            if value is None:
                continue
            if name == "seed":
                data["scenario"]["seed"] = int(value)
            elif name == "trials":
                data["scenario"]["trials"] = int(value)
            elif name == "formation_mode":
                if "formation" not in data:
                    raise ConfigError(
                        f"scenario {self.name!r} takes no formation settings"
                    )
                data["formation"]["mode"] = value
            else:
                raise ConfigError(f"unknown override {name!r}")
        _check_values(self.name, data)
        return ScenarioConfig(name=self.name, data=data, raw=self.raw)


def parse_config(mapping: Dict[str, Any]) -> ScenarioConfig:
    """Validate a nested mapping against the scenario schema."""
    if not isinstance(mapping, dict):
        raise ConfigError("config root must be a mapping of sections")
    scenario_sec = mapping.get("scenario")
    if not isinstance(scenario_sec, dict) or "name" not in scenario_sec:
        raise ConfigError("config must contain scenario.name")
    name = scenario_sec["name"]
    if name not in SCENARIO_NAMES:
        raise ConfigError(
            f"scenario.name must be one of {', '.join(SCENARIO_NAMES)}; got {name!r}"
        )

    schema = {**_BASE_SCHEMA, **_SCENARIO_SCHEMAS[name]}

    for section in mapping:
        if section not in schema:
            raise ConfigError(f"unknown config section {section!r} for scenario {name!r}")
        if not isinstance(mapping[section], dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key in mapping[section]:
            if key not in schema[section]:
                raise ConfigError(f"unknown config key {section}.{key}")

    data: Dict[str, Dict[str, Any]] = {}
    for section, keys in schema.items():
        if section not in mapping and any(default is REQUIRED for _, default in keys.values()):
            raise ConfigError(f"missing required config section {section!r}")
        src = mapping.get(section, {})
        out = {}
        for key, (want, default) in keys.items():
            if key in src:
                out[key] = _coerce(section, key, want, src[key])
            elif default is REQUIRED:
                raise ConfigError(f"missing required config key {section}.{key}")
            else:
                out[key] = default
        data[section] = out

    _check_values(name, data)
    return ScenarioConfig(name=name, data=data, raw=copy.deepcopy(mapping))


def _check_values(name: str, data: Dict[str, Dict[str, Any]]) -> None:
    for section, values in data.items():
        for key, value in values.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{section}.{key} must be finite, got {value}")
    sc = data["scenario"]
    if sc["dt"] <= 0:
        raise ConfigError(f"scenario.dt must be positive, got {sc['dt']}")
    if sc["trials"] < 1:
        raise ConfigError(f"scenario.trials must be >= 1, got {sc['trials']}")
    if sc["seed"] < 0:
        raise ConfigError(f"scenario.seed must be nonnegative, got {sc['seed']}")
    counts = (("scenario", "tail_steps"), ("formation", "settle_steps"), ("disengage", "hold_steps"))
    for section, key in counts:
        if data.get(section, {}).get(key, 0) < 0:
            raise ConfigError(f"{section}.{key} must be nonnegative, got {data[section][key]}")
    grid = data["grid"]
    if not 8 <= grid["n_points"] <= MAX_GRID_POINTS:
        raise ConfigError(f"grid.n_points must be in [8, {MAX_GRID_POINTS}], got {grid['n_points']}")
    if grid["spacing"] <= 0:
        raise ConfigError(f"grid.spacing must be positive, got {grid['spacing']}")
    env = data.get("envelope")
    if env:
        if env["kind"] not in ("trig", "linear"):
            raise ConfigError(f"envelope.kind must be trig or linear, got {env['kind']!r}")
        if env["t_end"] <= env["t_start"]:
            raise ConfigError("envelope.t_end must exceed envelope.t_start")
        if not 0.0 < env["fraction"] <= 1.0:
            raise ConfigError(f"envelope.fraction must be in (0, 1], got {env['fraction']}")
        if sc["dt"] > (env["t_end"] - env["t_start"]) / 100.0:
            raise ConfigError(
                f"scenario.dt ({sc['dt']}) must be at most 1/100 of the envelope window: "
                f"(envelope.t_end - envelope.t_start) / 100 = {(env['t_end'] - env['t_start']) / 100.0}"
            )
    form = data.get("formation")
    if form:
        if form["mode"] not in ("instant", "staged"):
            raise ConfigError(
                f"formation.mode must be instant or staged, got {form['mode']!r}"
            )
        if form["target_sigma"] <= 0:
            raise ConfigError(f"formation.target_sigma must be positive, got {form['target_sigma']}")
        if form["mode"] == "staged" and form["tau"] <= 0:
            raise ConfigError("formation.tau must be positive for staged mode")
        if form["mode"] == "staged" and form["neighbor_radius"] < 1:
            raise ConfigError(f"formation.neighbor_radius must be >= 1 for staged mode, got {form['neighbor_radius']}")
    var = data.get("variant")
    if var and var.get("arrangement") not in ("overlap", "disjoint", "single_state"):
        raise ConfigError(
            "variant.arrangement must be overlap, disjoint, or single_state; "
            f"got {var.get('arrangement')!r}"
        )
    if name == "fade_in" and data["formation"]["mode"] != "staged":
        raise ConfigError("fade_in requires formation.mode = staged")
    after = {"turn_off": "t_off", "disengage": "t_dis"}.get(name)
    if after and data[name][after] <= env["t_end"]:
        raise ConfigError(
            f"{name}.{after} ({data[name][after]}) must come after the envelope window, "
            f"which ends at envelope.t_end ({env['t_end']})"
        )
    if name == "pulse_drift":
        dr = data["drift"]
        if dr["duration"] <= 0:
            raise ConfigError(f"drift.duration must be positive, got {dr['duration']}")
        if dr["shed_rate"] < 0:
            raise ConfigError(f"drift.shed_rate must be nonnegative, got {dr['shed_rate']}")
        end = data["pulses"]["center"] + dr["velocity"] * dr["duration"]
        u_max = grid["origin"] + grid["spacing"] * (grid["n_points"] - 1)
        if not grid["origin"] <= end <= u_max:
            raise ConfigError(
                f"pulses.center + drift.velocity * drift.duration ({end}) must stay on the grid "
                f"[{grid['origin']}, {u_max}]: the drift would carry the pulse off it"
            )


# a YAML 1.2 float; PyYAML resolves YAML 1.1, whose floats need a dot and a signed exponent,
# so it would read 1e-9 as a string
_YAML12_FLOAT = re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)(?:[eE][-+]?[0-9]+)?$")


@functools.lru_cache(maxsize=None)
def _loader(base: type) -> type:
    """``base`` with YAML 1.2 floats resolved as floats, built once per base. Its resolver is
    tried after the YAML 1.1 ones, so an integer stays an integer."""
    loader = type("ConfigLoader", (base,), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", _YAML12_FLOAT, list("-+.0123456789"))
    return loader


def load_config(path: str) -> ScenarioConfig:
    """Parse and validate a YAML config file.

    Parsing uses libyaml (``yaml.CSafeLoader``) where PyYAML was built with
    it, and the pure-Python ``yaml.SafeLoader`` otherwise; both share the
    safe constructor and resolver, so they give the same mapping. Either
    also reads a YAML 1.2 float such as ``1e-9`` as a float.
    """
    loader = _loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            mapping = yaml.load(fh, Loader=loader)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:  # a directory, or no permission to read
        raise ConfigError(f"config file {path} cannot be read: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path} is not valid YAML: {exc}")
    if mapping is None:
        raise ConfigError(f"config file {path} is empty")
    return parse_config(mapping)

"""YAML run-configuration parsing and writing with strict validation.

Units are meters for all coordinates/spacings, dB for the noise floor,
and linear variance for channel-error values. Unknown keys, mistyped
values and invalid geometry are ``ConfigError``s. ``schema_version``
must be 1. Each section's table maps a YAML key to (field, type); only
given keys are passed on, so each default is stated by its owner alone.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import yaml

from .csidata import DEFAULT_TX_COUNT, GridSpec
from .errors import ConfigError, GeometryError
from .geometry import ArrayGeometry, Box, LosChannelParams, default_roi, perimeter_geometry
from .precoders import PrecoderSpec, parse_precoder_name
from .scenarios import ScenarioConfig

SCHEMA_VERSION = 1


def _exact(kind: type, name: str):
    def step(value, key: str):
        if type(value) is not kind:  # so an int is never a bool
            raise ConfigError(f"{key} must be {name}, got {value!r}")
        return value

    return step


_int = _exact(int, "an integer")
_bool = _exact(bool, "true or false")
_str = _exact(str, "a string")


def _float(value, key: str) -> float:
    # PyYAML reads exponents without a dot (1e-7) as strings
    if type(value) in (int, float, str):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ConfigError(f"{key} must be a number, got {value!r}")


def _optional(step):
    return lambda value, key: None if value is None else step(value, key)


def _tuple_of(step):
    def read(value, key: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return tuple(step(v, f"{key}[{i}]") for i, v in enumerate(value))

    return read


#: LoS amplitude law, in ScenarioConfig and LosChannelParams alike.
_LOS_KEYS = {
    "amplitude_model": ("amplitude_model", _str),
    "reference_gain": ("reference_gain", _float),
}

#: Simulate scalars: YAML key -> (ScenarioConfig field, type).
_SIMULATE_SCALARS = {
    "users": ("k_users", _int),
    "trials": ("trials", _int),
    "seed": ("rng_seed", _int),
    "noise_floor_db": ("noise_floor_db", _float),
    "min_spacing_m": ("min_spacing_m", _float),
    **_LOS_KEYS,
    "workers": ("workers", _int),
}

#: Optional simulate sections: YAML key -> (required key, table of
#: ScenarioConfig fields). A section is null when its required field is.
_SIMULATE_SECTIONS = {
    "nmse_grid": ("values", {
        "values": ("nmse_grid", _tuple_of(_float)),
        "relative": ("nmse_relative", _bool),
    }),
    "clustering": ("pairs", {"pairs": ("clustering", _tuple_of(_tuple_of(_int)))}),
    "channel": ("source", {
        "source": ("channel_source", _str),
        "path": ("dataset_path", _optional(_str)),
    }),
}
_SIMULATE_KEYS = {"schema_version", "geometry", "roi", "precoders", *_SIMULATE_SECTIONS}

#: ScenarioConfig field -> its YAML key, "section.key" inside a section.
_FIELD_KEYS = {
    **{field: key for key, (field, _) in _SIMULATE_SCALARS.items()},
    **{
        field: f"{section}.{key}"
        for section, (_, table) in _SIMULATE_SECTIONS.items()
        for key, (field, _) in table.items()
    },
}

#: Precoder mapping entries: YAML key -> (PrecoderSpec field, type).
_PRECODER_KEYS = {
    "name": ("name", _str),
    "base": ("base", _str),
    "suppression": ("suppression", _str),
    "regularized": ("regularized", _bool),
    "alpha": ("alpha", _optional(_float)),
    "scope": ("scope", _str),
}

#: Perimeter geometry: YAML key -> (perimeter_geometry argument, type).
_PERIMETER_KEYS = {
    "wavelength_m": ("wavelength", _float),
    "side_m": ("side", _float),
    "n_aps": ("n_aps", _int),
    "antennas_per_ap": ("antennas_per_ap", _int),
    "height_m": ("height", _float),
}

#: Explicit geometry: YAML key -> (ArrayGeometry field, type); all required.
_EXPLICIT_KEYS = {
    "wavelength_m": ("wavelength", _float),
    "antenna_positions": ("antenna_positions", _tuple_of(_tuple_of(_float))),
    "ap_partition": ("ap_partition", _tuple_of(_tuple_of(_int))),
}

#: Bounds shared by the RoI (YAML key = Box corner entry) and the grid.
_BOUNDS = ("x_min", "x_max", "y_min", "y_max", "z")
_ROI_KEYS = {k: (k, _float) for k in (*_BOUNDS, "z_min", "z_max")}

#: Generate scalars: generate_synthetic_dataset's tx_count and the LoS law.
_GENERATE_SCALARS = {"tx_count": ("tx_count", _int), **_LOS_KEYS}

#: Measurement grid: YAML key -> (GridSpec field, type).
_GRID_KEYS = {"nx": ("nx", _int), "ny": ("ny", _int), **{k: (k, _float) for k in _BOUNDS}}


def _require_mapping(doc, context: str) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{context} must be a mapping, got {type(doc).__name__}")
    return doc


def _read(doc, table: dict, context: str, required=(), other=()) -> dict:
    """Typed fields for the ``table`` keys in ``doc``; the caller reads ``other``."""
    doc = _require_mapping(doc, context)
    allowed = set(table) | set(other)
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in {context}; allowed: {sorted(allowed)}"
        )
    missing = set(required) - set(doc)
    if missing:
        raise ConfigError(f"missing key(s) {sorted(missing)} in {context}")
    return {table[k][0]: table[k][1](v, f"{context}: {k}") for k, v in doc.items() if k in table}


def _fields(obj, table: dict) -> dict:
    """Inverse of :func:`_read`: ``obj``'s fields under the YAML keys."""
    values = ((key, getattr(obj, field)) for key, (field, _) in table.items())
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values}


@contextmanager
def _geometry_errors(context: str):
    """An invalid geometry in a config is a config error, not a numerical one."""
    try:
        yield
    except GeometryError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def load_yaml(path) -> dict:
    p = Path(path)
    try:
        with open(p) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {p}: {exc}") from exc
    doc = _require_mapping(doc, f"config file {p}")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"{p}: schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    return doc


@_geometry_errors("geometry")
def parse_geometry(doc) -> tuple[ArrayGeometry, Box | None]:
    """Geometry section; returns (geometry, default RoI or None)."""
    doc = _require_mapping(doc, "geometry")
    kind = doc.get("kind", "perimeter")
    if kind == "perimeter":
        args = _read(doc, _PERIMETER_KEYS, "geometry", other={"kind"})
        side = {"side": args["side"]} if "side" in args else {}
        return perimeter_geometry(**args), default_roi(**side)
    if kind == "explicit":
        args = _read(doc, _EXPLICIT_KEYS, "geometry", set(_EXPLICIT_KEYS), {"kind"})
        return ArrayGeometry(**args), None
    raise ConfigError(f"geometry kind must be 'perimeter' or 'explicit', got {kind!r}")


@_geometry_errors("roi")
def parse_roi(doc) -> Box:
    roi = _read(doc, _ROI_KEYS, "roi", required={"x_min", "x_max", "y_min", "y_max"})
    if "z" in roi and ("z_min" in roi or "z_max" in roi):
        raise ConfigError("roi: give either z or z_min/z_max, not both")
    z = roi.get("z", 0.0)
    return Box(
        lo=[roi["x_min"], roi["y_min"], roi.get("z_min", z)],
        hi=[roi["x_max"], roi["y_max"], roi.get("z_max", z)],
    )


def parse_precoder_entry(entry, key: str = "precoder entry") -> PrecoderSpec:
    """A precoder is either a canonical name or an explicit mapping."""
    if isinstance(entry, str):
        return parse_precoder_name(entry)
    return PrecoderSpec(**_read(entry, _PRECODER_KEYS, key, {"name", "base"}))


def parse_simulate_config(path) -> ScenarioConfig:
    """Simulate config from a YAML file, or from a summary.json's ``config``."""
    doc = load_yaml(path)
    doc = doc["config"] if isinstance(doc.get("config"), dict) else doc
    top = {"geometry", "users", "trials", "precoders"}
    fields = _read(doc, _SIMULATE_SCALARS, str(path), top, _SIMULATE_KEYS)
    geometry, roi = parse_geometry(doc["geometry"])
    if "roi" in doc:
        roi = parse_roi(doc["roi"])
    if roi is None:
        raise ConfigError("explicit geometry requires an roi section")
    for key, (required, table) in _SIMULATE_SECTIONS.items():
        if doc.get(key) is not None:
            fields.update(_read(doc[key], table, key, {required}))
    return ScenarioConfig(
        geometry=geometry,
        roi=roi,
        precoders=_tuple_of(parse_precoder_entry)(doc["precoders"], "precoders"),
        **fields,
    )


def yaml_key(field: str) -> str:
    """The simulate-config YAML key of a ScenarioConfig field, for messages."""
    return _FIELD_KEYS.get(field, field)


def override(config: ScenarioConfig, **values) -> ScenarioConfig:
    """``config`` with the given top-level YAML keys set; None keeps a key."""
    fields = {_SIMULATE_SCALARS[key][0]: v for key, v in values.items() if v is not None}
    return dataclasses.replace(config, **fields)


def config_document(config: ScenarioConfig) -> dict:
    """The simulate config that :func:`parse_simulate_config` reads back.

    Geometry is ``kind: explicit``: a ScenarioConfig keeps no perimeter.
    """
    roi = config.roi
    doc = {
        "schema_version": SCHEMA_VERSION,
        "geometry": {"kind": "explicit", **_fields(config.geometry, _EXPLICIT_KEYS)},
        "roi": {
            f"{axis}_{end}": float(bound[i])
            for i, axis in enumerate("xyz")
            for end, bound in (("min", roi.lo), ("max", roi.hi))
        },
        **_fields(config, _SIMULATE_SCALARS),
        "precoders": [_fields(spec, _PRECODER_KEYS) for spec in config.precoders],
    }
    for key, (required, table) in _SIMULATE_SECTIONS.items():
        unset = getattr(config, table[required][0]) is None
        doc[key] = None if unset else _fields(config, table)
    return doc


def parse_calibrate_config(path) -> ArrayGeometry:
    """Geometry override for ``dmimo calibrate``: the config's geometry."""
    return parse_geometry(load_yaml(path).get("geometry", {}))[0]


def parse_generate_config(path):
    """Returns (geometry, GridSpec, LosChannelParams-args, tx_count, offsets_seed)."""
    doc = load_yaml(path)
    sections = {"schema_version", "geometry", "grid", "hardware_offsets"}
    args = _read(doc, _GENERATE_SCALARS, str(path), {"geometry", "grid"}, sections)
    geometry, _ = parse_geometry(doc["geometry"])
    tx_count = args.pop("tx_count", DEFAULT_TX_COUNT)
    grid = _read(doc["grid"], _GRID_KEYS, "grid", set(_GRID_KEYS) - {"z"})
    with _geometry_errors(str(path)):
        grid_spec = GridSpec(**grid)
        params = LosChannelParams(wavelength=geometry.wavelength, **args)
    offsets_seed = None
    if doc.get("hardware_offsets") is not None:
        seed = {"seed": ("seed", _int)}
        offsets_seed = _read(doc["hardware_offsets"], seed, "hardware_offsets", seed)["seed"]
    return geometry, grid_spec, params, tx_count, offsets_seed

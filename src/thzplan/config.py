"""Config-file parsing and unit conversion.

Files are INI-style sections of key = value pairs; every key carries its
unit in the name and dB/dBm quantities are converted to linear exactly
once, here. Every number must be finite; an unknown key or an unreadable
value is a ConfigError that names the key. _TABLE declares each key once:
its documented default, the SimConfig field it sets and the conversion
into that field. A run is fully described by (file, overrides, seed).
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from collections.abc import Callable
from dataclasses import fields
from typing import NamedTuple

from . import __version__ as TOOL_VERSION
from .geometry import COUNTS, Room
from .simulation import ConfigError, SimConfig, with_effective_height


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def _on_off(raw: str) -> str:
    token = raw.strip().lower()
    if token not in ("on", "off", "true", "false", "1", "0"):
        raise ValueError(f"expected on|off, got {raw!r}")
    return "on" if token in ("on", "true", "1") else "off"


class _Key(NamedTuple):
    default: object
    field: str
    to_field: Callable = lambda value: value  # setting -> field value
    parse: Callable | None = None  # text -> setting; None: a number like default


# "room.<name>" is a field of cfg.room; a set "effective_height_m" moves the
# ceiling (with_effective_height). p_o_dbm is the total budget. The [section]
# headers are the file layout, but any section accepts any key.
_TABLE = {
    # [radio]
    "f_c_ghz": _Key(570.0, "f_c_hz", lambda ghz: ghz * 1e9),
    "bandwidth_ghz": _Key(10.0, "bandwidth_hz", lambda ghz: ghz * 1e9),
    "p_o_dbm": _Key(0.0, "p_o_w", dbm_to_watts),
    "beamwidth_deg": _Key(10.0, "beamwidth_deg"),
    "nf_db_hz": _Key(-193.85, "noise_psd_w_hz", db_to_linear),
    "humidity_pct": _Key(60.0, "humidity", lambda pct: pct / 100.0),
    "tau_override_per_m": _Key(None, "tau_override"),
    # [room]
    "room_l_m": _Key(10.0, "room.length_m"),
    "room_w_m": _Key(10.0, "room.width_m"),
    "room_h_m": _Key(3.0, "room.height_m"),
    # [placement]
    "placement_type": _Key("B", "placement_type", parse=lambda raw: raw.strip().upper()),
    "n_aps": _Key(4, "n_aps"),
    "t_align_ms": _Key(5.0, "t_align_s", lambda ms: ms / 1e3),
    # [users]
    "n_users": _Key(30, "n_users"),
    "velocity_mps_mean": _Key(1.0, "v_mean_mps"),
    "velocity_mps_span": _Key(0.5, "v_span_mps"),
    "user_height_m": _Key(1.5, "user_height_m"),
    "user_width_m": _Key(0.2, "user_width_m"),
    "body_height_m": _Key(1.8, "body_height_m"),
    "rate_min_gbps": _Key(1.0, "rate_min_bps", lambda ghz: ghz * 1e9),
    "rate_max_gbps": _Key(10.0, "rate_max_bps", lambda ghz: ghz * 1e9),
    # [simulation]
    "duration_s": _Key(60.0, "duration_s"),
    "dt_ms": _Key(10.0, "dt_s", lambda ms: ms / 1e3),
    "seed": _Key(1, "seed"),
    "blockage": _Key("off", "blockage_enabled", lambda on: on == "on", _on_off),
    "h_override_m": _Key(None, "effective_height_m"),
    "share_mode": _Key("equal_share", "share_mode", parse=str.strip),
    "pause_s": _Key(0.0, "pause_s"),
}


def _keyed(exc: ValueError, settings: dict) -> ConfigError:
    """exc, which starts with the field(s) at fault, naming their keys; of
    fields a rule ties, the keys moved off their default, else all."""
    key_of = {entry.field: key for key, entry in _TABLE.items()}
    names, sep, rest = str(exc).partition(": ")
    keys = [key_of.get(name, name) for name in names.split("/")]
    moved = [key for key in keys if key in _TABLE and settings[key] != _TABLE[key].default]
    return ConfigError("/".join(moved or keys) + sep + rest)


def _parse_value(key: str, raw: str):
    if key not in _TABLE:
        raise ConfigError(f"{key}: unknown configuration key")
    default, _, _, parse = _TABLE[key]
    if parse is not None:
        try:
            return parse(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    number = int if isinstance(default, int) else float
    try:
        value = number(raw)
    except ValueError as exc:
        kind = "an integer" if number is int else "a number"
        raise ConfigError(f"{key}: expected {kind}, got {raw!r}") from exc
    if number is float and not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def load_settings(path=None, overrides: dict | None = None) -> dict:
    """Flat key -> value mapping with defaults, file, then overrides;
    an override is parsed from str(value) exactly like file text. A key
    the file sets twice, in one section or in two, is a ConfigError naming
    it; [DEFAULT] is a section like any other. With
    n_aps unset, a layout that does not take the default count gets its
    first count in geometry.COUNTS (1 for type A); an unknown type is left
    for validate() to name."""
    given = {}
    if path is not None:
        # no section name is "", so [DEFAULT] is an ordinary section
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except configparser.DuplicateOptionError as exc:
            raise ConfigError(f"{exc.option}: set twice in [{exc.section}] of {path}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"config: parse error in {path}: {exc}") from exc
        for section in parser.sections():
            for key, raw in parser.items(section):
                if key in given:
                    raise ConfigError(f"{key}: set twice, the second time in [{section}] of {path}")
                given[key] = _parse_value(key, raw)
    for key, value in (overrides or {}).items():
        given[key] = _parse_value(key, str(value))
    settings = {key: entry.default for key, entry in _TABLE.items()} | given
    counts = COUNTS.get(settings["placement_type"], (settings["n_aps"],))
    if "n_aps" not in given and settings["n_aps"] not in counts:
        settings["n_aps"] = counts[0]
    return settings


def build_sim_config(settings: dict) -> SimConfig:
    """The validated SimConfig of a settings mapping (see _TABLE). An error
    names the key at fault."""
    values = {}
    for key, entry in _TABLE.items():
        try:
            values[entry.field] = entry.to_field(settings[key])
        except OverflowError as exc:
            raise ConfigError(f"{key}: {settings[key]!r} overflows as {entry.field}") from exc
    try:
        room = Room(**{f.name: values.pop(f"room.{f.name}") for f in fields(Room)})
        h_eff_m = values.pop("effective_height_m")
        cfg = SimConfig(room=room, **values)
        if h_eff_m is not None:
            cfg = with_effective_height(cfg, h_eff_m)
        cfg.validate()
    except ValueError as exc:
        raise _keyed(exc, settings) from exc
    return cfg


def load_config(path=None, overrides: dict | None = None) -> tuple[SimConfig, dict]:
    """Parse, validate, and return (config, resolved settings dict)."""
    settings = load_settings(path, overrides)
    return build_sim_config(settings), settings


def settings_hash(settings: dict) -> str:
    canonical = json.dumps(settings, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_manifest(settings: dict) -> dict:
    """Everything needed to reproduce a run byte-for-byte."""
    return {
        "tool_version": TOOL_VERSION,
        "config_hash": settings_hash(settings),
        "seed": settings["seed"],
        "resolved_config": dict(sorted(settings.items())),
    }

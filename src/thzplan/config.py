"""Config-file parsing and unit conversion.

Files are INI-style sections of key = value pairs; every key carries its
unit in the name and dB/dBm quantities are converted to linear exactly
once, here. Every number must be finite; an unknown key or an unreadable
value is a ConfigError that names the key. Anything not set falls back to
the documented defaults, so a run is fully described by (file, overrides,
seed). Each setting becomes one SimConfig value: p_o_dbm is the total
budget (the per-AP power is derived from it), and h_override_m, when set,
becomes the ceiling height h_override_m + user_height_m.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math

from . import __version__ as TOOL_VERSION
from .geometry import Room
from .simulation import ConfigError, SimConfig, with_effective_height

DEFAULTS = {
    "radio": {
        "f_c_ghz": 570.0,
        "bandwidth_ghz": 10.0,
        "p_o_dbm": 0.0,
        "beamwidth_deg": 10.0,
        "nf_db_hz": -193.85,
        "humidity_pct": 60.0,
        "tau_override_per_m": None,
    },
    "room": {
        "room_l_m": 10.0,
        "room_w_m": 10.0,
        "room_h_m": 3.0,
    },
    "placement": {
        "placement_type": "B",
        "n_aps": 4,
        "t_align_ms": 5.0,
    },
    "users": {
        "n_users": 30,
        "velocity_mps_mean": 1.0,
        "velocity_mps_span": 0.5,
        "user_height_m": 1.5,
        "user_width_m": 0.2,
        "body_height_m": 1.8,
        "rate_min_gbps": 1.0,
        "rate_max_gbps": 10.0,
    },
    "simulation": {
        "duration_s": 60.0,
        "dt_ms": 10.0,
        "seed": 1,
        "blockage": "off",
        "h_override_m": None,
        "share_mode": "equal_share",
        "pause_s": 0.0,
    },
}

_KEY_SECTION = {
    key: section for section, keys in DEFAULTS.items() for key in keys
}


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def _parse_value(key: str, raw: str):
    if key == "placement_type":
        return raw.strip().upper()
    if key == "share_mode":
        return raw.strip()
    if key == "blockage":
        token = raw.strip().lower()
        if token not in ("on", "off", "true", "false", "1", "0"):
            raise ConfigError(f"blockage: expected on|off, got {raw!r}")
        return "on" if token in ("on", "true", "1") else "off"
    if key in ("n_aps", "n_users", "seed"):
        try:
            return int(raw)
        except ValueError as exc:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def load_settings(path=None, overrides: dict | None = None) -> dict:
    """Flat key -> value mapping with defaults, file, then overrides;
    an override is parsed from str(value) exactly like file text."""
    settings = {k: v for sec in DEFAULTS.values() for k, v in sec.items()}
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path) as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"config: parse error in {path}: {exc}") from exc
        for section in parser.sections():
            for key, raw in parser.items(section):
                if key not in _KEY_SECTION:
                    raise ConfigError(f"{key}: unknown configuration key")
                settings[key] = _parse_value(key, raw)
    for key, value in (overrides or {}).items():
        if key not in _KEY_SECTION:
            raise ConfigError(f"{key}: unknown configuration key")
        settings[key] = _parse_value(key, str(value))
    return settings


def build_sim_config(settings: dict) -> SimConfig:
    try:
        return _build_sim_config(settings)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_sim_config(settings: dict) -> SimConfig:
    cfg = SimConfig(
        room=Room(settings["room_l_m"], settings["room_w_m"], settings["room_h_m"]),
        placement_type=settings["placement_type"],
        n_aps=1 if settings["placement_type"] == "A" else settings["n_aps"],
        p_o_w=dbm_to_watts(settings["p_o_dbm"]),
        f_c_hz=settings["f_c_ghz"] * 1e9,
        bandwidth_hz=settings["bandwidth_ghz"] * 1e9,
        beamwidth_deg=settings["beamwidth_deg"],
        noise_psd_w_hz=db_to_linear(settings["nf_db_hz"]),
        humidity=settings["humidity_pct"] / 100.0,
        tau_override=settings["tau_override_per_m"],
        n_users=settings["n_users"],
        seed=settings["seed"],
        v_mean_mps=settings["velocity_mps_mean"],
        v_span_mps=settings["velocity_mps_span"],
        user_height_m=settings["user_height_m"],
        user_width_m=settings["user_width_m"],
        body_height_m=settings["body_height_m"],
        rate_min_bps=settings["rate_min_gbps"] * 1e9,
        rate_max_bps=settings["rate_max_gbps"] * 1e9,
        duration_s=settings["duration_s"],
        dt_s=settings["dt_ms"] / 1e3,
        blockage_enabled=settings["blockage"] == "on",
        t_align_s=settings["t_align_ms"] / 1e3,
        share_mode=settings["share_mode"],
        pause_s=settings["pause_s"],
    )
    if settings["h_override_m"] is not None:
        cfg = with_effective_height(cfg, settings["h_override_m"])
    cfg.validate()
    return cfg


def load_config(path=None, overrides: dict | None = None) -> tuple[SimConfig, dict]:
    """Parse, validate, and return (config, resolved settings dict)."""
    settings = load_settings(path, overrides)
    cfg = build_sim_config(settings)
    return cfg, settings


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

"""Workload definitions: the INI configs and CLI argv each run executes.

A workload is a fixed list of ``thzplan`` CLI commands. One *operation*
is one ``cli.main`` call plus its output check; one *repetition* runs
every command of the workload once, in order, in a closed loop (each
command starts when the previous one returns).

Each workload has a full size, used by ``run.py``, and a tiny size, used
by ``selftest.py``. Only the seed changes between runs of one size.

- ``walk``: ``simulate``, layout B4, 30 users, blockage off, 2000 steps.
  Mobility and the per-step association dominate; blockage never runs.
- ``crowd``: ``simulate``, layout B4, 1000 users, blockage on, 3 steps.
  The dense ``geometry.blocked_matrix`` dominates time and memory.
- ``survey``: ``heatmap --resolution 50`` for B4 and for C4, then
  ``sweep --axis H --values 2:7:0.5 --types B4,C4`` of 1 s runs
  (22 runs). Output writing, config loading and per-run set-up show.
"""

from __future__ import annotations

import os

NAMES = ("walk", "crowd", "survey")

# Per-size parameters. "steps" is duration_s / dt (dt stays 10 ms).
SIZES = {
    "full": {
        "walk": {"n_users": 30, "duration_s": 20.0},
        "crowd": {"n_users": 1000, "duration_s": 0.03},
        "survey": {"n_users": 30, "duration_s": 1.0,
                   "resolution": 50, "h_values": "2:7:0.5"},
    },
    "tiny": {
        "walk": {"n_users": 30, "duration_s": 0.5},
        "crowd": {"n_users": 40, "duration_s": 0.02},
        "survey": {"n_users": 5, "duration_s": 0.05,
                   "resolution": 2, "h_values": "2:3:0.5"},
    },
}

DT_MS = 10.0
ROOM_L_M = 10.0
ROOM_W_M = 10.0
ROOM_H_M = 3.0
DEVICE_HEIGHT_M = 1.5
SURVEY_TYPES = ("B4", "C4")


def pin_key(name: str, size: str) -> str:
    """Key of a workload's pinned outputs in pins.json."""
    return name if size == "full" else f"{name}-{size}"


def _steps(duration_s: float) -> int:
    return int(round(duration_s / (DT_MS / 1e3)))


def h_grid(spec: str) -> list[float]:
    """The effective heights a 'start:stop:step' sweep spec visits."""
    start, stop, step = (float(p) for p in spec.split(":"))
    n = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(n)]


def config_text(name: str, size: str, seed: int) -> str:
    """The INI config of one workload; the seed is the only run input."""
    p = SIZES[size][name]
    blockage = "on" if name == "crowd" else "off"
    return (
        "[room]\n"
        f"room_l_m = {ROOM_L_M}\n"
        f"room_w_m = {ROOM_W_M}\n"
        f"room_h_m = {ROOM_H_M}\n"
        "[placement]\n"
        "placement_type = B\n"
        "n_aps = 4\n"
        "[users]\n"
        f"n_users = {p['n_users']}\n"
        f"user_height_m = {DEVICE_HEIGHT_M}\n"
        "[simulation]\n"
        f"duration_s = {p['duration_s']}\n"
        f"dt_ms = {DT_MS}\n"
        f"seed = {int(seed)}\n"
        f"blockage = {blockage}\n"
    )


def plan(name: str, size: str, seed: int, work_dir: str) -> dict:
    """Everything a worker needs: config path and text, and the commands.

    Each command carries what its output check expects: the kind of
    output, the output directory and the rows or grid shape.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    p = SIZES[size][name]
    cfg = os.path.join(work_dir, f"{name}.ini")
    out = os.path.join(work_dir, "out")
    users = p["n_users"]
    steps = _steps(p["duration_s"])
    h_eff = ROOM_H_M - DEVICE_HEIGHT_M
    if name in ("walk", "crowd"):
        commands = [{
            "label": "simulate", "kind": "results",
            "argv": ["simulate", "--config", cfg, "--out", out],
            "out": out, "file": "results.csv",
            "rows": [{"placement_type": "B", "n_aps": 4, "h_m": h_eff}],
            "user_steps": users * steps,
        }]
    else:
        commands = []
        cells = int(round(ROOM_L_M * p["resolution"]))
        for series in SURVEY_TYPES:
            hm_out = os.path.join(out, f"heatmap-{series}")
            commands.append({
                "label": f"heatmap-{series}", "kind": "heatmap",
                "argv": ["heatmap", "--config", cfg, "--type", series[0],
                         "--n", series[1:], "--resolution", str(p["resolution"]),
                         "--out", hm_out],
                "out": hm_out, "shape": [cells, cells], "user_steps": 0,
            })
        heights = h_grid(p["h_values"])
        sw_out = os.path.join(out, "sweep")
        commands.append({
            "label": "sweep", "kind": "results",
            "argv": ["sweep", "--config", cfg, "--axis", "H",
                     "--values", p["h_values"], "--types", ",".join(SURVEY_TYPES),
                     "--jobs", "1", "--out", sw_out],
            "out": sw_out, "file": "sweep.csv",
            "rows": [{"placement_type": s[0], "n_aps": int(s[1:]), "h_m": h}
                     for s in SURVEY_TYPES for h in heights],
            "user_steps": len(SURVEY_TYPES) * len(heights) * users * steps,
        })
    return {
        "workload": name, "size": size, "seed": int(seed),
        "config_path": cfg, "config_text": config_text(name, size, seed),
        "commands": commands,
    }

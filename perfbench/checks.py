"""Output checks: read what a command wrote and judge it.

Outputs are read back through ``thzplan.reporting`` and compared field
by field, never as file bytes, so added columns do not break the check.
For the seed a pin was taken with, the metrics must equal the pinned
values exactly; heat maps do not depend on the seed and are compared
for every seed. Every seed gets the shape and range checks.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from thzplan import reporting

ROW_FIELDS = ("placement_type", "n_aps", "h_m", "seed", "user_coverage",
              "mean_throughput_bps", "ap_idle_fraction", "handoff_count")
PINNED_FIELDS = ("user_coverage", "mean_throughput_bps", "ap_idle_fraction",
                 "handoff_count")
LABELS = {0, 1, 2}


class CheckError(Exception):
    """An output that is missing, malformed, out of range or not as pinned."""


def _sha256(array, dtype) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=dtype).tobytes()).hexdigest()


def _results(cmd, seed) -> dict:
    rows = reporting.read_results(os.path.join(cmd["out"], cmd["file"]))
    if len(rows) != len(cmd["rows"]):
        raise CheckError(f"{len(rows)} rows, expected {len(cmd['rows'])}")
    for i, (row, want) in enumerate(zip(rows, cmd["rows"])):
        if (row["placement_type"] != want["placement_type"]
                or row["n_aps"] != want["n_aps"]
                or abs(row["h_m"] - want["h_m"]) > 1e-9
                or row["seed"] != seed):
            raise CheckError(f"row {i} describes another run: {row}")
        if not (0.0 <= row["user_coverage"] <= 1.0
                and 0.0 <= row["ap_idle_fraction"] <= 1.0
                and math.isfinite(row["mean_throughput_bps"])
                and row["mean_throughput_bps"] >= 0.0
                and row["handoff_count"] >= 0):
            raise CheckError(f"row {i} out of range: {row}")
    return {"rows": [{k: row[k] for k in ROW_FIELDS} for row in rows]}


def _heatmap(cmd) -> dict:
    out = cmd["out"]
    grid = reporting.read_heatmap(
        os.path.join(out, "heatmap_rates.csv"),
        os.path.join(out, "heatmap_labels.csv"),
        os.path.join(out, "heatmap_meta.json"),
    )
    shape = [int(n) for n in grid.rates_bps.shape]
    if shape != cmd["shape"] or list(grid.labels.shape) != cmd["shape"]:
        raise CheckError(f"grid shape {shape}, expected {cmd['shape']}")
    if not np.all(np.isfinite(grid.rates_bps)) or np.any(grid.rates_bps < 0):
        raise CheckError("rates outside [0, inf)")
    if not set(np.unique(grid.labels).tolist()) <= LABELS:
        raise CheckError("labels outside the legend")
    return {"shape": shape,
            "rates_sha256": _sha256(grid.rates_bps, "<f8"),
            "labels_sha256": _sha256(grid.labels, "i1")}


def check(cmd: dict, seed: int, pin: dict | None) -> dict:
    """Check one command's outputs; return the fields that were read."""
    if cmd["kind"] == "results":
        fields = _results(cmd, seed)
    else:
        fields = _heatmap(cmd)
    if pin is None or pin["seed"] not in (None, seed):
        return fields
    if cmd["kind"] == "results":
        for i, (row, want) in enumerate(zip(fields["rows"], pin["rows"], strict=True)):
            for k in PINNED_FIELDS:
                if row[k] != want[k]:
                    raise CheckError(f"row {i} {k} = {row[k]!r}, pinned {want[k]!r}")
    else:
        for k in ("rates_sha256", "labels_sha256"):
            if fields[k] != pin[k]:
                raise CheckError(f"heat map {k} differs from the pinned grid")
    return fields

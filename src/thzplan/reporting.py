"""Stable on-disk formats for metrics, sweeps, heat maps, and events.

All writers are byte-deterministic: fixed column order, shortest
round-trip float text, LF newlines, atomic replace on close. Identical
inputs give identical files on any platform.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from .simulation import LABEL_NAMES, HeatmapGrid, MetricsReport

RESULT_COLUMNS = (
    "placement_type", "n_aps", "h_m", "seed",
    "user_coverage", "mean_throughput_bps", "ap_idle_fraction", "handoff_count",
)

EVENT_COLUMNS = ("t_s", "event_kind", "user_id", "ap_id")


def fmt(value) -> str:
    """Shortest decimal text that round-trips the value."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write(path, chunks) -> None:
    """Write the text chunks to a sibling temp file, then atomically
    replace path with it. On any failure the temp file is removed and path
    is left as it was; an OSError comes out once, as 'cannot write <path>'."""
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
        with os.fdopen(fd, "w", newline="\n") as fh:  # close flushes, so a full disk fails here
            fh.writelines(chunks)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None:
            os.unlink(tmp)


def result_row(report: MetricsReport) -> tuple:
    return (
        report.placement_type, report.n_aps, report.effective_height_m,
        report.seed, report.user_coverage, report.mean_throughput_bps,
        report.ap_idle_fraction, report.handoff_count,
    )


def write_results(reports, path) -> None:
    """Long-format sweep table, one row per run."""
    _write(path, [",".join(RESULT_COLUMNS) + "\n"]
           + [",".join(fmt(v) for v in result_row(r)) + "\n" for r in reports])


def read_results(path) -> list[dict]:
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            row = dict(zip(header, parts))
            row["n_aps"] = int(row["n_aps"])
            row["seed"] = int(row["seed"])
            row["handoff_count"] = int(row["handoff_count"])
            for k in ("h_m", "user_coverage", "mean_throughput_bps", "ap_idle_fraction"):
                row[k] = float(row[k])
            rows.append(row)
    return rows


def write_events(events, path) -> None:
    rows = (f"{fmt(t)},{kind},{user},{ap}\n" for t, kind, user, ap in events)
    _write(path, itertools.chain([",".join(EVENT_COLUMNS) + "\n"], rows))


def write_heatmap(grid: HeatmapGrid, rates_path, labels_path, meta_path) -> None:
    """Rate grid and label grid as CSV (rows indexed by x), sidecar JSON.

    Each rate is written as fmt writes a float. repr runs once per
    distinct value (by bit pattern, so -0.0 and 0.0 stay apart) and each
    row is joined from that text, so memory stays flat. Labels are single
    digits and go out as one byte buffer. Raises ValueError, before any
    file is created, unless the two grids are 2-D of one shape and every
    label is an integer in 0..len(LABEL_NAMES)-1.
    """
    rates = np.ascontiguousarray(grid.rates_bps, dtype=np.float64)
    labels = np.asarray(grid.labels)
    if rates.ndim != 2 or labels.shape != rates.shape:
        raise ValueError(
            f"heat map grids must be 2-D of one shape, got rates {rates.shape} "
            f"and labels {labels.shape}"
        )
    if labels.size and (
        not np.issubdtype(labels.dtype, np.integer)
        or labels.min() < 0 or labels.max() >= len(LABEL_NAMES)
    ):
        raise ValueError(f"heat map labels must be integers in 0..{len(LABEL_NAMES) - 1}")
    nx, ny = rates.shape
    bits, index = np.unique(rates.view(np.int64).ravel(), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    index = index.reshape(nx, ny)
    digits = np.full((nx, max(2 * ny, 1)), ord(","), dtype=np.uint8)
    digits[:, 0:2 * ny:2] = labels + ord("0")
    digits[:, -1] = ord("\n")
    _write(rates_path, (",".join(text[row].tolist()) + "\n" for row in index))
    _write(labels_path, [digits.tobytes().decode("ascii")])
    write_json({
        "resolution_cells_per_m": grid.resolution_cells_per_m,
        "length_m": grid.length_m,
        "width_m": grid.width_m,
        "device_height_m": grid.device_height_m,
        "probe_rate_bps": grid.probe_rate_bps,
        "label_legend": {str(i): name for i, name in enumerate(LABEL_NAMES)},
        "shape": [nx, ny],
    }, meta_path)


def read_heatmap(rates_path, labels_path, meta_path) -> HeatmapGrid:
    with open(meta_path) as fh:
        meta = json.load(fh)
    rates = np.loadtxt(rates_path, delimiter=",", ndmin=2)
    labels = np.loadtxt(labels_path, delimiter=",", dtype=np.int8, ndmin=2)
    return HeatmapGrid(
        resolution_cells_per_m=meta["resolution_cells_per_m"],
        length_m=meta["length_m"],
        width_m=meta["width_m"],
        device_height_m=meta["device_height_m"],
        probe_rate_bps=meta["probe_rate_bps"],
        rates_bps=rates,
        labels=labels,
    )


def write_text(text: str, path) -> None:
    _write(path, [text])


def write_json(payload: dict, path) -> None:
    write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", path)


def summary_payload(report: MetricsReport) -> dict:
    """Every MetricsReport field but the event log, tuples as lists."""
    payload = {}
    for f in fields(MetricsReport):
        if f.name != "events":
            value = getattr(report, f.name)
            payload[f.name] = list(value) if isinstance(value, tuple) else value
    return payload


@dataclass(frozen=True)
class CrossoverResult:
    """First height where two metric series swap order."""

    metric: str
    series_a: str
    series_b: str
    crossover_h_m: float | None
    bracket: tuple[float, float] | None
    gaps: tuple[float, float] | None  # (a - b) on each side of the bracket


def detect_crossover(
    series_a, series_b, metric: str = "metric",
    name_a: str = "a", name_b: str = "b",
) -> CrossoverResult:
    """Locate the first sign change of (a - b) over a shared height grid.

    Both series are (h, value) sequences on identical grids. The bracket
    spans the two nearest grid points with nonzero gaps of opposite sign.
    When grid points between them have a zero gap, the first of those is
    the reported height; otherwise the gap is linearly interpolated to
    zero inside the bracket. A gap that touches zero and keeps its sign
    is not a crossing.
    """
    ha = [h for h, _ in series_a]
    hb = [h for h, _ in series_b]
    if ha != hb:
        raise ValueError("crossover detection needs identical height grids")
    if len(ha) < 2:
        raise ValueError("crossover detection needs at least two samples")
    gaps = [va - vb for (_, va), (_, vb) in zip(series_a, series_b)]
    last = None  # index of the latest nonzero gap
    for i, g1 in enumerate(gaps):
        if g1 == 0.0:
            continue
        if last is not None and (gaps[last] < 0.0) != (g1 < 0.0):
            g0, h0, h1 = gaps[last], ha[last], ha[i]
            if i == last + 1:
                h_star = h0 + (h1 - h0) * g0 / (g0 - g1)
            else:
                h_star = ha[last + 1]
            return CrossoverResult(metric, name_a, name_b, h_star, (h0, h1), (g0, g1))
        last = i
    return CrossoverResult(metric, name_a, name_b, None, None, None)

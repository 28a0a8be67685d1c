"""Stable on-disk formats for metrics, sweeps, heat maps, and events.

Each format is stated once, and its writer and reader follow from that
statement: RESULT_TABLE gives each results column its MetricsReport
field and read-back type, EVENT_COLUMNS and COVERAGE_COLUMNS name the
other tables' columns, and the heat-map sidecar's scalar keys are
HeatmapGrid's own scalar fields. The results, event and coverage tables
go out through one helper, csv_lines; the heat-map grids have no header
and their own writer.

All writers are byte-deterministic: fixed column order, shortest
round-trip float text, LF newlines, atomic replace on close. Identical
inputs give identical files on any platform.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from .simulation import LABEL_NAMES, HeatmapGrid, MetricsReport

# results.csv and sweep.csv: each column, the MetricsReport field it holds
# and the type it reads back as; a column not listed reads back as text
RESULT_TABLE = (
    ("placement_type", "placement_type", str),
    ("n_aps", "n_aps", int),
    ("h_m", "effective_height_m", float),
    ("seed", "seed", int),
    ("user_coverage", "user_coverage", float),
    ("mean_throughput_bps", "mean_throughput_bps", float),
    ("ap_idle_fraction", "ap_idle_fraction", float),
    ("handoff_count", "handoff_count", int),
)
RESULT_COLUMNS = tuple(column for column, _, _ in RESULT_TABLE)

EVENT_COLUMNS = ("t_s", "event_kind", "user_id", "ap_id")

COVERAGE_COLUMNS = ("f_c_ghz", "beamwidth_deg", "radius_m")


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


def csv_lines(columns, rows):
    """The header, then each row's values as fmt text; LF ends each line."""
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(map(fmt, row)) + "\n"


def result_row(report: MetricsReport) -> tuple:
    return tuple(getattr(report, name) for _, name, _ in RESULT_TABLE)


def write_results(reports, path) -> None:
    """Long-format sweep table, one row per run."""
    _write(path, csv_lines(RESULT_COLUMNS, map(result_row, reports)))


def read_results(path) -> list[dict]:
    kinds = {column: kind for column, _, kind in RESULT_TABLE}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [{c: kinds.get(c, str)(v) for c, v in zip(header, line.rstrip("\n").split(","))}
                for line in fh]


def write_events(events, path) -> None:
    _write(path, csv_lines(EVENT_COLUMNS, events))


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
    meta = {k: v for k, v in vars(grid).items() if np.ndim(v) == 0}  # the scalar fields
    write_json(dict(meta, shape=[nx, ny],
                    label_legend={str(i): name for i, name in enumerate(LABEL_NAMES)}), meta_path)


def read_heatmap(rates_path, labels_path, meta_path) -> HeatmapGrid:
    with open(meta_path) as fh:
        meta = json.load(fh)
    return HeatmapGrid(
        rates_bps=np.loadtxt(rates_path, delimiter=",", ndmin=2),
        labels=np.loadtxt(labels_path, delimiter=",", dtype=np.int8, ndmin=2),
        **{f.name: meta[f.name] for f in fields(HeatmapGrid) if f.name in meta},
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

import json
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import heatmap_csv_rows
from thzplan import reporting
from thzplan.simulation import HeatmapGrid, MetricsReport


def _grid(rates, labels):
    return HeatmapGrid(
        resolution_cells_per_m=2.0, length_m=1.5, width_m=1.0,
        device_height_m=1.5, probe_rate_bps=1e9,
        rates_bps=np.asarray(rates, dtype=float),
        labels=np.asarray(labels, dtype=np.int8),
    )


def test_heatmap_text_matches_fmt(tmp_path):
    rates = [
        [0.0, 1.0, 5776719369.73632],
        [1e300, 5e-324, 2.2250738585072014e-308 / 3],
        [0.1, 123456789012345.67, 1e16],
    ]
    labels = [[0, 1, 2], [2, 1, 0], [1, 1, 1]]
    grid = _grid(rates, labels)
    paths = [tmp_path / n for n in ("rates.csv", "labels.csv", "meta.json")]
    reporting.write_heatmap(grid, *paths)

    want_rates = "".join(
        ",".join(reporting.fmt(v) for v in row) + "\n" for row in grid.rates_bps
    )
    want_labels = "".join(
        ",".join(reporting.fmt(int(v)) for v in row) + "\n" for row in grid.labels
    )
    assert paths[0].read_bytes() == want_rates.encode()
    assert paths[1].read_bytes() == want_labels.encode()
    back = reporting.read_heatmap(*paths)
    assert np.array_equal(back.rates_bps, grid.rates_bps)
    assert np.array_equal(back.labels, grid.labels)


@pytest.mark.parametrize("labels", [
    [[0, 1, 2], [2, 1, 10], [1, 1, 1]],
    [[0, 1, 2], [2, 1, 3], [1, 1, 1]],
    [[0, 1, -1], [2, 1, 0], [1, 1, 1]],
], ids=["ten", "past_legend", "negative"])
def test_heatmap_label_outside_legend_is_rejected_before_any_file(tmp_path, labels):
    grid = _grid(np.ones((3, 3)), labels)
    with pytest.raises(ValueError, match="labels must be integers in 0..2"):
        reporting.write_heatmap(grid, *(tmp_path / n for n in ("r.csv", "l.csv", "m.json")))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("rates,labels", [
    (np.ones((3, 3)), np.ones((3, 2))),
    (np.ones((3, 3)), np.ones((9,))),
    (np.ones(4), np.ones(4)),
])
def test_heatmap_grids_of_other_shapes_are_rejected_before_any_file(tmp_path, rates, labels):
    grid = _grid(rates, labels)
    with pytest.raises(ValueError, match="2-D of one shape"):
        reporting.write_heatmap(grid, *(tmp_path / n for n in ("r.csv", "l.csv", "m.json")))
    assert not any(tmp_path.iterdir())


_SPECIAL_RATES = [
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
    2.2250738585072014e-308, 2.2250738585072014e-308 / 3, 1e300, 0.1,
    5776719369.73632, 123456789012345.67, 1e16, 1.0,
]


@st.composite
def _heatmap_grids(draw):
    nx = draw(st.integers(1, 9))
    ny = draw(st.integers(1, 9))
    # a small pool makes heavy repeats; specials and arbitrary floats mix in
    pool = draw(st.lists(
        st.sampled_from(_SPECIAL_RATES) | st.floats(allow_nan=True, allow_infinity=True),
        min_size=1, max_size=draw(st.sampled_from([1, 3, 60])),
    ))
    layout = draw(st.sampled_from(["C", "F", "sliced"]))
    shape = (2 * nx, 2 * ny) if layout == "sliced" else (nx, ny)
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    rates = np.array(pool, dtype=float)[picks].reshape(shape)
    labels = np.array(draw(st.lists(st.integers(0, 2), min_size=rates.size,
                                    max_size=rates.size)), dtype=np.int8).reshape(shape)
    if layout == "F":
        rates, labels = np.asfortranarray(rates), np.asfortranarray(labels)
    elif layout == "sliced":
        rates, labels = rates[::2, ::-2], labels[1::2, ::2]
    return _grid(rates, labels)


@given(_heatmap_grids())
@settings(max_examples=200, deadline=None)
def test_heatmap_bytes_match_the_row_by_row_writer(grid):
    want_rates, want_labels = heatmap_csv_rows(grid)
    with tempfile.TemporaryDirectory() as d:
        paths = [Path(d) / n for n in ("rates.csv", "labels.csv", "meta.json")]
        reporting.write_heatmap(grid, *paths)
        assert paths[0].read_bytes() == want_rates.encode()
        assert paths[1].read_bytes() == want_labels.encode()
        assert json.loads(paths[2].read_text())["shape"] == list(grid.rates_bps.shape)


def _crossing(gaps):
    hs = [2.0 + 0.5 * i for i in range(len(gaps))]
    a = list(zip(hs, gaps))
    b = [(h, 0.0) for h in hs]
    return reporting.detect_crossover(a, b)


def test_crossover_through_a_zero_gap_reports_that_height():
    got = _crossing([1.0, 0.0, -1.0])
    assert got.crossover_h_m == 2.5
    assert got.bracket == (2.0, 3.0)
    assert got.gaps == (1.0, -1.0)


def test_crossover_through_a_run_of_zero_gaps():
    got = _crossing([-2.0, 0.0, 0.0, 3.0])
    assert got.crossover_h_m == 2.5
    assert got.bracket == (2.0, 3.5)


@pytest.mark.parametrize("gaps", [[1.0, 0.0, 1.0], [-1.0, 0.0, -2.0], [0.0, 1.0, 2.0],
                                  [1.0, 2.0, 0.0]])
def test_zero_gap_touch_is_not_a_crossing(gaps):
    assert _crossing(gaps).crossover_h_m is None


def test_strict_sign_change_interpolates():
    got = _crossing([1.0, -3.0])
    assert got.crossover_h_m == 2.125
    assert got.bracket == (2.0, 2.5)
    assert got.gaps == (1.0, -3.0)


def _report(**kw):
    values = dict(
        placement_type="C", n_aps=12, effective_height_m=0.1 + 0.2, seed=7,
        n_steps=3, blockage_enabled=True, user_coverage=1 / 3,
        mean_throughput_bps=5776719369.73632, ap_idle_fraction=5e-324,
        handoff_count=2**40, per_user_coverage=(0.5, 1 / 3),
        per_user_throughput_bps=(1e300, 0.0), per_ap_idle_fraction=(2 / 3,),
        p_t_w=1e-3 / 12, p_o_w=1e-3, height_correction_m=0.7000000000000001,
        events=((0.01, "handoff", 0, 3),),
    )
    values.update(kw)
    return MetricsReport(**values)


def test_results_round_trip_exactly(tmp_path):
    reports = [_report(), _report(placement_type="A", n_aps=1, user_coverage=0.0,
                                  mean_throughput_bps=123456789012345.67)]
    path = tmp_path / "results.csv"
    reporting.write_results(reports, path)
    rows = reporting.read_results(path)
    assert [tuple(row[c] for c in reporting.RESULT_COLUMNS) for row in rows] == [
        reporting.result_row(r) for r in reports
    ]
    assert [type(v) for v in rows[0].values()] == [str, int, float, int, float, float,
                                                   float, int]


def test_a_column_the_table_does_not_know_reads_back_as_text(tmp_path):
    path = tmp_path / "results.csv"
    reporting.write_results([_report()], path)
    lines = path.read_text().splitlines()
    path.write_text(f"{lines[0]},note\n{lines[1]},7\n")
    [row] = reporting.read_results(path)
    assert list(row) == [*reporting.RESULT_COLUMNS, "note"]
    assert row["note"] == "7"
    assert {c: row[c] for c in reporting.RESULT_COLUMNS} == dict(
        zip(reporting.RESULT_COLUMNS, reporting.result_row(_report())))


def test_event_log_text(tmp_path):
    path = tmp_path / "events.csv"
    reporting.write_events([(0.01, "handoff", 3, 1), (0.1 + 0.2, "blockage_start", 0, -1),
                            (2.0, "alignment_done", 12, 0)], path)
    assert path.read_bytes() == (
        b"t_s,event_kind,user_id,ap_id\n"
        b"0.01,handoff,3,1\n"
        b"0.30000000000000004,blockage_start,0,-1\n"
        b"2.0,alignment_done,12,0\n"
    )


def test_summary_payload_is_every_field_but_events():
    report = _report()
    payload = reporting.summary_payload(report)
    assert set(payload) == {f.name for f in fields(MetricsReport)} - {"events"}
    assert payload["per_user_coverage"] == [0.5, 1 / 3]
    assert payload["handoff_count"] == 2**40
    assert json.loads(json.dumps(payload)) == payload


def test_atomic_text_keeps_target_when_body_raises(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def interrupted():
        yield "partial"
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        reporting._write(target, interrupted())
    assert target.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

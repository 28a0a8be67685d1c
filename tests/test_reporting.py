import numpy as np
import pytest

from thzplan import reporting
from thzplan.simulation import HeatmapGrid


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

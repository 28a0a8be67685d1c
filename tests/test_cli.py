import json
import math
import os
import subprocess
import sys

import pytest

import thzplan
from test_config import BAD_CONFIGS
from thzplan import cli
from thzplan import config as cfgmod
from thzplan import linkbudget as lb
from thzplan import mobility
from thzplan import simulation
from thzplan.simulation import SimConfig


def test_sweep_bad_series_count_exits_2_naming_series(tmp_path, capsys):
    code = cli.main(["sweep", "--types", "Bx", "--values", "2", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'BX'" in err
    assert "invalid literal" not in err


def test_sweep_long_unknown_label_exits_2_with_a_short_line(tmp_path, capsys):
    code = cli.main(["sweep", "--types", "X" + "9" * 5000, "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: series label 'X99999999999...' must start")
    assert err.count("\n") == 1 and len(err) < 100


def test_sweep_removed_layout_exits_2_naming_series(tmp_path, capsys):
    code = cli.main(["sweep", "--types", "F8", "--values", "2", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "'F8'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("text,field", BAD_CONFIGS)
def test_bad_config_exits_2_naming_field(tmp_path, capsys, text, field):
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out = tmp_path / "out"
    code = cli.main(["simulate", "--config", str(path), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert f"configuration error: {field}:" in capsys.readouterr().err
    assert not out.exists()


def test_parse_values_builds_ranges_by_index():
    values = cli._parse_values("0:7000:0.7", "values")
    assert len(values) == 10001
    assert values[-1] == 7000.0
    assert cli._parse_values("2:7:0.5", "values") == [2.0 + 0.5 * i for i in range(11)]


def process_env() -> dict:
    """The environment of a child Python process that imports this
    checkout's thzplan: os.environ with its src directory first on
    PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(thzplan.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# Caps the size of any file the process writes at 16 bytes, so the CSV
# write fails part way through.
_FAILING_WRITE = """
import resource, signal, sys
from thzplan import cli
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (16, 16))
sys.exit(cli.main(["coverage-sweep", "--out", sys.argv[1]]))
"""


def test_failed_coverage_sweep_write_keeps_existing_file(tmp_path):
    old = tmp_path / "coverage_sweep.csv"
    old.write_text("f_c_ghz,beamwidth_deg,radius_m\n570.0,10.0,11.0\n")
    before = old.read_bytes()
    proc = subprocess.run(
        [sys.executable, "-c", _FAILING_WRITE, str(tmp_path)],
        env=process_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == cli.EXIT_RUNTIME, proc.stderr
    assert "coverage_sweep.csv" in proc.stderr
    assert old.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["coverage_sweep.csv"]


def test_an_absorption_that_zeroes_every_snr_runs_without_a_warning(tmp_path):
    # e^(tau d) overflows to inf at tau = 1e3 /m; the SNR 0 that follows
    # is the limit, not a fault, so nothing reaches stderr
    path = tmp_path / "dim.ini"
    path.write_text("[radio]\ntau_override_per_m = 1000\n[simulation]\nduration_s = 0.05\n")
    proc = subprocess.run(
        [sys.executable, "-m", "thzplan.cli", "simulate", "--config", str(path),
         "--out", str(tmp_path / "out")],
        env=process_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr == ""


_GOLDEN_CONFIG = """[users]
n_users = 12
[simulation]
duration_s = 0.5
seed = 3
blockage = on
"""


def _run_golden(tmp_path, name):
    cfg = tmp_path / "golden.ini"
    cfg.write_text(_GOLDEN_CONFIG)
    out = tmp_path / name
    assert cli.main(["simulate", "--config", str(cfg), "--events",
                     "--out", str(out / "simulate")]) == cli.EXIT_OK
    assert cli.main(["sweep", "--config", str(cfg), "--types", "B4,C4",
                     "--out", str(out / "sweep")]) == cli.EXIT_OK
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_same_config_and_seed_give_byte_identical_files(tmp_path, capsys):
    first = _run_golden(tmp_path, "first")
    second = _run_golden(tmp_path, "second")
    assert sorted(first) == [
        "simulate/events.csv", "simulate/results.csv", "simulate/summary.json",
        "sweep/manifest.json", "sweep/sweep.csv",
    ]
    assert first["simulate/events.csv"].count(b"\n") > 1
    assert first["sweep/sweep.csv"].count(b"\n") == 1 + 2 * 11
    assert first == second


def test_sweep_in_a_process_pool_writes_the_same_table(tmp_path, capsys):
    cfg = tmp_path / "golden.ini"
    cfg.write_text(_GOLDEN_CONFIG)
    tables = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main(["sweep", "--config", str(cfg), "--types", "A,B4,C8",
                         "--values", "2:4:0.5", "--jobs", jobs, "--out", str(out)]) == cli.EXIT_OK
        tables.append((out / "sweep.csv").read_bytes())
    assert tables[0].count(b"\n") == 1 + 3 * 5
    assert tables[0] == tables[1]


_TINY_CONFIG = """[users]
n_users = 3
[simulation]
duration_s = 0.05
"""


def _tiny_config(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(_TINY_CONFIG)
    return str(path)


@pytest.mark.parametrize("argv", [
    pytest.param(["--axis", "N", "--values", "4.5,8"], id="N-4.5"),
    pytest.param(["--axis", "N", "--values", "5"], id="N-5"),
    pytest.param(["--axis", "N", "--values", "4", "--types", "A"], id="N-4-type-A"),
    pytest.param(["--axis", "H", "--values", "0,2"], id="H-0"),
    pytest.param(["--axis", "H", "--values", "1e200"], id="H-1e200"),
    pytest.param(["--axis", "H", "--values", "nan"], id="H-nan"),
    pytest.param(["--axis", "placement_type", "--values", ","], id="placement-none"),
])
def test_non_whole_ap_count_in_sweep_exits_2_naming_values(tmp_path, capsys, argv):
    # a point that --values cannot reach names the flag, not the config field it sets
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", _tiny_config(tmp_path), *argv, "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: values: ")
    assert not out.exists()


def test_sweep_along_n_writes_the_table_of_the_same_series(tmp_path, capsys):
    # B,C along N and the six series at the config's H are the same runs
    tables = []
    for i, argv in enumerate([["--axis", "N", "--values", "4,8,16", "--types", "B,C"],
                              ["--types", "B4,B8,B16,C4,C8,C16", "--values", "1.5"]]):
        out = tmp_path / f"out{i}"
        assert cli.main(["sweep", "--config", _tiny_config(tmp_path), *argv,
                         "--out", str(out)]) == cli.EXIT_OK
        tables.append((out / "sweep.csv").read_bytes())
    assert tables[0].count(b"\n") == 1 + 6
    assert tables[0] == tables[1]


def test_sweep_along_n_records_and_names_whole_counts(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", _tiny_config(tmp_path), "--axis", "N",
                     "--values", "4,8.0,16", "--types", "B", "--out", str(out)]) == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["sweep"]["values"] == [4, 8, 16]
    capsys.readouterr()
    assert cli.main(["sweep", "--axis", "N", "--values", "5", "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.rstrip().endswith("got 5")


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--values", "2,abc"], "values"),
    (["sweep", "--values", "2:x:1"], "values"),
    (["sweep", "--values", "2:inf:1"], "values"),
    (["coverage-sweep", "--frequencies", "abc"], "frequencies"),
    (["coverage-sweep", "--beamwidths", "5,nan"], "beamwidths"),
    (["heatmap", "--resolution", "nan"], "resolution"),
    # an empty axis names its flag; with both empty, the first
    (["coverage-sweep", "--frequencies", ","], "frequencies"),
    (["coverage-sweep", "--beamwidths", ","], "beamwidths"),
    (["coverage-sweep", "--frequencies", ",", "--beamwidths", ","], "frequencies"),
])
def test_unreadable_number_exits_2_naming_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    code = cli.main([*argv, "--config", _tiny_config(tmp_path), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {flag}:")
    assert not out.exists()


# A long, narrow room where the 16 wall mounts sit closer to the floor
# cells than the 4 x 4 ceiling grid: no wall height correction exists.
_LONG_C_ROOM = """[room]
room_l_m = 28
room_w_m = 3
[placement]
placement_type = C
n_aps = 16
[users]
n_users = 3
[simulation]
duration_s = 0.05
"""


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["simulate", "--out", "out"],
    ["heatmap", "--resolution", "1", "--out", "out"],
    ["sweep", "--values", "2,3", "--out", "out"],
])
def test_c_layout_without_height_correction_exits_2_naming_placement(
    tmp_path, capsys, monkeypatch, argv
):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "long.ini"
    path.write_text(_LONG_C_ROOM)
    code = cli.main([*argv, "--config", str(path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error: placement_type: C16" in err
    assert "28 x 3 m room" in err
    assert [p.name for p in tmp_path.iterdir()] == ["long.ini"]


@pytest.mark.parametrize("placement", ["B", "C"])
@pytest.mark.parametrize("argv", [
    ["validate"],
    ["radius"],
    ["simulate", "--out", "out"],
    ["heatmap", "--resolution", "1", "--out", "out"],
])
def test_frequency_outside_the_absorption_table_exits_2_naming_f_c(
    tmp_path, capsys, monkeypatch, argv, placement
):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "f5000.ini"
    path.write_text(f"[radio]\nf_c_ghz = 5000\n[placement]\nplacement_type = {placement}\n")
    assert cli.main([*argv, "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: f_c_ghz: ")
    assert [p.name for p in tmp_path.iterdir()] == ["f5000.ini"]


def test_sweep_checks_every_series_before_the_first_run(tmp_path, capsys, monkeypatch):
    # B4 fits the 28 x 3 m room, C16 does not: no B4 run may start
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "long.ini"
    path.write_text(_LONG_C_ROOM)
    calls = []  # no crowd may be set up: a run fails before its first step
    init_users = mobility.init_users
    monkeypatch.setattr(mobility, "init_users",
                        lambda *a, **kw: calls.append(1) or init_users(*a, **kw))
    code = cli.main(["sweep", "--config", str(path), "--types", "B4,C16", "--values", "2,3",
                     "--out", "out"])
    assert code == cli.EXIT_CONFIG
    assert "configuration error: placement_type: C16" in capsys.readouterr().err
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["long.ini"]


@pytest.mark.parametrize("types", [",", " , ,", ""])
def test_sweep_types_without_a_series_exits_2_naming_types(tmp_path, capsys, types):
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", _tiny_config(tmp_path), "--types", types,
                     "--values", "2", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "configuration error: types:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t,n", [("A", "16"), ("B", "5")])
def test_heatmap_type_a_with_other_count_exits_2_naming_n(tmp_path, capsys, t, n):
    out = tmp_path / "out"
    code = cli.main(["heatmap", "--type", t, "--n", n, "--resolution", "1",
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "configuration error: n:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("t", ["B", "C"])
def test_heatmap_from_a_type_a_config_takes_the_first_count(tmp_path, t):
    a_ini = tmp_path / "a.ini"
    a_ini.write_text("[placement]\nplacement_type = A\n")
    out = tmp_path / "out"
    assert cli.main(["heatmap", "--config", str(a_ini), "--type", t, "--resolution", "1",
                     "--out", str(out)]) == cli.EXIT_OK
    resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
    assert (resolved["placement_type"], resolved["n_aps"]) == (t, 4)


@pytest.mark.parametrize("label", [
    "A4", "B5", pytest.param("B" + "9" * 5000, id="B-5000-digits")])
def test_sweep_series_count_the_type_does_not_take_exits_2_naming_label(
        tmp_path, capsys, label):
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", _tiny_config(tmp_path), "--types", f"B4,{label}",
                     "--values", "2", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    shown = label if len(label) <= 12 else label[:12] + "..."  # a long label is cut
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: series label {shown!r}:")
    assert err.count("\n") == 1 and len(err) < 100
    assert not out.exists()


def test_heatmap_n_without_type_sets_the_count(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["heatmap", "--n", "8", "--resolution", "1",
                     "--out", str(out)]) == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["n_aps"] == 8


def test_type_a_file_records_the_one_ap_it_runs(tmp_path):
    a_ini = tmp_path / "a.ini"
    a_ini.write_text("[placement]\nplacement_type = A\n[simulation]\nduration_s = 0.05\n")
    b_ini = tmp_path / "b.ini"
    b_ini.write_text("[simulation]\nduration_s = 0.05\n")
    sim_out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(a_ini), "--out", str(sim_out)]) == cli.EXIT_OK
    manifest = json.loads((sim_out / "summary.json").read_text())["manifest"]
    assert manifest["resolved_config"]["n_aps"] == 1
    assert (sim_out / "results.csv").read_text().splitlines()[1].startswith("A,1,")
    # the same A1 run, from the file or from the flag, records one manifest
    runs = [["--config", str(a_ini)], ["--config", str(b_ini), "--type", "A"]]
    for i, argv in enumerate(runs):
        assert cli.main(["heatmap", *argv, "--resolution", "1",
                         "--out", str(tmp_path / f"hm{i}")]) == cli.EXIT_OK
    assert (tmp_path / "hm0" / "manifest.json").read_bytes() == (
        tmp_path / "hm1" / "manifest.json").read_bytes()


@pytest.mark.parametrize("argv,rows", [
    (["--types", "A", "--values", "2"], ["A,1,2.0"]),
    (["--axis", "placement_type", "--values", "A,B,C"], ["A,1,", "B,4,", "C,4,"]),
    # a later --config wins: from a type-A config, B and C take their first count
    (["--config", "a.ini", "--axis", "placement_type", "--values", "A,B,C"],
     ["A,1,", "B,4,", "C,4,"]),
])
def test_sweep_runs_type_a_with_one_ap(tmp_path, capsys, monkeypatch, argv, rows):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.ini").write_text(_TINY_CONFIG + "[placement]\nplacement_type = A\n")
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", _tiny_config(tmp_path), *argv, "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()[1:]
    assert len(lines) == len(rows)
    assert all(line.startswith(row) for line, row in zip(lines, rows))


@pytest.mark.parametrize("argv,flag", [
    (["radius", "-s", "nan"], "--spectral-efficiency/-s"),
    (["radius", "-s", "inf"], "--spectral-efficiency/-s"),
    (["radius", "-s", "0"], "--spectral-efficiency/-s"),
    (["radius", "-s", "-1"], "--spectral-efficiency/-s"),
    (["coverage-sweep", "-s", "0"], "--spectral-efficiency/-s"),
    (["coverage-sweep", "--spectral-efficiency", "nan"], "--spectral-efficiency/-s"),
    (["heatmap", "--resolution", "1", "--probe-rate", "nan"], "--probe-rate"),
    (["heatmap", "--resolution", "1", "--probe-rate", "0"], "--probe-rate"),
])
def test_float_flag_needs_finite_positive_number(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert f"argument {flag}: expected a finite positive number" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,field", [
    (["radius", "-s", "2000"], "spectral-efficiency"),
    (["radius", "-s", "1e-300"], "spectral-efficiency"),
    (["coverage-sweep", "--frequencies", "5000", "--out", "out"], "frequencies"),
    (["coverage-sweep", "--beamwidths", "400", "--out", "out"], "beamwidths"),
    (["coverage-sweep", "-s", "2000", "--out", "out"], "spectral-efficiency"),
    # a rule tying both point fields names both flags
    (["coverage-sweep", "--beamwidths", "1e-300", "--out", "out"], "frequencies/beamwidths"),
])
def test_radius_out_of_range_exits_2_naming_field(tmp_path, capsys, monkeypatch, argv, field):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"configuration error: {field}:")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["heatmap", "--blockage", "on"],
    ["heatmap", "--seed", "3"],
    ["radius", "--seed", "3"],
    ["coverage-sweep", "--blockage", "off"],
])
def test_commands_without_a_crowd_reject_seed_and_blockage(tmp_path, capsys, monkeypatch, argv):
    # no crowd is drawn, so neither setting could change what they write
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("jobs", ["0", "-3", "1.5", "two"])
def test_jobs_needs_positive_whole_number(tmp_path, capsys, monkeypatch, jobs):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--values", "2", "--jobs", jobs])
    assert exc.value.code == cli.EXIT_CONFIG
    assert "argument --jobs:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    assert cli.build_parser().parse_args(["sweep", "--jobs", "1"]).jobs == 1


def test_radius_ceil_rounds_up_to_whole_metres(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "radius.ini"
    cfg.write_text("[radio]\np_o_dbm = -15.4\ntau_override_per_m = 0\n")
    for extra in ([], ["--ceil"]):
        assert cli.main(["radius", "--config", str(cfg), "-s", "0.5", *extra]) == cli.EXIT_OK
    plain, ceiled = capsys.readouterr().out.splitlines()
    assert 4.0 < float(plain) < 5.0
    assert ceiled == "5"
    # P_t contrived so the radius constant is 25 and the radius exactly 5 m
    base = SimConfig(tau_override=0.0).link
    g = lb.antenna_gain(base.beamwidth_deg) ** 2
    k_unit = g / (
        base.noise_psd_w_hz * base.bandwidth_hz
        * (4 * math.pi * base.f_c_hz / lb.SPEED_OF_LIGHT) ** 2
        * (2 ** 0.5 - 1)
    )
    exact = SimConfig(n_aps=4, p_o_w=4 * (25.0 / k_unit), tau_override=0.0)
    monkeypatch.setattr(cfgmod, "load_config", lambda *args: (exact, {}))
    assert cli.main(["radius", "-s", "0.5", "--ceil"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "5\n"


_FUZZ_VALUES = ["0", "-1", "1e-320", "1e300", "-1e300", "nan", "inf", "", "x"]


@pytest.mark.parametrize("value", _FUZZ_VALUES)
@pytest.mark.parametrize("key", list(cfgmod._TABLE))
def test_a_config_that_validates_runs(tmp_path, capsys, key, value):
    path = tmp_path / "fuzz.ini"
    path.write_text(f"[fuzz]\n{key} = {value}\n")
    code = cli.main(["validate", "--config", str(path)])
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG), err
    if code == cli.EXIT_CONFIG:
        assert err.startswith(f"configuration error: {key}"), err
        return
    assert cli.main(["radius", "--config", str(path)]) == cli.EXIT_OK, capsys.readouterr().err
    # The simulate leg runs one step of at most 50 users, and for the
    # dt_ms and duration_s rows only when the file asks for at most 10
    # steps. These limits keep this test small; they are not bounds that
    # the program puts on a config.
    if key not in ("dt_ms", "duration_s"):
        path.write_text(f"[fuzz]\n{key} = {value}\nduration_s = {SimConfig.dt_s}\n")
    cfg, _ = cfgmod.load_config(path)
    if cfg.n_users > 50 or round(cfg.duration_s / cfg.dt_s) > 10:
        return
    code = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK, capsys.readouterr().err

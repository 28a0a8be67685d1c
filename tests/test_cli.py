from thzplan import cli


def test_sweep_bad_series_count_exits_2_naming_series(tmp_path, capsys):
    code = cli.main(["sweep", "--types", "Bx", "--values", "2", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'BX'" in err
    assert "invalid literal" not in err

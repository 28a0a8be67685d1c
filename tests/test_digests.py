"""Every output byte of a fixed list of small CLI commands, pinned.

Each case in OUTPUT_CASES runs one command in-process. Its exit code, its
stdout (the output root written as "<out>") and the size and sha256 of
every file it writes must equal its row of tests/digests.json. Like
TestRegression, the digests rest on numpy's exp, log2 and sqrt, bit for
bit. Each case in FAILURE_CASES must exit 2, print its stderr prefix and
write nothing, both in-process and in a process of its own, which also
covers the real exit status and cli's __main__ block. These lists are the
one statement of the CLI's cases; CI's smoke step runs only the installed
console script.

The table is a pin: an intended change of output bytes regenerates it by
hand, and the change records the old and new digests:

    PYTHONPATH=src python tests/test_digests.py > tests/digests.json

The tests only read it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from test_cli import process_env
from thzplan import cli

TABLE_PATH = Path(__file__).with_name("digests.json")

# config files by name; an argv names one as {name}, and the output root as {out}
CONFIGS = {
    "golden": "[users]\nn_users = 12\n[simulation]\nduration_s = 0.5\nseed = 3\nblockage = on\n",
    "empty": "[users]\nn_users = 0\n[simulation]\nduration_s = 0.5\nblockage = on\n",
    "single": "[users]\nn_users = 20\n[simulation]\nduration_s = 1.0\nseed = 5\n"
              "blockage = on\nshare_mode = single_user\npause_s = 0.1\n",
    "pauses": "[users]\nn_users = 20\n[simulation]\nduration_s = 3.0\nseed = 5\n"
              "blockage = on\nshare_mode = single_user\npause_s = 0.1\n",
    "short": "[simulation]\nduration_s = 0.05\n",
    "blocked": "[simulation]\nduration_s = 0.05\nblockage = on\n",
    "type_a": "[placement]\nplacement_type = A\n[simulation]\nduration_s = 0.05\n",
    "nan": "[simulation]\nduration_s = nan\n",
    "long": "[room]\nroom_l_m = 28\nroom_w_m = 3\n[simulation]\nduration_s = 0.05\n",
    "a16": "[placement]\nplacement_type = A\nn_aps = 16\n",
    "f5000": "[radio]\nf_c_ghz = 5000\n",
    "below": "[users]\nuser_height_m = -1\n",
    "huge": "[room]\nroom_l_m = 1e300\n",
    "twice": "[radio]\nf_c_ghz = 300\n[room]\nf_c_ghz = 600\n",
    "opaque": "[radio]\ntau_override_per_m = 1e305\n",
}

OUTPUT_CASES = {
    "simulate-golden": "simulate --config {golden} --events --out {out}",
    "simulate-empty": "simulate --config {empty} --events --out {out}",
    "simulate-single-user": "simulate --config {single} --events --out {out}",
    "simulate-pauses": "simulate --config {pauses} --events --out {out}",
    "sweep-b4-c4": "sweep --config {golden} --types B4,C4 --out {out}",
    "sweep-mixed-blocked": "sweep --config {blocked} --types A,B16,C8 --values 1.5:3.5:1 "
                           "--out {out}",
    "sweep-n": "sweep --config {short} --axis N --values 4,8,16 --types B,C --out {out}",
    "sweep-placement": "sweep --config {type_a} --axis placement_type --values A,B,C "
                       "--out {out}",
    "heatmap-c4": "heatmap --config {short} --type C --n 4 --resolution 5 --out {out}",
    "heatmap-a-to-b": "heatmap --config {type_a} --type B --resolution 5 --out {out}",
    "coverage-sweep": "coverage-sweep --config {short} --frequencies 300:900:100 "
                      "--beamwidths 5,10,20 --out {out}",
    "validate": "validate",
    "validate-type-a": "validate --config {type_a}",
    "radius": "radius -s 0.1",
    "heatmap-a": "heatmap --type A --n 1 --resolution 2 --out {out}",
    "sweep-one-series-jobs-2": "sweep --config {short} --jobs 2 --values 2:3:0.5 --out {out}",
    "sweep-mixed-blocked-jobs-2": "sweep --config {blocked} --types A,B16,C8 "
                                  "--values 1.5:3.5:1 --jobs 2 --out {out}",
    "coverage-sweep-defaults": "coverage-sweep --out {out}",
}

# the exit-2 paths of the CLI, each with the start of its stderr
FAILURE_CASES = {
    "validate-nan": ("validate --config {nan}", "configuration error: duration_s:"),
    "radius-nan": ("radius -s nan", "usage: thzplan radius"),
    "heatmap-resolution": ("heatmap --resolution 10.01 --out {out}",
                           "configuration error: resolution:"),
    "sweep-jobs-0": ("sweep --jobs 0 --out {out}", "usage: thzplan sweep"),
    "sweep-types-empty": ("sweep --types , --out {out}", "configuration error: types:"),
    "sweep-no-wall-correction": ("sweep --config {long} --types B4,C16 --out {out}",
                                 "configuration error: placement_type:"),
    "validate-a16": ("validate --config {a16}", "configuration error: n_aps:"),
    "sweep-a4": ("sweep --types A4 --out {out}", "configuration error: series label 'A4'"),
    "validate-f5000": ("validate --config {f5000}", "configuration error: f_c_ghz:"),
    "validate-below": ("validate --config {below}", "configuration error: user_height_m:"),
    "validate-huge": ("validate --config {huge}", "configuration error: room_l_m:"),
    "radius-2000": ("radius -s 2000", "configuration error: spectral-efficiency:"),
    "coverage-sweep-5000": ("coverage-sweep --frequencies 5000 --out {out}",
                            "configuration error: frequencies:"),
    "coverage-sweep-empty": ("coverage-sweep --frequencies , --out {out}",
                             "configuration error: frequencies:"),
    "heatmap-blockage": ("heatmap --blockage on --out {out}", "usage: thzplan"),
    "sweep-n-5": ("sweep --axis N --values 5 --out {out}", "configuration error: values:"),
    "validate-twice": ("validate --config {twice}", "configuration error: f_c_ghz:"),
    "radius-opaque": ("radius --config {opaque} -s 1e-9 --ceil",
                      "configuration error: spectral-efficiency:"),
}


def _argv(command: str, root: Path) -> list[str]:
    """One command's arguments, its configs written under root and its
    output root at root/out."""
    names = {"out": str(root / "out")}
    for name, text in CONFIGS.items():
        names[name] = str(root / f"{name}.ini")
        Path(names[name]).write_text(text)
    return [arg.format(**names) for arg in command.split()]


def _main(command: str, root: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(_argv(command, root))
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def outputs(command: str, root: Path) -> dict:
    """One command's row of the table: exit code, stdout, and [size, sha256]
    of each file under the output root by its relative path."""
    code, stdout, _ = _main(command, root)
    out = root / "out"
    files = {p.relative_to(out).as_posix(): [p.stat().st_size,
                                             hashlib.sha256(p.read_bytes()).hexdigest()]
             for p in sorted(out.rglob("*")) if p.is_file()}
    return {"exit": code, "stdout": stdout.replace(str(out), "<out>"), "files": files}


def test_the_table_has_one_row_per_case():
    assert sorted(json.loads(TABLE_PATH.read_text())) == sorted(OUTPUT_CASES)


@pytest.mark.parametrize("name", sorted(OUTPUT_CASES))
def test_every_output_byte_is_pinned(tmp_path, name):
    assert outputs(OUTPUT_CASES[name], tmp_path) == json.loads(TABLE_PATH.read_text())[name]


def test_the_pool_writes_the_in_process_files():
    table = json.loads(TABLE_PATH.read_text())
    assert table["sweep-mixed-blocked-jobs-2"] == table["sweep-mixed-blocked"]


def _exits_2(name: str, root: Path, code: int, stdout: str, stderr: str) -> None:
    """The four checks of a failure case: exit 2, nothing on stdout, its
    stderr prefix, and no output root."""
    assert (code, stdout) == (cli.EXIT_CONFIG, "")
    assert stderr.startswith(FAILURE_CASES[name][1]), stderr
    assert not (root / "out").exists()


@pytest.mark.parametrize("name", sorted(FAILURE_CASES))
def test_smoke_failure_exits_2_with_its_message(tmp_path, name):
    _exits_2(name, tmp_path, *_main(FAILURE_CASES[name][0], tmp_path))


@pytest.mark.parametrize("name", sorted(FAILURE_CASES))
def test_smoke_failure_exits_2_from_a_process(tmp_path, name):
    proc = subprocess.run(
        [sys.executable, "-m", "thzplan.cli", *_argv(FAILURE_CASES[name][0], tmp_path)],
        env=process_env(), capture_output=True, text=True, timeout=120,
    )
    _exits_2(name, tmp_path, proc.returncode, proc.stdout, proc.stderr)


if __name__ == "__main__":  # prints the table; see the module docstring
    table = {}
    for case, argv in sorted(OUTPUT_CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            table[case] = outputs(argv, Path(tmp))
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

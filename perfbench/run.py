"""Benchmark of the ``thzplan`` CLI: end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload walk --seed 1 --seconds 38 --trace 0

Each run writes the workload's INI config from the seed, then starts
fresh single-threaded worker processes (BLAS/OpenMP pinned to one
thread, ``sweep --jobs 1``) that call ``thzplan.cli.main`` in-process:
one warm-up and several set-up probes, then the measuring worker. The
worker repeats the workload for ``--seconds`` in a closed loop with one
caller and checks every output (see checks.py). With ``--trace 1`` it
then runs one more repetition with the layer functions wrapped (see
spans.py) and reports per-layer figures instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before
it give every metric by name and unit, the error rate and the machine
and code the run used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINS_PATH = BENCH_DIR / "pins.json"

SETUP_PROBES = 6
MIN_REPS = 3
WORKER_TIMEOUT_S = 170.0
SINGLE_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """A run that could not be measured; no result is printed."""


def _child_env(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.update({k: "1" for k in SINGLE_THREAD_ENV})
    return env


def _spawn(spec: dict, work: Path, tag: str, env: dict) -> tuple[dict, float]:
    """Run one worker to completion; return its result and peak RSS in MB.

    The peak is the ``ru_maxrss`` of this one child, read with wait4.
    """
    spec = dict(spec, result_path=str(work / f"result-{tag}.json"))
    spec_path = work / f"spec-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path), repr(t_spawn)],
        env=env, cwd=str(ROOT), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    deadline = t_spawn + WORKER_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise BenchError(f"worker {tag} exceeded {WORKER_TIMEOUT_S:g} s")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with status {proc.returncode}")
    with open(spec["result_path"]) as fh:
        return json.load(fh), usage.ru_maxrss / 1024.0


def bench(workload: str, seed: int, seconds: float, trace: bool, *,
          size: str = "full", setup_probes: int = SETUP_PROBES,
          pins_path: Path = PINS_PATH) -> dict:
    """Measure one run; return metrics, counts and the machine record."""
    src = ROOT / "src"
    if not (src / "thzplan" / "__init__.py").is_file():
        raise BenchError(f"no thzplan sources under {src}")
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.plan(workload, size, seed, str(work))
        Path(plan["config_path"]).write_text(plan["config_text"])
        spec = {"plan": plan, "src_dir": str(src), "pins_path": str(pins_path),
                "pin_key": workloads.pin_key(workload, size),
                "seconds": seconds, "trace": bool(trace), "min_reps": MIN_REPS,
                "mode": "setup"}
        env = _child_env(src)
        _spawn(spec, work, "warmup", env)
        setups = [_spawn(spec, work, f"setup{i}", env)[0]["setup_s"]
                  for i in range(setup_probes)]
        res, peak_rss_mb = _spawn(dict(spec, mode="measure"), work, "measure", env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])
    reps = res["reps"]
    attempted, failed = res["attempted"], res["failed"]
    end_to_end = {
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s"),
        "user_steps_per_s": (statistics.median(
            r["user_steps"] / r["steps_wall_s"] for r in reps), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    layers = res.get("layers", {})
    layers["error_rate"] = (failed / attempted, "ratio")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": layers if trace else end_to_end,
        "error_rate": failed / attempted,
        "reps": len(reps),
        "errors": res["errors"],
        "observed": res["observed"],
        "machine": machine_record(res["numpy"]),
    }


def _git(*args) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", *args], cwd=str(ROOT), env=env, timeout=30,
                             capture_output=True, text=True, stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(numpy_version: str) -> dict:
    """The machine and the code a run measured."""
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no") if sha else None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "thzplan").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "source_sha256": digest.hexdigest(),
    }


def result_line(result: dict) -> str:
    """The last line of a run's output: one JSON object."""
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} {value!r} {unit}")
    print(f"error_rate {result['error_rate']!r} ratio "
          f"({result['failed']} of {result['attempted']} operations failed, "
          f"{result['reps']} repetitions)")
    for err in result["errors"]:
        print(f"failure: {err}")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

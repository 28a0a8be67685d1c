"""Self-tests of the benchmark at a tiny size.

Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload, seed=1, trace=False, **kw):
    return run.bench(workload, seed, 0.05, trace, size="tiny", setup_probes=1, **kw)


class ScratchDir(unittest.TestCase):
    def setUp(self):
        base = run.ROOT / ".perfbench_work"
        base.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
        self.addCleanup(shutil.rmtree, self.tmp, True)


class TestMetrics(unittest.TestCase):
    def test_every_metric_comes_out_with_its_unit(self):
        for key, trace in (("end_to_end", False), ("per_layer", True)):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in workloads.NAMES:
                with self.subTest(workload=name, trace=trace):
                    result = tiny(name, trace=trace)
                    line = json.loads(run.result_line(result))
                    self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(line["correct"], result["errors"])
                    self.assertEqual(line["failed"], 0)
                    got = {k: v["unit"] for k, v in line["metrics"].items()}
                    self.assertEqual(got, want)

    def test_traced_blockage_counts(self):
        layers = tiny("crowd", trace=True)["metrics"]
        calls = layers["geometry.blocked_matrix.calls"][0]
        users = workloads.SIZES["tiny"]["crowd"]["n_users"]
        self.assertEqual(calls, 2)
        self.assertEqual(layers["geometry.blocked_matrix.triples"][0], calls * users * 4 * users)
        self.assertEqual(tiny("walk", trace=True)["metrics"]["geometry.blocked_matrix.calls"][0], 0)


class TestPins(ScratchDir):
    def test_perturbed_pin_gives_nonzero_error_rate(self):
        pins = json.loads(run.PINS_PATH.read_text())
        pins["walk-tiny"]["simulate"]["rows"][0]["user_coverage"] += 1e-12
        pins["survey-tiny"]["heatmap-C4"]["rates_sha256"] = "0" * 64
        path = self.tmp / "pins.json"
        path.write_text(json.dumps(pins))
        for name in ("walk", "survey"):
            with self.subTest(workload=name):
                result = tiny(name, pins_path=path)
                self.assertGreater(result["error_rate"], 0.0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["metrics"]["wall_s"][1], "s")

    def test_unpinned_seed_passes_range_checks(self):
        self.assertTrue(tiny("survey", seed=3)["correct"])


class TestSeed(ScratchDir):
    def test_seed_reaches_generated_config_and_outputs(self):
        from thzplan import config

        plan = workloads.plan("walk", "tiny", 7, str(self.tmp))
        path = Path(plan["config_path"])
        path.write_text(plan["config_text"])
        _, settings = config.load_config(str(path))
        self.assertEqual(settings["seed"], 7)
        result = tiny("walk", seed=7)
        self.assertTrue(result["correct"], result["errors"])
        self.assertEqual(result["observed"]["simulate"]["rows"][0]["seed"], 7)


class TestTracer(unittest.TestCase):
    def test_wrappers_are_removed(self):
        from spans import TRACED, Tracer

        from thzplan import cli

        tracer = Tracer()
        tracer.install()
        try:
            self.assertRaises(RuntimeError, tracer.assert_clean)
        finally:
            tracer.remove()
        tracer.assert_clean()
        self.assertIs(cli.main, tracer.originals[("cli", "main")])
        self.assertEqual(len(tracer.originals), len(TRACED))


class TestBareDirectory(ScratchDir):
    def test_fails_without_the_program(self):
        shutil.copy(run.ROOT / "BENCHMARK.json", self.tmp)
        shutil.copytree(run.BENCH_DIR, self.tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "walk", "--seconds", "1"],
            cwd=self.tmp, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()

"""One benchmark process: set up, then repeat the workload in a closed loop.

Started by run.py as ``python3 worker.py <spec.json> <t_spawn>``, where
t_spawn is the parent's ``time.monotonic()`` just before the spawn, so
set-up time counts from process start. Set-up imports ``thzplan``, loads
the workload's config and loads the absorption table, as every CLI
invocation does. Writes its result as JSON to the spec's result path.
"""

import json
import os
import statistics
import sys
import time


def _setup(spec):
    from thzplan import config, linkbudget

    cfg, _ = config.load_config(spec["plan"]["config_path"])
    linkbudget.absorption_for(cfg.link)
    return time.monotonic()


class Loop:
    """Runs repetitions of the workload and checks every output."""

    def __init__(self, spec, tracer):
        from thzplan import cli

        import checks

        self.cli = cli
        self.checks = checks
        self.plan = spec["plan"]
        self.seed = spec["plan"]["seed"]
        self.tracer = tracer
        with open(spec["pins_path"]) as fh:
            self.pins = json.load(fh).get(spec["pin_key"], {})
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def _call(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # noqa: BLE001 - a failed operation, not a crash
            return repr(exc)

    def _check(self, cmd, rc):
        label = cmd["label"]
        try:
            if rc != 0:
                raise self.checks.CheckError(f"exit status {rc!r}")
            fields = self.checks.check(cmd, self.seed, self.pins.get(label))
            if self.first.setdefault(label, fields) != fields:
                raise self.checks.CheckError("output differs from the first repetition")
        except Exception as exc:  # noqa: BLE001 - counted and reported
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {exc!r}")

    def rep(self, traced=False):
        wall = steps_wall = 0.0
        user_steps = 0
        for cmd in self.plan["commands"]:
            if not traced:
                self.tracer.assert_clean()
            self.attempted += 1
            t0 = time.perf_counter()
            rc = self._call(cmd["argv"])
            dt = time.perf_counter() - t0
            wall += dt
            if cmd["user_steps"]:
                steps_wall += dt
                user_steps += cmd["user_steps"]
            self._check(cmd, rc)
        return {"wall_s": wall, "user_steps": user_steps, "steps_wall_s": steps_wall}


def _bytes_written(plan):
    total = 0
    for cmd in plan["commands"]:
        with os.scandir(cmd["out"]) as entries:
            total += sum(e.stat().st_size for e in entries if e.is_file())
    return total


def main(spec_path, t_spawn):
    with open(spec_path) as fh:
        spec = json.load(fh)
    setup_end = _setup(spec)
    result = {"setup_s": setup_end - t_spawn}

    import numpy
    import thzplan

    src = os.path.realpath(spec["src_dir"])
    if not os.path.realpath(thzplan.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported thzplan from {thzplan.__file__}, not {src}")
    result["numpy"] = numpy.__version__
    if spec["mode"] == "measure":
        from spans import Tracer

        tracer = Tracer()
        loop = Loop(spec, tracer)
        reps = []
        t_loop = time.perf_counter()
        while (len(reps) < spec["min_reps"]
               or time.perf_counter() - t_loop < spec["seconds"]):
            reps.append(loop.rep())
        result["reps"] = reps
        if spec["trace"]:
            tracer.install()
            try:
                traced = loop.rep(traced=True)
            finally:
                tracer.remove()
            layers = tracer.metrics()
            layers["reporting.bytes_written"] = (_bytes_written(loop.plan), "bytes")
            layers["trace.wall_s"] = (traced["wall_s"], "s")
            layers["trace.overhead_s"] = (
                traced["wall_s"] - statistics.median(r["wall_s"] for r in reps), "s")
            result["layers"] = layers
        result.update(attempted=loop.attempted, failed=loop.failed,
                      errors=loop.errors, observed=loop.first)
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))

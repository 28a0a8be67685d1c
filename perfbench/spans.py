"""Per-layer tracing from outside the program.

Wraps public module attributes of ``thzplan`` for one traced repetition
and restores them afterwards. Every wrapped call is a span: its time is
added to the function's total, and to its caller's child time when the
caller is also wrapped, so self time is total minus child time.

The program looks these functions up as module attributes at call time
(``geometry.blocked_matrix(...)``, ``simulation.run`` through ``sweep``),
so replacing the attribute reaches every internal caller.
"""

from __future__ import annotations

import importlib
import inspect
import time

TRACED = (
    ("cli", "main"),
    ("config", "load_config"),
    ("simulation", "run"),
    ("simulation", "heatmap"),
    ("simulation", "build_constellation"),
    ("mobility", "init_users"),
    ("mobility", "step_user"),
    ("geometry", "blocked_matrix"),
    ("geometry", "reference_distances"),
    ("linkbudget", "absorption_for"),
    ("reporting", "write_results"),
    ("reporting", "write_heatmap"),
    ("reporting", "write_json"),
)

# Intermediates of the dense blockage kernel per (user, AP, blocker)
# triple, implied by the argument shapes: one (U, A, B, 2) float64 array,
# eight (U, A, B) float64 arrays (qb, qc, disc, root, xy_lo, xy_hi, lo,
# hi) and four (U, A, B) bool arrays. A computed figure, not a measured one.
BLOCKED_BYTES_PER_TRIPLE = 2 * 8 + 8 * 8 + 4 * 1


def _module(name):
    return importlib.import_module(f"thzplan.{name}")


class Tracer:
    """Holds the originals, the span stack and per-function totals."""

    def __init__(self):
        self.originals = {(m, f): getattr(_module(m), f) for m, f in TRACED}
        self.calls = {}
        self.total_s = {}
        self.child_s = {}
        self.failures = 0
        self.triples = 0
        self._stack = []

    def _wrap(self, key, fn):
        name = ".".join(key)
        self.calls[name] = 0
        self.total_s[name] = 0.0
        self.child_s[name] = 0.0
        stack = self._stack
        tracer = self
        signature = inspect.signature(fn)

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.calls[name] += 1
                tracer.total_s[name] += dt
                tracer.child_s[name] += frame[0]
                if stack:
                    stack[-1][0] += dt
                if key == ("cli", "main") and (not ok or result != 0):
                    tracer.failures += 1
                if key == ("geometry", "blocked_matrix"):
                    a = signature.bind(*args, **kwargs).arguments
                    tracer.triples += (len(a["device_xy"]) * len(a["ap_xyz"])
                                       * len(a["centers_xy"]))

        return span

    def install(self):
        for (m, f), fn in self.originals.items():
            setattr(_module(m), f, self._wrap((m, f), fn))

    def remove(self):
        for (m, f), fn in self.originals.items():
            setattr(_module(m), f, fn)
        self.assert_clean()

    def assert_clean(self):
        """Raise unless every traced attribute is the original function."""
        for (m, f), fn in self.originals.items():
            current = getattr(_module(m), f)
            if current is not fn:
                raise RuntimeError(f"thzplan.{m}.{f} is still wrapped")

    def metrics(self) -> dict:
        """Per-layer figures of the traced repetition, by metric name."""
        out = {}
        for m, f in TRACED:
            name = f"{m}.{f}"
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.s"] = (self.total_s[name], "s")
        out["simulation.run.self_s"] = (
            self.total_s["simulation.run"] - self.child_s["simulation.run"], "s")
        out["cli.main.failures"] = (self.failures, "count")
        out["geometry.blocked_matrix.triples"] = (self.triples, "count")
        out["geometry.blocked_matrix.bytes_computed"] = (
            self.triples * BLOCKED_BYTES_PER_TRIPLE, "bytes")
        return out

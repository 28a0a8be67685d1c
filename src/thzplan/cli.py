"""Command-line front end.

Thin adapters over the library: every number printed or written comes
from a library call, never from CLI-side math. Exit codes: 0 success,
2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from . import config as cfgmod
from . import linkbudget, reporting, simulation
from .simulation import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _parse_values(spec: str, flag: str) -> list[float]:
    """'2:7:0.5' or '2,3.5,5'; an error names the flag the spec came from."""
    spec = spec.strip()
    ranged = ":" in spec
    parts = spec.split(":") if ranged else [p for p in spec.split(",") if p.strip()]
    if ranged and len(parts) != 3:
        raise ConfigError(f"{flag}: expected start:stop:step, got {spec!r}")
    try:
        numbers = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{flag}: expected numbers, got {spec!r}") from exc
    if not all(map(math.isfinite, numbers)):
        raise ConfigError(f"{flag}: expected finite numbers, got {spec!r}")
    if not ranged:
        return numbers
    start, stop, step = numbers
    if step <= 0:
        raise ConfigError(f"{flag}: step must be positive")
    # by index, so rounding does not accumulate along the range
    out = []
    while (v := start + len(out) * step) <= stop + 1e-9:
        out.append(round(v, 9))
    return out


def _positive_number(text: str) -> float:
    """argparse type of a float flag; argparse names the flag on error."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of a count flag; argparse names the flag on error."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive whole number, got {text!r}")
    return value


def _overrides_from_args(args) -> dict:
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "blockage", None) is not None:
        overrides["blockage"] = args.blockage
    return overrides


def _load(args):
    return cfgmod.load_config(args.config, _overrides_from_args(args))


def _ensure_outdir(path):
    os.makedirs(path, exist_ok=True)
    return path


def cmd_validate(args) -> int:
    cfg, settings = _load(args)
    simulation.build_constellation(cfg)  # a C layout needs a height correction here
    print(f"configuration ok (hash {cfgmod.settings_hash(settings)[:12]})")
    print(f"placement {cfg.placement_type}{cfg.n_aps}, "
          f"effective height {cfg.effective_height_m():g} m, "
          f"per-AP power {cfg.link.p_t_w:g} W")
    return EXIT_OK


def _radius(link, s: float) -> float:
    """coverage_radius of a valid link at spectral efficiency s; what can
    still fail is the flag's value."""
    try:
        return linkbudget.coverage_radius(link, s)
    except (ValueError, ArithmeticError) as exc:
        raise ConfigError(f"spectral-efficiency: no radius for {s!r}: {exc}") from exc


def cmd_radius(args) -> int:
    cfg, _ = _load(args)
    r = _radius(cfg.link, args.spectral_efficiency)
    print(math.ceil(r) if args.ceil else f"{r:.6f}")
    return EXIT_OK


# the coverage-sweep flag each point field is set from
_AXIS_FLAGS = {"f_c_hz": "frequencies", "beamwidth_deg": "beamwidths"}


def cmd_coverage_sweep(args) -> int:
    cfg, _ = _load(args)
    freqs = _parse_values(args.frequencies_ghz, "frequencies")
    widths = _parse_values(args.beamwidths_deg, "beamwidths")
    if not freqs or not widths:
        flag = "beamwidths" if freqs else "frequencies"
        raise ConfigError(f"{flag}: coverage sweep needs at least one value")
    rows = []
    for f in freqs:
        for bw in widths:
            point = replace(cfg, f_c_hz=f * 1e9, beamwidth_deg=bw)
            try:
                point.validate()
            except ConfigError as exc:  # name the flags the fields at fault were set from
                names, _, rest = str(exc).partition(": ")
                flags = [_AXIS_FLAGS[n] for n in names.split("/") if n in _AXIS_FLAGS]
                raise ConfigError(f"{'/'.join(flags) or names}: {rest}") from exc
            rows.append((f, bw, _radius(point.link, args.spectral_efficiency)))
    text = "".join(reporting.csv_lines(reporting.COVERAGE_COLUMNS, rows))
    if args.out:
        path = os.path.join(_ensure_outdir(args.out), "coverage_sweep.csv")
        reporting.write_text(text, path)
        print(path)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_heatmap(args) -> int:
    cfg, settings = _load(args)
    cfg = simulation.with_placement(cfg, args.type or cfg.placement_type, args.n)
    settings = dict(settings, placement_type=cfg.placement_type, n_aps=cfg.n_aps)
    grid = simulation.heatmap(cfg, args.resolution, args.probe_rate_gbps * 1e9)
    out = _ensure_outdir(args.out)
    rates = os.path.join(out, "heatmap_rates.csv")
    labels = os.path.join(out, "heatmap_labels.csv")
    meta = os.path.join(out, "heatmap_meta.json")
    reporting.write_heatmap(grid, rates, labels, meta)
    manifest = cfgmod.run_manifest(settings)
    reporting.write_json(manifest, os.path.join(out, "manifest.json"))
    print(rates)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg, settings = _load(args)
    report = simulation.run(cfg, record_events=args.events)
    out = _ensure_outdir(args.out)
    reporting.write_results([report], os.path.join(out, "results.csv"))
    summary = reporting.summary_payload(report)
    summary["manifest"] = cfgmod.run_manifest(settings)
    reporting.write_json(summary, os.path.join(out, "summary.json"))
    if args.events:
        reporting.write_events(report.events, os.path.join(out, "events.csv"))
    print(os.path.join(out, "results.csv"))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, settings = _load(args)
    # the one reader of --axis: how --values parse, and point(b, v), base b at value v
    if args.axis == "placement_type":
        values = [v.strip() for v in args.values.split(",") if v.strip()]
        point = simulation.with_placement
    else:
        values = _parse_values(args.values, "values")
        point = simulation.with_effective_height if args.axis == "H" else (
            lambda b, n: simulation.with_placement(b, b.placement_type, n))
    bases = [cfg]
    if args.types is not None:
        labels = [s for s in args.types.split(",") if s.strip()]
        if not labels:
            raise ConfigError(f"types: expected series like B4,C4, got {args.types!r}")
        bases = [simulation.with_placement(cfg, *simulation.parse_series(s)) for s in labels]
    if not values:
        raise ConfigError("values: sweep needs at least one value")
    try:
        series = [[point(b, v) for v in values] for b in bases]
    except ConfigError as exc:  # the field at fault was set from --values
        raise ConfigError("values: " + str(exc).partition(": ")[2]) from exc
    if args.axis == "N":  # the counts the points were built with, not the parsed floats
        values = [p.n_aps for p in series[0]]
    reports = simulation.sweep(series, jobs=args.jobs)
    out = _ensure_outdir(args.out)
    path = os.path.join(out, "sweep.csv")
    reporting.write_results(reports, path)
    manifest = cfgmod.run_manifest(settings)
    manifest["sweep"] = {"axis": args.axis, "values": values,
                         "types": args.types or ""}
    reporting.write_json(manifest, os.path.join(out, "manifest.json"))
    print(path)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="thzplan",
        description="Indoor THz access-point placement planning and simulation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, out_default=None, crowd=True):
        sp.add_argument("--config", default=None, help="INI config file")
        if crowd:  # only the commands that check or run a crowd take its settings
            sp.add_argument("--seed", type=int, default=None)
            sp.add_argument("--blockage", choices=("on", "off"), default=None)
        if out_default is not None:
            sp.add_argument("--out", default=out_default, help="output directory")

    sp = sub.add_parser("validate", help="check a configuration and exit")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("radius", help="illumination radius for a spectral efficiency")
    common(sp, crowd=False)
    sp.add_argument("--spectral-efficiency", "-s", type=_positive_number, default=0.1,
                    dest="spectral_efficiency", help="bit/s/Hz")
    sp.add_argument("--ceil", action="store_true", help="round up to whole meters")
    sp.set_defaults(func=cmd_radius)

    sp = sub.add_parser("coverage-sweep", help="radius over frequency x beamwidth")
    common(sp, crowd=False)
    sp.add_argument("--frequencies", dest="frequencies_ghz", default="570",
                    help="GHz list or start:stop:step")
    sp.add_argument("--beamwidths", dest="beamwidths_deg", default="5,10,20",
                    help="degrees list or start:stop:step")
    sp.add_argument("--spectral-efficiency", "-s", type=_positive_number, default=0.1,
                    dest="spectral_efficiency")
    sp.add_argument("--out", default=None, help="write CSV here instead of stdout")
    sp.set_defaults(func=cmd_coverage_sweep)

    sp = sub.add_parser("heatmap", help="rasterized best-AP rate field")
    common(sp, out_default="out", crowd=False)
    sp.add_argument("--type", default=None, help="placement type override; without --n it "
                    "keeps the config's AP count if the type takes it, else the type's first")
    sp.add_argument("--n", type=int, default=None, help="AP count override, one the type takes")
    sp.add_argument("--resolution", type=float, default=10.0, help="cells per meter")
    sp.add_argument("--probe-rate", dest="probe_rate_gbps", type=_positive_number, default=1.0,
                    help="darkness threshold, Gbps")
    sp.set_defaults(func=cmd_heatmap)

    sp = sub.add_parser("simulate", help="run one configured simulation")
    common(sp, out_default="out")
    sp.add_argument("--events", action="store_true", help="also write the event log")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("sweep", help="metric sweeps along H, N, or placement type")
    common(sp, out_default="out")
    sp.add_argument("--axis", choices=("H", "N", "placement_type"), default="H")
    sp.add_argument("--values", default="2:7:0.5", help="H: effective heights in m, list or "
                    "start:stop:step; N: AP counts the layout takes, likewise; "
                    "placement_type: comma list of types")
    sp.add_argument("--types", default=None, help="comma list of series like A,B4,C16, "
                    "a bare letter takes the type's first count; default: config placement")
    sp.add_argument("--jobs", type=_positive_int, default=1)
    sp.set_defaults(func=cmd_sweep)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

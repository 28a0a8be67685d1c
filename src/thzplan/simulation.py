"""Deterministic fixed-step coverage simulation.

Each step: users move, every user re-associates to the strongest AP not
blocked from it (body blockage is optional), new or changed links pay the
AP's beam-alignment dead time, and an AP's rate is time-shared equally
among its assigned users. Metrics are plain averages over (user, step)
pairs; an AP is idle in a step when nothing is assigned to it.

run(), heatmap() and associate() share one best-AP rule (_best_ap) and
the linkbudget SNR and rate, so the static and dynamic views agree.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from . import geometry, linkbudget, mobility
from .geometry import BodyCylinder, Constellation, Room
from .linkbudget import LinkBudgetParams


class ConfigError(ValueError):
    """Invalid simulation configuration; message names the field."""


SHARE_MODES = ("equal_share", "single_user")

EVENT_HANDOFF = "handoff"
EVENT_BLOCKAGE_START = "blockage_start"
EVENT_BLOCKAGE_END = "blockage_end"
EVENT_ALIGNMENT_DONE = "alignment_done"


@dataclass(frozen=True)
class SimConfig:
    """Complete, reproducible description of one experiment run.

    Every setting is stored once. p_o_w is the room's total transmit
    budget, split equally among the APs; `link` derives the per-AP radio
    parameters from it and the radio fields. The effective height H is
    room.height_m - user_height_m: an H setting moves the ceiling (see
    with_effective_height).
    """

    room: Room = Room()
    placement_type: str = "B"
    n_aps: int = 4
    p_o_w: float = 1e-3
    f_c_hz: float = LinkBudgetParams.f_c_hz
    bandwidth_hz: float = LinkBudgetParams.bandwidth_hz
    beamwidth_deg: float = LinkBudgetParams.beamwidth_deg
    noise_psd_w_hz: float = LinkBudgetParams.noise_psd_w_hz
    humidity: float = LinkBudgetParams.humidity
    tau_override: float | None = None
    n_users: int = 30
    seed: int = 1
    v_mean_mps: float = mobility.DEFAULT_SPEED_MEAN
    v_span_mps: float = mobility.DEFAULT_SPEED_SPAN
    user_height_m: float = mobility.DEFAULT_DEVICE_HEIGHT_M
    user_width_m: float = mobility.DEFAULT_BODY_WIDTH_M
    body_height_m: float = mobility.DEFAULT_BODY_HEIGHT_M
    rate_min_bps: float = mobility.DEFAULT_RATE_MIN_BPS
    rate_max_bps: float = mobility.DEFAULT_RATE_MAX_BPS
    duration_s: float = 60.0
    dt_s: float = 0.010
    blockage_enabled: bool = False
    t_align_s: float = 5e-3
    share_mode: str = "equal_share"
    pause_s: float = 0.0

    @property
    def link(self) -> LinkBudgetParams:
        """Per-AP radio parameters: the budget p_o_w split over n_aps."""
        return LinkBudgetParams(
            f_c_hz=self.f_c_hz,
            bandwidth_hz=self.bandwidth_hz,
            p_t_w=self.p_o_w / self.n_aps,
            beamwidth_deg=self.beamwidth_deg,
            noise_psd_w_hz=self.noise_psd_w_hz,
            humidity=self.humidity,
            tau_override=self.tau_override,
        )

    def validate(self) -> None:
        numbers = [(f.name, getattr(self, f.name)) for f in fields(self)]
        numbers += [(f"room.{f.name}", getattr(self.room, f.name)) for f in fields(self.room)]
        for name, value in numbers:
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name}: must be a finite number, got {value!r}")
        t = self.placement_type.upper()
        if t not in geometry.ALL_TYPES:
            raise ConfigError(f"placement_type: unknown type {self.placement_type!r}")
        if t == "A":
            if self.n_aps != 1:
                raise ConfigError("n_aps: type A requires exactly 1 AP")
        elif self.n_aps not in geometry.GRID_COUNTS:
            raise ConfigError(
                f"n_aps: type {t} supports {geometry.GRID_COUNTS}, got {self.n_aps}"
            )
        if self.p_o_w <= 0:
            raise ConfigError("p_o_w: total power must be positive")
        try:
            self.link
        except ValueError as exc:  # LinkBudgetParams names the radio field
            raise ConfigError(str(exc)) from exc
        if self.dt_s <= 0:
            raise ConfigError("dt_s: time step must be positive")
        if self.duration_s < self.dt_s:
            raise ConfigError("duration_s: must cover at least one step")
        if self.t_align_s <= 0:
            raise ConfigError("t_align_s: alignment time must be positive")
        if self.n_users < 0:
            raise ConfigError("n_users: must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.v_mean_mps - self.v_span_mps <= 0:
            raise ConfigError("v_span_mps: speed range must stay positive")
        if not 0 < self.rate_min_bps <= self.rate_max_bps:
            raise ConfigError("rate_min_bps: need 0 < min <= max demand")
        if self.share_mode not in SHARE_MODES:
            raise ConfigError(f"share_mode: choose from {SHARE_MODES}")
        if self.user_width_m <= 0 or self.body_height_m <= 0:
            raise ConfigError("user_width_m/body_height_m: must be positive")
        if self.pause_s < 0:
            raise ConfigError("pause_s: must be >= 0")
        if self.user_height_m >= self.room.height_m:
            raise ConfigError("user_height_m: device sits above the ceiling")

    def effective_height_m(self) -> float:
        return self.room.height_m - self.user_height_m


def with_placement(cfg: SimConfig, placement_type: str, n_aps: int | None = None) -> SimConfig:
    t = placement_type.upper()
    if t == "A" and n_aps not in (None, 1):
        raise ConfigError(f"n: type A has exactly 1 AP, got {n_aps}")
    n = 1 if t == "A" else (n_aps if n_aps is not None else cfg.n_aps)
    return replace(cfg, placement_type=t, n_aps=n)


def with_effective_height(cfg: SimConfig, h_eff_m: float) -> SimConfig:
    """Move the ceiling so the effective height is h_eff_m (the
    h_override_m setting)."""
    if not (math.isfinite(h_eff_m) and h_eff_m > 0):
        raise ConfigError(
            f"h_override_m: effective height must be finite and positive, got {h_eff_m!r}"
        )
    return replace(cfg, room=replace(cfg.room, height_m=h_eff_m + cfg.user_height_m))


def parse_series(label: str) -> tuple[str, int]:
    """'A' -> (A, 1); 'B4' -> (B, 4); 'C16' -> (C, 16)."""
    label = label.strip().upper()
    if not label or label[0] not in geometry.ALL_TYPES:
        raise ConfigError(f"series label {label!r} must start with a placement type")
    if len(label) == 1:
        return label, 1 if label == "A" else 4
    if not label[1:].isdecimal():
        raise ConfigError(f"series label {label!r}: AP count must be a whole number")
    return label[0], int(label[1:])


def build_constellation(cfg: SimConfig) -> Constellation:
    """Constellation for a config; wall mounts get the height correction
    matching the ceiling grid. A room where the wall layout sits closer to
    the floor cells than the grid does has no such correction: that is a
    ConfigError naming placement_type."""
    t = cfg.placement_type.upper()
    h_c = 0.0
    if t == "C":
        d_grid, d_perim = geometry.reference_distances(
            cfg.room, cfg.n_aps, cfg.user_height_m
        )
        tau = linkbudget.absorption_for(cfg.link)
        try:
            h_c = geometry.height_correction(
                cfg.effective_height_m(), d_grid, d_perim, tau
            )
        except ValueError as exc:
            room = cfg.room
            raise ConfigError(
                f"placement_type: C{cfg.n_aps} has no wall height correction in a "
                f"{room.length_m:g} x {room.width_m:g} m room: {exc}"
            ) from exc
    return geometry.place(cfg.room, t, cfg.n_aps, cfg.t_align_s, h_c)


@dataclass(frozen=True)
class MetricsReport:
    placement_type: str
    n_aps: int
    effective_height_m: float
    seed: int
    n_steps: int
    blockage_enabled: bool
    user_coverage: float
    mean_throughput_bps: float
    ap_idle_fraction: float
    handoff_count: int
    per_user_coverage: tuple[float, ...]
    per_user_throughput_bps: tuple[float, ...]
    per_ap_idle_fraction: tuple[float, ...]
    p_t_w: float
    p_o_w: float
    height_correction_m: float
    events: tuple = ()


class _ApArrays:
    """Constellation and link budget with every per-AP constant of a run
    at one device height computed once."""

    def __init__(self, con: Constellation, link: LinkBudgetParams, device_z: float):
        self.xyz = con.xyz
        self.align = con.align_time_s
        self.sig = linkbudget.snr_scale(link)
        self.dz_sq = (self.xyz[:, 2] - device_z) ** 2
        self.tau = linkbudget.absorption_for(link)

    def snr(self, pos: np.ndarray) -> np.ndarray:
        """(n, APs) SNR of each AP's link to a device at each (n, 2) point."""
        rel = pos[:, None, :] - self.xyz[None, :, :2]
        d_sq = rel[:, :, 0] ** 2 + rel[:, :, 1] ** 2 + self.dz_sq[None, :]
        d = np.sqrt(d_sq)
        return self.sig / (d_sq * np.exp(self.tau * d))


def _best_ap(snr: np.ndarray, blocked: np.ndarray | None = None) -> np.ndarray:
    """The association rule: per device, the AP with the highest SNR among
    those not blocked from it (every AP sees the whole floor, see geometry).
    Ties go to the lowest AP id; a device blocked from every AP gets -1."""
    if blocked is None:
        return snr.argmax(axis=1).astype(np.int64)
    best = np.where(blocked, -np.inf, snr).argmax(axis=1).astype(np.int64)
    best[blocked.all(axis=1)] = -1
    return best


def _best_rate(best: np.ndarray, snr: np.ndarray, bandwidth_hz: float) -> np.ndarray:
    """Link rate from each device to its chosen AP; 0.0 where it has none."""
    rate = np.zeros(best.shape)
    idx = np.flatnonzero(best >= 0)
    rate[idx] = linkbudget.shannon_rate(snr[idx, best[idx]], bandwidth_hz)
    return rate


def associate(
    positions,
    constellation: Constellation,
    link: LinkBudgetParams,
    blockers: Sequence[BodyCylinder] | None = None,
    device_height_m: float = mobility.DEFAULT_DEVICE_HEIGHT_M,
) -> tuple[int, ...]:
    """AP id per user by run()'s rule: the strongest AP that, with
    blockers, is not blocked from the user; -1 when every AP is blocked.

    positions is an (m, 2) array of the users' floor coordinates (a
    Crowd's xy); no positions give (). Ties go to the lowest AP id. blockers, if given, holds
    one body per user, in user order, and blocker i never blocks user i's
    links. There is no room here to check a position against, so a
    position off the floor is served like any other point, wall mounts
    included.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.shape == (0,):
        return ()
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions: expected an (m, 2) array, got shape {pos.shape}")
    aps = _ApArrays(constellation, link, device_height_m)
    blocked = None
    if blockers:
        blocked = geometry.blocked_matrix(
            aps.xyz, pos, device_height_m, *_body_arrays(blockers), own_body=True
        )
    return tuple(_best_ap(aps.snr(pos), blocked).tolist())


def _body_arrays(blockers: Sequence[BodyCylinder]):
    """(centres, radii, heights) of the blockers: the blocker arguments of
    geometry.blocked_matrix."""
    return (
        np.array([c.center for c in blockers], dtype=float),
        np.array([c.radius_m for c in blockers]),
        np.array([c.height_m for c in blockers]),
    )


def run(cfg: SimConfig, record_events: bool = False) -> MetricsReport:
    """Execute the configured run and aggregate metrics."""
    cfg.validate()
    link = cfg.link
    con = build_constellation(cfg)
    n_ap = len(con)
    m = cfg.n_users
    n_steps = int(round(cfg.duration_s / cfg.dt_s))
    device_z = cfg.user_height_m

    if m == 0:
        return MetricsReport(
            placement_type=cfg.placement_type.upper(), n_aps=cfg.n_aps,
            effective_height_m=cfg.effective_height_m(), seed=cfg.seed,
            n_steps=n_steps, blockage_enabled=cfg.blockage_enabled,
            user_coverage=0.0, mean_throughput_bps=0.0, ap_idle_fraction=1.0,
            handoff_count=0, per_user_coverage=(), per_user_throughput_bps=(),
            per_ap_idle_fraction=(1.0,) * n_ap, p_t_w=link.p_t_w,
            p_o_w=cfg.p_o_w, height_correction_m=con.height_correction_m,
        )

    crowd, demand = mobility.init_users(
        cfg.room, m, cfg.seed,
        v_mean=cfg.v_mean_mps, v_span=cfg.v_span_mps,
        rate_min_bps=cfg.rate_min_bps, rate_max_bps=cfg.rate_max_bps,
    )
    # Fresh generators replay the draws init_users made, so each user's
    # first new waypoint is its start point. The pinned results keep this.
    rngs = [mobility.substream(cfg.seed, i) for i in range(m)]
    aps = _ApArrays(con, link, device_z)

    assign = np.full(m, -1, dtype=np.int64)
    align_left = np.zeros(m)
    shadowed = np.zeros(m, dtype=bool)

    covered_steps = np.zeros(m, dtype=np.int64)
    thr_sum = np.zeros(m)
    idle_steps = np.zeros(n_ap, dtype=np.int64)
    handoffs = 0
    events: list[tuple[float, str, int, int]] = []

    for k in range(n_steps):
        t = (k + 1) * cfg.dt_s
        mobility.step_user(crowd, cfg.dt_s, rngs, cfg.room,
                           cfg.v_mean_mps, cfg.v_span_mps, cfg.pause_s)
        pos = crowd.xy

        blocked = None
        if cfg.blockage_enabled:
            blocked = geometry.blocked_matrix(
                aps.xyz, pos, device_z, pos, cfg.user_width_m / 2.0,
                cfg.body_height_m, own_body=True,
            )
        snr = aps.snr(pos)
        best = _best_ap(snr, blocked)

        changed = best != assign
        if changed.any():
            handoff_mask = changed & (best >= 0) & (assign >= 0)
            handoffs += int(handoff_mask.sum())
            align_left = np.where(changed & (best >= 0), aps.align, align_left)
            align_left = np.where(best < 0, 0.0, align_left)
            if record_events:
                for u in np.flatnonzero(handoff_mask):
                    events.append((t, EVENT_HANDOFF, int(u), int(best[u])))

        if cfg.blockage_enabled:
            now_shadowed = best < 0
            if record_events:
                for u in np.flatnonzero(now_shadowed & ~shadowed):
                    events.append((t, EVENT_BLOCKAGE_START, int(u), int(assign[u])))
                for u in np.flatnonzero(shadowed & ~now_shadowed):
                    events.append((t, EVENT_BLOCKAGE_END, int(u), int(best[u])))
            shadowed = now_shadowed

        assigned = best >= 0
        counting = assigned & (align_left > 0.0)
        align_left = np.where(counting, np.maximum(align_left - cfg.dt_s, 0.0), align_left)
        if record_events:
            for u in np.flatnonzero(counting & (align_left <= 0.0)):
                events.append((t, EVENT_ALIGNMENT_DONE, int(u), int(best[u])))

        serving = assigned & ~counting
        counts = np.bincount(best[assigned], minlength=n_ap)
        delivered = np.zeros(m)
        if serving.any():
            idx = np.flatnonzero(serving)
            ap_idx = best[idx]
            rate = linkbudget.shannon_rate(snr[idx, ap_idx], link.bandwidth_hz)
            if cfg.share_mode == "equal_share":
                delivered[idx] = rate / counts[ap_idx]
            else:  # single_user: strongest assigned user takes the step
                for a in np.unique(ap_idx):
                    mine = np.flatnonzero(ap_idx == a)
                    top = mine[np.argmax(snr[idx[mine], a])]
                    delivered[idx[top]] = rate[top]

        covered_steps += delivered >= demand
        thr_sum += delivered
        idle_steps += counts == 0
        assign = best

    return MetricsReport(
        placement_type=cfg.placement_type.upper(),
        n_aps=cfg.n_aps,
        effective_height_m=cfg.effective_height_m(),
        seed=cfg.seed,
        n_steps=n_steps,
        blockage_enabled=cfg.blockage_enabled,
        user_coverage=float(covered_steps.sum() / (m * n_steps)),
        mean_throughput_bps=float(thr_sum.sum() / (m * n_steps)),
        ap_idle_fraction=float(idle_steps.sum() / (n_ap * n_steps)),
        handoff_count=int(handoffs),
        per_user_coverage=tuple(covered_steps / n_steps),
        per_user_throughput_bps=tuple(thr_sum / n_steps),
        per_ap_idle_fraction=tuple(idle_steps / n_steps),
        p_t_w=link.p_t_w,
        p_o_w=cfg.p_o_w,
        height_correction_m=con.height_correction_m,
        events=tuple(events),
    )


LABEL_DARKNESS, LABEL_ILLUMINATION, LABEL_SHADOW = 0, 1, 2
LABEL_NAMES = ("darkness", "illumination", "shadow")
# Heat-map cells per block; the block's (cells, APs) temporaries are a
# fixed multiple of this, whatever the resolution.
_CELL_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class HeatmapGrid:
    resolution_cells_per_m: float
    length_m: float
    width_m: float
    device_height_m: float
    probe_rate_bps: float
    rates_bps: np.ndarray  # (nx, ny), x index first
    labels: np.ndarray  # (nx, ny) int8, see LABEL_NAMES


def heatmap(
    cfg: SimConfig,
    resolution_cells_per_m: float,
    probe_rate_bps: float,
    blockers: Sequence[BodyCylinder] | None = None,
) -> HeatmapGrid:
    """Static best-AP rate field at device height.

    Each cell is a device served by the AP run() would pick for it (see
    _best_ap) at that link's rate; a cell blocked from every AP reads 0.0.
    Cells below the probe rate are darkness unless a blocker is what
    pushed them under, in which case they are shadow. No time sharing:
    this is the per-point link capacity, not a loaded-system rate.
    blockers is a sequence of BodyCylinder, each with its own size; none
    of them is the body of the device at a cell.

    The grids are filled in blocks of whole x rows, about _CELL_BLOCK
    cells each (one row when a row is longer), so the (cells, APs)
    temporaries stay a fixed size whatever the resolution. Each cell's
    arithmetic is element-wise or a per-cell argmax, so the result does
    not depend on the block size.
    """
    if not (math.isfinite(resolution_cells_per_m) and resolution_cells_per_m > 0):
        raise ConfigError("resolution: must be a finite positive number")
    cfg.validate()
    res = resolution_cells_per_m
    nx = math.ceil(cfg.room.length_m * res)
    ny = math.ceil(cfg.room.width_m * res)
    xs = (np.arange(nx) + 0.5) / res
    ys = (np.arange(ny) + 0.5) / res
    if xs[-1] > cfg.room.length_m or ys[-1] > cfg.room.width_m:
        raise ConfigError(
            f"resolution: {res} cells/m centres the last cell outside the room"
        )
    link = cfg.link
    z = cfg.user_height_m
    aps = _ApArrays(build_constellation(cfg), link, z)
    bodies = _body_arrays(blockers) if blockers else None

    rates = np.empty((nx, ny))
    labels = np.empty((nx, ny), dtype=np.int8)
    rows = max(1, _CELL_BLOCK // ny)
    for i0 in range(0, nx, rows):
        i1 = min(i0 + rows, nx)
        cells = np.stack([np.repeat(xs[i0:i1], ny), np.tile(ys, i1 - i0)], axis=1)
        snr = aps.snr(cells)
        best = _best_ap(snr)
        clear = _best_rate(best, snr, link.bandwidth_hz)
        rate = clear
        if bodies is not None:
            blocked = geometry.blocked_matrix(aps.xyz, cells, z, *bodies, own_body=False)
            rate = _best_rate(_best_ap(snr, blocked), snr, link.bandwidth_hz)
        label = np.full(cells.shape[0], LABEL_DARKNESS, dtype=np.int8)
        label[rate >= probe_rate_bps] = LABEL_ILLUMINATION
        label[(rate < probe_rate_bps) & (clear >= probe_rate_bps)] = LABEL_SHADOW
        rates[i0:i1] = rate.reshape(i1 - i0, ny)
        labels[i0:i1] = label.reshape(i1 - i0, ny)
    return HeatmapGrid(
        resolution_cells_per_m=res,
        length_m=cfg.room.length_m,
        width_m=cfg.room.width_m,
        device_height_m=z,
        probe_rate_bps=probe_rate_bps,
        rates_bps=rates,
        labels=labels,
    )


def apply_axis(cfg: SimConfig, axis: str, value) -> SimConfig:
    if axis == "H":
        return with_effective_height(cfg, float(value))
    if axis == "N":
        if not float(value).is_integer():
            raise ConfigError(f"values: an AP count must be a whole number, got {value!r}")
        return replace(cfg, n_aps=int(value))
    if axis == "placement_type":
        return with_placement(cfg, str(value))
    raise ConfigError(f"axis: unknown sweep axis {axis!r}")


def sweep(base: SimConfig | Sequence[SimConfig], axis: str, values,
          jobs: int = 1) -> list[MetricsReport]:
    """Independent runs along one axis, identical seed, input order kept.
    base is one config or a sequence of them, one series each. Every config
    is checked, constellation included, before the first run."""
    if not values:
        raise ConfigError("values: sweep needs at least one value")
    bases = [base] if isinstance(base, SimConfig) else base
    configs = [apply_axis(b, axis, v) for b in bases for v in values]
    for c in configs:
        c.validate()
        build_constellation(c)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run, configs))
    return [run(c) for c in configs]

"""Deterministic fixed-step coverage simulation.

Each step: users move, every user re-associates to the nearest AP not
blocked from it (body blockage is optional), new or changed links pay the
AP's beam-alignment dead time, and an AP's rate is time-shared equally
among its assigned users. Metrics are plain averages over (user, step)
pairs; an AP is idle in a step when nothing is assigned to it.

This module holds the config model, the step loop, heatmap() and
sweep(); each model rule lives in the module that states it. run() and
heatmap() share one best-AP rule, geometry.nearest over geometry.d_sq:
all APs of a layout hang at one height with one power, and the SNR falls
with distance, so the nearest unblocked AP is the strongest. Association
keeps each block of points in its own shape, with the APs on a first
axis, and returns each chosen link's squared distance with its AP; a heat
map has no bodies, so it takes each cell's nearest distance alone. The
rate is computed for each device's chosen link alone, from that distance
(linkbudget.link_rate), so the static and dynamic views agree. The users
step with mobility.Substreams' generators.

run() steps one crowd for a batch of configs that differ only on the AP
side; in-process, sweep() runs all of its series as one batch. The crowd,
and with blockage on the blocked_matrix call over every config's APs
stacked, are shared by the batch; each config keeps its own AP table, link
state and accumulators.

run() steps in blocks of K steps, K from _STEP_BLOCK. Only mobility
depends on the step before, so it runs per step: the crowd moves and each
step's positions are kept. With blockage on, each step also gets its own
blocked_matrix call, only because that kernel has no step axis yet. Then,
config by config, association, handoffs, alignment and the rate share run
once over the block's (step, user) entries, with the same floating-point
operations as a loop of single steps, so every result is the same
whatever K is.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from . import geometry, linkbudget, mobility
from .geometry import Constellation, Room
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
        """Raise a ConfigError that starts with the field at fault; a rule
        tying fields together names them all, joined by '/'. This checks
        every rule but one: a config is runnable when build_constellation,
        which calls this first, succeeds."""
        numbers = [(f.name, getattr(self, f.name)) for f in fields(self)]
        numbers += [(f"room.{f.name}", getattr(self.room, f.name)) for f in fields(self.room)]
        for name, value in numbers:
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name}: must be a finite number, got {value!r}")
        t = self.placement_type.upper()
        counts = geometry.COUNTS.get(t, ())
        for ok, message in [
            (t in geometry.COUNTS, f"placement_type: unknown type {self.placement_type!r}"),
            (self.n_aps in counts, f"n_aps: type {t} supports {counts}, got {self.n_aps}"),
            (self.p_o_w > 0, "p_o_w: total power must be positive"),
            (self.dt_s > 0, "dt_s: time step must be positive"),
            (self.dt_s > 0 and 1.0 <= self.duration_s / self.dt_s < math.inf,
             "duration_s/dt_s: need a finite number of steps, at least one"),
            (self.t_align_s > 0, "t_align_s: alignment time must be positive"),
            (self.n_users >= 0, "n_users: must be >= 0"),
            (self.seed >= 0, "seed: must be >= 0"),
            (self.v_span_mps >= 0, "v_span_mps: must be >= 0"),
            (self.v_mean_mps - self.v_span_mps > 0,
             "v_mean_mps/v_span_mps: speed range must stay positive"),
            (0 < self.rate_min_bps <= self.rate_max_bps,
             "rate_min_bps/rate_max_bps: need 0 < min <= max demand"),
            (self.share_mode in SHARE_MODES, f"share_mode: choose from {SHARE_MODES}"),
            (self.user_width_m > 0 and self.body_height_m > 0,
             "user_width_m/body_height_m: must be positive"),
            (self.pause_s >= 0, "pause_s: must be >= 0"),
            (self.user_height_m >= 0, "user_height_m: device sits below the floor"),
            (self.user_height_m < self.room.height_m,
             "user_height_m/room.height_m: device sits above the ceiling"),
            # multiplied, not squared: 1e300 ** 2 raises where 1e300 * 1e300 is inf
            (self.room.length_m * self.room.length_m + self.room.width_m * self.room.width_m
             + self.room.height_m * self.room.height_m < math.inf,
             "room.length_m/room.width_m/room.height_m: the room's squared size overflows"),
        ]:
            if not ok:
                raise ConfigError(message)
        try:  # the link model's own checks, absorption table range included
            linkbudget.absorption_for(self.link)
            if not 0.0 < linkbudget.snr_scale(self.link) < math.inf:
                raise ArithmeticError
        except ValueError as exc:  # they name the radio field
            raise ConfigError(str(exc)) from exc
        except ArithmeticError as exc:
            raise ConfigError("p_o_w/f_c_hz/bandwidth_hz/beamwidth_deg/noise_psd_w_hz: "
                              "the link's SNR scale must be a positive finite number") from exc

    def effective_height_m(self) -> float:
        return self.room.height_m - self.user_height_m


def with_placement(cfg: SimConfig, placement_type: str, n_aps: int | None = None) -> SimConfig:
    """cfg moved to layout placement_type with n_aps APs (geometry.COUNTS).
    With n_aps None it keeps cfg.n_aps if the layout takes it, else takes
    the layout's first count. A count the layout does not take is a
    ConfigError naming n (the --n flag); an unknown type is left for
    validate() to name as placement_type."""
    t = placement_type.upper()
    n = cfg.n_aps if n_aps is None else n_aps
    counts = geometry.COUNTS.get(t, (n,))
    if n not in counts and n_aps is not None:  # a whole count parsed as 5.0 reads 5
        raise ConfigError(f"n: type {t} supports {counts}, got {str(n_aps).removesuffix('.0')}")
    # the table's own count, so a count given as 4.0 is stored as 4
    return replace(cfg, placement_type=t, n_aps=counts[counts.index(n) if n in counts else 0])


def with_effective_height(cfg: SimConfig, h_eff_m: float) -> SimConfig:
    """Move the ceiling so the effective height is h_eff_m; an error names
    the effective_height_m field."""
    height_m = h_eff_m + cfg.user_height_m
    if not (math.isfinite(h_eff_m) and height_m - cfg.user_height_m > 0):
        raise ConfigError("effective_height_m: effective height must be finite and positive, "
                          f"got {h_eff_m!r}")
    if not height_m * height_m < math.inf:
        raise ConfigError("effective_height_m: the ceiling's squared height overflows, "
                          f"got {h_eff_m!r}")
    return replace(cfg, room=replace(cfg.room, height_m=height_m))


def parse_series(label: str) -> tuple[str, int]:
    """'A' -> (A, 1); 'B' -> (B, 4); 'B8' -> (B, 8); 'C16' -> (C, 16). A
    bare letter takes the layout's first count in geometry.COUNTS, whatever
    the config's count. An error names the label, its first 12 characters
    when longer: an unknown type, a count that is not a whole number, or
    one the layout does not take. Leading zeros are dropped, so 'B0004' is
    B4."""
    label = label.strip().upper()
    shown = repr(label if len(label) <= 12 else label[:12] + "...")  # an error's line stays short
    counts = geometry.COUNTS.get(label[:1])
    if counts is None:
        raise ConfigError(f"series label {shown} must start with a placement type")
    digits = label[1:].lstrip("0")
    # bounded before int(), which refuses a string of thousands of digits
    n = int(digits) if digits.isdecimal() and len(digits) <= len(str(max(counts))) else None
    if label[1:] and n not in counts:
        raise ConfigError(f"series label {shown}: AP count must be one of {counts}")
    return label[0], n if label[1:] else counts[0]


def build_constellation(cfg: SimConfig) -> Constellation:
    """Constellation for a config; wall mounts get the height correction
    matching the ceiling grid. This call is the runnable check: it runs
    cfg.validate() first, then the one rule validate() cannot, that a room
    where the wall layout sits closer to the floor cells than the grid
    does has no such correction, a ConfigError naming placement_type."""
    cfg.validate()
    t = cfg.placement_type.upper()
    h_c = 0.0
    if t == "C":
        d_grid, d_perim = geometry.reference_distances(cfg.room, cfg.n_aps, cfg.user_height_m)
        tau = linkbudget.absorption_for(cfg.link)
        try:
            h_c = geometry.height_correction(cfg.effective_height_m(), d_grid, d_perim, tau)
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


# The AP side of a config: the configs of one run() batch may differ in
# these fields and in room.height_m, none of which the crowd reads. Of the
# room, _crowd_fields compares the floor.
_AP_FIELDS = ("room", "placement_type", "n_aps", "p_o_w", "f_c_hz", "bandwidth_hz",
              "beamwidth_deg", "noise_psd_w_hz", "humidity", "tau_override", "t_align_s")


def _crowd_fields(cfg: SimConfig) -> list[tuple[str, object]]:
    """(name, value) of every setting the crowd and the step loop read."""
    return [("room.length_m", cfg.room.length_m), ("room.width_m", cfg.room.width_m)] + [
        (f.name, getattr(cfg, f.name)) for f in fields(cfg) if f.name not in _AP_FIELDS]


def _checked(batch: Sequence[SimConfig]) -> list[Constellation]:
    """The constellations of a batch's configs, once every config has
    passed the runnable check (build_constellation) and shares the first
    one's crowd settings; a ValueError names the first that differs."""
    cons = [build_constellation(c) for c in batch]
    for c in batch:
        for (name, want), (_, got) in zip(_crowd_fields(batch[0]), _crowd_fields(c)):
            if got != want:
                raise ValueError(f"{name}: configs run as one batch must share it, "
                                 f"got {want!r} and {got!r}")
    return cons


def run(cfg: SimConfig | Sequence[SimConfig], record_events: bool = False):
    """Execute the configured run(s) and aggregate metrics.

    cfg is one config, giving its MetricsReport, or a sequence of configs,
    giving their reports in order. The configs of a sequence share one
    crowd, stepped once per step, so they may differ only on the AP side
    (_AP_FIELDS, room.height_m); otherwise a ValueError names the first
    field that differs. Each report is exactly the one its config gets alone.
    """
    batch = [cfg] if isinstance(cfg, SimConfig) else list(cfg)
    cons = _checked(batch)
    if not batch:
        return []
    m, n_steps = batch[0].n_users, int(round(batch[0].duration_s / batch[0].dt_s))
    covered, handoffs = np.zeros((2, len(batch), m), dtype=np.int64)
    thr = np.zeros((len(batch), m))
    idle = [np.zeros(len(con), dtype=np.int64) for con in cons]
    events = [[] for _ in batch] if record_events else None
    _step_all(batch, cons, n_steps, covered, thr, handoffs, idle, events)

    pairs = m * n_steps or 1  # no users: the sums are over no pairs
    reports = [MetricsReport(
        placement_type=c.placement_type.upper(), n_aps=c.n_aps,
        effective_height_m=c.effective_height_m(), seed=c.seed,
        n_steps=n_steps, blockage_enabled=c.blockage_enabled,
        user_coverage=float(covered[i].sum() / pairs),
        mean_throughput_bps=float(thr[i].sum() / pairs),
        ap_idle_fraction=float(idle[i].sum() / (len(con) * n_steps)),
        handoff_count=int(handoffs[i].sum()),
        per_user_coverage=tuple(covered[i] / n_steps),
        per_user_throughput_bps=tuple(thr[i] / n_steps),
        per_ap_idle_fraction=tuple(idle[i] / n_steps), p_t_w=c.link.p_t_w,
        p_o_w=c.p_o_w, height_correction_m=con.height_correction_m,
        events=tuple(events[i]) if events else (),
    ) for i, (c, con) in enumerate(zip(batch, cons))]
    return reports[0] if isinstance(cfg, SimConfig) else reports


def _step_all(batch: Sequence[SimConfig], cons: Sequence[Constellation], n_steps: int,
              covered, thr, handoffs, idle, events) -> None:
    """The step loop, in blocks of K steps. Within a block the one crowd
    moves step by step, and with blockage on each step's blocked_matrix
    call, over every config's APs stacked, follows its move. Then, config
    by config, association, handoffs, alignment and the rate share each
    run once over the block's (step, user) entries, adding to that
    config's row of the accumulators. Every entry gets the same
    floating-point operations as in a loop of single steps, so the result
    does not depend on K, and a config's block buffers hold about
    _STEP_BLOCK (AP, step, user) entries whatever the run's length. The
    block's (K, m) x and y and its (K, m, A) blockage columns go to
    geometry.d_sq and geometry.nearest as they are, and the share reads
    each chosen link's distance from nearest."""
    cfg, m = batch[0], batch[0].n_users
    crowd, demand = mobility.init_users(
        cfg.room, m, cfg.seed, v_mean=cfg.v_mean_mps, v_span=cfg.v_span_mps,
        rate_min_bps=cfg.rate_min_bps, rate_max_bps=cfg.rate_max_bps,
    )
    # Fresh generators replay the draws init_users made, so each user's
    # first new waypoint is its start point. The pinned results keep this.
    rngs = mobility.Substreams(cfg.seed)
    xyz = np.concatenate([con.xyz for con in cons])
    cols = np.cumsum([0] + [len(con) for con in cons])  # config i's APs: cols[i]:cols[i + 1]
    k_max = min(max(1, _STEP_BLOCK // max(1, m * max(len(con) for con in cons))), n_steps)
    xy = np.empty((k_max, m, 2))
    hits = np.empty((k_max, m, len(xyz)), dtype=bool) if cfg.blockage_enabled else None
    deads = [_dead_steps(con.align_time_s, cfg.dt_s, n_steps) for con in cons]
    radios = [linkbudget.radio(c.link) for c in batch]
    # carried from block to block, by (config, user): the AP, the steps
    # since it last changed (the dead time depends on it alone), the shadow
    assign = np.full((len(batch), m), -1, dtype=np.int64)
    since = np.zeros((len(batch), m), dtype=np.int64)
    shadowed = np.zeros((len(batch), m), dtype=bool)
    for k0 in range(0, n_steps, k_max):
        k = min(k_max, n_steps - k0)
        for j in range(k):
            mobility.step_user(crowd, cfg.dt_s, rngs, cfg.room,
                               cfg.v_mean_mps, cfg.v_span_mps, cfg.pause_s)
            xy[j] = crowd.xy
            if hits is not None:  # every config's APs in one call
                hits[j] = geometry.blocked_matrix(xyz, crowd.xy, cfg.user_height_m, crowd.xy,
                                                  cfg.user_width_m / 2.0, cfg.body_height_m)
        step = np.arange(k)[:, None]
        for i, (con, dead, radio) in enumerate(zip(cons, deads, radios)):
            d_sq = geometry.d_sq(con.xyz, cfg.user_height_m, xy[:k, :, 0], xy[:k, :, 1])
            # config i's columns of the blockage buffer
            blocked = None if hits is None else hits[:k, :, cols[i]:cols[i + 1]]
            best, near = geometry.nearest(d_sq, blocked)

            prev = np.concatenate([assign[i, None], best[:-1]])
            changed, served = best != prev, best >= 0
            handoff = changed & served & (prev >= 0)
            handoffs[i] += handoff.sum(axis=0)
            last = np.maximum.accumulate(np.where(changed, step, -1), axis=0)  # -1: not this block
            age = np.where(last >= 0, step - last, since[i] + step + 1)
            counting = served & (age < dead)
            delivered, counts = _share(cfg.share_mode, best, near, served & ~counting, radio,
                                       len(con))
            covered[i] += (delivered >= demand).sum(axis=0)
            for row in delivered:  # step by step, as the sums are pinned
                thr[i] += row
            idle[i] += (counts == 0).sum(axis=0)

            if events is not None:
                was = np.concatenate([shadowed[i, None], ~served[:-1]])
                done = counting & (age + 1 == dead)
                _record(events[i], k0, cfg.dt_s, [(EVENT_HANDOFF, handoff, best),
                                                  (EVENT_BLOCKAGE_START, ~served & ~was, prev),
                                                  (EVENT_BLOCKAGE_END, was & served, best),
                                                  (EVENT_ALIGNMENT_DONE, done, best)])
            assign[i], since[i], shadowed[i] = best[-1], age[-1], ~served[-1]


def _dead_steps(align_s: float, dt_s: float, n_steps: int) -> int:
    """How many steps a new or changed link pays dead time align_s: each
    step with time left pays, and takes dt_s off it down to 0. The count
    stops at n_steps + 1, longer than any link of the run can age."""
    left, dead = align_s, 0
    while dead <= n_steps and left > 0.0:
        left, dead = max(left - dt_s, 0.0), dead + 1
    return dead


def _share(share_mode, best, near, serving, radio, n_ap):
    """The rate share of a block of steps: each (step, user) entry's
    delivered rate and each (step, AP) count of assigned users, where an
    entry's slot is step * n_ap + best. best and near are nearest's, by
    (step, user); only the serving links' rates are computed."""
    key = np.arange(len(best))[:, None] * n_ap + best
    counts = np.bincount(key[best >= 0], minlength=len(best) * n_ap)
    delivered = np.zeros(best.shape)
    if serving.any():
        taken, dist_sq = key[serving], near[serving]
        rate = linkbudget.link_rate(dist_sq, *radio)
        if share_mode == "equal_share":
            delivered[serving] = rate / counts[taken]
        else:  # single_user: the nearest (strongest) serving user takes the step, ties the lowest
            order = np.lexsort((dist_sq, taken))
            first = order[np.r_[True, taken[order[1:]] != taken[order[:-1]]]]
            delivered.flat[np.flatnonzero(serving)[first]] = rate[first]
    return delivered, counts.reshape(len(best), n_ap)


def _record(events, k0: int, dt_s: float, logged) -> None:
    """Append a block's events, (t, kind, user, AP), to one config's list
    in (step, kind, user) order. logged holds (kind, mask, AP) in kind
    order, mask and AP by (step, user); block step j is at t =
    (k0 + j + 1) * dt_s."""
    kinds, masks, aps = zip(*logged)
    found = np.nonzero(np.stack(masks, axis=1))  # in (step, kind, user) order
    ap = np.stack(aps, axis=1)[found]
    for j, i, u, a in zip(*(x.tolist() for x in (*found, ap))):
        events.append(((k0 + j + 1) * dt_s, kinds[i], u, a))


LABEL_DARKNESS, LABEL_ILLUMINATION = 0, 1
LABEL_NAMES = ("darkness", "illumination")
# Heat-map cells per block; the block's (APs, rows, ny) temporaries are a
# fixed multiple of this, whatever the resolution.
_CELL_BLOCK = 1 << 15
# (AP, step, user) entries per block of run()'s step loop, for the config
# with the most APs; a config's block temporaries are a fixed multiple of
# this, whatever the run's length.
_STEP_BLOCK = 1 << 12


@dataclass(frozen=True, eq=False)
class HeatmapGrid:
    resolution_cells_per_m: float
    length_m: float
    width_m: float
    device_height_m: float
    probe_rate_bps: float
    rates_bps: np.ndarray  # (nx, ny), x index first
    labels: np.ndarray  # (nx, ny) int8, see LABEL_NAMES


def heatmap(cfg: SimConfig, resolution_cells_per_m: float, probe_rate_bps: float) -> HeatmapGrid:
    """Static best-AP rate field at device height.

    Each cell is a device served by its nearest AP, the one run() would
    pick for it with no body in the way (see geometry.nearest), at that
    link's rate. Cells below the probe rate are darkness and the others
    illumination; the probe rate must be finite and not negative. No time
    sharing: this is the per-point link capacity, not a loaded-system rate.

    The grids are filled in blocks of whole x rows, about _CELL_BLOCK
    cells each (one row when a row is longer), so the (APs, rows, ny)
    temporaries stay a fixed size whatever the resolution. Each cell's
    arithmetic is element-wise or a per-cell minimum over the APs, so the
    result does not depend on the block size. A cell's squared distance
    to an AP is an x term plus a y term plus the AP's height term, so a
    block's distances come from an (APs, rows, 1) table of x terms and an
    (APs, 1, ny) table of y terms (geometry.d_sq), not from a list of
    cells, and stay in the grid's own (rows, ny) shape.
    """
    if not (math.isfinite(resolution_cells_per_m) and resolution_cells_per_m > 0):
        raise ConfigError("resolution: must be a finite positive number")
    if not 0.0 <= probe_rate_bps < math.inf:
        raise ConfigError(f"probe_rate_bps: must be a finite number >= 0, got {probe_rate_bps!r}")
    con = build_constellation(cfg)
    res = resolution_cells_per_m
    nx = math.ceil(cfg.room.length_m * res)
    ny = math.ceil(cfg.room.width_m * res)
    xs = (np.arange(nx) + 0.5) / res
    ys = (np.arange(ny) + 0.5) / res
    if xs[-1] > cfg.room.length_m or ys[-1] > cfg.room.width_m:
        raise ConfigError(
            f"resolution: {res} cells/m centres the last cell outside the room"
        )
    radio = linkbudget.radio(cfg.link)
    z = cfg.user_height_m

    rates = np.empty((nx, ny))
    labels = np.empty((nx, ny), dtype=np.int8)
    rows = max(1, _CELL_BLOCK // ny)
    for i0 in range(0, nx, rows):
        block = slice(i0, i0 + rows)
        # the nearest AP's distance: nearest's near, with no body to block a cell
        near = geometry.d_sq(con.xyz, z, xs[block, None], ys).min(axis=0)
        rates[block] = rate = linkbudget.link_rate(near, *radio)
        labels[block] = np.where(rate >= probe_rate_bps, LABEL_ILLUMINATION, LABEL_DARKNESS)
    return HeatmapGrid(
        resolution_cells_per_m=res,
        length_m=cfg.room.length_m,
        width_m=cfg.room.width_m,
        device_height_m=z,
        probe_rate_bps=probe_rate_bps,
        rates_bps=rates,
        labels=labels,
    )


def sweep(series: Sequence[Sequence[SimConfig]], jobs: int = 1) -> list[MetricsReport]:
    """Run each series of configs, reports in input order.

    A series is a sequence of configs, typically one base config moved
    point by point along one axis (with_effective_height, with_placement).
    The configs of every series may differ only on the AP side, as those
    of one run() batch must; otherwise a ValueError names the field.
    In-process, every config of every series is one run() batch: one
    crowd, stepped once, and every config checked, constellation included,
    before the first step. With jobs > 1 and several series, a pool of at
    most one process per series runs one batch per series, after the same
    check of every config up front.
    """
    configs = [c for s in series for c in s]
    # worth it for many series: 7 paper-length series 6.5 s in one batch, 3.6 s on 2 vCPUs
    workers = min(jobs, len(series))  # a pool for one series only costs its start-up
    if workers <= 1:
        return run(configs)
    _checked(configs)
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [r for reports in pool.map(run, series) for r in reports]

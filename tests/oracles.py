"""Reference implementations that the library kernels are checked against.

`los_blocked` is the scalar segment-against-cylinders test, one blocker at
a time. `blocked_matrix_dense` evaluates every (user, AP, blocker) triple
at once with the same arithmetic as `geometry.blocked_matrix`, so the two
must agree boolean for boolean. `UserState` is one user as scalars:
`init_users` draws them one at a time and `step_user` advances one by one
step; `mobility.init_users` and `mobility.step_user` must match them bit
for bit on every user, compared through `crowd_of`. `achievable_rate` is
the scalar rate of one link at a distance. `sees` is the scalar view
test of one AP given its xy and facing, and `ap_rows` lists a
constellation's APs one by one, each wall mount facing along its wall's
inward normal. The library has no view test, since every floor point is
in view of every AP; the tests that enumerate links keep it, to show
that it removes nothing in the room. `coverage_radius_bruteforce` finds
the illumination radius by bisection instead of through Lambert W.
`mean_nearest_distance` is a layout's mean nearest-node distance over a
floor grid, from a (cells, nodes) meshgrid; `geometry.reference_distances`
takes it from `geometry.d_sq` and must match it bit for bit.
`heatmap_whole_grid` computes a heat map's rates and labels in one pass
over every cell; `simulation.heatmap` fills the same grids block by
block and must match it bit for bit. `nearest_ap_ids` is run()'s
association of a set of positions, built from the library's own calls
(`geometry.nearest` over `geometry.d_sq` and `geometry.blocked_matrix`),
so the association rule can be checked point by point.
`heatmap_csv_rows` is the heat-map CSV text built row by row from each
cell's repr; `reporting.write_heatmap` must write exactly these bytes. `ApArrays` is one constellation's per-AP
constants and `run_one` steps one config on its own, with its own crowd;
`simulation.run` steps a batch of configs over one shared crowd and must
give each config exactly the report `run_one` gives it. `best_ap_by_snr`
and `best_rate_by_snr` are the association rule stated on the full
(devices, APs) SNR matrix: the strongest unblocked AP. `run_one` and
`heatmap_whole_grid` choose each device's AP by it, so the library's
nearest-AP rule (`geometry.nearest`) is checked against the strongest-AP
rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from thzplan import geometry, mobility
from thzplan import simulation as sim
from thzplan.linkbudget import (
    SPEED_OF_LIGHT,
    absorption_for,
    antenna_gain,
    shannon_rate,
    snr_scale,
)
from thzplan.mobility import (
    DEFAULT_RATE_MAX_BPS,
    DEFAULT_RATE_MIN_BPS,
    DEFAULT_SPEED_MEAN,
    DEFAULT_SPEED_SPAN,
    Crowd,
    _draw_speed,
    _draw_waypoint,
    substream,
)


@dataclass(frozen=True)
class UserState:
    """A mobile receiver that doubles as a blocker for everyone else."""

    id: int
    x: float
    y: float
    speed_mps: float
    wp_x: float
    wp_y: float
    demand_bps: float
    pause_left_s: float = 0.0


def crowd_of(users) -> Crowd:
    """The state of a sequence of UserState, in its order."""
    return Crowd(
        xy=np.array([(u.x, u.y) for u in users], dtype=float),
        wp=np.array([(u.wp_x, u.wp_y) for u in users], dtype=float),
        speed_mps=np.array([u.speed_mps for u in users], dtype=float),
        pause_left_s=np.array([u.pause_left_s for u in users], dtype=float),
    )


def init_users(
    room,
    m: int,
    seed: int,
    v_mean: float = DEFAULT_SPEED_MEAN,
    v_span: float = DEFAULT_SPEED_SPAN,
    rate_min_bps: float = DEFAULT_RATE_MIN_BPS,
    rate_max_bps: float = DEFAULT_RATE_MAX_BPS,
) -> list[UserState]:
    """Users drawn one at a time; per user, from its substream: position
    x, y, waypoint x, y, speed, demanded rate."""
    users = []
    for i in range(m):
        rng = substream(seed, i)
        x, y = _draw_waypoint(rng, room)
        wx, wy = _draw_waypoint(rng, room)
        speed = _draw_speed(rng, v_mean, v_span)
        demand = rng.uniform(rate_min_bps, rate_max_bps)
        users.append(UserState(id=i, x=x, y=y, speed_mps=speed, wp_x=wx, wp_y=wy,
                               demand_bps=demand))
    return users


def step_user(
    u: UserState,
    dt_s: float,
    rng: np.random.Generator,
    room,
    v_mean: float = DEFAULT_SPEED_MEAN,
    v_span: float = DEFAULT_SPEED_SPAN,
    pause_s: float = 0.0,
) -> UserState:
    """Advance one user one time step toward the waypoint, with scalar math.

    Arriving within one step's travel pins the position to the waypoint
    and draws a fresh waypoint and speed (after an optional pause).
    """
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    if u.pause_left_s > 0.0:
        left = u.pause_left_s - dt_s
        if left > 0.0:
            return replace(u, pause_left_s=left)
        wx, wy = _draw_waypoint(rng, room)
        speed = _draw_speed(rng, v_mean, v_span)
        return replace(u, wp_x=wx, wp_y=wy, speed_mps=speed, pause_left_s=0.0)

    dx, dy = u.wp_x - u.x, u.wp_y - u.y
    dist = (dx * dx + dy * dy) ** 0.5
    travel = u.speed_mps * dt_s
    if dist <= travel:
        if pause_s > 0.0:
            return replace(u, x=u.wp_x, y=u.wp_y, pause_left_s=pause_s)
        wx, wy = _draw_waypoint(rng, room)
        speed = _draw_speed(rng, v_mean, v_span)
        return replace(u, x=u.wp_x, y=u.wp_y, wp_x=wx, wp_y=wy, speed_mps=speed)
    f = travel / dist
    return replace(u, x=u.x + dx * f, y=u.y + dy * f)


def achievable_rate(d_m, params):
    """Shannon rate (bit/s) over the noise-limited link at distance d."""
    d = np.asarray(d_m, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    snr = snr_scale(params) / (d * d * np.exp(absorption_for(params) * d))
    rate = shannon_rate(snr, params.bandwidth_hz)
    return float(rate) if np.ndim(rate) == 0 else rate


def segment_cylinder_hit(a, b, cyl) -> bool:
    """Open segment (a, b) against one solid vertical cylinder, given as
    (center, radius, height) with z in [0, height]."""
    ax, ay, az = a
    bx, by, bz = b
    dx, dy, dz = bx - ax, by - ay, bz - az
    (cx, cy), radius, height = cyl

    # parameter window where z(t) lies within the cylinder's span
    if dz == 0.0:
        if not 0.0 <= az <= height:
            return False
        z_lo, z_hi = 0.0, 1.0
    else:
        t0 = (0.0 - az) / dz
        t1 = (height - az) / dz
        z_lo, z_hi = min(t0, t1), max(t0, t1)

    # parameter window where the xy track lies within the disc
    fx, fy = ax - cx, ay - cy
    qa = dx * dx + dy * dy
    qb = 2.0 * (fx * dx + fy * dy)
    qc = fx * fx + fy * fy - radius * radius
    if qa == 0.0:
        if qc > 0.0:
            return False
        xy_lo, xy_hi = 0.0, 1.0
    else:
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            return False
        root = math.sqrt(disc)
        xy_lo = (-qb - root) / (2.0 * qa)
        xy_hi = (-qb + root) / (2.0 * qa)

    lo = max(xy_lo, z_lo, 0.0)
    hi = min(xy_hi, z_hi, 1.0)
    if lo > hi:
        return False
    # endpoints themselves do not count (device and AP touch their own hulls)
    return hi > 0.0 and lo < 1.0


def los_blocked(a, b, blockers, exclude: int | None = None) -> bool:
    """True when the open segment a-b intersects any blocker cylinder.

    a and b are (x, y, z) points; blockers is a sequence of (center,
    radius, height) cylinders; exclude skips the blocker at that index
    (the receiving user's own body).
    """
    if tuple(a) == tuple(b):
        raise ValueError("segment endpoints coincide")
    for i, cyl in enumerate(blockers):
        if i == exclude:
            continue
        if segment_cylinder_hit(a, b, cyl):
            return True
    return False


def blocked_matrix_dense(ap_xyz, device_xy, device_z, centers_xy, radius_m, height_m):
    """Every (user, AP, blocker) triple at once; same contract as
    `geometry.blocked_matrix`, whose (A, 3) and (n, 2) array forms it
    takes and no other, one centre per device, blocker u being user u's
    own body. Memory grows as users x APs x blockers."""
    ap, dev, cen = (np.asarray(v, dtype=float) for v in (ap_xyz, device_xy, centers_xy))
    for name, value, k in (("ap_xyz", ap, 3), ("device_xy", dev, 2), ("centers_xy", cen, 2)):
        if value.ndim != 2 or value.shape[1] != k:
            raise ValueError(f"{name}: expected an (n, {k}) array, got shape {value.shape}")
    if len(cen) != len(dev):
        raise ValueError(f"centers_xy: one body per device, got {len(cen)} for {len(dev)}")
    n_usr, n_ap, n_blk = dev.shape[0], ap.shape[0], cen.shape[0]
    radius = np.broadcast_to(np.asarray(radius_m, dtype=float), (n_blk,))
    height = np.broadcast_to(np.asarray(height_m, dtype=float), (n_blk,))

    # segment from AP (a) to device (b), per (user, ap) pair
    a_xy = np.broadcast_to(ap[None, :, :2], (n_usr, n_ap, 2))
    d_xy = dev[:, None, :] - ap[None, :, :2]
    az = np.broadcast_to(ap[None, :, 2], (n_usr, n_ap))[:, :, None]
    dz = device_z - az

    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (0.0 - az) / dz
        t1 = (height - az) / dz
    z_lo = np.minimum(t0, t1)
    z_hi = np.maximum(t0, t1)
    level = (dz == 0.0)
    inside_level = level & (az >= 0.0) & (az <= height)
    z_lo = np.where(level, np.where(inside_level, 0.0, np.inf), z_lo)
    z_hi = np.where(level, np.where(inside_level, 1.0, -np.inf), z_hi)

    f_xy = a_xy[:, :, None, :] - cen[None, None, :, :]
    qa = np.sum(d_xy * d_xy, axis=-1)[:, :, None]
    qb = 2.0 * np.sum(f_xy * d_xy[:, :, None, :], axis=-1)
    qc = np.sum(f_xy * f_xy, axis=-1) - radius * radius
    disc = qb * qb - 4.0 * qa * qc
    hit_possible = disc >= 0.0
    root = np.sqrt(np.where(hit_possible, disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        xy_lo = (-qb - root) / (2.0 * qa)
        xy_hi = (-qb + root) / (2.0 * qa)
    degenerate = (qa == 0.0)
    inside_disc = degenerate & (qc <= 0.0)
    xy_lo = np.where(degenerate, np.where(inside_disc, 0.0, np.inf), xy_lo)
    xy_hi = np.where(degenerate, np.where(inside_disc, 1.0, -np.inf), xy_hi)
    hit_possible |= inside_disc

    lo = np.maximum(np.maximum(xy_lo, z_lo), 0.0)
    hi = np.minimum(np.minimum(xy_hi, z_hi), 1.0)
    hits = hit_possible & (lo <= hi) & (hi > 0.0) & (lo < 1.0)
    idx = np.arange(n_usr)
    hits[idx, :, idx] = False  # blocker u is user u's own body
    return hits.any(axis=-1)


def sees(ap_xy, facing_deg, x: float, y: float) -> bool:
    """True when (x, y) lies in the view of the AP at ap_xy: everywhere for
    a ceiling mount (facing_deg None), the half plane in front of a wall
    mount whose inward normal points at azimuth facing_deg."""
    if facing_deg is None:
        return True
    dx, dy = x - ap_xy[0], y - ap_xy[1]
    if dx == 0.0 and dy == 0.0:
        return True
    az = math.radians(facing_deg)
    # inward half plane; a point along the wall itself counts
    return dx * math.cos(az) + dy * math.sin(az) >= -1e-12 * math.hypot(dx, dy)


def _inward_normal_deg(room, x: float, y: float) -> float:
    """Azimuth of the inward normal of the wall that (x, y) sits on."""
    for on_wall, azimuth in ((y == 0.0, 90.0), (x == room.length_m, 180.0),
                             (y == room.width_m, 270.0), (x == 0.0, 0.0)):
        if on_wall:
            return azimuth
    raise ValueError(f"({x}, {y}) lies on no wall of the room")


def ap_rows(con, room):
    """(id, (x, y, z), facing_deg or None) for each AP of a Constellation
    in room: a wall mount (layout C) faces along the inward normal of its
    wall, a ceiling mount (None) sees everywhere."""
    return [(i, (x, y, z), _inward_normal_deg(room, x, y) if con.placement_type == "C" else None)
            for i, (x, y, z) in enumerate(con.xyz.tolist())]


def coverage_radius_bruteforce(params, spectral_efficiency: float) -> float:
    """Bisection oracle for `linkbudget.coverage_radius`.

    Works on log(r^2 e^(tau r) / K) = 2 ln r + tau r - ln K, which is
    strictly increasing and overflow-free. The bracket doubles upward from
    1 m until the sign flips, then bisects to an interval below 1e-9 m (or
    to float resolution for very large radii).
    """
    # K = p_t g^2 / (N0 B (4 pi f / c)^2 (2^s - 1)), in an order of its
    # own: linkbudget divides snr_scale by 2^s - 1
    g_ant = antenna_gain(params.beamwidth_deg)
    k = params.p_t_w * g_ant * g_ant / (
        params.noise_psd_w_hz
        * params.bandwidth_hz
        * (4.0 * math.pi * params.f_c_hz / SPEED_OF_LIGHT) ** 2
        * (2.0 ** spectral_efficiency - 1.0)
    )
    tau = absorption_for(params)
    log_k = math.log(k)

    def g(r):
        return 2.0 * math.log(r) + tau * r - log_k

    hi = 1.0
    while g(hi) <= 0.0:
        hi *= 2.0
    lo = hi / 2.0
    while g(lo) > 0.0:
        lo /= 2.0
    for _ in range(200):
        if hi - lo < 1e-9:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def mean_nearest_distance(room, nodes_xyz, probe_height_m: float, grid: int = 50) -> float:
    """Mean 3-D distance from a uniform grid x grid floor grid at probe
    height to the nearest of the given node positions, over a meshgrid of
    every (cell, node) pair: `geometry.reference_distances` must give
    exactly this for each layout it measures."""
    nodes = np.asarray(nodes_xyz, dtype=float).reshape(-1, 3)
    xs = (np.arange(grid) + 0.5) * room.length_m / grid
    ys = (np.arange(grid) + 0.5) * room.width_m / grid
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    dx = gx[..., None] - nodes[:, 0]
    dy = gy[..., None] - nodes[:, 1]
    dz = probe_height_m - nodes[:, 2]
    d = np.sqrt(dx * dx + dy * dy + dz * dz)
    return float(d.min(axis=-1).mean())


def heatmap_whole_grid(cfg, resolution_cells_per_m, probe_rate_bps):
    """(rates, labels) of `simulation.heatmap`, every cell in one pass.

    Holds (cells, APs) temporaries for the whole grid at once.
    """
    res = resolution_cells_per_m
    nx = math.ceil(cfg.room.length_m * res)
    ny = math.ceil(cfg.room.width_m * res)
    xs = (np.arange(nx) + 0.5) / res
    ys = (np.arange(ny) + 0.5) / res
    link = cfg.link
    aps = ApArrays(sim.build_constellation(cfg), link, cfg.user_height_m)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    cells = np.stack([gx.ravel(), gy.ravel()], axis=1)

    snr = aps.snr(cells)
    rates = best_rate_by_snr(best_ap_by_snr(snr), snr, link.bandwidth_hz)
    labels = np.full(cells.shape[0], sim.LABEL_DARKNESS, dtype=np.int8)
    labels[rates >= probe_rate_bps] = sim.LABEL_ILLUMINATION
    return rates.reshape(nx, ny), labels.reshape(nx, ny)


def nearest_ap_ids(positions, ap_xyz, bodies=None,
                   device_z: float = mobility.DEFAULT_DEVICE_HEIGHT_M) -> tuple[int, ...]:
    """AP id per device by run()'s association: `geometry.nearest` over
    `geometry.d_sq`, with `geometry.blocked_matrix` when bodies, its
    (centers_xy, radius_m, height_m), are given. That is the nearest AP
    not blocked from the device, the lowest id on a tie and -1 when every
    AP is blocked; blocker u is device u's own body.

    positions is an (m, 2) array of floor points, and no positions give
    (). nearest needs finite distances, so a position whose squared
    distance to an AP is not finite, a NaN or infinite coordinate or one
    too far to square, is a ValueError naming positions, as is another
    shape.
    """
    pos = np.asarray(positions, dtype=float)
    if pos.shape == (0,):
        return ()
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions: expected an (m, 2) array, got shape {pos.shape}")
    with np.errstate(over="ignore"):  # an overflow is refused just below
        d_sq = geometry.d_sq(ap_xyz, device_z, *pos.T)
    if not np.isfinite(d_sq).all():
        raise ValueError("positions: a squared distance to an AP is not finite")
    blocked = None if bodies is None else geometry.blocked_matrix(ap_xyz, pos, device_z, *bodies)
    return tuple(geometry.nearest(d_sq, blocked)[0].tolist())


def heatmap_csv_rows(grid) -> tuple[str, str]:
    """(rates text, labels text) of a HeatmapGrid: each row's Python floats
    joined by repr and its labels by str, one line per x index."""
    rates = "".join(",".join(map(repr, row.tolist())) + "\n" for row in grid.rates_bps)
    labels = "".join(",".join(map(str, row.tolist())) + "\n" for row in grid.labels)
    return rates, labels


def best_ap_by_snr(snr, blocked=None):
    """Per device, the AP with the highest SNR among those not blocked from
    it; ties go to the lowest AP id, and a device blocked from every AP
    gets -1."""
    if blocked is None:
        return snr.argmax(axis=1).astype(np.int64)
    best = np.where(blocked, -np.inf, snr).argmax(axis=1).astype(np.int64)
    best[blocked.all(axis=1)] = -1
    return best


def best_rate_by_snr(best, snr, bandwidth_hz):
    """Shannon rate of each device's link to its chosen AP; 0.0 with none."""
    rate = np.zeros(best.shape)
    idx = np.flatnonzero(best >= 0)
    rate[idx] = shannon_rate(snr[idx, best[idx]], bandwidth_hz)
    return rate


class ApArrays:
    """Constellation and link budget with every per-AP constant of a run
    at one device height computed once."""

    def __init__(self, con, link, device_z: float):
        self.xyz = con.xyz
        self.align = con.align_time_s
        self.sig = snr_scale(link)
        self.dz_sq = (self.xyz[:, 2] - device_z) ** 2
        self.tau = absorption_for(link)

    def snr(self, pos: np.ndarray) -> np.ndarray:
        """(n, APs) SNR of each AP's link to a device at each (n, 2) point."""
        rel = pos[:, None, :] - self.xyz[None, :, :2]
        d_sq = rel[:, :, 0] ** 2 + rel[:, :, 1] ** 2 + self.dz_sq[None, :]
        d = np.sqrt(d_sq)
        return self.sig / (d_sq * np.exp(self.tau * d))


def run_one(cfg, record_events: bool = False):
    """One config's run, stepped on its own: its own crowd, its own APs."""
    cfg.validate()
    link = cfg.link
    con = sim.build_constellation(cfg)
    n_ap = len(con)
    m = cfg.n_users
    n_steps = int(round(cfg.duration_s / cfg.dt_s))
    device_z = cfg.user_height_m

    if m == 0:
        return sim.MetricsReport(
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
    aps = ApArrays(con, link, device_z)

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
                aps.xyz, pos, device_z, pos, cfg.user_width_m / 2.0, cfg.body_height_m,
            )
        snr = aps.snr(pos)
        best = best_ap_by_snr(snr, blocked)

        changed = best != assign
        if changed.any():
            handoff_mask = changed & (best >= 0) & (assign >= 0)
            handoffs += int(handoff_mask.sum())
            align_left = np.where(changed & (best >= 0), aps.align, align_left)
            align_left = np.where(best < 0, 0.0, align_left)
            if record_events:
                for u in np.flatnonzero(handoff_mask):
                    events.append((t, sim.EVENT_HANDOFF, int(u), int(best[u])))

        if cfg.blockage_enabled:
            now_shadowed = best < 0
            if record_events:
                for u in np.flatnonzero(now_shadowed & ~shadowed):
                    events.append((t, sim.EVENT_BLOCKAGE_START, int(u), int(assign[u])))
                for u in np.flatnonzero(shadowed & ~now_shadowed):
                    events.append((t, sim.EVENT_BLOCKAGE_END, int(u), int(best[u])))
            shadowed = now_shadowed

        assigned = best >= 0
        counting = assigned & (align_left > 0.0)
        align_left = np.where(counting, np.maximum(align_left - cfg.dt_s, 0.0), align_left)
        if record_events:
            for u in np.flatnonzero(counting & (align_left <= 0.0)):
                events.append((t, sim.EVENT_ALIGNMENT_DONE, int(u), int(best[u])))

        serving = assigned & ~counting
        counts = np.bincount(best[assigned], minlength=n_ap)
        delivered = np.zeros(m)
        if serving.any():
            idx = np.flatnonzero(serving)
            ap_idx = best[idx]
            rate = shannon_rate(snr[idx, ap_idx], link.bandwidth_hz)
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

    return sim.MetricsReport(
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

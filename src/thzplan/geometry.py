"""Room model, access-point constellations, and line-of-sight blockage.

Placement layouts follow the lighting analogy: a single central ceiling
fixture (type A), a uniform ceiling grid (B) and wall-mounted perimeter
units (C), the three layouts of the evaluation protocol. `COUNTS` is the
one statement of the AP counts each layout takes; the first count of an
entry is the layout's default. `place` builds each layout as a
`Constellation`: an array of the AP positions, one row per AP, and one
alignment time for the whole layout. Wall mounts face into the room, and
the room is convex, so every AP of every layout sees every point of the
floor.

Association has one rule: a device is served by the nearest AP not
blocked from it (`nearest`), over the squared distances of `d_sq`, which
keeps a block of points in its own shape with the APs on a first axis.
The simulation's runs use the pair; its heat maps, which have no bodies,
and `reference_distances`, which takes the wall mounts' height
correction, use the nearest of the same distances.

Blockage has one implementation, `blocked_matrix`: every AP -> device
segment against every vertical body cylinder, all bodies of one radius
and one height, as the paper's users are. It takes the APs as one (A, 3)
array and the devices and the body centres as (n, 2) arrays, the one
form its callers pass, one centre per device: a user's own body is the
blocker with that user's id. A body of height h can only cut the part of
a segment below h, which for a ceiling AP is the last (h - z_device) /
(z_ap - z_device) of it, 20% for a 3 m ceiling, 1.5 m device and 1.8 m
body. The kernel tests only the bodies whose centres lie near that part,
found through a cell list, and gives exactly the booleans of a test of
every (user, AP, blocker) triple. It computes each AP's z-window once per
call and tests the candidates in chunks small enough for their
temporaries to stay in the cache, so its memory grows with the crowd
only by the (user, AP) arrays and the bodies' columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID_COUNTS = (4, 8, 12, 16)
# the AP counts each layout takes, its default first
COUNTS = {"A": (1,), "B": GRID_COUNTS, "C": GRID_COUNTS}

# columns x rows of the ceiling partition per AP count; type A is the
# 1 x 1 grid, whose one cell centre is the room centre
_GRID_SHAPE = {1: (1, 1), 4: (2, 2), 8: (4, 2), 12: (4, 3), 16: (4, 4)}


@dataclass(frozen=True)
class Room:
    """Rectangular box: length along x, width along y, height along z."""

    length_m: float = 10.0
    width_m: float = 10.0
    height_m: float = 3.0

    def __post_init__(self):
        for name in ("length_m", "width_m", "height_m"):
            if getattr(self, name) <= 0:
                raise ValueError(f"room.{name}: must be positive")


@dataclass(frozen=True, eq=False)
class Constellation:
    """One AP layout as arrays, AP id = row index.

    xyz is (n, 3). align_time_s is every AP's beam-alignment dead time.
    """

    placement_type: str
    xyz: np.ndarray
    align_time_s: float
    height_correction_m: float = 0.0

    def __len__(self):
        return len(self.xyz)


def _grid_xy(room: Room, n: int) -> np.ndarray:
    """(n, 2) cell centres of a uniform room partition, row by row."""
    cols, rows = _GRID_SHAPE[n]
    xs = [(i + 0.5) * room.length_m / cols for i in range(cols)]
    ys = [(j + 0.5) * room.width_m / rows for j in range(rows)]
    return np.array([(x, y) for y in ys for x in xs])


def _wall_xy(room: Room, n: int) -> np.ndarray:
    """(n, 2) wall points equally spaced along the south, east, north and
    west walls."""
    per_wall = n // 4
    fracs = [(k + 1) / (per_wall + 1) for k in range(per_wall)]
    length, width = room.length_m, room.width_m
    xy = ([(f * length, 0.0) for f in fracs] + [(length, f * width) for f in fracs]
          + [(f * length, width) for f in fracs] + [(0.0, f * width) for f in fracs])
    return np.array(xy)


def place(
    room: Room, placement_type: str, n: int, t_align_s: float,
    height_correction_m: float = 0.0,
) -> Constellation:
    """Layout A (one ceiling AP at the room centre), B (a ceiling grid at
    the cell centres of a uniform room partition) or C (wall mounts facing
    inward, which align in half the ceiling alignment time).

    Every AP hangs height_correction_m below the ceiling.
    """
    t = placement_type.upper()
    if t not in COUNTS:
        raise ValueError(f"unknown placement type {placement_type!r}")
    if n not in COUNTS[t]:
        raise ValueError(f"unsupported type {t} AP count {n}; choose from {COUNTS[t]}")
    if not 0.0 <= height_correction_m < room.height_m:
        raise ValueError(
            f"height correction {height_correction_m} outside [0, {room.height_m})"
        )
    if t == "C":
        xy = _wall_xy(room, n)
        t_align_s = t_align_s / 2.0
    else:
        xy = _grid_xy(room, n)
    xyz = np.column_stack([xy, np.full(n, room.height_m - height_correction_m)])
    return Constellation(t, xyz, t_align_s, height_correction_m)


def height_correction(
    effective_height_m: float,
    d_grid_m: float,
    d_perimeter_m: float,
    tau_per_m: float,
) -> float:
    """How far to lower wall mounts so their illumination matches the
    ceiling grid's: H * (1 - e^(tau (d_B - d_C) / 2)).

    d_grid_m / d_perimeter_m are the reference link distances of the two
    layouts (perimeter never shorter). Result lies in [0, H).
    """
    if effective_height_m <= 0:
        raise ValueError("effective height must be positive")
    if d_grid_m <= 0:
        raise ValueError("reference distances must be positive")
    if d_perimeter_m < d_grid_m:
        raise ValueError(
            f"perimeter reference distance {d_perimeter_m} shorter than grid "
            f"distance {d_grid_m}; correction would be negative"
        )
    if tau_per_m < 0:
        raise ValueError("tau must be >= 0")
    return effective_height_m * -math.expm1(tau_per_m * (d_grid_m - d_perimeter_m) / 2.0)


def reference_distances(
    room: Room, n: int, probe_height_m: float = 1.5, grid: int = 50
) -> tuple[float, float]:
    """Reference link distances feeding the height correction: grid-average
    nearest-AP distance for the ceiling grid and for the full-height
    perimeter layout, both as place() builds them. The grid is grid x grid
    cell centres of the floor at probe height, and the distances are
    d_sq's, so the rule is the one association uses."""
    xs = (np.arange(grid) + 0.5) * room.length_m / grid
    ys = (np.arange(grid) + 0.5) * room.width_m / grid
    return tuple(float(np.sqrt(d_sq(place(room, t, n, 0.0).xyz, probe_height_m, xs[:, None], ys)
                               .min(axis=0)).mean()) for t in "BC")


def d_sq(ap_xyz: np.ndarray, device_z: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared 3-D distance from a device at height device_z at each floor
    point (x, y) to each AP of ap_xyz (A, 3), APs on a new first axis:
    (A, *P) for the points' broadcast shape P. (n,) columns give (A, n),
    (K, m) blocks of x and y give (A, K, m), and an (rows, 1) x column
    against an (ny,) y row gives (A, rows, ny) from an x table and a y
    table. Each entry is its x term plus its y term plus the AP's height
    term, added in that order whatever the shape."""
    ap = ap_xyz.reshape(len(ap_xyz), 3, *[1] * max(np.ndim(x), np.ndim(y)))
    out = (x - ap[:, 0]) ** 2 + (y - ap[:, 1]) ** 2
    out += (ap[:, 2] - device_z) ** 2  # in place: no second full-size array
    return out


def nearest(dist_sq: np.ndarray, blocked: np.ndarray | None = None):
    """The association rule: per device, the nearest AP among those not
    blocked from it (every AP sees the whole floor), which is the one with
    the highest SNR, since all APs of a layout hang at one height with one
    power and the SNR falls with distance. dist_sq is d_sq's (A, *P);
    blocked, if given, holds the same devices with the APs on its last
    axis (*P, A), as blocked_matrix does. Returns (best, near), both of
    shape P: the chosen AP id, the lowest on a tie, and its squared
    distance; a device blocked from every AP gets -1 and inf. dist_sq must
    be finite."""
    if blocked is not None:
        dist_sq = np.where(np.moveaxis(blocked, -1, 0), np.inf, dist_sq)
    near = dist_sq.min(axis=0)
    best = dist_sq.argmin(axis=0)
    best[near == np.inf] = -1
    return best, near


# Candidate boxes are padded by the body radius plus this slack times
# the coordinate scale. Rounding lets the exact test count a centre a few
# ulps farther than one radius from the segment; the slack is many orders
# of magnitude above that and far below any cell size.
_BOX_SLACK = 1e-6
# (user, AP) pairs per block and candidate triples per exact-test chunk;
# peak memory is a fixed multiple of these, whatever the user count. A
# chunk's twenty-odd (N,) temporaries take 64 KB each at 1 << 13, about
# 1.3 MB together, which fits a 2 MB per-core L2 cache. In two measured
# tables of chunk sizes (CHANGES.md), 1 << 13 was within noise of the
# fastest at 200 to 2000 users, and 1 << 16 made one 1000-user call peak
# at 7.8 MB of traced memory against 2.2 MB.
_PAIR_BLOCK = 4096
_CANDIDATE_CHUNK = 1 << 13


def blocked_matrix(
    ap_xyz: np.ndarray,
    device_xy: np.ndarray,
    device_z: float,
    centers_xy: np.ndarray,
    radius_m,
    height_m,
) -> np.ndarray:
    """Blockage of every (user, AP) link by vertical body cylinders.

    The link is the open segment from the AP at ap_xyz[a] to the device at
    (device_xy[u], device_z); blocker b is a solid cylinder at
    centers_xy[b], z in [0, height_m], with radius radius_m: every body
    has the one radius and the one height. Blocker u is user u's own body,
    by id, and never blocks user u's links, so there is one centre per
    device; the centre need not be at the device. ap_xyz is an (A, 3)
    array and device_xy and centers_xy (U, 2) ones, with no other form,
    and device_z, radius_m and height_m are one finite number each.
    Returns a (U, A) boolean array. Every coordinate must be finite and
    radius_m positive; any other input raises ValueError starting with
    the argument's name, before any work is done.

    Pruning, in three steps:

    1. z-window: the exact test's window of a link, the parameter range
       where the segment lies within the bodies' z span (_z_window),
       depends on its AP's height alone, so it is computed once per call,
       one per AP, and the exact test gathers it by pair and then by
       triple. Per AP, [t_lo, t_hi] is that window clipped to [0, 1].
       With the AP above the device, t_lo = (h - z_ap) / (z_device - z_ap)
       and t_hi = 1. No body reaches the segment outside that window, and
       an AP whose window is empty needs no test at all.
    2. Candidate rule: blocker centres sit in a uniform cell list. Blocker
       b is a candidate for pair (u, a) when its centre lies in the
       axis-aligned bounding box of the sub-segment over [t_lo, t_hi],
       padded by the radius plus _BOX_SLACK * (1 + largest absolute
       coordinate). A centre outside that box is more than a radius from
       every point of the window.
    3. Exact test: the candidates, minus the user's own body, go through
       the cylinder arithmetic that a test of every triple uses, the same
       operations in the same order, in chunks of at most
       _CANDIDATE_CHUNK triples (more only when one cell row holds more
       bodies), over blocks of about _PAIR_BLOCK pairs, so memory stays
       bounded as users grow. A chunk is sized for its temporaries to stay
       in the cache, and its path is the gathers of its triples' columns
       and the cylinder arithmetic.

    The kernel works in column form: x and y of the AP positions, the
    devices, the blocker centres, the segment starts and directions and
    the candidate boxes are separate contiguous (N,) arrays, so the box
    filter is four comparisons and each pair's squared xy length is
    computed once and gathered for its triples, as is its z-window. The
    bodies' x and y are kept in cell list order, so the positions of a
    cell list run index them directly.

    Exactness contract: the result equals, boolean for boolean, that
    arithmetic applied to every (user, AP, blocker) triple, including
    near-tangent bodies, level segments (AP at device height) and centres
    outside the room. The dense oracle in the tests checks this.
    """
    ap, dev, cen = (np.asarray(v, dtype=float) for v in (ap_xyz, device_xy, centers_xy))
    extent = []  # each array's largest absolute coordinate
    for name, value, k in (("ap_xyz", ap, 3), ("device_xy", dev, 2), ("centers_xy", cen, 2)):
        if value.ndim != 2 or value.shape[1] != k:
            raise ValueError(f"{name}: expected an (n, {k}) array, got shape {value.shape}")
        extent.append(np.abs(value).max(initial=0.0))
        if not math.isfinite(extent[-1]):  # NaN or inf exactly when a coordinate is
            raise ValueError(f"{name}: every coordinate must be finite")
    for name, value in (("device_z", device_z), ("radius_m", radius_m), ("height_m", height_m)):
        if np.ndim(value) != 0 or not math.isfinite(value):
            raise ValueError(f"{name}: must be one finite number")
    radius, height = float(radius_m), float(height_m)
    # the box pad is the radius, which covers a body only when it is
    # positive: the exact test squares it
    if not radius > 0.0:
        raise ValueError("radius_m: must be positive")
    if len(cen) != len(dev):
        raise ValueError(f"centers_xy: one body per device, got {len(cen)} for {len(dev)}")
    blocked = np.zeros((len(dev), len(ap)), dtype=bool)
    z_lo, z_hi = _z_window(ap[:, 2], device_z - ap[:, 2], height)
    t_lo, t_hi = np.maximum(z_lo, 0.0), np.minimum(z_hi, 1.0)
    live = np.flatnonzero((t_lo <= t_hi) & (t_hi > 0.0) & (t_lo < 1.0))
    if len(dev) == 0 or live.size == 0:
        return blocked

    cells = _CellList(cen[:, 0], cen[:, 1], radius)
    pad = radius + _BOX_SLACK * (1.0 + max(*extent, abs(device_z)))
    (ap_x, ap_y), (dev_x, dev_y) = (np.array(v.T) for v in (ap[:, :2], dev))
    r_sq = radius * radius
    per_block = max(1, _PAIR_BLOCK // live.size)
    for u0 in range(0, len(dev), per_block):
        users = np.arange(u0, min(u0 + per_block, len(dev)))
        pu = np.repeat(users, live.size)
        pa = np.repeat(live[None], users.size, axis=0).ravel()  # np.tile, at a third of its cost
        ax, ay = ap_x[pa], ap_y[pa]
        dx, dy = dev_x[pu] - ax, dev_y[pu] - ay
        qa = dx * dx + dy * dy
        tl, th, zl, zh = t_lo[pa], t_hi[pa], z_lo[pa], z_hi[pa]
        ex, ey = (ax + tl * dx, ax + th * dx), (ay + tl * dy, ay + th * dy)
        lo_x, hi_x = np.minimum(*ex) - pad, np.maximum(*ex) + pad
        lo_y, hi_y = np.minimum(*ey) - pad, np.maximum(*ey) + pad
        pair, start, count = cells.query(lo_x, hi_x, lo_y, hi_y)
        cum = np.cumsum(count)
        e0 = 0
        while e0 < count.size:
            limit = cum[e0] - count[e0] + _CANDIDATE_CHUNK
            e1 = max(e0 + 1, int(np.searchsorted(cum, limit, side="right")))
            entry, pos = _ranges(start[e0:e1], count[e0:e1])
            p = pair[e0:e1][entry]
            bx, by = cells.x[pos], cells.y[pos]
            keep = (bx >= lo_x[p]) & (bx <= hi_x[p]) & (by >= lo_y[p]) & (by <= hi_y[p])
            keep &= cells.order[pos] != pu[p]  # blocker u is user u's body
            p = p[keep]
            hit = _cylinder_hits(ax[p], ay[p], dx[p], dy[p], qa[p], bx[keep], by[keep],
                                 r_sq, zl[p], zh[p])
            blocked[pu[p[hit]], pa[p[hit]]] = True
            e0 = e1
    return blocked


class _CellList:
    """Blocker centres binned into a uniform grid, sorted row by row.

    Cells are about one blocker each on average, and never narrower than
    a body of the given radius, so a query box spans few rows and few
    cells per row.
    """

    def __init__(self, cx: np.ndarray, cy: np.ndarray, radius: float):
        self.x0, self.y0 = cx.min(), cy.min()
        span_x, span_y = cx.max() - self.x0, cy.max() - self.y0
        self.cell = max(math.sqrt(span_x * span_y / cx.size), 2.0 * radius)
        self.nx = int(min(span_x // self.cell, cx.size)) + 1
        self.ny = int(min(span_y // self.cell, cx.size)) + 1
        flat = self._index(cy, self.y0, self.ny) * self.nx + self._index(cx, self.x0, self.nx)
        # order[k] is the blocker at cell position k; x and y are its centre
        self.order = np.argsort(flat, kind="stable")
        self.x, self.y = cx[self.order], cy[self.order]
        self.first = np.concatenate(
            ([0], np.cumsum(np.bincount(flat, minlength=self.nx * self.ny)))
        )

    def _index(self, v: np.ndarray, origin: float, n: int) -> np.ndarray:
        # clipped to [0, n - 1] before the cast, which then is the floor
        cell = np.maximum((v - origin) / self.cell, 0.0)
        return np.minimum(cell, n - 1).astype(np.intp)

    def query(self, lo_x, hi_x, lo_y, hi_y):
        """Blockers in the cells each box overlaps, one run per cell row.

        Returns (box, start, count): run k holds the cell positions
        start[k]:start[k] + count[k] for box number box[k]. Empty runs are
        left out.
        """
        ix0, ix1 = self._index(lo_x, self.x0, self.nx), self._index(hi_x, self.x0, self.nx)
        iy0, iy1 = self._index(lo_y, self.y0, self.ny), self._index(hi_y, self.y0, self.ny)
        box, row = _ranges(iy0, iy1 - iy0 + 1)
        row_cell = row * self.nx
        start = self.first[row_cell + ix0[box]]
        count = self.first[row_cell + ix1[box] + 1] - start
        nonempty = count > 0
        return box[nonempty], start[nonempty], count[nonempty]


def _ranges(starts: np.ndarray, counts: np.ndarray):
    """Concatenated integer ranges [starts[i], starts[i] + counts[i]),
    each element paired with the index i of its range."""
    owner = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - first[owner] + starts[owner]


def _z_window(az, dz, height):
    """(z_lo, z_hi): the parameter range where the segment az + t * dz
    lies in [0, height], unclipped. A level segment (dz == 0) gets [0, 1]
    when it lies in that span and the empty (inf, -inf) when not.
    blocked_matrix takes both the exact test's windows and its pruning
    windows from its one window per AP, so they agree."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (0.0 - az) / dz
        t1 = (height - az) / dz
    level = dz == 0.0
    inside = level & (az >= 0.0) & (az <= height)
    z_lo = np.where(level, np.where(inside, 0.0, np.inf), np.minimum(t0, t1))
    z_hi = np.where(level, np.where(inside, 1.0, -np.inf), np.maximum(t0, t1))
    return z_lo, z_hi


def _cylinder_hits(ax, ay, dx, dy, qa, cx, cy, r_sq, z_lo, z_hi) -> np.ndarray:
    """Open segment a -> a + d against one solid cylinder, row by row.

    Every argument but r_sq, every cylinder's squared radius, is (N,), one
    row per (segment, cylinder) triple: the segment's xy start (ax, ay)
    and direction (dx, dy), with qa = dx * dx + dy * dy, the cylinder's
    centre (cx, cy), and the _z_window of the segment against the
    cylinders' height, which depends only on the AP's height and so is its
    AP's one window. The segment is hit when the parameter windows of its
    z span and of its xy track within the disc overlap inside (0, 1); the
    endpoints themselves do not count, since device and AP touch their
    own hulls.
    """
    fx, fy = ax - cx, ay - cy
    qb = 2.0 * (fx * dx + fy * dy)
    qc = (fx * fx + fy * fy) - r_sq
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
    return hit_possible & (lo <= hi) & (hi > 0.0) & (lo < 1.0)

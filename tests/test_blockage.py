"""The pruned blockage kernel against the dense every-triple oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import blocked_matrix_dense
from thzplan import geometry as geo
from thzplan import simulation as sim

RADIUS = 0.1
# relative offsets from exact tangency, outside and inside the body
TANGENT_OFFSETS = (-1e-6, -1e-12, 0.0, 1e-12, 1e-9, 1e-6)


def _crowd(rng, n, mode, length, width):
    """n centres: uniform over the room and a margin outside it, in one
    or two tight clusters, or on a lattice of body diameters."""
    if mode == "uniform":
        return rng.uniform((-1.0, -1.0), (length + 1.0, width + 1.0), (n, 2))
    if mode == "clustered":
        hubs = rng.uniform((0.0, 0.0), (length, width), (2, 2))
        return hubs[rng.integers(0, 2, n)] + rng.normal(0.0, 0.4, (n, 2))
    # a 1 m patch is dense enough that the kernel's cell size drops to one
    # diameter, the lattice step, so centres sit on cell boundaries
    corner = rng.uniform((0.0, 0.0), (length - 1.0, width - 1.0))
    return corner + rng.integers(0, 6, (n, 2)) * (2 * RADIUS)


def _tangent_bodies(rng, ap, dev, device_z, count, radius, height):
    """Centres at about one radius from random AP -> device links, near
    where the link dips below body height: beside the link, or on it
    just before the dip so the disc's rim reaches into the z-window."""
    out = []
    if len(dev) == 0:
        return np.empty((0, 2))
    for _ in range(count):
        a = ap[rng.integers(len(ap))]
        b = dev[rng.integers(len(dev))]
        d = b - a[:2]
        norm = math.hypot(*d)
        if norm == 0.0 or a[2] == device_z:
            continue
        t_edge = (height - a[2]) / (device_z - a[2])
        t = float(np.clip(t_edge + rng.uniform(-0.02, 0.02), 0.0, 1.0))
        along = d / norm
        away = rng.choice((-1.0, 1.0)) * np.array([-along[1], along[0]])
        if rng.random() < 0.5:
            away, t = -along, float(np.clip(t_edge, 0.0, 1.0))
        offset = 1.0 + rng.choice(TANGENT_OFFSETS)
        out.append(a[:2] + t * d + radius * offset * away)
    return np.array(out).reshape(-1, 2)


@st.composite
def scenes(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    length = draw(st.floats(2.0, 20.0))
    width = draw(st.floats(2.0, 20.0))
    device_z = draw(st.sampled_from((1.5, 1.0, 1.8, 2.0)))
    n_ap = draw(st.integers(1, 5))
    ap_z = draw(st.lists(
        st.one_of(st.just(device_z), st.just(1.8), st.floats(0.5, 6.0)),
        min_size=n_ap, max_size=n_ap))
    ap_xy = rng.uniform((0.0, 0.0), (length, width), (n_ap, 2))
    ap = np.column_stack([ap_xy, ap_z])
    n_usr = draw(st.integers(0, 40))
    mode = draw(st.sampled_from(("uniform", "clustered", "lattice")))
    dev = _crowd(rng, n_usr, mode, length, width)
    # one size for every body of a scene, as blocked_matrix takes it
    radius = draw(st.sampled_from((0.05, RADIUS, 0.25)))
    height = draw(st.sampled_from((1.2, 1.8, 2.1)))
    extra = np.concatenate([
        _crowd(rng, draw(st.integers(0, 40)), mode, length, width),
        _tangent_bodies(rng, ap, dev, device_z, draw(st.integers(0, 10)), radius, height),
    ])
    own_body = draw(st.booleans())
    if own_body:
        dev = np.concatenate([dev, extra])
        centers = dev
    else:
        centers = extra
    return ap, dev, device_z, centers, radius, height, own_body


def _check_scene(scene):
    ap, dev, device_z, centers, radius, height, own_body = scene
    got = geo.blocked_matrix(ap, dev, device_z, centers, radius, height,
                             own_body=own_body)
    want = blocked_matrix_dense(ap, dev, device_z, centers, radius, height,
                                own_body=own_body)
    assert got.shape == (len(dev), len(ap))
    assert np.array_equal(got, want)


@given(scenes())
@settings(max_examples=300, deadline=None)
def test_pruned_kernel_matches_dense_oracle(scene):
    _check_scene(scene)


@pytest.mark.parametrize("pair_block,chunk", [(1, 1), (7, 13)])
@given(scene=scenes())
@settings(max_examples=100, deadline=None)
def test_block_and_chunk_seams_match_dense_oracle(pair_block, chunk, scene):
    # every scene above fits in one pair block and one candidate chunk;
    # tiny ones cut it into many, with ragged ends
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo, "_PAIR_BLOCK", pair_block)
        mp.setattr(geo, "_CANDIDATE_CHUNK", chunk)
        _check_scene(scene)


def test_axis_aligned_near_tangent_bodies():
    # an axis-aligned link's candidate box is tight. Rounding lets the
    # exact test count a centre a few ulps farther than one radius from
    # the link, beside it or just before it dips below body height, and
    # the box must still hold every such centre
    rng = np.random.default_rng(5)
    for _ in range(40):
        ax, ay = rng.uniform(0.0, 10.0, 2)
        dy = rng.uniform(1.0, 8.0) * rng.choice((-1.0, 1.0))
        y_dip = ay + (1.8 - 3.0) / (1.5 - 3.0) * dy
        y_beside = y_dip + 0.1 * dy
        back = -math.copysign(1.0, dy)
        starts = [  # (first centre, direction of the ulp steps)
            ((ax - RADIUS, y_beside), (-np.inf, y_beside)),
            ((ax + RADIUS, y_beside), (np.inf, y_beside)),
            ((ax, y_dip + back * RADIUS), (ax, back * np.inf)),
            ((ax, y_dip + back * (RADIUS - 1e-9)), (ax, back * np.inf)),
        ]
        for centre, away in starts:
            centre = np.array(centre)
            for _ in range(8):
                for swap in (False, True):
                    pts = np.array([[ax, ay], [ax, ay + dy], centre])
                    if swap:
                        pts = pts[:, ::-1]
                    ap = np.array([[*pts[0], 3.0]])
                    args = (ap, pts[1:2], 1.5, pts[2:], RADIUS, 1.8)
                    assert np.array_equal(
                        geo.blocked_matrix(*args, own_body=False),
                        blocked_matrix_dense(*args, own_body=False))
                centre = np.nextafter(centre, away)


def test_candidates_across_several_default_chunks_match_dense_oracle(monkeypatch):
    # the scenes above fit in one candidate chunk at the default
    # constants; a dense crowd in a small room under 16 APs spans several
    chunks = 0

    def counting(*args):
        nonlocal chunks
        chunks += 1
        return cylinder_hits(*args)

    cylinder_hits = geo._cylinder_hits
    monkeypatch.setattr(geo, "_cylinder_hits", counting)
    rng = np.random.default_rng(11)
    ap = geo.place(geo.Room(3.0, 3.0, 3.0), "B", 16, 5e-3).xyz
    dev = rng.uniform(0.0, 3.0, (150, 2))
    # bodies taller than the devices, since a lower one meets no ceiling link
    for radius, height in ((0.05, 2.1), (RADIUS, 1.8), (0.25, 1.6)):
        for own_body in (True, False):
            centers = dev if own_body else rng.uniform(-0.2, 3.2, (150, 2))
            chunks = 0
            _check_scene((ap, dev, 1.5, centers, radius, height, own_body))
            assert chunks > 1, (radius, height, chunks)


# (argument, index, bad value), each in an otherwise valid call; index
# None replaces the whole argument, and () sets a 0-d size. Point arrays
# have one form each, (A, 3) for the APs and (n, 2) for the devices and
# the bodies; the last case is two devices given as x, y, z, which would
# read as three devices if it were flattened
MISSHAPEN = [
    ("device_xy", None, np.ones((3, 3))),
    ("ap_xyz", None, np.array([[5.0, 5.0], [2.0, 8.0]])),
    ("centers_xy", None, np.empty(0)),
    ("device_xy", None, np.array([[1.0, 1.0, 1.5], [4.0, 4.5, 1.5]])),
]
# A negative radius would be squared by the exact test but shrink the box
# pad, which is the radius, and drop bodies the test counts. Every body
# has one size and every device one height, so an array of sizes or of
# heights, even one value per body, is refused
BAD_ARGUMENTS = [
    ("ap_xyz", (0, 0), np.nan),
    ("ap_xyz", (0, 2), np.inf),
    ("device_xy", (1, 1), np.nan),
    ("device_xy", (0, 0), -np.inf),
    ("device_z", None, np.nan),
    ("centers_xy", (2, 0), np.nan),
    ("centers_xy", (0, 1), np.inf),
    ("radius_m", (), -RADIUS),
    ("radius_m", (), 0.0),
    ("radius_m", (), np.nan),
    ("radius_m", (), np.inf),
    ("height_m", (), np.nan),
    ("height_m", (), np.inf),
    ("height_m", (), -np.inf),
    ("radius_m", None, np.full(3, RADIUS)),
    ("radius_m", None, np.array([RADIUS])),
    ("radius_m", None, np.full(2, RADIUS)),
    ("height_m", None, np.full(3, 1.8)),
    ("height_m", None, np.empty(0)),
    *MISSHAPEN,
    ("device_z", None, np.full(2, 1.5)),
    ("device_z", None, np.array([1.5])),
]


def _call_with(name, index, value):
    """A valid call's arguments with one of them made bad."""
    args = {"ap_xyz": np.array([[5.0, 5.0, 3.0], [2.0, 8.0, 3.0]]),
            "device_xy": np.array([[1.0, 1.0], [4.0, 4.5], [9.0, 2.0]]), "device_z": 1.5,
            "centers_xy": np.array([[3.0, 3.0], [4.0, 4.0], [6.0, 7.0]]),
            "radius_m": np.array(RADIUS), "height_m": np.array(1.8)}
    if index is None:
        args[name] = value
    else:
        args[name][index] = value
    return args


@pytest.mark.parametrize("name,index,value", BAD_ARGUMENTS)
def test_bad_input_is_refused_naming_the_argument(name, index, value):
    with pytest.raises(ValueError, match=f"^{name}: "):
        geo.blocked_matrix(**_call_with(name, index, value), own_body=False)


@pytest.mark.parametrize("name,index,value", MISSHAPEN)
def test_the_dense_oracle_refuses_a_misshapen_array_too(name, index, value):
    with pytest.raises(ValueError, match=f"^{name}: "):
        blocked_matrix_dense(**_call_with(name, index, value), own_body=False)


def test_own_body_needs_one_blocker_per_user():
    ap = np.array([[5.0, 5.0, 3.0]])
    dev = np.array([[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="^centers_xy: "):
        geo.blocked_matrix(ap, dev, 1.5, dev[:1], RADIUS, 1.8, own_body=True)
    con = geo.Constellation("A", ap, 5e-3)
    with pytest.raises(ValueError, match="^centers_xy: "):
        sim.associate(dev, con, blockers=(dev[:1], RADIUS, 1.8))


def test_a_numpy_scalar_size_is_that_number():
    rng = np.random.default_rng(2)
    ap = geo.place(geo.Room(), "B", 4, 5e-3).xyz
    pos = rng.uniform(0.0, 10.0, (40, 2))
    want = geo.blocked_matrix(ap, pos, 1.5, pos, RADIUS, 1.8, own_body=True)
    assert want.any()
    for radius, height in ((np.float64(RADIUS), np.float64(1.8)),
                           (np.array(RADIUS), np.array(1.8))):
        got = geo.blocked_matrix(ap, pos, 1.5, pos, radius, height, own_body=True)
        assert np.array_equal(got, want)


def test_run_matches_dense_oracle(monkeypatch):
    cfg = sim.SimConfig(n_users=200, duration_s=0.3, blockage_enabled=True, seed=7)
    pruned = sim.run(cfg, record_events=True)
    monkeypatch.setattr(geo, "blocked_matrix", blocked_matrix_dense)
    dense = sim.run(cfg, record_events=True)
    assert any(e[1] == sim.EVENT_BLOCKAGE_START for e in pruned.events)
    assert pruned == dense


def _traced_peak(n_usr, ap=None):
    """Traced peak bytes and result of one own-body call on the APs ap, B16
    when None, n_usr users uniform over the default room."""
    rng = np.random.default_rng(3)
    if ap is None:
        ap = geo.place(geo.Room(), "B", 16, 5e-3).xyz
    pos = rng.uniform(0.0, 10.0, (n_usr, 2))
    tracemalloc.start()
    try:
        blocked = geo.blocked_matrix(ap, pos, 1.5, pos, RADIUS, 1.8, own_body=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, blocked


def test_peak_memory_stays_flat_at_2000_users():
    peak, blocked = _traced_peak(2000)
    assert blocked.any()
    # one (user, AP, blocker) float64 array alone would take 512 MB here;
    # the kernel's working set is one cache-sized candidate chunk, one
    # pair block and the blockers' cell-list columns, about 3.1 MB
    assert peak < 5e6


def test_peak_memory_grows_only_by_the_user_by_ap_arrays():
    # from 1000 to 4000 users only the (user, AP) result and the blockers'
    # cell-list columns grow, about 0.85 MB: at most eight float64
    # (user, AP) arrays' worth
    (small, _), (large, _) = _traced_peak(1000), _traced_peak(4000)
    assert large - small <= 8 * 8 * (4000 - 1000) * 16


def test_peak_memory_stays_flat_over_891_stacked_aps():
    # a sweep of every layout over 11 effective heights stacks 891 APs at
    # 55 distinct heights: the ceiling ones and each wall layout's own
    # corrected ones. The kernel keeps one z-window per AP, and a pair
    # block takes fewer users as the APs grow, so the call peaks at about
    # 3.0 MB; an (AP, blocker) table of z-windows peaked at 37.5 MB
    layouts = [("A", 1)] + [(t, n) for t in "BC" for n in geo.GRID_COUNTS]
    configs = [sim.with_effective_height(sim.with_placement(sim.SimConfig(), t, n), h)
               for t, n in layouts for h in np.linspace(2.0, 7.0, 11)]
    ap = np.concatenate([sim.build_constellation(c).xyz for c in configs])
    assert ap.shape == (891, 3) and np.unique(ap[:, 2]).size == 55
    peak, blocked = _traced_peak(1000, ap)
    assert blocked.any()
    assert peak < 6e6

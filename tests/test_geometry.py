import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import ap_rows, los_blocked, mean_nearest_distance, sees
from thzplan import geometry as geo


def sampling_oracle(a, b, blockers, exclude=None, n=10000):
    """Dense point sampling along the open segment."""
    ax, ay, az = a
    bx, by, bz = b
    for i in range(n):
        t = (i + 0.5) / n
        x, y, z = ax + t * (bx - ax), ay + t * (by - ay), az + t * (bz - az)
        for j, ((cx, cy), radius, height) in enumerate(blockers):
            if j == exclude:
                continue
            if (x - cx) ** 2 + (y - cy) ** 2 <= radius ** 2 and 0 <= z <= height:
                return True
    return False


class TestRoom:
    def test_defaults(self):
        r = geo.Room()
        assert (r.length_m, r.width_m, r.height_m) == (10.0, 10.0, 3.0)

    @pytest.mark.parametrize("dims", [(0, 10, 3), (10, -1, 3), (10, 10, 0)])
    def test_invalid(self, dims):
        with pytest.raises(ValueError):
            geo.Room(*dims)


T_ALIGN = 5e-3


def xy_of(con):
    return [(x, y) for x, y, _ in con.xyz.tolist()]


class TestPlacementA:
    def test_centered_default_room(self):
        con = geo.place(geo.Room(), "A", 1, T_ALIGN)
        assert len(con) == 1
        assert con.xyz.tolist() == [[5.0, 5.0, 3.0]]
        assert con.align_time_s == T_ALIGN

    def test_midpoint_other_room(self):
        con = geo.place(geo.Room(4.0, 6.0, 2.5), "A", 1, T_ALIGN)
        assert con.xyz.tolist() == [[2.0, 3.0, 2.5]]

    @given(st.floats(1e-3, 1e4), st.floats(1e-3, 1e4))
    def test_one_by_one_grid_is_the_exact_centre(self, length, width):
        con = geo.place(geo.Room(length, width, 3.0), "A", 1, T_ALIGN)
        assert xy_of(con) == [(length / 2.0, width / 2.0)]


class TestPlacementB:
    def test_four_ap_grid(self):
        con = geo.place(geo.Room(), "B", 4, T_ALIGN)
        assert set(xy_of(con)) == {(2.5, 2.5), (2.5, 7.5), (7.5, 2.5), (7.5, 7.5)}
        assert np.all(con.xyz[:, 2] == 3.0)
        assert con.align_time_s == T_ALIGN

    def test_sixteen_ap_lattice(self):
        con = geo.place(geo.Room(), "B", 16, T_ALIGN)
        coords = {1.25, 3.75, 6.25, 8.75}
        assert set(xy_of(con)) == {(x, y) for x in coords for y in coords}

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_inside_and_spaced(self, n):
        room = geo.Room(8.0, 12.0, 3.5)
        con = geo.place(room, "B", n, T_ALIGN)
        assert len(con) == n
        pts = con.xyz
        assert pts.shape == (n, 3)
        assert np.all(pts[:, 0] > 0) and np.all(pts[:, 0] < room.length_m)
        assert np.all(pts[:, 1] > 0) and np.all(pts[:, 1] < room.width_m)
        assert np.all(pts[:, 2] == room.height_m)
        d = np.linalg.norm(pts[None] - pts[:, None], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    def test_unsupported_counts(self, n):
        with pytest.raises(ValueError):
            geo.place(geo.Room(), "B", n, T_ALIGN)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_grid_beats_center_on_worst_case_distance(self, n):
        room = geo.Room()
        xs = np.linspace(0.05, 9.95, 60)
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)

        def worst(nodes):
            d = np.linalg.norm(pts[:, None] - nodes[None, :, :2], axis=-1)
            return d.min(axis=1).max()

        assert worst(geo.place(room, "B", n, T_ALIGN).xyz) < worst(
            geo.place(room, "A", 1, T_ALIGN).xyz
        )


class TestPlacementC:
    def test_four_wall_midpoints(self):
        con = geo.place(geo.Room(), "C", 4, T_ALIGN)
        assert xy_of(con) == [(5, 0), (10, 5), (5, 10), (0, 5)]
        assert np.all(con.xyz[:, 2] == 3.0)
        # wall mounts see the half plane their wall's inward normal faces
        assert [f for _, _, f in ap_rows(con, geo.Room())] == [90.0, 180.0, 270.0, 0.0]
        assert con.align_time_s == T_ALIGN / 2

    def test_height_shift(self):
        base = geo.place(geo.Room(), "C", 4, T_ALIGN, 0.0)
        low = geo.place(geo.Room(), "C", 4, T_ALIGN, 1.0)
        assert xy_of(low) == xy_of(base)
        assert np.all(low.xyz[:, 2] == 2.0)
        assert low.height_correction_m == 1.0

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_on_boundary(self, n):
        room = geo.Room(9.0, 7.0, 3.0)
        con = geo.place(room, "C", n, T_ALIGN)
        assert len(con) == n
        for x, y in xy_of(con):
            on_wall = (
                x in (0.0, room.length_m) or y in (0.0, room.width_m)
            )
            assert on_wall
            assert 0.0 <= x <= room.length_m and 0.0 <= y <= room.width_m

    def test_eight_thirds_spacing(self):
        con = geo.place(geo.Room(), "C", 8, T_ALIGN)
        south = sorted(x for x, y in xy_of(con) if y == 0.0)
        assert south == pytest.approx([10 / 3, 20 / 3])

    def test_correction_out_of_range(self):
        with pytest.raises(ValueError):
            geo.place(geo.Room(), "C", 4, T_ALIGN, 3.0)
        with pytest.raises(ValueError):
            geo.place(geo.Room(), "C", 4, T_ALIGN, -0.1)

    def test_inward_view(self):
        con = geo.place(geo.Room(), "C", 4, T_ALIGN)
        rows = ap_rows(con, geo.Room())
        for _, xyz, facing in rows:
            assert sees(xyz, facing, 5.0, 5.0)
        _, south, facing = next(r for r in rows if r[1][1] == 0.0)
        assert not sees(south, facing, 5.0, -1.0)
        assert sees(south, facing, 9.0, 0.0)  # along its own wall counts

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.5, 50.0), st.floats(0.5, 50.0), st.sampled_from(geo.GRID_COUNTS),
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=30),
    )
    def test_every_floor_point_is_in_view_of_every_wall_mount(self, length, width, n, fracs):
        # why the library has no view test: wall mounts face into a convex
        # room, so nothing on its floor lies behind one
        room = geo.Room(length, width, 3.0)
        con = geo.place(room, "C", n, T_ALIGN)
        pts = [(fx * length, fy * width) for fx, fy in fracs]
        pts += [(0.0, 0.0), (length, 0.0), (0.0, width), (length, width)]
        pts += [(length / 2, 0.0), (length, width / 2), (length / 2, width), (0.0, width / 2)]
        pts += xy_of(con)
        for _, xyz, facing in ap_rows(con, room):
            assert facing is not None
            assert all(sees(xyz, facing, x, y) for x, y in pts)


class TestVariants:
    def test_dispatch(self):
        assert tuple(geo.COUNTS) == ("A", "B", "C")
        for t in geo.COUNTS:
            con = geo.place(geo.Room(), t, 1 if t == "A" else 4, T_ALIGN)
            assert con.placement_type == t
        for t in ("Z", "D", "E", "F"):
            with pytest.raises(ValueError):
                geo.place(geo.Room(), t, 4, T_ALIGN)
        with pytest.raises(ValueError):
            geo.place(geo.Room(), "A", 4, T_ALIGN)


class TestHeightCorrection:
    def test_equal_distances(self):
        assert geo.height_correction(1.5, 3.0, 3.0, 0.7) == 0.0

    def test_zero_absorption(self):
        assert geo.height_correction(1.5, 3.0, 7.0, 0.0) == 0.0

    def test_worked_example(self):
        # frozen from a 40-digit evaluation: 1.5 (1 - e^(-0.2))
        assert geo.height_correction(1.5, 3.0, 7.0, 0.1) == pytest.approx(
            0.2719038703830272, rel=1e-14
        )

    def test_rejects_shorter_perimeter_distance(self):
        with pytest.raises(ValueError):
            geo.height_correction(1.5, 7.0, 3.0, 0.1)

    # room-scale ranges: the h - h_c cancellation grows like e^(tau dd/2),
    # so the 1e-12 round trip is only meaningful while that factor is modest
    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=20.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_round_trip(self, h, d_b, extra, tau):
        d_c = d_b + extra
        h_c = geo.height_correction(h, d_b, d_c, tau)
        assert 0.0 <= h_c < h
        assert h / (h - h_c) == pytest.approx(
            math.exp(tau * (d_c - d_b) / 2.0), rel=1e-12
        )


class TestReferenceDistances:
    def test_against_loop_oracle(self):
        room = geo.Room()
        d_b, d_c = geo.reference_distances(room, 4, probe_height_m=1.5, grid=50)

        def oracle(nodes):
            total = 0.0
            for i in range(50):
                for j in range(50):
                    x = (i + 0.5) * room.length_m / 50
                    y = (j + 0.5) * room.width_m / 50
                    best = min(
                        math.dist((x, y, 1.5), tuple(p)) for p in nodes
                    )
                    total += best
            return total / 2500

        assert d_b == pytest.approx(oracle(geo.place(room, "B", 4, T_ALIGN).xyz), rel=1e-12)
        assert d_c == pytest.approx(oracle(geo.place(room, "C", 4, T_ALIGN).xyz), rel=1e-12)
        assert d_c > d_b

    def test_grid_refinement_below_one_percent(self):
        room = geo.Room()
        for n in (4, 16):
            coarse = geo.reference_distances(room, n, grid=50)
            fine = geo.reference_distances(room, n, grid=100)
            for a, b in zip(coarse, fine):
                assert abs(a - b) / b < 0.01

    def test_equals_the_mean_nearest_distance_oracle(self):
        # bit for bit, over rooms, probe heights, grids and every count
        rooms = [geo.Room(), geo.Room(28.0, 3.0, 3.0), geo.Room(7.3, 11.9, 2.7)]
        for room, z, grid in itertools.product(rooms, (0.0, 1.1, 1.5), (7, 50, 100)):
            for n in geo.COUNTS["C"]:  # the counts build_constellation measures
                want = tuple(mean_nearest_distance(room, geo.place(room, t, n, 0.0).xyz, z, grid)
                             for t in "BC")
                assert geo.reference_distances(room, n, z, grid) == want, (room, z, grid, n)

    @pytest.mark.parametrize("n", [4, 8, 12, 16])
    def test_perimeter_never_closer(self, n):
        d_b, d_c = geo.reference_distances(geo.Room(), n)
        assert d_c > d_b


class TestLosBlocked:
    def test_direct_hit(self):
        a, b = (0.0, 0.0, 2.0), (10.0, 0.0, 2.0)
        blk = [((5.0, 0.0), 0.1, 3.0)]
        assert los_blocked(a, b, blk)
        assert sampling_oracle(a, b, blk)

    def test_no_blockers(self):
        assert not los_blocked((0, 0, 0), (1, 1, 1), [])

    def test_pass_above_short_blocker(self):
        # segment dips to z=2.2125..2.2875 over the disc, above a 1.8 m body
        a, b = (5.0, 5.0, 3.0), (5.0, 9.0, 1.5)
        blk = [((5.0, 7.0), 0.1, 1.8)]
        assert not los_blocked(a, b, blk)
        assert not sampling_oracle(a, b, blk)

    def test_blocks_taller_body(self):
        a, b = (5.0, 5.0, 3.0), (5.0, 9.0, 1.5)
        blk = [((5.0, 7.0), 0.1, 2.4)]
        assert los_blocked(a, b, blk)
        assert sampling_oracle(a, b, blk)

    def test_exclude_own_cylinder(self):
        a, b = (5.0, 5.0, 3.0), (5.0, 9.0, 1.5)
        blk = [((5.0, 8.9), 0.2, 1.8)]
        assert los_blocked(a, b, blk)
        assert not los_blocked(a, b, blk, exclude=0)

    def test_identical_endpoints_rejected(self):
        with pytest.raises(ValueError):
            los_blocked((1, 1, 1), (1, 1, 1), [])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_sampling_oracle(self, data):
        rng_f = lambda lo, hi: st.floats(min_value=lo, max_value=hi)
        ap = (data.draw(rng_f(0, 10)), data.draw(rng_f(0, 10)), data.draw(rng_f(2.0, 8.0)))
        dev = (data.draw(rng_f(0, 10)), data.draw(rng_f(0, 10)), 1.5)
        assume(math.dist(ap, dev) > 1e-6)
        blockers = [
            ((data.draw(rng_f(0, 10)), data.draw(rng_f(0, 10))), 0.1, data.draw(rng_f(1.2, 2.2)))
            for _ in range(data.draw(st.integers(0, 4)))
        ]
        # keep clear of tangency so the finite oracle cannot disagree
        for cyl in blockers:
            center, radius, height = cyl
            assume(abs(_point_segment_distance_xy(ap, dev, center) - radius) > 5e-3)
            z_at = _z_at_circle_crossing(ap, dev, cyl)
            if z_at is not None:
                assume(abs(z_at[0] - height) > 5e-3)
                assume(abs(z_at[1] - height) > 5e-3)
        got = los_blocked(ap, dev, blockers)
        assert got == sampling_oracle(ap, dev, blockers, n=20000)
        assert got == los_blocked(dev, ap, blockers)  # symmetric

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_batch_matches_scalar(self, data):
        rng_f = lambda lo, hi: st.floats(min_value=lo, max_value=hi)
        n_usr = data.draw(st.integers(1, 4))
        n_ap = data.draw(st.integers(1, 3))
        users = [(data.draw(rng_f(0, 10)), data.draw(rng_f(0, 10))) for _ in range(n_usr)]
        aps = [
            (data.draw(rng_f(0, 10)), data.draw(rng_f(0, 10)), data.draw(rng_f(2, 6)))
            for _ in range(n_ap)
        ]
        for (ux, uy) in users:
            for (ax, ay, az) in aps:
                assume((ux - ax) ** 2 + (uy - ay) ** 2 + (1.5 - az) ** 2 > 1e-12)
        batch = geo.blocked_matrix(np.array(aps), np.array(users), 1.5, np.array(users), 0.1, 1.8)
        cylinders = [(u, 0.1, 1.8) for u in users]
        for ui in range(n_usr):
            for ai in range(n_ap):
                scalar = los_blocked(aps[ai], (*users[ui], 1.5), cylinders, exclude=ui)
                assert batch[ui, ai] == scalar


def _point_segment_distance_xy(a, b, c):
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    cx, cy = c
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den == 0:
        return math.hypot(ax - cx, ay - cy)
    t = max(0.0, min(1.0, ((cx - ax) * dx + (cy - ay) * dy) / den))
    return math.hypot(ax + t * dx - cx, ay + t * dy - cy)


def _z_at_circle_crossing(a, b, cyl):
    ax, ay, az = a
    bx, by, bz = b
    (cx, cy), radius, _ = cyl
    dx, dy = bx - ax, by - ay
    qa = dx * dx + dy * dy
    if qa == 0:
        return None
    qb = 2 * ((ax - cx) * dx + (ay - cy) * dy)
    qc = (ax - cx) ** 2 + (ay - cy) ** 2 - radius ** 2
    disc = qb * qb - 4 * qa * qc
    if disc <= 0:
        return None
    t1 = (-qb - math.sqrt(disc)) / (2 * qa)
    t2 = (-qb + math.sqrt(disc)) / (2 * qa)
    return az + t1 * (bz - az), az + t2 * (bz - az)

import concurrent.futures
import hashlib
import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (achievable_rate, ap_rows, best_ap_by_snr, heatmap_whole_grid, los_blocked,
                     nearest_ap_ids, run_one, sees)
from thzplan import geometry as geo
from thzplan import linkbudget as lb
from thzplan import mobility as mob
from thzplan import reporting
from thzplan import simulation as sim


def make_config(**kw):
    defaults = dict(
        room=geo.Room(),
        placement_type="B",
        n_aps=4,
        p_o_w=1e-3,
        n_users=30,
        seed=1,
        duration_s=2.0,
        dt_s=0.010,
    )
    defaults.update(kw)
    return sim.SimConfig(**defaults)


class TestConfig:
    def test_validate_passes_defaults(self):
        make_config().validate()

    @pytest.mark.parametrize("kw,field", [
        (dict(placement_type="Z"), "placement_type"),
        (dict(placement_type="A", n_aps=4), "n_aps"),
        (dict(n_aps=5), "n_aps"),
        (dict(dt_s=0.0), "dt_s"),
        (dict(duration_s=0.001), "duration_s"),
        (dict(t_align_s=0.0), "t_align_s"),
        (dict(n_users=-1), "n_users"),
        (dict(share_mode="round_robin"), "share_mode"),
        (dict(rate_min_bps=0.0), "rate_min"),
        (dict(pause_s=-1.0), "pause_s"),
        (dict(f_c_hz=0.0), "f_c_hz"),
        (dict(beamwidth_deg=400.0), "beamwidth_deg"),
        (dict(seed=-1), "seed"),
        (dict(duration_s=math.nan), "duration_s"),
        (dict(p_o_w=math.nan), "p_o_w"),
        (dict(tau_override=math.inf), "tau_override"),
        (dict(room=geo.Room(math.inf, 10.0, 3.0)), "room.length_m"),
        (dict(f_c_hz=5e12), "f_c_hz"),
        (dict(placement_type="C", f_c_hz=5e12), "f_c_hz"),
        (dict(tau_override=-1.0), "tau_override"),
        (dict(humidity=2.0), "humidity"),
        (dict(v_span_mps=-0.1), "v_span_mps"),
        (dict(v_mean_mps=0.3), "v_mean_mps/v_span_mps"),
        (dict(rate_max_bps=1e8), "rate_min_bps/rate_max_bps"),
        (dict(dt_s=1e-323), "duration_s/dt_s"),
        (dict(beamwidth_deg=1e-320), "p_o_w/f_c_hz/bandwidth_hz/beamwidth_deg/noise_psd_w_hz"),
        (dict(bandwidth_hz=1e-311), "p_o_w/f_c_hz/bandwidth_hz/beamwidth_deg/noise_psd_w_hz"),
        (dict(user_height_m=-1.0), "user_height_m"),
        (dict(room=geo.Room(1e300, 10.0, 3.0)), "room.length_m/room.width_m/room.height_m"),
    ])
    def test_validation_names_field(self, kw, field):
        with pytest.raises(sim.ConfigError, match=field):
            make_config(**kw).validate()

    @pytest.mark.parametrize("call,field", [
        (lambda: sim.run(make_config(duration_s=math.nan)), "duration_s"),
        (lambda: sim.run(make_config(p_o_w=math.nan, duration_s=0.05)), "p_o_w"),
        (lambda: sim.run(make_config(room=geo.Room(math.inf, 10.0, 3.0))), "room.length_m"),
    ], ids=["run-duration", "run-power", "run-room"])
    def test_entry_points_reject_non_finite_numbers(self, call, field):
        with pytest.raises(sim.ConfigError, match=f"^{field}:"):
            call()

    def test_library_errors_name_the_field(self):
        with pytest.raises(ValueError, match="^room.length_m:"):
            geo.Room(length_m=-1.0)
        with pytest.raises(ValueError, match="^tau_override:"):
            lb.LinkBudgetParams(tau_override=-1.0)
        with pytest.raises(ValueError, match="^f_c_hz:"):
            lb.absorption_for(lb.LinkBudgetParams(f_c_hz=5e12))
        with pytest.raises(ValueError, match="^effective_height_m:"):
            sim.with_effective_height(make_config(), 0.0)

    def test_device_above_ceiling(self):
        with pytest.raises(sim.ConfigError, match="user_height_m"):
            make_config(user_height_m=3.5).validate()

    def test_height_override_moves_ceiling(self):
        cfg = sim.with_effective_height(make_config(), 4.0)
        assert cfg.room.height_m == 5.5
        assert cfg.effective_height_m() == 4.0
        for h in (0.0, -1.0, math.nan, math.inf, 1e300):
            with pytest.raises(sim.ConfigError, match="^effective_height_m:"):
                sim.with_effective_height(make_config(), h)

    def test_with_power_budget_split(self):
        for n in (1, 4, 8, 12, 16):
            cfg = replace(make_config(), n_aps=n)
            assert cfg.link.p_t_w == 1e-3 / n
            assert math.fsum([cfg.link.p_t_w] * n) == pytest.approx(1e-3, rel=5e-16)

    def test_parse_series(self):
        assert sim.parse_series("A") == ("A", 1)
        assert sim.parse_series("b4") == ("B", 4)
        assert sim.parse_series("C16") == ("C", 16)
        assert sim.parse_series("B0004") == ("B", 4)
        assert sim.parse_series("C" + "0" * 5000 + "8") == ("C", 8)
        with pytest.raises(sim.ConfigError):
            sim.parse_series("X2")

    @pytest.mark.parametrize("label", ["Bx", "C4.5", "B-4"])
    def test_parse_series_bad_count_names_series(self, label):
        with pytest.raises(sim.ConfigError, match=repr(label.upper())):
            sim.parse_series(label)

    @pytest.mark.parametrize("label", [
        "A4", "a16", "B5", "C1", "B0", "C32",
        pytest.param("B" + "9" * 5000, id="B-5000-digits"),  # int() would refuse it
    ])
    def test_parse_series_count_the_type_does_not_take_names_series(self, label):
        shown = label.upper() if len(label) <= 12 else label.upper()[:12] + "..."
        with pytest.raises(sim.ConfigError, match="^" + re.escape(f"series label {shown!r}:")):
            sim.parse_series(label)

    def test_parse_series_bare_letter_takes_the_first_count(self):
        for t, counts in geo.COUNTS.items():
            assert sim.parse_series(t.lower()) == (t, counts[0])

    def test_with_placement_follows_the_count_table(self):
        # every (config layout, target type, count or None) the table allows
        layouts = [(t, n) for t, counts in geo.COUNTS.items() for n in counts]
        every_count = sorted({n for counts in geo.COUNTS.values() for n in counts})
        for (t0, n0), t, n in itertools.product(layouts, geo.COUNTS, [None, *every_count]):
            cfg = make_config(placement_type=t0, n_aps=n0, duration_s=0.05)
            counts = geo.COUNTS[t]
            if n is not None and n not in counts:
                with pytest.raises(sim.ConfigError, match="^n: "):
                    sim.with_placement(cfg, t.lower(), n)
                continue
            want = n if n is not None else n0 if n0 in counts else counts[0]
            moved = sim.with_placement(cfg, t.lower(), n)
            assert (moved.placement_type, moved.n_aps) == (t, want)
            assert moved == replace(cfg, placement_type=t, n_aps=want)
            assert len(sim.build_constellation(moved)) == want

    def test_with_placement_leaves_an_unknown_type_to_validate(self):
        for n in (None, 4, 5):
            with pytest.raises(sim.ConfigError, match="^placement_type: "):
                sim.build_constellation(sim.with_placement(make_config(), "X", n))


class TestBuildConstellation:
    def test_type_b_at_ceiling(self):
        con = sim.build_constellation(make_config())
        assert np.all(con.xyz[:, 2] == 3.0)

    def test_type_c_gets_height_correction(self):
        cfg = make_config(placement_type="C")
        con = sim.build_constellation(cfg)
        assert con.height_correction_m > 0.0
        assert np.all(con.xyz[:, 2] == 3.0 - con.height_correction_m)
        d_b, d_c = geo.reference_distances(cfg.room, 4, cfg.user_height_m)
        tau = lb.absorption_for(cfg.link)
        expect = geo.height_correction(1.5, d_b, d_c, tau)
        assert con.height_correction_m == pytest.approx(expect, rel=1e-12)

    def test_override_rebuilds_geometry(self):
        cfg = sim.with_effective_height(make_config(), 4.0)
        con = sim.build_constellation(cfg)
        assert np.all(con.xyz[:, 2] == 5.5)


class TestAssociate:
    """run()'s association rule, geometry.nearest over geometry.d_sq and
    geometry.blocked_matrix, point by point through nearest_ap_ids."""

    def test_single_visible_ap(self):
        con = geo.place(geo.Room(), "A", 1, 5e-3)
        crowd, _ = mob.init_users(geo.Room(), 3, seed=5)
        got = nearest_ap_ids(crowd.xy, con.xyz)
        assert got == (0, 0, 0)

    def test_equidistant_tie_prefers_low_id(self):
        room = geo.Room()
        con = geo.place(room, "B", 4, 5e-3)
        got = nearest_ap_ids([[5.0, 5.0]], con.xyz)
        assert got == (0,)

    def test_no_positions_gives_no_ids(self):
        con = geo.place(geo.Room(), "B", 4, 5e-3)
        assert nearest_ap_ids([], con.xyz) == ()

    @pytest.mark.parametrize("positions", [
        [5.0, 5.0, 3.0, 3.0],
        [[5.0, 5.0, 1.5]],
        [[[5.0, 5.0]]],
        [[math.nan, 5.0]],
        [[math.inf, 5.0]],
        [[5.0, 5.0], [5.0, -math.inf]],
        [[1e200, 5.0]],  # finite, but its squared distance overflows
    ])
    def test_positions_must_be_an_m_by_2_array(self, positions):
        con = geo.place(geo.Room(), "B", 4, 5e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^positions:"):
                nearest_ap_ids(positions, con.xyz)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_nearest_on_a_block_is_the_strongest_ap_of_each_entry(self, data):
        # nearest takes run()'s (A, K, m) block as it is; the oracle takes
        # the same entries as a (K*m, A) SNR matrix. Few distinct distances
        # make exact ties likely, and every entry blocked from every AP is
        # drawn too, as is m = 0.
        a, k, m = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 5), (1, 4), (0, 5)))
        d_sq = np.array(data.draw(st.lists(st.sampled_from([0.25, 1.0, 2.0, 2.25, 9.0, 30.0]),
                                           min_size=a * k * m, max_size=a * k * m)))
        d_sq = d_sq.reshape(a, k, m)
        blocked = data.draw(st.sampled_from([None, "drawn", "all"]))
        if blocked == "all":
            blocked = np.ones((k, m, a), dtype=bool)
        elif blocked == "drawn":
            blocked = np.array(data.draw(st.lists(st.booleans(), min_size=k * m * a,
                                                  max_size=k * m * a)), dtype=bool)
            blocked = blocked.reshape(k, m, a)
        sig, tau, _ = lb.radio(make_config().link)
        snr = sig / (d_sq * np.exp(tau * np.sqrt(d_sq)))
        flat = np.moveaxis(snr, 0, -1).reshape(k * m, a)
        want = best_ap_by_snr(flat, None if blocked is None else blocked.reshape(-1, a))

        best, near = geo.nearest(d_sq, blocked)
        assert best.shape == near.shape == (k, m)
        assert best.ravel().tolist() == want.tolist()
        served = best >= 0
        at_best = np.take_along_axis(d_sq, np.maximum(best, 0)[None], axis=0)[0]
        assert near[served].tobytes() == at_best[served].tobytes()
        assert np.all(near[~served] == np.inf)

    def test_off_floor_position_is_served_like_any_other(self):
        # (5, -3) lies behind the south wall mount, which is still its
        # nearest AP: nearest has no room to check the point against
        con = geo.place(geo.Room(), "C", 4, 5e-3)
        assert nearest_ap_ids([[5.0, -3.0]], con.xyz) == (0,)

    def test_brute_force_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for trial in range(40):
            room = geo.Room(rng.uniform(6, 14), rng.uniform(6, 14), rng.uniform(2.5, 5))
            kind = ("A", "B", "C")[trial % 3]
            con = geo.place(room, kind, 1 if kind == "A" else int(rng.choice([4, 8])), 5e-3)
            m = int(rng.integers(1, 6))
            xy = [(rng.uniform(0, room.length_m), rng.uniform(0, room.width_m))
                  for _ in range(m)]
            bodies = (np.array(xy), 0.1, 1.8) if trial % 2 else None
            got = nearest_ap_ids(np.array(xy), con.xyz, bodies)
            cylinders = [(p, 0.1, 1.8) for p in xy] if trial % 2 else []
            for i, (x, y) in enumerate(xy):
                best, best_d = -1, None
                for ap_id, xyz, facing in ap_rows(con, room):
                    if not sees(xyz, facing, x, y):
                        continue
                    if los_blocked(xyz, (x, y, 1.5), cylinders, exclude=i):
                        continue
                    d = math.dist(xyz, (x, y, 1.5))
                    if best_d is None or d < best_d:
                        best, best_d = ap_id, d
                assert got[i] == best


class TestRunBasics:
    def test_deterministic_per_seed(self):
        cfg = make_config(duration_s=1.0)
        assert sim.run(cfg) == sim.run(cfg)

    def test_seed_changes_outcome(self):
        a = sim.run(make_config(duration_s=1.0, seed=1))
        b = sim.run(make_config(duration_s=1.0, seed=2))
        assert a != b

    def test_metric_bounds(self):
        r = sim.run(make_config(duration_s=1.0))
        assert 0.0 <= r.user_coverage <= 1.0
        assert 0.0 <= r.ap_idle_fraction <= 1.0
        assert r.mean_throughput_bps >= 0.0
        assert all(0.0 <= c <= 1.0 for c in r.per_user_coverage)
        assert all(0.0 <= c <= 1.0 for c in r.per_ap_idle_fraction)
        assert r.handoff_count >= 0

    def test_power_budget_conserved(self):
        for t, n in [("A", 1), ("B", 8), ("C", 12)]:
            cfg = sim.with_placement(make_config(duration_s=0.05), t, n)
            r = sim.run(cfg)
            assert math.fsum([r.p_t_w] * r.n_aps) == pytest.approx(r.p_o_w, rel=5e-16)

    def test_zero_users(self):
        r = sim.run(make_config(n_users=0, duration_s=0.5))
        assert r.ap_idle_fraction == 1.0
        assert r.mean_throughput_bps == 0.0
        assert r.user_coverage == 0.0
        assert r.handoff_count == 0

    def test_saturated_single_static_user(self):
        cfg = make_config(
            placement_type="A", n_aps=1, p_o_w=10.0, n_users=1,
            v_mean_mps=1e-6, v_span_mps=1e-7, duration_s=1.0,
        )
        r = sim.run(cfg)
        k = math.ceil(cfg.t_align_s / cfg.dt_s)
        assert r.ap_idle_fraction == 0.0
        assert r.user_coverage == pytest.approx((r.n_steps - k) / r.n_steps)
        assert r.handoff_count == 0

    def test_single_user_share_serves_only_the_strongest_link(self):
        cfg = make_config(
            placement_type="A", n_aps=1, n_users=5, share_mode="single_user",
            v_mean_mps=1e-6, v_span_mps=1e-7, duration_s=0.5,
        )
        r = sim.run(cfg)
        crowd, _ = mob.init_users(cfg.room, cfg.n_users, cfg.seed,
                                  v_mean=cfg.v_mean_mps, v_span=cfg.v_span_mps)
        ap = sim.build_constellation(cfg).xyz[0].tolist()
        d = [math.dist(ap, (x, y, 1.5)) for x, y in crowd.xy.tolist()]
        strongest = d.index(min(d))
        k = math.ceil(cfg.t_align_s / cfg.dt_s)
        thr = r.per_user_throughput_bps
        assert thr[strongest] == pytest.approx(
            achievable_rate(d[strongest], cfg.link) * (r.n_steps - k) / r.n_steps,
            rel=1e-6,  # the users creep at 1e-6 m/s
        )
        assert [t for i, t in enumerate(thr) if i != strongest] == [0.0] * 4
        shared = sim.run(replace(cfg, share_mode="equal_share"))
        assert all(t > 0.0 for t in shared.per_user_throughput_bps)

    def test_association_does_not_depend_on_the_radio(self):
        # at tau = 1e3 /m every SNR underflows to 0, yet each user still
        # goes to its nearest AP, as with no absorption at all
        with np.errstate(over="ignore"):  # e^(tau d) overflows to inf: SNR 0
            clear, dim = (sim.run(make_config(tau_override=tau), record_events=True)
                          for tau in (0.0, 1e3))
        assert dim.mean_throughput_bps == 0.0
        assert dim.handoff_count == clear.handoff_count > 0
        assert dim.per_ap_idle_fraction == clear.per_ap_idle_fraction

        def handoffs(r):
            return [e for e in r.events if e[1] == sim.EVENT_HANDOFF]
        assert handoffs(dim) == handoffs(clear)

    def test_an_snr_that_underflows_raises_no_warning(self):
        # e^(tau d) overflows to inf at tau = 1e3 /m, and the SNR is its limit 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = sim.run(make_config(tau_override=1e3, duration_s=0.05))
        assert r.mean_throughput_bps == 0.0

    def test_effective_height_reported(self):
        r = sim.run(sim.with_effective_height(make_config(duration_s=0.05), 4.0))
        assert r.effective_height_m == 4.0


class TestAlignmentWindow:
    def extract_dead_steps(self, cfg):
        """Initial association is an assignment change, so the run starts
        with one alignment window; recover its step count from throughput."""
        r = sim.run(cfg)
        crowd, _ = mob.init_users(cfg.room, 1, cfg.seed,
                                  v_mean=cfg.v_mean_mps, v_span=cfg.v_span_mps)
        x, y = crowd.xy[0].tolist()
        con = sim.build_constellation(cfg)
        rate = max(
            achievable_rate(math.dist(xyz, (x, y, 1.5)), cfg.link)
            for _, xyz, facing in ap_rows(con, cfg.room) if sees(xyz, facing, x, y)
        )
        thr = r.per_user_throughput_bps[0]
        return round(r.n_steps * (1.0 - thr / rate))

    def static_cfg(self, **kw):
        return make_config(
            n_users=1, v_mean_mps=1e-6, v_span_mps=1e-7, duration_s=0.5,
            **kw,
        )

    @pytest.mark.parametrize("dt,expect", [(0.010, 1), (0.005, 1), (0.003, 2), (0.0025, 2)])
    def test_ceiling_of_alignment_over_dt(self, dt, expect):
        cfg = self.static_cfg(dt_s=dt)
        assert self.extract_dead_steps(cfg) == expect

    def test_wall_mounts_align_twice_as_fast(self):
        # at dt = t_align/2 the dead time is 2 steps for ceiling mounts
        # and 1 step for wall mounts: exactly half the overhead per event
        dt = 0.0025
        k_b = self.extract_dead_steps(self.static_cfg(dt_s=dt))
        cfg_c = sim.with_placement(self.static_cfg(dt_s=dt), "C", 4)
        k_c = self.extract_dead_steps(cfg_c)
        assert k_b * dt == 2 * (k_c * dt)


class TestBlockageCrossing:
    def test_outage_window_matches_analytic_interval(self):
        # AP above room center; watcher device at (5, 8, 1.5). The ray dips
        # below a 1.8 m body only past y = 7.4. A walker crossing the x = 5
        # line at y = 7.7 with radius 0.1 m blocks while |x - 5| <= 0.1.
        room = geo.Room()
        con = geo.place(room, "A", 1, 5e-3)
        dt, speed = 0.01, 1.0
        blocked_steps = []
        for k in range(400):
            t = k * dt
            xy = [(5.0, 8.0), (3.0 + speed * t, 7.7)]  # watcher, walker
            got = nearest_ap_ids(np.array(xy), con.xyz, (np.array(xy), 0.1, 1.8))
            assert got[1] == 0  # walker keeps its own link
            if got[0] == -1:
                blocked_steps.append(t)
        assert blocked_steps, "crossing never blocked the watcher"
        start, end = min(blocked_steps), max(blocked_steps)
        assert start == pytest.approx(1.9, abs=dt + 1e-9)
        assert end == pytest.approx(2.1, abs=dt + 1e-9)
        # contiguous window
        assert len(blocked_steps) == pytest.approx((end - start) / dt + 1, abs=0.5)

    def test_blockage_only_degrades(self):
        base = make_config(duration_s=5.0, seed=3)
        clear = sim.run(base)
        shadowed = sim.run(replace(base, blockage_enabled=True))
        assert shadowed.user_coverage <= clear.user_coverage
        assert shadowed.mean_throughput_bps <= clear.mean_throughput_bps


class TestEvents:
    def test_event_log_kinds_and_determinism(self):
        cfg = make_config(duration_s=2.0, blockage_enabled=True, seed=11)
        r1 = sim.run(cfg, record_events=True)
        r2 = sim.run(cfg, record_events=True)
        assert r1.events == r2.events
        kinds = {e[1] for e in r1.events}
        assert sim.EVENT_ALIGNMENT_DONE in kinds
        for t, kind, user, ap in r1.events:
            assert 0 < t <= cfg.duration_s + 1e-9
            assert 0 <= user < cfg.n_users

    def test_handoff_events_match_count(self):
        cfg = make_config(duration_s=5.0, seed=2)
        r = sim.run(cfg, record_events=True)
        handoffs = [e for e in r.events if e[1] == sim.EVENT_HANDOFF]
        assert len(handoffs) == r.handoff_count


class TestHeatmap:
    def test_central_ap_field_is_symmetric(self):
        cfg = make_config(placement_type="A", n_aps=1)
        grid = sim.heatmap(cfg, 10.0, 1e9)
        r = grid.rates_bps
        assert r.shape == (100, 100)
        assert np.allclose(r, np.flip(r, axis=0), rtol=1e-9)
        assert np.allclose(r, np.flip(r, axis=1), rtol=1e-9)
        assert np.allclose(r, r.T, rtol=1e-9)

    def test_zero_probe_has_no_darkness(self):
        cfg = make_config()
        grid = sim.heatmap(cfg, 5.0, 0.0)
        assert not np.any(grid.labels == sim.LABEL_DARKNESS)

    def test_boundary_tracks_coverage_radius(self):
        cfg = make_config(placement_type="A", n_aps=1, p_o_w=0.5e-3)
        probe = 10e9
        grid = sim.heatmap(cfg, 10.0, probe)
        r_star = lb.coverage_radius(cfg.link, probe / cfg.link.bandwidth_hz)
        xs = (np.arange(100) + 0.5) / 10.0
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        slant = np.sqrt((gx - 5.0) ** 2 + (gy - 5.0) ** 2 + 1.5 ** 2)
        cell = math.sqrt(2) / 10.0
        illuminated = grid.labels == sim.LABEL_ILLUMINATION
        assert np.all(illuminated[slant <= r_star - cell])
        assert not np.any(illuminated[slant >= r_star + cell])

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(tuple(geo.COUNTS)), n=st.sampled_from(geo.GRID_COUNTS),
           h=st.floats(1.0, 5.0), spread=st.floats(0.0, 7.0), f_c=st.floats(100e9, 1e12),
           beamwidth=st.floats(5.0, 40.0))
    def test_illumination_is_the_coverage_radius_of_the_nearest_ap(
            self, kind, n, h, spread, f_c, beamwidth):
        # the closed-form radius (Lambert W) against the heat map: a cell
        # is lit exactly when its nearest AP is within r.
        # The probe rate is the rate of a link reaching `spread` across the
        # floor, so that the boundary often crosses it.
        cfg = sim.with_placement(make_config(f_c_hz=f_c, beamwidth_deg=beamwidth),
                                 kind, None if kind == "A" else n)
        cfg = sim.with_effective_height(cfg, h)
        tau, reach = lb.absorption_for(cfg.link), math.hypot(h, spread)
        probe = float(lb.shannon_rate(lb.snr_scale(cfg.link) / (reach ** 2 * math.exp(tau * reach)),
                                      cfg.bandwidth_hz))
        grid = sim.heatmap(cfg, 5.0, probe)
        r = lb.coverage_radius(cfg.link, probe / cfg.bandwidth_hz)
        xs, ys = ((np.arange(cells) + 0.5) / 5.0 for cells in grid.labels.shape)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        d = np.full(gx.shape, np.inf)
        for x, y, z in sim.build_constellation(cfg).xyz.tolist():
            d = np.minimum(d, np.sqrt((gx - x) ** 2 + (gy - y) ** 2
                                      + (z - cfg.user_height_m) ** 2))
        clear = np.abs(d - r) > 1e-9 * r
        lit = grid.labels == sim.LABEL_ILLUMINATION
        assert np.array_equal(lit[clear], (d <= r)[clear])
        assert np.all(lit | (grid.labels == sim.LABEL_DARKNESS))

    @pytest.mark.parametrize("res", [10.01, 0.12, 2.04])
    def test_resolution_keeps_every_cell_centre_in_the_room(self, res):
        # the last of ceil(10 res) centres lies past the 10 m wall
        with pytest.raises(sim.ConfigError, match="^resolution:"):
            sim.heatmap(make_config(placement_type="C"), res, 1e9)

    def test_fractional_resolution_with_centres_inside_is_kept(self):
        grid = sim.heatmap(make_config(placement_type="C"), 10.07, 1e9)
        assert grid.rates_bps.shape == (101, 101)  # last centre at 9.98 m

    def test_resolution_must_be_positive(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(sim.ConfigError, match="^resolution:"):
                sim.heatmap(make_config(), bad, 1e9)

    @pytest.mark.parametrize("probe", [math.nan, math.inf, -math.inf, -1.0])
    def test_probe_rate_must_be_finite_and_not_negative(self, probe):
        # NaN or inf would label every cell darkness, and -1 every cell lit
        with pytest.raises(sim.ConfigError, match="^probe_rate_bps:"):
            sim.heatmap(make_config(), 5.0, probe)


@st.composite
def floor_cells(draw):
    """(nx, ny) cell counts of a room no more than about 1.75 times as long
    one way as the other, so that every C layout has its height correction."""
    nx = draw(st.integers(3, 40))
    return nx, draw(st.integers(max(3, math.ceil(nx / 1.6)), int(nx * 1.6)))


class TestHeatmapBlocks:
    """heatmap() fills its grids block by block; the whole-grid oracle must
    give the same bits."""

    @staticmethod
    def assert_matches_oracle(cfg, res, probe):
        grid = sim.heatmap(cfg, res, probe)
        rates, labels = heatmap_whole_grid(cfg, res, probe)
        assert grid.rates_bps.shape == rates.shape
        assert grid.rates_bps.dtype == rates.dtype
        assert np.array_equal(grid.rates_bps.view(np.int64), rates.view(np.int64))
        assert grid.labels.dtype == labels.dtype
        assert np.array_equal(grid.labels, labels)
        return grid

    @pytest.mark.parametrize("layout", [("A", 1), ("B", 4), ("C", 4), ("C", 16)])
    def test_ragged_last_block(self, monkeypatch, layout):
        # 97 x 61 cells; 7 rows of 61 per block leave a last block of 6 rows
        monkeypatch.setattr(sim, "_CELL_BLOCK", 7 * 61 + 30)
        cfg = make_config(room=geo.Room(9.7, 6.1, 3.0), placement_type=layout[0],
                          n_aps=layout[1])
        grid = self.assert_matches_oracle(cfg, 10.0, 2e9)
        assert grid.rates_bps.shape == (97, 61)

    def test_row_longer_than_a_block(self, monkeypatch):
        # ny > _CELL_BLOCK: one x row per block
        monkeypatch.setattr(sim, "_CELL_BLOCK", 40)
        cfg = make_config(placement_type="C", n_aps=8)
        grid = self.assert_matches_oracle(cfg, 5.0, 1e9)
        assert grid.rates_bps.shape == (50, 50)

    def test_full_size_grid_spans_several_blocks(self):
        # 500 x 500 cells: 65 rows per block, a last block of 45 rows
        cfg = make_config(placement_type="C", n_aps=4)
        assert 500 % (sim._CELL_BLOCK // 500) != 0
        self.assert_matches_oracle(cfg, 50.0, 1e9)

    @settings(max_examples=100, deadline=None)
    @given(
        cells=floor_cells(),
        last=st.tuples(st.floats(0.55, 0.95), st.floats(0.55, 0.95)),
        res=st.sampled_from([0.8, 1.5, 2.5, 4.0, 6.5]),
        layout=st.sampled_from([("A", 1)] + [(t, n) for t in "BC" for n in geo.GRID_COUNTS]),
        probe=st.sampled_from([1e8, 1e9, 2e9, 5e9]),
        block=st.integers(1, 300),
    )
    def test_blocks_match_the_whole_grid_pass(self, cells, last, res, layout, probe, block):
        # room sides with a last cell a fraction `last` inside the wall, so
        # the x and y distance tables differ and every centre lies in the room
        (nx, ny), (fx, fy) = cells, last
        room = geo.Room((nx - 1 + fx) / res, (ny - 1 + fy) / res, 3.0)
        cfg = make_config(room=room, placement_type=layout[0], n_aps=layout[1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_CELL_BLOCK", block)  # ragged blocks, or one row each
            grid = self.assert_matches_oracle(cfg, res, probe)
        assert grid.rates_bps.shape == (nx, ny)

    def test_peak_memory_stays_below_the_whole_grid_pass(self):
        # the whole-grid pass peaks at about 57 MB here
        cfg = make_config(placement_type="C", n_aps=4)
        sim.heatmap(cfg, 2.0, 1e9)
        tracemalloc.start()
        try:
            sim.heatmap(cfg, 50.0, 1e9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestBlockerArguments:
    """The association takes bodies as blocked_matrix's own (centers_xy,
    radius_m, height_m), one size for every body."""

    def test_one_size_for_every_body_shades_and_reassociates(self):
        rng = np.random.default_rng(5)
        xy = rng.uniform(0.0, 10.0, (60, 2))
        ap = sim.build_constellation(make_config(placement_type="B", n_aps=16)).xyz
        assert geo.blocked_matrix(ap, xy, 1.5, xy, 0.1, 1.8).any()
        assert nearest_ap_ids(xy, ap, (xy, 0.1, 1.8)) != nearest_ap_ids(xy, ap)


def _along_h(bases, heights):
    """One series per base config, moved to each effective height."""
    return [[sim.with_effective_height(b, h) for h in heights] for b in bases]


class TestSweep:
    def test_height_axis_cardinality_and_order(self):
        cfg = make_config(duration_s=0.05)
        reports = sim.sweep(_along_h([cfg], [2.0, 3.0, 4.0]))
        assert [r.effective_height_m for r in reports] == [2.0, 3.0, 4.0]

    def test_power_split_halves_when_density_doubles(self):
        cfg = make_config(duration_s=0.05)
        reports = sim.sweep([[sim.with_placement(cfg, "B", n) for n in (4, 8, 16)]])
        p = [r.p_t_w for r in reports]
        assert p[0] == pytest.approx(2 * p[1], rel=1e-12)
        assert p[1] == pytest.approx(2 * p[2], rel=1e-12)

    def test_placement_axis(self):
        cfg = make_config(duration_s=0.05)
        reports = sim.sweep([[sim.with_placement(cfg, t) for t in "ABC"]])
        assert [r.placement_type for r in reports] == ["A", "B", "C"]
        assert reports[0].n_aps == 1

    def test_several_bases_sweep_as_one_batch(self):
        b4 = make_config(duration_s=0.05)
        c8 = sim.with_placement(b4, "C", 8)
        both = sim.sweep(_along_h([b4, c8], [2.0, 3.0]))
        assert both == [r for b in (b4, c8) for r in sim.sweep(_along_h([b], [2.0, 3.0]))]
        assert [r.placement_type for r in both] == ["B", "B", "C", "C"]

    def test_blockage_on_series_in_one_batch_match_each_series_and_the_pool(self):
        cfg = make_config(duration_s=0.3, blockage_enabled=True, pause_s=0.05)
        bases = [sim.with_placement(cfg, t, n) for t, n in [("A", 1), ("B", 16), ("C", 8)]]
        series = _along_h(bases, [1.5, 2.5, 3.5])
        one = sim.sweep(series)
        assert one == [r for s in series for r in sim.run(s)]
        assert one == sim.sweep(series, jobs=2)
        assert any(r.user_coverage < 1.0 for r in one)  # blockage shows

    def test_two_series_set_up_one_crowd_and_build_each_constellation_once(self, monkeypatch):
        crowds, references = [], []
        init_users, reference_distances = mob.init_users, geo.reference_distances

        def setting_up(*args, **kwargs):
            crowds.append(1)
            return init_users(*args, **kwargs)

        def measuring(*args, **kwargs):
            references.append(1)
            return reference_distances(*args, **kwargs)

        monkeypatch.setattr(mob, "init_users", setting_up)
        monkeypatch.setattr(geo, "reference_distances", measuring)
        b4 = make_config(duration_s=0.05)
        reports = sim.sweep(_along_h([b4, sim.with_placement(b4, "C", 4)], [2.0, 3.0, 4.0]))
        assert len(reports) == 6
        assert crowds == [1]
        assert len(references) == 3  # one per C config

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_series_with_different_crowds_are_rejected_before_any_run(self, monkeypatch,
                                                                      jobs):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")
        cfg = make_config(duration_s=0.05)
        monkeypatch.setattr(mob, "init_users", no_run)
        with pytest.raises(ValueError, match="^seed:"):
            sim.sweep(_along_h([cfg, replace(cfg, seed=2)], [2.0, 3.0]), jobs=jobs)

    def test_parallel_matches_sequential(self):
        # two series, so that jobs=2 starts a pool
        cfg = make_config(duration_s=0.2)
        series = _along_h([cfg, sim.with_placement(cfg, "C", 8)], [2.0, 3.0])
        assert sim.sweep(series) == sim.sweep(series, jobs=2)

    def test_one_series_runs_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool for one series")
        series = _along_h([make_config(duration_s=0.2)], [2.0, 3.0])
        seq = sim.sweep(series)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert sim.sweep(series, jobs=2) == seq


def _bits(value):
    """value with every float, nested or not, replaced by its exact hex."""
    if isinstance(value, float):
        return float(value).hex()
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _report_bits(report):
    return {f.name: _bits(getattr(report, f.name)) for f in fields(report)}


_LAYOUTS = [("A", 1), ("B", 4), ("B", 16), ("C", 4), ("C", 8)]


@st.composite
def batches(draw, users=st.integers(0, 40), steps=st.integers(1, 25)):
    """A crowd (users, seed, blockage, share mode, pause, steps) and one to
    four configs over it that differ in layout, AP count, H, power and
    alignment time."""
    base = make_config(
        n_users=draw(users),
        seed=draw(st.integers(0, 2**16)),
        blockage_enabled=draw(st.booleans()),
        share_mode=draw(st.sampled_from(sim.SHARE_MODES)),
        pause_s=draw(st.sampled_from([0.0, 0.02, 0.05])),
        duration_s=draw(steps) * 0.010,
    )
    configs = []
    for _ in range(draw(st.integers(1, 4))):
        cfg = sim.with_placement(base, *draw(st.sampled_from(_LAYOUTS)))
        cfg = sim.with_effective_height(cfg, draw(st.sampled_from([1.0, 1.5, 2.0, 3.5, 5.0])))
        configs.append(replace(
            cfg,
            p_o_w=draw(st.sampled_from([1e-3, 1e-2, 0.3])),
            t_align_s=draw(st.sampled_from([5e-3, 0.02, 0.07, 0.3])),
        ))
    return configs


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(batches())
    def test_batch_matches_each_config_run_alone(self, configs):
        batched = sim.run(configs, record_events=True)
        alone = [run_one(c, True) for c in configs]
        assert [_report_bits(r) for r in batched] == [_report_bits(r) for r in alone]

    def test_one_config_gives_a_report_and_a_sequence_gives_a_list(self):
        cfg = make_config(duration_s=0.2)
        assert sim.run(cfg) == run_one(cfg)
        assert sim.run([cfg]) == [run_one(cfg)]
        assert sim.run([]) == []

    def test_one_crowd_moves_and_is_blocked_once_per_step(self):
        # A1, B16 and C8 share the crowd, and one blocked_matrix call per
        # step takes all 25 of their APs
        cfg = make_config(duration_s=0.5, blockage_enabled=True, pause_s=0.05)
        configs = [sim.with_placement(cfg, t, n) for t, n in [("A", 1), ("B", 16), ("C", 8)]]
        moves, ap_counts = [], []
        step_user, blocked_matrix = mob.step_user, geo.blocked_matrix

        def moving(*args, **kwargs):
            moves.append(1)
            step_user(*args, **kwargs)

        def blocking(ap_xyz, *args, **kwargs):
            ap_counts.append(len(ap_xyz))
            return blocked_matrix(ap_xyz, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mob, "step_user", moving)
            mp.setattr(geo, "blocked_matrix", blocking)
            batched = sim.run(configs, record_events=True)
        assert len(moves) == 50
        assert ap_counts == [25] * 50
        alone = [run_one(c, True) for c in configs]
        assert [_report_bits(r) for r in batched] == [_report_bits(r) for r in alone]

    @pytest.mark.parametrize("field,value", [
        ("seed", 2), ("n_users", 5), ("dt_s", 0.02), ("blockage_enabled", True),
    ])
    def test_configs_that_do_not_share_the_crowd_are_rejected(self, field, value):
        cfg = make_config(duration_s=0.2)
        other = replace(sim.with_placement(cfg, "C", 8), **{field: value})
        with pytest.raises(ValueError, match=f"^{field}:"):
            sim.run([cfg, other])

    def test_room_floor_must_be_shared_but_ceiling_may_differ(self):
        cfg = make_config(duration_s=0.2)
        higher = sim.with_effective_height(cfg, 4.0)
        assert sim.run([cfg, higher]) == [run_one(cfg), run_one(higher)]
        wider = replace(cfg, room=replace(cfg.room, width_m=12.0))
        with pytest.raises(ValueError, match="^room.width_m:"):
            sim.run([cfg, wider])


@st.composite
def blocked_batches(draw):
    """A batch of at least two users and the _STEP_BLOCK that cuts its run
    into blocks of one of three shapes: one step each, 2-7 steps with a
    ragged last block, or one block bigger than the run."""
    shape = draw(st.sampled_from(["one step", "ragged", "whole run"]))
    k = draw(st.integers(2, 7)) if shape == "ragged" else 1
    steps = st.integers(1, 25)
    if shape == "ragged":
        steps = st.builds(lambda q, r: q * k + r, st.integers(1, 3), st.integers(1, k - 1))
    configs = draw(batches(users=st.integers(2, 40), steps=steps))
    entries = configs[0].n_users * max(c.n_aps for c in configs)
    n_steps = round(configs[0].duration_s / configs[0].dt_s)
    return configs, (n_steps + 1) * entries if shape == "whole run" else k * entries


def _tied_first_pair(init_users):
    """init_users with user 1 a copy of user 0 (start, waypoint, speed):
    the two stand at one point, a distance tie at every AP, until they
    reach the waypoint."""
    def tied(*args, **kwargs):
        crowd, demand = init_users(*args, **kwargs)
        for a in (crowd.xy, crowd.wp, crowd.speed_mps):
            a[1] = a[0]
        return crowd, demand
    return tied


class TestStepBlocks:
    """run() steps in blocks of about _STEP_BLOCK (step, user, AP) entries,
    counted for the batch's config with the most APs; the step-by-step
    oracle must give the same bits across every seam."""

    @settings(max_examples=60, deadline=None)
    @given(blocked_batches())
    def test_block_seams_match_the_step_by_step_oracle(self, batch):
        # t_align_s = 0.07 at dt_s = 0.01 is a 7-step window, so alignment,
        # handoffs and shadows cross block boundaries; 0.3 is a window
        # longer than any run drawn here, where the dead-step count is capped
        configs, step_block = batch
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sim, "_STEP_BLOCK", step_block)
            mp.setattr(mob, "init_users", _tied_first_pair(mob.init_users))
            blocked = sim.run(configs, record_events=True)
            alone = [run_one(c, True) for c in configs]
        assert [_report_bits(r) for r in blocked] == [_report_bits(r) for r in alone]

    @pytest.mark.parametrize("layouts,blockage", [
        ([("B", 4)], False),
        ([("A", 1), ("B", 16), ("C", 8)], True),  # the (step, user, AP) blockage buffer
    ], ids=["B4", "A1-B16-C8-blockage"])
    def test_peak_memory_does_not_grow_with_the_run(self, layouts, blockage):
        # the block buffers have a fixed size, so 2000 steps peak where 20 do
        def batch(duration_s):
            cfg = make_config(duration_s=duration_s, blockage_enabled=blockage)
            return [sim.with_placement(cfg, *layout) for layout in layouts]

        def peak(duration_s):
            tracemalloc.start()
            try:
                sim.run(batch(duration_s))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        sim.run(batch(0.2))
        assert peak(20.0) <= peak(0.2) + 1e6


class TestStepGenerators:
    """run() builds a user's stepping generator the first time that user
    draws a new waypoint; the oracle builds every one up front."""

    @pytest.mark.parametrize("n_users,duration_s,pause_s", [
        (1000, 0.03, 0.0),  # the crowd: almost nobody arrives in 3 steps
        (20, 5.0, 0.4),     # most users arrive, some pause first
    ])
    def test_generators_are_built_on_first_use(self, n_users, duration_s, pause_s):
        cfg = make_config(n_users=n_users, duration_s=duration_s, pause_s=pause_s,
                          blockage_enabled=True)
        built, drew = [], set()
        substream, step_user = mob.substream, mob.step_user

        def counting(seed, user_id):
            built.append(user_id)
            return substream(seed, user_id)

        def spy(crowd, *args, **kwargs):
            before = crowd.wp.copy()
            step_user(crowd, *args, **kwargs)
            drew.update(np.flatnonzero((crowd.wp != before).any(axis=1)).tolist())

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mob, "substream", counting)
            mp.setattr(mob, "step_user", spy)
            got = sim.run(cfg, record_events=True)
        # init_users builds none, stepping one per user that drew
        assert sorted(built) == sorted(drew)
        assert drew or duration_s < 1.0  # the long run builds some late
        assert _report_bits(got) == _report_bits(run_one(cfg, True))


# frozen from the first run after the invariant suite passed
REGRESSION = {
    "user_coverage": 0.6433,
    "mean_throughput_bps": 5776719369.73632,
    "ap_idle_fraction": 0.0,
    "handoff_count": 51,
}


class TestRegression:
    def test_table_defaults_type_b(self):
        r = sim.run(make_config(duration_s=10.0))
        assert r.n_steps == 1000
        assert r.user_coverage == REGRESSION["user_coverage"]
        assert r.mean_throughput_bps == REGRESSION["mean_throughput_bps"]
        assert r.ap_idle_fraction == REGRESSION["ap_idle_fraction"]
        assert r.handoff_count == REGRESSION["handoff_count"]

    def test_wall_mounts_with_blockage_and_events(self, tmp_path):
        # wall mounts with blockage on: the run that shadows users, where a
        # view test would have entered the shadow mask
        cfg = make_config(placement_type="C", n_aps=8, blockage_enabled=True,
                          duration_s=5.0, seed=7)
        r = sim.run(cfg, record_events=True)
        assert reporting.result_row(r) == (
            "C", 8, 1.5, 7, 0.6422, 7078822653.594118, 0.001, 116,
        )
        kinds = [e[1] for e in r.events]
        assert kinds.count(sim.EVENT_BLOCKAGE_START) == 12
        assert kinds.count(sim.EVENT_BLOCKAGE_END) == 12
        path = tmp_path / "events.csv"
        reporting.write_events(r.events, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6369c030e2cbcf9c77fcbe0f9e8b555c71db3391c77ff842fd86b5f25a8843f1"
        )

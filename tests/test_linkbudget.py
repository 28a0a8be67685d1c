import math
import sys
from importlib import resources

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import achievable_rate, coverage_radius_bruteforce
from thzplan import linkbudget as lb

# frozen from 40-digit evaluations of the same formulas
SPREADING_1M_570GHZ = 570857923.6309123
TAU_570GHZ_60PCT = 0.4411212627442344
RATE_2M_TABLE_DEFAULTS = 69347096910.03869
RADIUS_S01_TABLE_DEFAULTS = 11.085529606246127
W_AT_1 = 0.5671432904097839


def table_params(**kw):
    return lb.LinkBudgetParams(**kw)


class TestAntennaGain:
    def test_ten_degree_beam(self):
        g = lb.antenna_gain(10.0)
        assert g == 525.25
        assert 10 * math.log10(g) == pytest.approx(27.2, abs=0.05)

    def test_unity_gain_beamwidth(self):
        assert lb.antenna_gain(math.sqrt(52525.0)) == pytest.approx(1.0, rel=1e-12)

    def test_five_degree_beam(self):
        assert lb.antenna_gain(5.0) == 2101.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, 360.0001, 1e9])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            lb.antenna_gain(bad)

    @given(st.floats(min_value=0.01, max_value=360.0))
    def test_gain_times_width_squared_is_constant(self, delta):
        assert lb.antenna_gain(delta) * delta * delta == pytest.approx(52525.0, rel=1e-12)


class TestAbsorption:
    def test_the_shipped_table_is_well_formed(self):
        # _absorption_table loads the file without checking it, so the
        # package's own copy is checked here
        text = resources.files("thzplan.data").joinpath(lb._TABLE_RESOURCE).read_text()
        header, *rows = text.splitlines()
        assert header == "frequency_hz,tau_per_m,reference_humidity"
        freq, _, humidity = np.array([row.split(",") for row in rows], dtype=float).T
        assert len(rows) >= 2
        assert np.all(np.diff(freq) > 0)
        assert len(set(humidity)) == 1 and 0 < humidity[0] <= 1

    def test_override_passthrough(self):
        p = table_params(f_c_hz=1.0, humidity=0.9, tau_override=0.05)
        assert lb.absorption_for(p) == 0.05

    def test_zero_humidity(self):
        assert lb.absorption_for(table_params(humidity=0.0)) == 0.0

    def test_table_value_at_570ghz(self):
        assert lb.absorption_for(table_params(humidity=0.60)) == pytest.approx(
            TAU_570GHZ_60PCT, rel=1e-12
        )

    def test_linear_humidity_scaling(self):
        base = lb.absorption_for(table_params(humidity=0.60))
        assert lb.absorption_for(table_params(humidity=0.30)) == pytest.approx(
            base / 2, rel=1e-12
        )

    def test_interpolates_between_rows(self):
        freq, tau, ref_humidity = lb._absorption_table()
        mid = 0.5 * (freq[10] + freq[11])
        expect = 0.5 * (tau[10] + tau[11])
        p = table_params(f_c_hz=mid, humidity=ref_humidity)
        assert lb.absorption_for(p) == pytest.approx(expect, rel=1e-12)

    def test_out_of_range_frequency(self):
        with pytest.raises(ValueError):
            lb.absorption_for(table_params(f_c_hz=5e9))
        with pytest.raises(ValueError):
            lb.absorption_for(table_params(f_c_hz=2e12))


def implied_loss(d, p):
    """Path loss (linear) that the link's rate implies at distance d:
    p_t g^2 / (N0 B snr), with the SNR recovered from the Shannon rate."""
    snr = 2.0 ** (achievable_rate(d, p) / p.bandwidth_hz) - 1.0
    g = lb.antenna_gain(p.beamwidth_deg)
    return p.p_t_w * g * g / (p.noise_psd_w_hz * p.bandwidth_hz * snr)


class TestPathLoss:
    def test_spreading_term_at_one_meter(self):
        p = table_params(tau_override=0.0)
        g = lb.antenna_gain(p.beamwidth_deg)
        spreading = p.p_t_w * g * g / (lb.snr_scale(p) * p.noise_psd_w_hz * p.bandwidth_hz)
        assert spreading == pytest.approx(SPREADING_1M_570GHZ, rel=1e-12)
        assert 10 * math.log10(spreading) == pytest.approx(87.565, abs=2e-3)
        assert implied_loss(1.0, p) == pytest.approx(SPREADING_1M_570GHZ, rel=1e-12)

    def test_inverse_square_when_absorption_free(self):
        p = table_params(tau_override=0.0)
        assert implied_loss(2.0, p) == pytest.approx(
            4.0 * implied_loss(1.0, p), rel=1e-12
        )

    def test_doubling_with_absorption(self):
        p = table_params(tau_override=0.1)
        ratio = implied_loss(2.0, p) / implied_loss(1.0, p)
        assert ratio == pytest.approx(4.0 * math.exp(0.1), rel=1e-12)

    def test_rejects_nonpositive_distance(self):
        p = table_params()
        for d in (0.0, -1.0):
            with pytest.raises(ValueError):
                achievable_rate(d, p)

    @given(st.floats(min_value=0.05, max_value=50.0), st.floats(min_value=0.0, max_value=2.0))
    def test_strictly_increasing(self, d, tau):
        # the loss does not depend on p_t; scaling p_t with the loss keeps
        # the SNR near its 1 m value, where the rate resolves it
        p = table_params(tau_override=tau, p_t_w=1e-3 * d * d * math.exp(tau * d))
        assert implied_loss(d * 1.001, p) > implied_loss(d, p)

    def test_array_input(self):
        p = table_params()
        d = np.array([1.0, 2.0, 3.0])
        out = achievable_rate(d, p)
        assert out.shape == (3,)
        assert out[0] == achievable_rate(1.0, p)


class TestAchievableRate:
    def test_unit_snr_gives_bandwidth(self):
        # pick P_t so the received SNR at 3 m is exactly 1
        d = 3.0
        base = table_params(tau_override=0.02)
        p_t = base.p_t_w * d * d * math.exp(0.02 * d) / lb.snr_scale(base)
        p = table_params(tau_override=0.02, p_t_w=p_t)
        assert achievable_rate(d, p) == pytest.approx(p.bandwidth_hz, rel=1e-12)

    def test_vanishing_power(self):
        p = table_params(p_t_w=1e-30)
        assert achievable_rate(5.0, p) < 1.0

    def test_table_defaults_at_two_meters(self):
        assert achievable_rate(2.0, table_params()) == pytest.approx(
            RATE_2M_TABLE_DEFAULTS, rel=1e-12
        )

    @given(st.floats(min_value=0.1, max_value=30.0))
    def test_strictly_decreasing(self, d):
        p = table_params()
        assert achievable_rate(d * 1.001, p) < achievable_rate(d, p)


def fixed_point_w(x, iters=500):
    """Contraction oracle for x > 0: w = x e^(-w) halved toward stability."""
    w = 0.5
    for _ in range(iters):
        w = 0.5 * (w + x * math.exp(-w))
    return w


class TestLambertW:
    def test_zero(self):
        assert lb.lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert lb.lambert_w0(math.e) == pytest.approx(1.0, rel=1e-12)

    def test_at_one_against_fixed_point_oracle(self):
        assert fixed_point_w(1.0) == pytest.approx(W_AT_1, rel=1e-12)
        assert lb.lambert_w0(1.0) == pytest.approx(W_AT_1, rel=1e-11)

    def test_branch_point(self):
        # coverage_radius passes x >= 0 alone, so the branch point -1/e and
        # the rest of the negative domain are refused, as NaN is
        for x in (-math.exp(-1.0), -0.2, math.nan):
            with pytest.raises(ValueError, match="^lambert_w0: "):
                lb.lambert_w0(x)

    def test_infinity_is_refused(self):
        # Halley's iteration turned inf into NaN. coverage_radius takes an
        # argument that overflows by its logarithm, unless tau or K is
        # infinite itself
        with pytest.raises(ValueError, match="^lambert_w0: x must be finite"):
            lb.lambert_w0(math.inf)
        with pytest.raises(ValueError, match="^lambert_w0: "):
            lb.coverage_radius(lb.LinkBudgetParams(tau_override=math.inf), 0.1)

    @given(st.floats(min_value=math.log(sys.float_info.max), max_value=1100.0))
    def test_w_from_the_log_of_an_overflowing_x_matches_mpmath(self, log_x):
        # log(tau sqrt(K) / 2) of a finite tau and K is at most about 1064
        with mpmath.workdps(50):
            want = mpmath.lambertw(mpmath.exp(log_x))
            assert abs(lb._lambert_w0_of_log(log_x) - want) <= 2.0 ** -51 * want

    def test_domain(self):
        with pytest.raises(ValueError):
            lb.lambert_w0(-math.exp(-1.0) - 1e-9)

    @pytest.mark.parametrize("x", [1e-3, 1e-4, 3e-5, 1e-5])
    def test_small_argument_keeps_relative_precision(self, x):
        # W(x) = x - x^2 + 3x^3/2 - 8x^4/3 + 125x^5/24 - ...; a stopping
        # rule absolute in x left relative errors near 1e-8 here, and the
        # coverage radius of a weakly absorbing link inherits them
        series = x - x ** 2 + 1.5 * x ** 3 - 8.0 / 3.0 * x ** 4 + 125.0 / 24.0 * x ** 5
        assert lb.lambert_w0(x) == pytest.approx(series, rel=1e-12, abs=0.0)

    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_defining_identity(self, x):
        w = lb.lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
        assert w >= -1.0


def random_radius_params(rng):
    f_c = rng.uniform(100e9, 1e12)
    tau = rng.uniform(0.0, 5.0)
    s = rng.uniform(0.01, 10.0)
    p_t = rng.uniform(1e-6, 10e-3)
    return lb.LinkBudgetParams(f_c_hz=f_c, p_t_w=p_t, tau_override=tau), s


class TestCoverageRadius:
    def test_absorption_free_square_root(self):
        # contrive P_t so the radius constant is exactly 25
        s = 0.5
        base = table_params(tau_override=0.0)
        g = lb.antenna_gain(base.beamwidth_deg) ** 2
        k_unit = g / (
            base.noise_psd_w_hz * base.bandwidth_hz
            * (4 * math.pi * base.f_c_hz / lb.SPEED_OF_LIGHT) ** 2
            * (2 ** s - 1)
        )
        p = table_params(tau_override=0.0, p_t_w=25.0 / k_unit)
        assert lb.coverage_radius(p, s) == pytest.approx(5.0, rel=1e-12)
        assert coverage_radius_bruteforce(p, s) == pytest.approx(5.0, abs=1e-6)

    def test_unit_lambert_argument(self):
        # tau sqrt(K)/2 = e makes the radius exactly 2/tau
        s = 0.5
        tau = 0.5
        base = table_params(tau_override=tau)
        g = lb.antenna_gain(base.beamwidth_deg) ** 2
        k_unit = g / (
            base.noise_psd_w_hz * base.bandwidth_hz
            * (4 * math.pi * base.f_c_hz / lb.SPEED_OF_LIGHT) ** 2
            * (2 ** s - 1)
        )
        k_target = (2.0 * math.e / tau) ** 2
        p = table_params(tau_override=tau, p_t_w=k_target / k_unit)
        assert lb.coverage_radius(p, s) == pytest.approx(2.0 / tau, rel=1e-12)

    def test_table_defaults(self):
        p = table_params()
        assert lb.coverage_radius(p, 0.1) == pytest.approx(
            RADIUS_S01_TABLE_DEFAULTS, rel=1e-11
        )
        assert abs(lb.coverage_radius(p, 0.1) - coverage_radius_bruteforce(p, 0.1)) < 1e-6

    def test_opaque_link_radius_past_the_float_range(self):
        # tau sqrt(K) / 2 overflows for tau = 1e305 at s = 1e-9 although tau
        # and K are finite; the radius is about 1.42e-302 m
        p, s = lb.LinkBudgetParams(tau_override=1e305), 1e-9
        k = lb.snr_scale(p) / (2.0 ** s - 1.0)
        assert 1e305 * math.sqrt(k) / 2.0 == math.inf
        with mpmath.workdps(50):
            tau = mpmath.mpf(1e305)
            want = 2 * mpmath.lambertw(tau * mpmath.sqrt(k) / 2) / tau
            assert abs(lb.coverage_radius(p, s) - want) <= 1e-15 * want

    def test_rejects_nonpositive_spectral_efficiency(self):
        with pytest.raises(ValueError):
            lb.coverage_radius(table_params(), 0.0)

    def test_oracle_agreement_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, s = random_radius_params(rng)
            closed = lb.coverage_radius(p, s)
            brute = coverage_radius_bruteforce(p, s)
            assert abs(closed - brute) <= max(1e-6, 4e-15 * closed)

    def test_rate_at_radius_recovers_spectral_efficiency(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p, s = random_radius_params(rng)
            r = lb.coverage_radius(p, s)
            assert achievable_rate(r, p) / p.bandwidth_hz == pytest.approx(s, rel=1e-9)


class TestParams:
    @pytest.mark.parametrize("field,value", [
        ("f_c_hz", 0.0), ("bandwidth_hz", -1.0), ("p_t_w", 0.0),
        ("noise_psd_w_hz", 0.0), ("beamwidth_deg", 0.0),
        ("beamwidth_deg", 400.0), ("humidity", 1.5), ("tau_override", -0.1),
    ])
    def test_invalid_fields(self, field, value):
        with pytest.raises(ValueError):
            lb.LinkBudgetParams(**{field: value})

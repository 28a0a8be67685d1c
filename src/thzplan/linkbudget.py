"""Terahertz link-budget kernel.

Pure functions for medium absorption, antenna gain, the link's SNR
scale and Shannon rate, and the closed-form illumination radius of a
single access point. All quantities are linear (W, W/Hz, dimensionless
gains); dB conversions belong to the config boundary.

A link's SNR is snr_scale(params) / (d^2 e^(tau d)), with tau from
absorption_for(params), and its rate is shannon_rate(snr, B). link_rate
states that law once, over the constants radio() takes from the params:
the simulation's runs and heat maps compute each chosen link through it,
and coverage_radius inverts it. The SNR falls with d, so choosing the
link takes no radio model: geometry.nearest picks the nearest unblocked
AP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

SPEED_OF_LIGHT = 299792458.0

# gain of a uniformly illuminated circular aperture with a conical main
# lobe, as a function of full beamwidth in degrees
GAIN_NUMERATOR = 52525.0

_TABLE_RESOURCE = "absorption_water_vapor.csv"


@lru_cache(maxsize=1)
def _absorption_table() -> tuple[np.ndarray, np.ndarray, float]:
    """(frequency_hz, tau_per_m, reference_humidity) of the bundled table:
    tau (1/m) at one reference relative humidity, generated at a fixed
    25 C. The arrays are read-only, as every caller shares them."""
    ref = resources.files("thzplan.data").joinpath(_TABLE_RESOURCE)
    with resources.as_file(ref) as path:
        freq, tau, humidity = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    freq.flags.writeable = tau.flags.writeable = False
    return freq, tau, float(humidity[0])


@dataclass(frozen=True)
class LinkBudgetParams:
    """Radio and channel parameters of one access-point class.

    p_t_w is the per-AP transmit power; SimConfig.link builds the params
    with the room budget split equally among the APs.
    """

    f_c_hz: float = 570e9
    bandwidth_hz: float = 10e9
    p_t_w: float = 1e-3
    beamwidth_deg: float = 10.0  # of the AP and the device antenna alike
    noise_psd_w_hz: float = 10 ** (-193.85 / 10)
    humidity: float = 0.60
    tau_override: float | None = None

    def __post_init__(self):
        for name in ("f_c_hz", "bandwidth_hz", "p_t_w", "noise_psd_w_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive")
        if not 0 < self.beamwidth_deg <= 360:
            raise ValueError("beamwidth_deg: must be in (0, 360]")
        if not 0 <= self.humidity <= 1:
            raise ValueError("humidity: must be a fraction in [0, 1]")
        if self.tau_override is not None and self.tau_override < 0:
            raise ValueError("tau_override: must be >= 0")


def antenna_gain(beamwidth_deg: float) -> float:
    """Linear gain of the conical main lobe for a full beamwidth in degrees."""
    if not 0 < beamwidth_deg <= 360:
        raise ValueError(f"beamwidth {beamwidth_deg} deg outside (0, 360]")
    return GAIN_NUMERATOR / (beamwidth_deg * beamwidth_deg)


def absorption_for(params: LinkBudgetParams) -> float:
    """Medium absorption coefficient (1/m) of the link.

    An explicit tau_override bypasses the table entirely. Otherwise the
    bundled table is interpolated at f_c and scaled to the humidity.
    """
    if params.tau_override is not None:
        return float(params.tau_override)
    freq, tau, ref_humidity = _absorption_table()
    if not freq[0] <= params.f_c_hz <= freq[-1]:
        raise ValueError(
            f"f_c_hz: {params.f_c_hz:g} Hz outside the table range "
            f"[{freq[0]:g}, {freq[-1]:g}] and no tau_override set"
        )
    return float(np.interp(params.f_c_hz, freq, tau)) * (params.humidity / ref_humidity)


def snr_scale(params: LinkBudgetParams) -> float:
    """SNR of the link at 1 m without absorption: p_t g^2 / (spreading
    at 1 m * N0 * B). The SNR at distance d is this over d^2 e^(tau d)."""
    g = antenna_gain(params.beamwidth_deg) * antenna_gain(params.beamwidth_deg)
    spread = (4.0 * math.pi * params.f_c_hz / SPEED_OF_LIGHT) ** 2
    return params.p_t_w * g / (spread * params.noise_psd_w_hz * params.bandwidth_hz)


def shannon_rate(snr, bandwidth_hz: float):
    """Shannon rate (bit/s) of a link with the given SNR."""
    return bandwidth_hz * np.log2(1.0 + snr)


def lambert_w0(x: float) -> float:
    """Principal branch of the Lambert W function for x >= 0, the
    arguments coverage_radius passes.

    Halley iteration from x / (1 + x) below e and log x - log log x
    above; residual |w e^w - x| <= 1e-12 x. A negative, infinite or NaN
    x raises ValueError.
    """
    x = float(x)
    if not 0.0 <= x < math.inf:
        raise ValueError(f"lambert_w0: x must be finite and >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < math.e:
        w = x / (1.0 + x)
    else:
        w = math.log(x) - math.log(math.log(x))

    tol = 1e-12 * x  # relative: an absolute tolerance loses small w
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            break
        wp1 = w + 1.0
        # Halley step
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        w -= f / denom
    return w


def radio(params: LinkBudgetParams) -> tuple[float, float, float]:
    """(SNR scale, absorption tau, bandwidth) of a link: link_rate's constants."""
    return snr_scale(params), absorption_for(params), params.bandwidth_hz


def link_rate(d_sq, sig, tau, bandwidth_hz):
    """Shannon rate of links of squared length d_sq: the SNR
    sig / (d^2 e^(tau d)), computed only for the links given. e^(tau d)
    may overflow to inf, which gives the SNR's limit 0."""
    with np.errstate(over="ignore"):
        loss = d_sq * np.exp(tau * np.sqrt(d_sq))
    return shannon_rate(sig / loss, bandwidth_hz)


def coverage_radius(params: LinkBudgetParams, spectral_efficiency: float) -> float:
    """Distance (m) at which the link sustains the given spectral
    efficiency: the unique positive root of r^2 e^(tau r) = K, with
    K = snr_scale / (2^efficiency - 1).

    Solved in closed form through the Lambert W principal branch,
    r = 2 W(tau sqrt(K) / 2) / tau, whose argument is positive, and
    sqrt(K) for tau = 0.
    """
    if spectral_efficiency <= 0:
        raise ValueError("spectral efficiency must be positive")
    k = snr_scale(params) / (2.0 ** spectral_efficiency - 1.0)
    if k <= 0:
        raise ValueError("radius constant must be positive")
    tau = absorption_for(params)
    if tau == 0.0:
        return math.sqrt(k)
    return 2.0 * lambert_w0(tau * math.sqrt(k) / 2.0) / tau

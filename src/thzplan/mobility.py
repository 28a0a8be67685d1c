"""Seeded random-waypoint mobility.

Every user owns an independent substream derived from the run seed, so a
trajectory depends only on (seed, user id, room, mobility parameters, dt
sequence). That derivation rule is part of the determinism contract:
substream i is numpy's PCG64 seeded with SeedSequence([seed, i]).
init_users takes each user's set-up from the first six draws of
substream i, computed for every user in one batch by following numpy's
published SeedSequence and PCG64 algorithms (_first_draws); numpy's own
per-user streams are the tests' oracle for it. Stepping then uses fresh
substreams, as Substreams(seed) builds them: user i's generator is
built the first time that user draws a new waypoint, so a user who never
draws costs no generator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .geometry import Room

DEFAULT_SPEED_MEAN = 1.0
DEFAULT_SPEED_SPAN = 0.5
DEFAULT_DEVICE_HEIGHT_M = 1.5
DEFAULT_BODY_HEIGHT_M = 1.8
DEFAULT_BODY_WIDTH_M = 0.2
DEFAULT_RATE_MIN_BPS = 1e9
DEFAULT_RATE_MAX_BPS = 10e9


def substream(seed: int, user_id: int) -> np.random.Generator:
    """Per-user RNG stream; the (seed, id) pair fully determines it."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, user_id])))


_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit multiplier as uint64 halves, and the low half's 32-bit halves
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_LO0, _MULT_LO1 = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * multiplier + inc mod 2**128, with each
    128-bit number as uint64 arrays (hi, lo); uint64 products wrap."""
    l0, l1 = lo & _LOW32, lo >> _SHIFT32
    cross0, cross1 = l0 * _MULT_LO1, l1 * _MULT_LO0
    mid = (l0 * _MULT_LO0 >> _SHIFT32) + (cross0 & _LOW32) + (cross1 & _LOW32)
    carry = l1 * _MULT_LO1 + (cross0 >> _SHIFT32) + (cross1 >> _SHIFT32) + (mid >> _SHIFT32)
    prod_lo = lo * _MULT_LO
    new_lo = prod_lo + inc_lo
    return carry + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < prod_lo), new_lo


def _first_draws(seed: int, m: int) -> np.ndarray:
    """(m, 6): row i is substream(seed, i).random(6), bit for bit, for
    every id i < m at once, without building a generator.

    Repeats numpy's SeedSequence([seed, i]) entropy mixing, PCG64 seeding
    and XSL-RR output on arrays over the ids. A hash constant depends
    only on its word's position and every id is one 32-bit word, so every
    id runs the same uint32 and uint64 operations.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed: must be >= 0, got {seed}")
    # entropy: the seed's 32-bit words (0 gives [0]), then the id; zeros
    # fill a 4-word pool, and words past it go through the second loop
    words = [np.full(m, seed >> s & _MASK32, np.uint32)
             for s in range(0, max(seed.bit_length(), 1), 32)]
    words.append(np.arange(m, dtype=np.uint32))
    words += [np.zeros(m, np.uint32)] * (4 - len(words))
    h = 0x43B0D7E5  # INIT_A

    def hashmix(value, mult):
        nonlocal h
        value = value ^ h
        h = h * mult & _MASK32
        value = value * h
        return value ^ value >> 16

    def mix(x, y):
        r = x * 0xCA01F9DD - y * 0x4973F715
        return r ^ r >> 16

    pool = [hashmix(w, 0x931E8875) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src], 0x931E8875))
    for w in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(w, 0x931E8875))
    h = 0x8B51F9DD  # INIT_B: generate_state(4, uint64), low word first
    half = [hashmix(pool[i % 4], 0x58F38DED).astype(np.uint64) for i in range(8)]
    w0, w1, w2, w3 = (half[i] | half[i + 1] << _SHIFT32 for i in range(0, 8, 2))
    # state 0 and inc = (w2:w3) << 1 | 1; step, add initstate (w0:w1), step
    one = np.uint64(1)
    inc_hi, inc_lo = w2 << one | w3 >> np.uint64(63), w3 << one | one
    lo = inc_lo + w1
    hi, lo = _pcg_step(inc_hi + w0 + (lo < w1), lo, inc_hi, inc_lo)
    u = np.empty((m, 6))
    for j in range(6):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> np.uint64(58)  # rotr64(hi ^ lo, hi >> 58)
        u[:, j] = (x >> rot | x << (np.uint64(64) - rot & np.uint64(63))) >> np.uint64(11)
    return u * 2.0 ** -53


class Substreams(dict):
    """step_user's rngs: user i's stepping generator, substream(seed, i),
    built the first time step_user asks for it. A generator built late is
    in the same fresh state as one built early, and most users of a short
    run never draw."""

    def __init__(self, seed: int):
        self.seed = seed

    def __missing__(self, i):
        rng = self[i] = substream(self.seed, int(i))
        return rng


def _draw_waypoint(rng, room: Room):
    return rng.uniform(0.0, room.length_m), rng.uniform(0.0, room.width_m)


def _draw_speed(rng, v_mean, v_span):
    return rng.uniform(v_mean - v_span, v_mean + v_span)


@dataclass(eq=False)
class Crowd:
    """Kinematic state of every user as arrays, row i for user i.

    xy and wp are (m, 2) positions and waypoints; speed_mps and
    pause_left_s are (m,). step_user updates all of them in place.
    """

    xy: np.ndarray
    wp: np.ndarray
    speed_mps: np.ndarray
    pause_left_s: np.ndarray


def init_users(
    room: Room,
    m: int,
    seed: int,
    v_mean: float = DEFAULT_SPEED_MEAN,
    v_span: float = DEFAULT_SPEED_SPAN,
    rate_min_bps: float = DEFAULT_RATE_MIN_BPS,
    rate_max_bps: float = DEFAULT_RATE_MAX_BPS,
) -> tuple[Crowd, np.ndarray]:
    """m users with uniform positions and waypoints over the floor.

    Returns the Crowd, with nobody pausing, and the (m,) demanded rates
    in bit/s. Draw order per user (from that user's substream): position
    x, y, waypoint x, y, speed, demanded rate. The six are the first six
    random() draws of substream(seed, i), computed for all users in one
    batch (_first_draws), and are mapped as Generator.uniform maps each
    draw, so they equal six uniform calls bit for bit, and a range that
    is not finite or is reversed raises uniform's OverflowError or
    ValueError.
    """
    if m < 0:
        raise ValueError("user count must be >= 0")
    if v_mean - v_span <= 0:
        raise ValueError("speed range must stay positive")
    lo = np.array([0.0, 0.0, 0.0, 0.0, v_mean - v_span, rate_min_bps])
    hi = np.array([room.length_m, room.width_m, room.length_m, room.width_m,
                   v_mean + v_span, rate_max_bps])
    with np.errstate(over="ignore", invalid="ignore"):
        span = hi - lo
    for s in span:  # Generator.uniform's checks, in draw order
        if not np.isfinite(s):
            raise OverflowError("high - low range exceeds valid bounds")
        if np.signbit(s):
            raise ValueError("high - low < 0")
    v = lo + span * _first_draws(seed, m)
    return Crowd(v[:, 0:2].copy(), v[:, 2:4].copy(), v[:, 4].copy(), np.zeros(m)), v[:, 5].copy()


def step_user(
    crowd: Crowd,
    dt_s: float,
    rngs,
    room: Room,
    v_mean: float = DEFAULT_SPEED_MEAN,
    v_span: float = DEFAULT_SPEED_SPAN,
    pause_s: float = 0.0,
) -> None:
    """Advance every user one time step toward its waypoint, in place.

    A user that arrives within one step's travel is pinned to the
    waypoint, then pauses for pause_s or draws a fresh waypoint and speed
    from its own generator rngs[i]; a user whose pause ends draws them
    too. Nobody else touches a generator. The position never leaves the
    room: both endpoints of every leg are interior and motion is linear
    between them. dt_s must be positive and finite.
    """
    if not 0.0 < dt_s < np.inf:
        raise ValueError(f"dt_s: must be positive and finite, got {dt_s!r}")
    pausing = crowd.pause_left_s > 0.0
    d = crowd.wp - crowd.xy
    # float_power(x, 0.5) rounds exactly like Python's x ** 0.5 (np.sqrt
    # does not always), and the arrival test below depends on the last bit
    dist = np.float_power(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1], 0.5)
    travel = crowd.speed_mps * dt_s
    stop = (dist <= travel) | pausing
    if not stop.any():
        crowd.xy += d * (travel / dist)[:, None]
        return
    walk = ~stop
    crowd.xy[walk] += d[walk] * (travel[walk] / dist[walk])[:, None]
    arrive = stop & ~pausing
    crowd.xy[arrive] = crowd.wp[arrive]

    draw = arrive
    if pause_s > 0.0:
        crowd.pause_left_s[arrive] = pause_s
        draw = np.zeros_like(arrive)
    if pausing.any():
        left = crowd.pause_left_s[pausing] - dt_s
        crowd.pause_left_s[pausing] = np.where(left > 0.0, left, 0.0)
        draw = draw | (pausing & (crowd.pause_left_s <= 0.0))
    for i in np.flatnonzero(draw):
        rng = rngs[i]
        crowd.wp[i] = _draw_waypoint(rng, room)
        crowd.speed_mps[i] = _draw_speed(rng, v_mean, v_span)

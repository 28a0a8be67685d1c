"""Seeded random-waypoint mobility.

Every user owns an independent substream derived from the run seed, so a
trajectory depends only on (seed, user id, room, mobility parameters, dt
sequence). That derivation rule is part of the determinism contract:
substream i is numpy's PCG64 seeded with SeedSequence([seed, i]).
init_users draws each user's set-up from substream i; stepping then uses
fresh substreams, as Substreams(seed) builds them: user i's generator is
built the first time that user draws a new waypoint, so a user who never
draws costs no generator.
"""

from __future__ import annotations

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
    x, y, waypoint x, y, speed, demanded rate. The six come from one
    random(6) call and are mapped as Generator.uniform maps each draw, so
    they equal six uniform calls bit for bit, and a range that is not
    finite or is reversed raises uniform's OverflowError or ValueError.
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
    u = np.empty((m, 6))
    for i in range(m):
        substream(seed, i).random(out=u[i])
    v = lo + span * u
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

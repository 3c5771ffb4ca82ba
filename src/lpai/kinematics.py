"""Exact piecewise trajectories for instantaneous kicks plus free fall.

The full trajectory of a branch splits into a branch-independent launch part
z_g(t) = z0 + v0*t - g*t^2/2 and a branch-dependent kick part that starts at
rest at zero and changes velocity by hbar*k/m at each pulse.  Both parts are
evaluated in closed form here; nothing in this module integrates numerically.
Kicks take effect immediately after the pulse time, so sampling exactly at a
pulse time returns the pre-kick velocity.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import constants
from .core import GravityEnv, InitialConditions, PulseSequence, Species, require_valid

# Row budget of trajectory_table, checked before anything is allocated.  A
# CLI dump of 1e6 rows of the 3-pulse mzi is ~136 MB of CSV and peaks at
# ~0.8 GB resident; memory grows linearly in rows.
MAX_TRAJECTORY_ROWS = 1_000_000
# Rows x pulses elements in one block of the kick products.  OpenBLAS runs a
# product this small on one thread, so the table's bits do not depend on the
# BLAS thread count.
_KICK_BLOCK_ELEMENTS = 8192


@dataclass(frozen=True)
class TrajectorySegment:
    """Constant-velocity piece of a kick trajectory."""

    t_start: float
    t_end: float
    z_start: float
    velocity: float


@dataclass(frozen=True)
class BranchTrajectory:
    """Kick part of one branch: piecewise linear position, stepwise velocity."""

    segments: tuple[TrajectorySegment, ...]
    branch: int
    mass: float

    def __post_init__(self) -> None:
        if self.branch not in (1, 2):
            raise ValueError(f"branch must be 1 or 2, got {self.branch!r}")

    def _segment_at(self, t: float) -> TrajectorySegment:
        segs = self.segments
        # bisect_left over the interior boundaries puts t exactly at a pulse
        # time on the segment that ends there, so the kick has not acted yet
        return segs[bisect_left([s.t_end for s in segs[:-1]], t)]

    def position(self, t: float) -> float:
        s = self._segment_at(t)
        return s.z_start + s.velocity * (t - s.t_start)

    def velocity(self, t: float) -> float:
        return self._segment_at(t).velocity


def _branch_ks(seq: PulseSequence, branch: int) -> list[float]:
    if branch == 1:
        return [p.k_upper for p in seq.pulses]
    if branch == 2:
        return [p.k_lower for p in seq.pulses]
    raise ValueError(f"branch must be 1 or 2, got {branch!r}")


def kick_trajectory(seq: PulseSequence, branch: int, species: Species) -> BranchTrajectory:
    """Piecewise trajectory of the kick part of one branch."""
    require_valid(seq, structural_only=True)
    ks = _branch_ks(seq, branch)
    times = list(seq.times)
    t_stop = max(seq.duration, times[-1]) if times else seq.duration

    segments: list[TrajectorySegment] = []
    t_lo = min(0.0, times[0]) if times else 0.0
    z = 0.0
    v = 0.0
    prev = t_lo
    for t, k in zip(times, ks):
        segments.append(TrajectorySegment(prev, t, z, v))
        z += v * (t - prev)
        v += constants.HBAR * k / species.mass
        prev = t
    segments.append(TrajectorySegment(prev, t_stop, z, v))
    return BranchTrajectory(tuple(segments), branch, species.mass)


def gravity_trajectory(env: GravityEnv, ics: InitialConditions, t):
    """Launch trajectory (z_g, v_g) at time t; t may be a scalar or ndarray."""
    z = ics.z0 + t * (ics.v0 - 0.5 * env.g * t)
    v = ics.v0 - env.g * t
    return z, v


def sample(
    seq: PulseSequence,
    branch: int,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    t: float,
) -> tuple[float, float]:
    """Full trajectory (position, velocity) of one branch at time t in [0, t_end]."""
    require_valid(seq, structural_only=True)
    if not 0.0 <= t <= seq.duration:
        raise ValueError(f"t = {t!r} outside the interferometer interval [0, {seq.duration!r}]")
    traj = kick_trajectory(seq, branch, species)
    zg, vg = gravity_trajectory(env, ics, t)
    return zg + traj.position(t), vg + traj.velocity(t)


def _kick_arrays(seq: PulseSequence, branch: int, species: Species, ts: np.ndarray):
    """Vectorized kick part: positions and velocities at sample times ts.

    The (rows, pulses) products run over blocks of rows, so memory stays
    O(rows + block x pulses).  Blocks are a multiple of 16 rows, the last one
    taking the remainder, so each row meets the same BLAS kernel as in one
    full-size product on one thread, and gets the same bits.
    """
    times = np.asarray(seq.times)
    dv = constants.HBAR * np.asarray(_branch_ks(seq, branch)) / species.mass
    z, v = np.zeros_like(ts), np.zeros_like(ts)
    if times.size == 0:
        return z, v
    block = max(16, _KICK_BLOCK_ELEMENTS // times.size // 16 * 16)
    edges = [*range(0, max(ts.size // block, 1) * block, block), ts.size]
    for lo, hi in zip(edges[:-1], edges[1:]):
        t = ts[lo:hi, None]
        # strict inequality keeps the pre-kick convention at exact pulse times
        active = t > times
        z[lo:hi] = ((t - times) * active) @ dv
        v[lo:hi] = active @ dv
    return z, v


def trajectory_table(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    dt: float,
) -> np.ndarray:
    """Sampled trajectories as columns (t, z1, v1, z2, v2, zg).

    Rows run over multiples of dt from 0 to t_end, with a final row at t_end
    when the grid does not land on it exactly.  Raises ValueError, before
    anything is allocated, when the grid needs more than MAX_TRAJECTORY_ROWS
    rows.
    """
    require_valid(seq, structural_only=True)
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    t_end = seq.duration
    if not t_end / dt < MAX_TRAJECTORY_ROWS:
        raise ValueError(
            f"dt={dt!r} over a duration of {t_end!r} s needs more than "
            f"{MAX_TRAJECTORY_ROWS} rows; use a coarser step"
        )
    n = int(np.floor(t_end / dt))
    ts = np.arange(n + 1, dtype=float) * dt
    if ts[-1] < t_end:
        ts = np.append(ts, t_end)
    zg, vg = gravity_trajectory(env, ics, ts)
    z1, v1 = _kick_arrays(seq, 1, species, ts)
    z2, v2 = _kick_arrays(seq, 2, species, ts)
    return np.column_stack([ts, zg + z1, vg + v1, zg + z2, vg + v2, zg])

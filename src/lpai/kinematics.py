"""Exact piecewise trajectories for instantaneous kicks plus free fall.

The full trajectory of a branch splits into a branch-independent launch part
z_g(t) = z0 + v0*t - g*t^2/2 and a branch-dependent kick part that starts at
rest at zero and changes velocity by hbar*k/m at each pulse.  Both parts are
evaluated in closed form on Python floats; nothing in this module integrates
numerically.

The kick part is one segment table per branch, built by kick_trajectory: one
constant-velocity segment before the first pulse and one after each pulse.
sample, BranchTrajectory.position/velocity and the rows of trajectory_table
all read it through the same lookup and the same float operations, so a
table row equals sample at its time bit for bit.  Kicks take effect
immediately after the pulse time, so sampling exactly at a pulse time
returns the pre-kick velocity.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from . import constants
from .core import GravityEnv, InitialConditions, PulseSequence, Species, require_valid
from .errors import NonFiniteResultError

# Row budget of trajectory_table, checked before any row is formed.  It bounds
# the output, not the memory: a CLI dump of 1e6 rows of the 3-pulse mzi is
# ~143 MB of CSV, and since each row is written as it is formed the process
# peaks at 16.6 MB resident, as without a dump (x86-64, Python 3.11).
MAX_TRAJECTORY_ROWS = 1_000_000


@dataclass(frozen=True, eq=False)
class BranchTrajectory:
    """Kick part of one branch: piecewise linear position, stepwise velocity.

    Segment i starts at time t_start[i] and position z_start[i] and moves at
    v[i] until t_start[i + 1]; the last segment runs on to the end.
    """

    t_start: tuple[float, ...]
    z_start: tuple[float, ...]
    v: tuple[float, ...]

    def _at(self, t: float) -> tuple[float, float]:
        """(position, velocity) at t."""
        # bisect_left over the interior boundaries puts t exactly at a pulse
        # time on the segment that ends there, so the kick has not acted yet
        i = bisect.bisect_left(self.t_start, t, 1) - 1
        return self.z_start[i] + self.v[i] * (t - self.t_start[i]), self.v[i]

    def position(self, t: float) -> float:
        return self._at(t)[0]

    def velocity(self, t: float) -> float:
        return self._at(t)[1]


def _branch_ks(seq: PulseSequence, branch: int) -> list[float]:
    if branch == 1:
        return [p.k_upper for p in seq.pulses]
    if branch == 2:
        return [p.k_lower for p in seq.pulses]
    raise ValueError(f"branch must be 1 or 2, got {branch!r}")


def kick_trajectory(seq: PulseSequence, branch: int, species: Species) -> BranchTrajectory:
    """Segment table of the kick part of one branch."""
    require_valid(seq, structural_only=True)
    return _kick_trajectory(seq, branch, species)


def _kick_trajectory(seq: PulseSequence, branch: int, species: Species) -> BranchTrajectory:
    """kick_trajectory of a sequence its caller has already validated."""
    ks = _branch_ks(seq, branch)
    times = list(seq.times)
    t_start = [min(0.0, times[0]) if times else 0.0]
    z_start = [0.0]
    v = [0.0]
    for t, k in zip(times, ks):
        z_start.append(z_start[-1] + v[-1] * (t - t_start[-1]))
        v.append(v[-1] + constants.HBAR * k / species.mass)
        t_start.append(t)
    return BranchTrajectory(tuple(t_start), tuple(z_start), tuple(v))


def gravity_trajectory(env: GravityEnv, ics: InitialConditions, t: float) -> tuple[float, float]:
    """Launch trajectory (z_g, v_g) at time t."""
    z = ics.z0 + t * (ics.v0 - 0.5 * env.g * t)
    v = ics.v0 - env.g * t
    return z, v


def _full(
    traj: BranchTrajectory, branch: int, zg: float, vg: float, t: float
) -> tuple[float, float]:
    """(position, velocity) at t: launch state (zg, vg) plus traj's kick part.

    NonFiniteResultError, naming branch and t, when either is inf or nan; a
    sum of floats is finite only where both terms are, so zg and vg are
    checked too.
    """
    zk, vk = traj._at(t)
    z, v = zg + zk, vg + vk
    if not (math.isfinite(z) and math.isfinite(v)):
        raise NonFiniteResultError(
            f"branch {branch} at t = {t!r} s is not finite: position {z!r} m, velocity {v!r} m/s"
        )
    return z, v


def sample(
    seq: PulseSequence,
    branch: int,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    t: float,
) -> tuple[float, float]:
    """Full trajectory (position, velocity) of one branch at time t in [0, t_end].

    Each call builds the branch's segment table again, O(pulses): on a
    100-pulse sequence a call costs about 30 us, against 0.3 us for
    BranchTrajectory.position on a table built once (x86-64, 2 CPUs, Python
    3.11).  A caller that samples many times should build kick_trajectory
    once and add gravity_trajectory to its position and velocity, which
    gives the same bits.  NonFiniteResultError when the position or the
    velocity is not finite.
    """
    require_valid(seq, structural_only=True)
    if not 0.0 <= t <= seq.duration:
        raise ValueError(f"t = {t!r} outside the interferometer interval [0, {seq.duration!r}]")
    traj = _kick_trajectory(seq, branch, species)
    return _full(traj, branch, *gravity_trajectory(env, ics, t), t)


def trajectory_table(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    dt: float,
) -> Iterator[tuple[float, ...]]:
    """Sampled trajectories, one row (t, z1, v1, z2, v2, zg) at a time.

    Rows run over t = i*dt from 0 to t_end, with a final row at t_end when
    the grid does not land on it exactly; each row equals sample at its
    time.  Raises ValueError when called, before any row is formed, when dt
    is not positive and finite, the sequence ends before t = 0 or the grid
    needs more than MAX_TRAJECTORY_ROWS rows; a row whose position or
    velocity is not finite raises NonFiniteResultError when it is formed.
    """
    require_valid(seq, structural_only=True)
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    t_end = seq.duration
    if t_end < 0.0:
        raise ValueError(f"the sequence ends at t = {t_end!r}, before the table's start at t = 0")
    if not t_end / dt < MAX_TRAJECTORY_ROWS:
        raise ValueError(
            f"dt={dt!r} over a duration of {t_end!r} s needs more than "
            f"{MAX_TRAJECTORY_ROWS} rows; use a coarser step"
        )
    n = math.floor(t_end / dt)
    ts = (i * dt for i in range(n + 1))
    if n * dt < t_end:
        ts = itertools.chain(ts, [t_end])
    branch1, branch2 = _kick_trajectory(seq, 1, species), _kick_trajectory(seq, 2, species)

    def row(t: float) -> tuple[float, ...]:
        zg, vg = gravity_trajectory(env, ics, t)
        return t, *_full(branch1, 1, zg, vg, t), *_full(branch2, 2, zg, vg, t), zg

    return map(row, ts)

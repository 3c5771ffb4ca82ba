"""Exact piecewise trajectories for instantaneous kicks plus free fall.

The full trajectory of a branch splits into a branch-independent launch part
z_g(t) = z0 + v0*t - g*t^2/2 and a branch-dependent kick part that starts at
rest at zero and changes velocity by hbar*k/m at each pulse.  Both parts are
evaluated in closed form here; nothing in this module integrates numerically.

The kick part is one segment table per branch, built by kick_trajectory: one
constant-velocity segment before the first pulse and one after each pulse.
Scalar samples, BranchTrajectory.position/velocity and the rows of
trajectory_table all read it through the same lookup and the same
element-wise float operations, so a table row equals sample at its time bit
for bit.  Kicks take effect immediately after the pulse time, so sampling
exactly at a pulse time returns the pre-kick velocity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import constants
from .core import GravityEnv, InitialConditions, PulseSequence, Species, require_valid

if TYPE_CHECKING:
    import numpy as np

# Row budget of trajectory_table, checked before anything is allocated.  A
# CLI dump of 1e6 rows of the 3-pulse mzi is ~143 MB of CSV; the CLI streams
# the lines, so the process peaks at 159 MB resident (42 MB at 1e5 rows, 17 MB
# without a dump; x86-64, Python 3.11, numpy 2.4), growing linearly in rows.
MAX_TRAJECTORY_ROWS = 1_000_000


@dataclass(frozen=True, eq=False)
class BranchTrajectory:
    """Kick part of one branch: piecewise linear position, stepwise velocity.

    Segment i starts at time t_start[i] and position z_start[i] and moves at
    v[i] until t_start[i + 1]; the last segment runs on to the end.
    """

    t_start: np.ndarray
    z_start: np.ndarray
    v: np.ndarray
    branch: int
    mass: float

    def __post_init__(self) -> None:
        if self.branch not in (1, 2):
            raise ValueError(f"branch must be 1 or 2, got {self.branch!r}")

    def _at(self, t):
        """(position, velocity) at t; floats for a scalar t, arrays for an ndarray."""
        import numpy as np

        # side="left" over the interior boundaries puts t exactly at a pulse
        # time on the segment that ends there, so the kick has not acted yet
        i = np.searchsorted(self.t_start[1:], t, side="left")
        z = self.z_start[i] + self.v[i] * (t - self.t_start[i])
        if np.ndim(t) == 0:
            return float(z), float(self.v[i])
        return z, self.v[i]

    def position(self, t):
        return self._at(t)[0]

    def velocity(self, t):
        return self._at(t)[1]


def _branch_ks(seq: PulseSequence, branch: int) -> list[float]:
    if branch == 1:
        return [p.k_upper for p in seq.pulses]
    if branch == 2:
        return [p.k_lower for p in seq.pulses]
    raise ValueError(f"branch must be 1 or 2, got {branch!r}")


def kick_trajectory(seq: PulseSequence, branch: int, species: Species) -> BranchTrajectory:
    """Segment table of the kick part of one branch."""
    import numpy as np

    require_valid(seq, structural_only=True)
    ks = _branch_ks(seq, branch)
    times = list(seq.times)
    t_start = [min(0.0, times[0]) if times else 0.0]
    z_start = [0.0]
    v = [0.0]
    for t, k in zip(times, ks):
        z_start.append(z_start[-1] + v[-1] * (t - t_start[-1]))
        v.append(v[-1] + constants.HBAR * k / species.mass)
        t_start.append(t)
    return BranchTrajectory(
        np.array(t_start, dtype=float),
        np.array(z_start, dtype=float),
        np.array(v, dtype=float),
        branch,
        species.mass,
    )


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
    zk, vk = kick_trajectory(seq, branch, species)._at(t)
    zg, vg = gravity_trajectory(env, ics, t)
    return zg + zk, vg + vk


def trajectory_table(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    dt: float,
) -> np.ndarray:
    """Sampled trajectories as columns (t, z1, v1, z2, v2, zg).

    Rows run over multiples of dt from 0 to t_end, with a final row at t_end
    when the grid does not land on it exactly; each row equals sample at its
    time.  Raises ValueError, before anything is allocated, when the sequence
    ends before t = 0 or the grid needs more than MAX_TRAJECTORY_ROWS rows.
    """
    import numpy as np

    require_valid(seq, structural_only=True)
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    t_end = seq.duration
    if t_end < 0.0:
        raise ValueError(f"the sequence ends at t = {t_end!r}, before the table's start at t = 0")
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
    z1, v1 = kick_trajectory(seq, 1, species)._at(ts)
    z2, v2 = kick_trajectory(seq, 2, species)._at(ts)
    return np.column_stack([ts, zg + z1, vg + v1, zg + z2, vg + v2, zg])

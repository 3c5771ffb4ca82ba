"""March of free fall plus pulse windows, one exact step per segment.

The acceleration is -g plus, on a kicked step, an amplitude amp times the
window's profile P.  It does not depend on the state, so a step of width h
from (z, v) ends at

  v - g h + amp u,   z + h v - g h^2/2 + amp p

with u the integral of P over the step and p the integral of that integral;
classic RK4 reduces to this form.  The oracle, the one caller, takes one step
per segment, a whole window or free flight, and both of its window profiles
have mean 1, so u = h and p = h^2/2 exactly and every step ends on the exact
state up to rounding.  The updates are running sums over Python floats; the
velocity sum does not read the positions, so a caller that needs only v
skips the second.
"""

from __future__ import annotations

import itertools
from typing import Sequence


def march_rk4(
    h: list[float],
    kicks: Sequence[tuple[int, float]],
    g: float,
    z0: float | None,
    v0: float,
) -> tuple[list[float] | None, list[float]]:
    """The march as running sums; returns (z, v) on the n + 1 step edges.

    h holds one width per step and kicks one (i, amp) per kicked step, whose
    weights are u = h[i] and p = h[i] * h[i] * 0.5.  Each increment is
    formed in the order -g h, + amp u (and h^2 (-g/2), + amp p, + h v), then
    summed up.  With z0 None no position is formed and z is None.
    """
    dv = [step * -g for step in h]
    for i, amp in kicks:
        dv[i] += h[i] * amp
    v = list(itertools.accumulate(dv, initial=v0))
    if z0 is None:
        return None, v
    dz = [step * step * (-0.5 * g) for step in h]
    for i, amp in kicks:
        dz[i] += h[i] * h[i] * 0.5 * amp
    dz = [d + step * vi for d, step, vi in zip(dz, h, v)]
    return list(itertools.accumulate(dz, initial=z0)), v

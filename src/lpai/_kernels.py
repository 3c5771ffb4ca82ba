"""March of free fall plus pulse windows over precomputed step weights.

The acceleration is -g plus, on each pulse window, an amplitude amp times
the window's profile P.  The acceleration does not depend on the state, so
a step of width h from (z, v) ends at

  v + integral(a) = v - g h + amp u
  z + h v + double integral(a) = z + h v - g h^2/2 + amp p

with the step weights per unit amplitude u, the integral of P over the
step, and p, the integral of that integral.  Classic RK4 reduces to this
form, with u = (h/6) (PL + 4 PM + PR) and p = (h^2/6) (PL + 2 PM); the
oracle, the one caller, takes one step per segment with the exact weights
u = h and p = h^2/2, which hold for both of its window profiles, so every
step ends on the exact state up to rounding.  The updates are running sums
over Python floats; the velocity sum does not read the positions, so a
caller that needs only v skips the second.
"""

from __future__ import annotations

import itertools
from typing import Sequence


def march_rk4(
    h: list[float],
    u: list[float],
    p: list[float],
    kicks: Sequence[tuple[int, int, float]],
    g: float,
    z0: float | None,
    v0: float,
) -> tuple[list[float] | None, list[float]]:
    """The march as running sums; returns (z, v) on the n + 1 step edges.

    h, u and p hold one element per step; kicks holds (i0, i1, amp) per
    kicked window, and u and p are read on its steps i0 .. i1 - 1 only.
    Each increment is formed in the order -g h, + amp u (and h^2 (-g/2),
    + amp p, + h v), then summed up.  With z0 None no position is formed
    and z is None.
    """
    dv = [step * -g for step in h]
    for i0, i1, amp in kicks:
        for i in range(i0, i1):
            dv[i] += u[i] * amp
    v = list(itertools.accumulate(dv, initial=v0))
    if z0 is None:
        return None, v
    dz = [step * step * (-0.5 * g) for step in h]
    for i0, i1, amp in kicks:
        for i in range(i0, i1):
            dz[i] += p[i] * amp
    dz = [d + step * vi for d, step, vi in zip(dz, h, v)]
    return list(itertools.accumulate(dz, initial=z0)), v

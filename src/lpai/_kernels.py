"""Fixed-step RK4 march of free fall plus pulse windows, over precomputed step weights.

The acceleration is -g plus, on each pulse window, an amplitude amp times
the window's profile P (1 for a top-hat).  For a state-independent
acceleration the classic RK4 update over a step of width h, with a sampled
at its left edge, midpoint and right edge, collapses to

  v[i+1] = v[i] + (h/6) (aL + 4 aM + aR) = v[i] - g h + amp u
  z[i+1] = z[i] + h v[i] + (h^2/6) (aL + 2 aM) = z[i] + h v[i] - g h^2/2 + amp p

with the step weights per unit amplitude u = (h/6) (PL + 4 PM + PR) and
p = (h^2/6) (PL + 2 PM) (h and h^2/2 for a top-hat).  They depend on the
grid alone, so the caller forms them once per grid.  Each update is a
running sum.  On float lists (a top-hat grid, a few dozen nodes) it runs in
Python floats; on arrays (a cosine grid) it is formed with numpy cumulative
sums.  Both apply the same floating-point operations in the same order as
the plain step-by-step loop, so the outputs match it, and each other, bit
for bit.  The velocity sum does not read the positions, so a caller that
needs only v skips the second.

An array march writes into arrays the caller passes in: the oracle, the one
caller, hands in views of its per-thread arena (or fresh arrays on a grid
too large for it), so a march allocates nothing.  A list march returns
fresh lists.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np


def march_rk4(
    h: list[float] | np.ndarray,
    u: list[float] | np.ndarray,
    p: list[float] | np.ndarray,
    kicks: Sequence[tuple[int, int, float]],
    g: float,
    z0: float | None,
    v0: float,
    *,
    v: np.ndarray | None = None,
    work: np.ndarray | None = None,
    z: np.ndarray | None = None,
) -> tuple[list[float] | np.ndarray | None, list[float] | np.ndarray]:
    """Reduced RK4 as running sums; returns (z, v) on the n+1 grid points.

    h, u, p and work hold one element per step; kicks holds (i0, i1, amp)
    per kicked window, and u and p are read on those steps only.  Each
    increment is formed in the order -g h, + amp u (and h^2 (-g/2), + amp p,
    + h v), then summed up.  With z0 None no position is formed and z is
    None.  h, u and p as lists return new lists and take no keywords.  As
    arrays, the keywords are the caller's arrays: v and z (n+1 elements, z
    passed exactly when z0 is) receive the velocities and positions, formed
    in place; work holds each added term.
    """
    if isinstance(h, list):
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

    import numpy as np

    v[0] = v0
    dv = v[1:]
    np.multiply(h, -g, out=dv)
    for i0, i1, amp in kicks:
        dv[i0:i1] += np.multiply(u[i0:i1], amp, out=work[i0:i1])
    np.cumsum(v, out=v)
    if z0 is None:
        return None, v

    z[0] = z0
    dz = z[1:]
    np.multiply(h, h, out=dz)
    dz *= -0.5 * g
    for i0, i1, amp in kicks:
        dz[i0:i1] += np.multiply(p[i0:i1], amp, out=work[i0:i1])
    dz += np.multiply(h, v[:-1], out=work)
    return np.cumsum(z, out=z), v

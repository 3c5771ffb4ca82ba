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
running sum, formed here with numpy cumulative sums.  They apply the same
floating-point operations in the same order as the plain step-by-step loop,
so the outputs match it bit for bit.  The velocity sum does not read the
positions, so a caller that needs only v skips the second.

The caller passes the output and work arrays in: the oracle, the one caller,
hands in views of its per-thread arena (or fresh arrays on a grid too large
for it), so a march allocates nothing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def march_rk4(
    h: np.ndarray,
    u: np.ndarray,
    p: np.ndarray,
    kicks: Sequence[tuple[int, int, float]],
    g: float,
    z0: float | None,
    v0: float,
    *,
    v: np.ndarray,
    work: np.ndarray,
    z: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Reduced RK4 as cumulative sums; returns (z, v) on the n+1 grid points.

    h, u, p and work hold one element per step; kicks holds (i0, i1, amp)
    per kicked window, and u and p are read on those steps only.  Each
    increment is formed in place into the tail of its output, in the order
    -g h, + amp u (and h^2 (-g/2), + amp p, + h v), then summed up in place.
    With z0 None no position is formed and z is None.  The keywords are the
    caller's arrays: v and z (n+1 elements, z passed exactly when z0 is)
    receive the velocities and positions; work holds each added term.
    """
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

"""Fixed-step RK4 march over precomputed acceleration stage arrays.

The integrator works on a time grid with per-step widths h and acceleration
samples at the left edge, midpoint, and right edge of every step.  For a
state-independent acceleration a(t) the classic RK4 update collapses to

  v[i+1] = v[i] + (h/6) (aL + 4 aM + aR)        (Simpson in velocity)
  z[i+1] = z[i] + h v[i] + (h^2/6) (aL + 2 aM)

which is a pair of running sums, formed here with numpy cumulative sums.
They apply the same floating-point operations in the same order as the plain
step-by-step loop, so the outputs match it bit for bit.  The velocity sum
does not read the positions, so a caller that needs only v skips the second.

The caller passes h / 6 and the output and work arrays in: the oracle, the
one caller, hands in views of its per-thread arena (or fresh arrays on a grid
too large for it), so a march allocates nothing.
"""

from __future__ import annotations

import numpy as np


def march_rk4(
    h: np.ndarray,
    a_left: np.ndarray,
    a_mid: np.ndarray,
    a_right: np.ndarray,
    z0: float | None,
    v0: float,
    *,
    h6: np.ndarray,
    v: np.ndarray,
    z: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Reduced RK4 as cumulative sums; returns (z, v) on the n+1 grid points.

    All arrays are float64 of one length.  Each increment is computed in
    place into the tail of its output and then summed up in place; the
    operands commute, so the bits are those of the plain expressions above.
    With z0 None no position is formed and z is None.

    The keywords are the caller's arrays: h6 holds h / 6, v (n+1 elements)
    receives the velocities, and z (n+1) and work (n), passed exactly when
    z0 is, receive the positions and hold h^2/6 and then h v during the
    position sum.
    """
    v[0] = v0
    dv = v[1:]
    np.multiply(a_mid, 4.0, out=dv)
    np.add(a_left, dv, out=dv)
    dv += a_right
    np.multiply(h6, dv, out=dv)
    np.cumsum(v, out=v)
    if z0 is None:
        return None, v

    z[0] = z0
    dz = z[1:]
    np.multiply(a_mid, 2.0, out=dz)
    np.add(a_left, dz, out=dz)
    work = np.multiply(h, h, out=work)
    work /= 6.0
    np.multiply(work, dz, out=dz)
    np.multiply(h, v[:-1], out=work)
    np.add(work, dz, out=dz)
    return np.cumsum(z, out=z), v

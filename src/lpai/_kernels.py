"""Fixed-step RK4 marches over precomputed acceleration stage arrays.

The integrator works on a time grid with per-step widths h and acceleration
samples at the left edge, midpoint, and right edge of every step.  For a
state-independent acceleration a(t) the classic RK4 update collapses to

  v[i+1] = v[i] + (h/6) (aL + 4 aM + aR)        (Simpson in velocity)
  z[i+1] = z[i] + h v[i] + (h^2/6) (aL + 2 aM)

which is a pair of running sums.  Two implementations are provided: a numba
loop compiled on import, and a pure-numpy cumulative-sum formulation.  Both
apply the same floating-point operations in the same order, so their outputs
match bit for bit; the environment variable LPAI_DISABLE_NUMBA=1 forces the
numpy path (and any import failure of numba falls back to it silently).

A second, state-dependent stepper handles a linear restoring term
a = a_stage(t) - gradient * z for exploratory runs with a nonzero gravity
gradient.  That one is a genuine RK4 with stage re-evaluations and makes no
bit-identity promise against the reduced form.
"""

from __future__ import annotations

import os

import numpy as np

_DISABLED = os.environ.get("LPAI_DISABLE_NUMBA", "") not in ("", "0")

if not _DISABLED:
    try:
        from numba import njit
    except ImportError:
        njit = None
else:
    njit = None


def march_rk4_numpy(
    h: np.ndarray,
    a_left: np.ndarray,
    a_mid: np.ndarray,
    a_right: np.ndarray,
    z0: float,
    v0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced RK4 as cumulative sums; returns (z, v) on the n+1 grid points.

    Each increment is computed in place into the tail of its output and then
    summed up in place; the operands commute, so the bits are those of the
    plain expressions above.
    """
    v = np.empty(h.size + 1)
    v[0] = v0
    dv = v[1:]
    np.multiply(a_mid, 4.0, out=dv)
    np.add(a_left, dv, out=dv)
    dv += a_right
    np.multiply(h / 6.0, dv, out=dv)
    np.cumsum(v, out=v)

    z = np.empty(h.size + 1)
    z[0] = z0
    dz = z[1:]
    np.multiply(a_mid, 2.0, out=dz)
    np.add(a_left, dz, out=dz)
    scratch = h * h
    scratch /= 6.0
    np.multiply(scratch, dz, out=dz)
    np.multiply(h, v[:-1], out=scratch)
    np.add(scratch, dz, out=dz)
    return np.cumsum(z, out=z), v


def _march_rk4_loop(h, a_left, a_mid, a_right, z0, v0):
    n = h.size
    z = np.empty(n + 1)
    v = np.empty(n + 1)
    z[0] = z0
    v[0] = v0
    for i in range(n):
        dv = (h[i] / 6.0) * (a_left[i] + 4.0 * a_mid[i] + a_right[i])
        dz = h[i] * v[i] + (h[i] * h[i] / 6.0) * (a_left[i] + 2.0 * a_mid[i])
        z[i + 1] = z[i] + dz
        v[i + 1] = v[i] + dv
    return z, v


def _march_gradient_loop(h, a_left, a_mid, a_right, gradient, z0, v0):
    n = h.size
    z = np.empty(n + 1)
    v = np.empty(n + 1)
    z[0] = z0
    v[0] = v0
    for i in range(n):
        hi = h[i]
        zi = z[i]
        vi = v[i]
        k1z = vi
        k1v = a_left[i] - gradient * zi
        k2z = vi + 0.5 * hi * k1v
        k2v = a_mid[i] - gradient * (zi + 0.5 * hi * k1z)
        k3z = vi + 0.5 * hi * k2v
        k3v = a_mid[i] - gradient * (zi + 0.5 * hi * k2z)
        k4z = vi + hi * k3v
        k4v = a_right[i] - gradient * (zi + hi * k3z)
        z[i + 1] = zi + (hi / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        v[i + 1] = vi + (hi / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return z, v


if njit is not None:
    _march_rk4_compiled = njit(cache=True)(_march_rk4_loop)
    _march_gradient_compiled = njit(cache=True)(_march_gradient_loop)
else:
    _march_rk4_compiled = None
    _march_gradient_compiled = None


def using_numba() -> bool:
    """True when the compiled kernels are active (flag unset, import worked)."""
    return _march_rk4_compiled is not None


def _as_f64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


def march_rk4(h, a_left, a_mid, a_right, z0: float, v0: float):
    """Dispatch the state-independent march to the active implementation."""
    args = (_as_f64(h), _as_f64(a_left), _as_f64(a_mid), _as_f64(a_right), float(z0), float(v0))
    if _march_rk4_compiled is not None:
        return _march_rk4_compiled(*args)
    return march_rk4_numpy(*args)


def march_gradient(h, a_left, a_mid, a_right, gradient: float, z0: float, v0: float):
    """Dispatch the gradient-aware march; plain python loop without numba."""
    args = (
        _as_f64(h),
        _as_f64(a_left),
        _as_f64(a_mid),
        _as_f64(a_right),
        float(gradient),
        float(z0),
        float(v0),
    )
    if _march_gradient_compiled is not None:
        return _march_gradient_compiled(*args)
    return _march_gradient_loop(*args)

"""Independent numeric cross-check of the closed-form phase decomposition.

The closed forms treat laser kicks as instantaneous.  This module replaces
each kick by a finite window of width sigma carrying the same impulse
(top-hat a = hbar*k/(m*sigma), or a raised cosine with the same area),
integrates the classical motion with a fixed-step RK4 aligned to the window
edges, and evaluates the proper-time difference and the window averages of
the pulse-free trajectory by composite Simpson quadrature.  Nothing here
reuses the closed-form results except in the final residual comparison, whose
closed-form delta_tau and scale read one PulseTable (_closed_form).
oracle_report forms every quantity of its result; convergence_study reads
only the residual, so it takes the closed form once per study and, per width,
integrates the proper time alone: no launch-trajectory march, no window
averages and no total phase.

Accuracy notes, which the tests lean on:

- The grid places breakpoints at every window edge and an even number of
  steps per segment, so Simpson pairs never straddle a discontinuity.  On
  every segment but a cosine window each march has a constant acceleration
  (-g or amp - g; -2g or amp - 2g for the branch sum, 0 or amp for the
  branch difference), on which RK4 is exact, and the proper-time integrand
  and the launch trajectory are at most quadratic in t, which one Simpson
  pair integrates exactly.  So free
  flight and top-hat windows take one Simpson pair, 2 steps, and a top-hat
  grid has at most 4 * pulses + 3 nodes; what remains in a top-hat residual
  is, up to rounding, genuinely the physics of the finite width.
- Only cosine windows take steps_per_segment steps (rounded up to even);
  top-hat configs accept the argument and read nothing of it.
- The proper-time integrand is evaluated from a separately integrated
  branch-difference system (initial conditions zero, kick-difference forcing,
  gravity cancels), as -dv*(v1+v2)/2 + g*dz.  Forming v1 - v2 from the two
  branch solutions instead would inherit the rounding of the large common
  free-fall signal and ruin the gravity-independence of the result.  v1 +
  v2 is marched as one forcing: kicks k1 + k2, gravity 2g, start 2 v0.
  The Simpson sum ends at the last window's end node, since after it dv is
  the closure residual and free flight would integrate only rounding.
- Every cosine window takes the same even step count n, so one raised
  cosine per call, sampled at the window fractions j/n and (j + 1/2)/n,
  serves every window of every width.  The nodes sit eps * t off those fractions, so a
  cosine kick is scaled by the profile's integral under the march's step
  weights, and a window average by its Simpson integral on the grid.
- Pulse windows span [t_ell, t_ell + sigma].  For sequences closed in phase
  space the common sigma/2 centroid shift drops out of every closed-form
  quantity, so no recentering is needed.

Which of two representations a grid takes is read from the profile: a
top-hat grid (no profile), at most 4 * pulses + 3 nodes, is lists of Python
floats, and its marches, integrand, window averages and Simpson sums run in
plain floats, so a top-hat call imports no numpy.  A cosine grid, O(pulses x
steps_per_segment) nodes, is numpy arrays: every grid-sized array of a
cosine call (the node times, the step widths, the step weights u and p, the
three marches, the integrand and the Simpson terms) is a view of one arena
per thread, _exactsum.scratch("oracle"), exactly one slot of the grid's
nodes per role, so a repeated call allocates nothing grid-sized.  A grid
whose slots would not fit in _SCRATCH_MAX elements (8 MiB) gets fresh arrays
instead.  A view is valid until the next oracle call in the same thread, and
nothing returned to a caller is one.  Both representations apply the same
float operations in the same order, so a top-hat result has the bits the
array pipeline gives it.  The RK4 step weights u and p (_kernels) depend on
the grid alone, so the grid forms them once for all its marches.  Only what
a result reads is marched: the proper time reads the velocity sum, so its
march forms no positions.  _layout is the one function that relates a
config to a sequence: it places the breakpoints and the windows' node
spans.  Every entry point lays its config out first: a width too wide for
the pulse spacing, a grid over MAX_ORACLE_NODES and a window whose steps
the time resolution at its pulse cannot split are refused before anything
is allocated, the cosine profile included.  Every march, through _march, checks each window's
velocity change against hbar*k/m - g*width; the branch sum's and the branch
difference's checks together pin each branch's kicks.  Every Simpson sum,
through _simpson, is nan beyond the float range; that, and a kick amplitude
or a proper-time integrand beyond it, raises NonFiniteResultError.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from . import constants, _exactsum, _kernels
from ._exactsum import array_fsum, fsum_or_exact
from .core import (
    GravityEnv,
    InitialConditions,
    PulseSequence,
    Species,
    compton_frequency,
    require_valid,
)
from .errors import NonFiniteResultError, OracleAccuracyError, OracleConfigError
from .kinematics import _branch_ks
from .phase import _closed_sum, _laser_sum, recoil_parts

if TYPE_CHECKING:
    import numpy as np

    _Profile = tuple[np.ndarray, np.ndarray, np.ndarray]  # see _raised_cosine

_SHAPES = ("tophat", "cosine")
_IMPULSE_HARD_LIMIT = 1e-6
_RESIDUAL_FLOOR = 1e-12
# Grid nodes one call may allocate.  Only cosine windows come near it (a
# top-hat grid has at most 4 * pulses + 3 nodes).  Peak resident set of a
# process at 7,998,005 nodes (mzi, 2,666,000 steps; x86-64, numpy 2.4.6):
# 598 MB for oracle_report, proper_time_numeric and `lpai oracle`.
MAX_ORACLE_NODES = 8_000_000


@dataclass(frozen=True)
class OracleConfig:
    """Finite-pulse-width integration parameters.

    ``steps_per_segment`` is the RK4 step count of each cosine window, rounded
    up to even on the grid.  A top-hat window, on which the march and the
    quadrature are exact, takes one Simpson pair, 2 steps, whatever
    ``steps_per_segment`` says, and so does the free flight between windows:
    a grid has windows * window steps + 2 * free segments + 1 nodes.
    ``steps_per_segment`` takes any integer type (``operator.index``) and is
    stored as a Python int; a float or a string is refused, with top-hat
    windows too.  What depends on the sequence too (the width against the
    pulse spacing and the time resolution, and the node budget) is checked
    where the config is laid out, before anything is formed.
    """

    pulse_width: float
    steps_per_segment: int = 400
    pulse_shape: str = "tophat"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pulse_width) and self.pulse_width > 0.0):
            raise OracleConfigError(f"pulse_width must be positive, got {self.pulse_width!r}")
        try:
            steps = operator.index(self.steps_per_segment)
        except TypeError:
            raise OracleConfigError(
                f"steps_per_segment must be an integer, got {self.steps_per_segment!r}"
            ) from None
        object.__setattr__(self, "steps_per_segment", steps)
        if self.steps_per_segment < 100:
            raise OracleConfigError(
                f"steps_per_segment must be at least 100, got {self.steps_per_segment!r}"
            )
        if self.pulse_shape not in _SHAPES:
            raise OracleConfigError(
                f"pulse_shape must be one of {_SHAPES}, got {self.pulse_shape!r}"
            )


@dataclass(frozen=True)
class OracleResult:
    """Numeric-versus-closed-form comparison for one configuration."""

    sigma: float
    steps_per_segment: int  # the steps each pulse window took, _window_steps(cfg)
    pulse_shape: str
    delta_tau_numeric: float
    delta_tau_closed: float
    residual_vs_closed_form: float
    gravito_recoil_numeric: float
    total_phase_numeric: float
    closure_residuals: tuple[float, float]  # (position m, velocity m/s) at grid end

    def as_report(self) -> dict:
        """The report `lpai oracle` prints, in print order and under its short names."""
        return {
            "sigma": self.sigma,
            "steps": self.steps_per_segment,
            "pulse_shape": self.pulse_shape,
            "delta_tau_numeric": self.delta_tau_numeric,
            "delta_tau_closed": self.delta_tau_closed,
            "rel_residual": self.residual_vs_closed_form,
            "gravito_recoil_numeric": self.gravito_recoil_numeric,
            "total_phase_numeric": self.total_phase_numeric,
            "closure_residuals": list(self.closure_residuals),
        }


@dataclass(frozen=True)
class ConvergenceStudy:
    """Residual against the closed form for a decreasing list of widths."""

    widths: tuple[float, ...]
    residuals: tuple[float, ...]
    fitted_exponent: float
    floor: float


# The grid-sized roles of a cosine call's per-thread arena, in slot order (see _Arena).
_ROLES = ("ts", "h", "u", "p", "v_sum", "dz", "dv", "z_g", "v_g", "f", "work", "simpson")


class _Arena:
    """Grid-sized work arrays of one cosine oracle call: one slot of `nodes` elements per role.

    The slots are views of this thread's scratch("oracle"), len(_ROLES) * nodes
    elements, if that fits in _SCRATCH_MAX; else every request gets a fresh array.
    """

    def __init__(self, nodes: int) -> None:
        self.nodes = nodes
        size = len(_ROLES) * nodes
        self.buffer = _exactsum.scratch("oracle", size) if size <= _exactsum._SCRATCH_MAX else None

    def __call__(self, role: str, size: int, start: int = 0) -> np.ndarray:
        """size uninitialised elements of role's slot from index start, start + size <= nodes."""
        if self.buffer is None:
            import numpy as np

            return np.empty(size)
        start += _ROLES.index(role) * self.nodes
        return self.buffer[start : start + size]


_Layout = tuple[list[float], list[int], tuple[tuple[int, int], ...]]  # see _layout


@dataclass(frozen=True)
class _Grid:
    # float lists for top-hat, arrays in the arena for cosine
    ts: list[float] | np.ndarray
    h: list[float] | np.ndarray
    u: list[float] | np.ndarray  # RK4 step weights per unit kick amplitude (_kernels),
    p: list[float] | np.ndarray  # read on the windows' steps only; top-hat: h and h^2/2
    windows: tuple[tuple[int, int], ...]  # node index span of each pulse window
    widths: tuple[float, ...]  # realized width ts[i1] - ts[i0] of each window
    node_profile: np.ndarray | None  # _raised_cosine's P on the nodes, None for top-hat
    kick_areas: tuple[float, ...]  # each window's sum of u; top-hat: widths
    arena: _Arena | None  # None for top-hat


def _layout(seq: PulseSequence, cfg: OracleConfig) -> _Layout:
    """Where the grid's breakpoints and windows fall: the one rule relating cfg to seq.

    Returns the sorted breakpoints, the node index of each and the node span
    (i0, i1) of each pulse's window [t, t + sigma].  Refuses, in this order
    and before anything grid- or profile-sized is formed, a width not below
    half the least pulse spacing, a grid of more than MAX_ORACLE_NODES nodes
    and a window whose steps the time resolution at its pulse cannot split.
    A window takes _window_steps(cfg); every other segment is free flight and
    takes one Simpson pair, 2 steps.
    """
    times, sigma = seq.times, cfg.pulse_width
    if len(times) >= 2:
        spacing = min(b - a for a, b in zip(times[:-1], times[1:]))
        if not sigma < 0.5 * spacing:
            raise OracleConfigError(
                f"pulse_width {sigma!r} must be smaller than half the minimum "
                f"pulse spacing {spacing!r}"
            )
    ends = {t: t + sigma for t in times}  # each window's end, by its start
    edges = {*times, *ends.values()}
    lo, hi = min(edges, default=0.0), max(edges, default=0.0)
    # free flight from t = 0 and on to the duration, left out where no float splits its 2 steps
    free = ((0.0, lo, 0.0), (hi, seq.duration, seq.duration))
    breakpoints = sorted({lo, hi, *edges, *(t for a, b, t in free if a < a + (b - a) / 2 < b)})
    n = _window_steps(cfg)
    steps = [n if ends.get(a) == b else 2 for a, b in zip(breakpoints[:-1], breakpoints[1:])]
    offsets = [0, *itertools.accumulate(steps)]
    nodes, windows = offsets[-1] + 1, len(times)
    if nodes > MAX_ORACLE_NODES:
        hint = "; lower steps_per_segment" if cfg.pulse_shape == "cosine" else ""
        raise OracleConfigError(
            f"{windows} pulse windows of {n} steps and {len(steps) - windows} free segments "
            f"need {nodes} grid nodes, more than {MAX_ORACLE_NODES}{hint}"
        )
    for t, end in ends.items():
        # end - t, its n-th part and each node t + j * step round by at most
        # ulp(4 max(|t|, |end|)) / 2 apiece: above 8 ulps a step, nodes rise
        if not (end - t) / n > 8.0 * math.ulp(max(abs(t), abs(end))):
            raise OracleConfigError(
                f"pulse_width {sigma!r} is below the time resolution at t = {t!r}"
            )
    node = dict(zip(breakpoints, offsets))
    return breakpoints, offsets, tuple((node[t], node[end]) for t, end in ends.items())


def _window_steps(cfg: OracleConfig) -> int:
    """The step count of every pulse window: one exact Simpson pair for top-hat
    (see the accuracy notes), steps_per_segment rounded up to even for cosine."""
    if cfg.pulse_shape == "tophat":
        return 2
    return cfg.steps_per_segment + cfg.steps_per_segment % 2


def _raised_cosine(cfg: OracleConfig) -> _Profile | None:
    """1 - cos(2 pi x) on a window's n + 1 nodes, with its step weights; None for top-hat.

    x = j/n on the nodes and (j + 1/2)/n on the step midpoints, correctly
    rounded.  Both ends are exactly 0.0 (x = 1 gives fl(2 pi)).  The step
    weights are (PL + 4 PM) + PR and PL + 2 PM, P at a step's left edge,
    midpoint and right edge.  The three arrays are read-only.
    """
    if cfg.pulse_shape != "cosine":
        return None
    import numpy as np

    n = _window_steps(cfg)
    nodes, mids = np.arange(n + 1, dtype=float), np.arange(n, dtype=float) + 0.5
    for x in (nodes, mids):
        x /= n
        x *= 2.0 * np.pi
        np.subtract(1.0, np.cos(x, out=x), out=x)
    u_weights = nodes[:-1] + 4.0 * mids
    u_weights += nodes[1:]
    p_weights = np.multiply(mids, 2.0, out=mids)
    p_weights += nodes[:-1]
    for x in (nodes, u_weights, p_weights):
        x.flags.writeable = False
    return nodes, u_weights, p_weights


def _build_grid(layout: _Layout, profile: _Profile | None) -> _Grid:
    """The grid of a _layout: float lists for top-hat (profile None), else arrays
    in this thread's oracle arena with _raised_cosine's profile.

    Node j of a segment [a, b] of n steps is a + j * ((b - a) / n), as in
    np.linspace(a, b, n + 1).  On a top-hat window u = h and p = h * h / 2.
    On a cosine window u = (h / 6) * (PL + 4 PM + PR) and p = (h * h / 6) *
    (PL + 2 PM); a kick's area is the window's sum of u (pairwise, np.sum: a
    scale, not a result).
    """
    breakpoints, offsets, windows = layout
    if profile is None:
        ts = [
            j * ((b - a) / (i1 - i0)) + a
            for a, b, i0, i1 in zip(breakpoints, breakpoints[1:], offsets, offsets[1:])
            for j in range(i1 - i0)
        ]
        ts.append(breakpoints[-1])
        h = [b - a for a, b in zip(ts, ts[1:])]
        widths = tuple(ts[i1] - ts[i0] for i0, i1 in windows)
        p = [step * step * 0.5 for step in h]
        return _Grid(ts, h, h, p, windows, widths, None, widths, None)

    import numpy as np

    arena = _Arena(offsets[-1] + 1)
    ts = arena("ts", arena.nodes)
    index = np.arange(max((b - a for a, b in zip(offsets, offsets[1:])), default=0), dtype=float)
    for a, b, i0, i1 in zip(breakpoints, breakpoints[1:], offsets, offsets[1:]):
        np.multiply(index[: i1 - i0], (b - a) / (i1 - i0), out=ts[i0:i1])
        ts[i0:i1] += a
    ts[-1] = breakpoints[-1]
    h = np.subtract(ts[1:], ts[:-1], out=arena("h", ts.size - 1))

    widths = tuple(float(ts[i1] - ts[i0]) for i0, i1 in windows)
    with np.errstate(over="ignore"):  # steps above ~1.3e154 s give inf; typed checks refuse it
        p = np.multiply(h, h, out=arena("p", h.size))
    node_profile, u_weights, p_weights = profile
    u = np.divide(h, 6.0, out=arena("u", h.size))
    p /= 6.0
    for i0, i1 in windows:
        u[i0:i1] *= u_weights
        p[i0:i1] *= p_weights
    kick_areas = tuple(float(u[i0:i1].sum()) for i0, i1 in windows)
    return _Grid(ts, h, u, p, windows, widths, node_profile, kick_areas, arena)


def _kick_amplitude(k: float, mass: float, area: float) -> float:
    """hbar*k/(m*area), area a window's kick area; NonFiniteResultError beyond the float range."""
    denom = mass * area  # underflows to 0 for a subnormal mass
    amp = constants.HBAR * k / denom if denom != 0.0 else math.inf
    if not math.isfinite(amp):
        raise NonFiniteResultError(
            f"kick amplitude hbar*k/(m*area) is not finite for k = {k!r}, "
            f"mass = {mass!r}, window area = {area!r}"
        )
    return amp


def _simpson(f, ts, work=None) -> float:
    """Composite Simpson over consecutive node pairs, correctly rounded, or nan.

    f spans whole grid segments of an even step count, so its node count is
    odd.  Each pair's term is ((f0 + 4 f1) + f2) * ((t2 - t0) / 6).  Float
    lists (work None) sum their terms with math.fsum; arrays form the
    per-pair widths and terms in work (len(f) - 1 elements) and reduce them
    by array_fsum, which returns math.fsum's value bit for bit.  A sum that
    fsum refuses (opposite infinities, or beyond the float range) or that is
    not finite is nan, which the callers refuse with NonFiniteResultError.
    """
    if work is None:
        fsum = math.fsum
        terms = [
            ((f[i] + f[i + 1] * 4.0) + f[i + 2]) * ((ts[i + 2] - ts[i]) / 6.0)
            for i in range(0, len(f) - 1, 2)
        ]
    else:
        import numpy as np

        fsum = array_fsum
        pairs = (f.size - 1) // 2
        widths, terms = work[:pairs], work[pairs : 2 * pairs]
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(ts[2::2], ts[:-2:2], out=widths)
            widths /= 6.0
            np.multiply(f[1:-1:2], 4.0, out=terms)
            np.add(f[:-2:2], terms, out=terms)
            terms += f[2::2]
            terms *= widths
    try:
        total = fsum(terms)
    except (ValueError, OverflowError):
        return math.nan
    return total if math.isfinite(total) else math.nan


def _impulse_check(grid: _Grid, v, ks: Sequence[float], mass: float, g: float, scale_ks) -> None:
    """v's change per window against hbar*k/m - g*width, to the limit times scale_ks' hbar*|k|/m."""
    scale = max((constants.HBAR * abs(k) / mass for k in scale_ks), default=0.0)
    if scale == 0.0:
        return
    worst = 0.0
    for (i0, i1), k, width in zip(grid.windows, ks, grid.widths):
        expected = constants.HBAR * k / mass - g * width
        worst = max(worst, abs((v[i1] - v[i0]) - expected))
    if worst > _IMPULSE_HARD_LIMIT * scale:
        # a top-hat march is exact: only rounding can put its kicks off
        steps = "too few steps_per_segment, or " if grid.node_profile is not None else ""
        raise OracleAccuracyError(
            f"velocity change per pulse off by {worst / scale:.3e} relative "
            f"(limit {_IMPULSE_HARD_LIMIT:.0e}): {steps}a kick "
            "hbar*k/m below the float rounding of the free-fall velocity g*t"
        )


def _march(grid: _Grid, ks, mass: float, g: float, z0, v0: float, z: str, v: str, scale_ks=None):
    """Impulse-checked march_rk4 of one forcing: (z, v) on the grid nodes, z None when z0 is.

    Window i kicks with hbar*ks[i]/(m * kick area): by node index, and by the
    realized area rather than sigma, since t + sigma - t does not round back
    to sigma and gravity would couple to the broken closure.  The check
    scales with scale_ks (ks by default); z and v name the arena roles a
    cosine grid's march fills (a top-hat march returns fresh lists).
    """
    kicks = [
        (i0, i1, _kick_amplitude(k, mass, area))
        for (i0, i1), k, area in zip(grid.windows, ks, grid.kick_areas)
        if k != 0.0
    ]
    buffers = {}
    if grid.arena is not None:  # a cosine march fills its arena slots
        arena, nodes = grid.arena, len(grid.ts)
        buffers = {
            "v": arena(v, nodes),
            "work": arena("work", nodes - 1),
            "z": None if z0 is None else arena(z, nodes),
        }
    z_out, v_out = _kernels.march_rk4(grid.h, grid.u, grid.p, kicks, g, z0, v0, **buffers)
    _impulse_check(grid, v_out, ks, mass, g, ks if scale_ks is None else scale_ks)
    return z_out, v_out


def _quadrature_grid(seq: PulseSequence, cfg: OracleConfig) -> _Grid:
    """One call's grid: seq's structure is checked, then cfg laid out, then the profile formed."""
    require_valid(seq, structural_only=True)
    layout = _layout(seq, cfg)
    return _build_grid(layout, _raised_cosine(cfg))


def _quiet(grid: _Grid):
    """numpy's overflow and invalid warnings off on a cosine grid; a top-hat grid raises none.

    What would warn is refused by a typed check instead.
    """
    if grid.arena is None:
        return contextlib.nullcontext()
    import numpy as np

    return np.errstate(over="ignore", invalid="ignore")


def _integrand(grid: _Grid, dv, v_sum, dz, g: float):
    """f = (-0.5 * dv * (v1 + v2) + g * dz) / c**2 on the nodes given; None if a node is not finite.

    One operation at a time, in plain floats for a top-hat grid and in the
    arena's "f" slot for a cosine one.  Where -0.5 * dv * (v1 + v2)
    overflows before the division but the integrand is still a float (a
    tiny mass), the node is formed again with dv and dz divided by c**2
    first, there and only there, so finite nodes keep their bits.
    """
    c2 = constants.C**2
    if grid.arena is None:
        f = []
        for d, s, z in zip(dv, v_sum, dz):
            x = (d * -0.5 * s + z * g) / c2
            f.append(x if math.isfinite(x) else -0.5 * (d / c2) * s + g * (z / c2))
        return f if all(map(math.isfinite, f)) else None
    import numpy as np

    f = np.multiply(dv, -0.5, out=grid.arena("f", dv.size))
    f *= v_sum
    f += np.multiply(dz, g, out=grid.arena("work", dv.size))
    f /= c2
    bad = ~np.isfinite(f)
    if bad.any():
        f[bad] = -0.5 * (dv[bad] / c2) * v_sum[bad] + g * (dz[bad] / c2)
    return f if np.isfinite(f).all() else None


def _proper_time(grid: _Grid, seq, species, env, ics) -> tuple[float, float, float]:
    """Numeric delta_tau, and the end point (dz, dv) of the branch-difference system.

    v1 + v2 is one march, with no positions, whose check scales with the
    larger branch kick (a near-cancelling sum is not below rounding); the
    integral of _integrand ends at the last window's end node.  An
    integrand beyond the float range (a subnormal mass or a huge k) raises
    NonFiniteResultError, and so does an integral beyond it.
    """
    m = species.mass
    k1, k2 = _branch_ks(seq, 1), _branch_ks(seq, 2)
    dk = [p.delta_k for p in seq.pulses]
    k_sum = [a + b for a, b in zip(k1, k2)]
    end = max((i1 for _, i1 in grid.windows), default=0) + 1  # nodes integrated
    with _quiet(grid):
        _, v_sum = _march(grid, k_sum, m, 2.0 * env.g, None, 2.0 * ics.v0, "z_g", "v_sum", k1 + k2)
        dz, dv = _march(grid, dk, m, 0.0, 0.0, 0.0, "dz", "dv")
        dz_end, dv_end = float(dz[-1]), float(dv[-1])
        f = _integrand(grid, dv[:end], v_sum[:end], dz[:end], env.g)
    del v_sum, dz, dv  # fresh arrays, on a grid too large for the arena, go before the sum
    if f is None:
        raise NonFiniteResultError("the proper-time integrand is not finite on the oracle grid")
    work = None if grid.arena is None else grid.arena("simpson", end - 1)
    dtau = _simpson(f, grid.ts[:end], work)
    if not math.isfinite(dtau):
        raise NonFiniteResultError("the proper-time integral is not finite on the oracle grid")
    return dtau, dz_end, dv_end


def proper_time_numeric(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    cfg: OracleConfig,
) -> float:
    """Branch proper-time difference by quadrature on the integrated motion."""
    return _proper_time(_quadrature_grid(seq, cfg), seq, species, env, ics)[0]


def _window_terms(grid: _Grid, ks: Sequence[float], z) -> tuple[list[float], list[float]]:
    """The factors k and the window averages of z, for every window with k != 0.

    Top-hat weights are 1/width, in plain floats; cosine weights are the
    node profile over its Simpson integral on the window.  A window average
    beyond the float range raises NonFiniteResultError.
    """
    factors: list[float] = []
    averages: list[float] = []
    for i, ((i0, i1), width) in enumerate(zip(grid.windows, grid.widths)):
        if ks[i] == 0.0:
            continue
        ts, window_z = grid.ts[i0 : i1 + 1], z[i0 : i1 + 1]
        if grid.arena is None:
            average = _simpson([(1.0 / width) * x for x in window_z], ts)
        else:
            import numpy as np

            weighted, work = grid.arena("f", i1 - i0 + 1, i0), grid.arena("simpson", i1 - i0)
            with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
                area = _simpson(grid.node_profile, ts, work)
                np.divide(grid.node_profile, area, out=weighted)
                weighted *= window_z
            average = _simpson(weighted, ts, work)
        if not math.isfinite(average):
            raise NonFiniteResultError(
                f"the window average of the launch trajectory is not finite "
                f"for the pulse at t = {float(grid.ts[i0])!r}"
            )
        factors.append(ks[i])
        averages.append(average)
    return factors, averages


def _closed_form(seq: PulseSequence, species: Species) -> tuple[float, float]:
    """Closed-form delta_tau, and the least denominator of a residual against it.

    That scale is (largest recoil velocity / c)^2 times the span from
    min(0, t_0) to seq.duration (the grid runs on to the last window's end).
    Both read the one PulseTable of _closed_sum; an open sequence raises
    OpenSequenceError.
    """
    s, table = _closed_sum(seq, species)
    dtau = recoil_parts(s, species.mass)[0]
    span = seq.duration - min(0.0, seq.times[0])  # require_valid: 2 pulses, none after duration
    vr = constants.HBAR * table.scales()[0] / (species.mass * constants.C)
    return dtau, vr * vr * span


def _residual(dtau_num: float, dtau_closed: float, scale: float) -> float:
    """|dtau_num - dtau_closed| / max(|dtau_closed|, scale); 0 or inf where that is 0."""
    diff = abs(dtau_num - dtau_closed)
    denom = max(abs(dtau_closed), scale)
    return diff / denom if denom > 0.0 else (0.0 if diff == 0.0 else math.inf)


def oracle_report(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    cfg: OracleConfig,
) -> OracleResult:
    """Full numeric-versus-closed-form comparison for a closed sequence."""
    grid = _quadrature_grid(seq, cfg)
    dtau_closed, scale = _closed_form(seq, species)  # an open sequence is refused unmarched
    dtau_num, dz_end, dv_end = _proper_time(grid, seq, species, env, ics)
    z_g, _ = _march(grid, (), species.mass, env.g, ics.z0, ics.v0, "z_g", "v_g")  # pulse-free
    # math.fsum of the rounded products k * (window average of z_g)
    # (PulseTable.gravito_sum sums Dekker's exact products instead), through
    # _exactsum.fsum_or_exact: where fsum raises or is not finite, the
    # products are summed exactly, and a sum beyond the float range raises
    # NonFiniteResultError
    factors, averages = _window_terms(grid, [p.delta_k for p in seq.pulses], z_g)
    products = [k * a for k, a in zip(factors, averages)]
    what = "oracle gravito-recoil sum of k * window average of z_g"
    gravito_num = fsum_or_exact(products, lambda: (factors, averages), what, "rad")

    total_num = compton_frequency(species) * dtau_num + gravito_num + _laser_sum(seq)
    if not math.isfinite(total_num):
        raise NonFiniteResultError(
            f"the oracle's total phase is not finite: omega_C * delta_tau = "
            f"{compton_frequency(species) * dtau_num!r}, gravito-recoil = {gravito_num!r} rad"
        )

    return OracleResult(
        sigma=cfg.pulse_width,
        steps_per_segment=_window_steps(cfg),
        pulse_shape=cfg.pulse_shape,
        delta_tau_numeric=dtau_num,
        delta_tau_closed=dtau_closed,
        residual_vs_closed_form=_residual(dtau_num, dtau_closed, scale),
        gravito_recoil_numeric=gravito_num,
        total_phase_numeric=total_num,
        closure_residuals=(dz_end, dv_end),
    )


def convergence_study(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    widths: Iterable[float],
    *,
    steps_per_segment: int = 400,
    pulse_shape: str = "tophat",
) -> ConvergenceStudy:
    """Residual versus closed form over a strictly decreasing list of widths.

    Every width is laid out first (_layout: its spacing, resolution and
    node budget), then the closed form (delta_tau and the residual scale) is
    taken once; so an invalid width or an open sequence is refused before
    anything is formed or marched.  Each width then builds its grid from its
    layout and integrates the proper time only (two impulse-checked marches,
    the branch sum and the branch difference, and one Simpson sum); its
    residual is oracle_report's residual_vs_closed_form at that width, bit
    for bit.

    Raises OracleAccuracyError if the residual grows between two widths that
    both sit above the rounding floor; fits log residual against log width
    over the above-floor points and reports the slope (nan when fewer than
    two points qualify).
    """
    widths = [float(w) for w in widths]
    if len(widths) < 2:
        raise OracleConfigError("need at least two widths for a convergence study")
    if any(b >= a for a, b in zip(widths[:-1], widths[1:])):
        raise OracleConfigError(f"widths must be strictly decreasing, got {widths!r}")

    require_valid(seq, structural_only=True)
    cfgs = [OracleConfig(w, steps_per_segment, pulse_shape) for w in widths]
    layouts = [_layout(seq, cfg) for cfg in cfgs]
    dtau_closed, scale = _closed_form(seq, species)
    profile = _raised_cosine(cfgs[0])  # every width's windows take the same steps
    # each grid is freed before the next width builds its own
    residuals = [
        _residual(
            _proper_time(_build_grid(layout, profile), seq, species, env, ics)[0],
            dtau_closed,
            scale,
        )
        for layout in layouts
    ]

    for (w_a, r_a), (w_b, r_b) in zip(zip(widths, residuals), zip(widths[1:], residuals[1:])):
        if r_a > _RESIDUAL_FLOOR and r_b > _RESIDUAL_FLOOR and r_b >= r_a:
            raise OracleAccuracyError(
                f"residual failed to decrease from width {w_a!r} ({r_a:.3e}) "
                f"to {w_b!r} ({r_b:.3e})"
            )

    above = [(w, r) for w, r in zip(widths, residuals) if r > _RESIDUAL_FLOOR]
    if len(above) >= 2:
        import numpy as np

        logs_w = np.log([w for w, _ in above])
        logs_r = np.log([r for _, r in above])
        exponent = float(np.polyfit(logs_w, logs_r, 1)[0])
    else:
        exponent = math.nan

    return ConvergenceStudy(
        widths=tuple(widths),
        residuals=tuple(residuals),
        fitted_exponent=exponent,
        floor=_RESIDUAL_FLOOR,
    )

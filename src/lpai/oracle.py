"""Independent numeric cross-check of the closed-form phase decomposition.

The closed forms treat laser kicks as instantaneous.  This module replaces
each kick by a finite window of width sigma carrying the same impulse
(top-hat a = hbar*k/(m*sigma), or a raised cosine with the same area),
integrates the classical motion with a fixed-step RK4 aligned to the window
edges, and evaluates the proper-time difference and the interaction action by
composite Simpson quadrature.  Nothing here reuses the closed-form results
except in the final residual comparison.

Accuracy notes, which the tests lean on:

- The grid places breakpoints at every window edge and an even number of
  steps per segment, so Simpson pairs never straddle a discontinuity.  For
  top-hat windows the acceleration is constant on every step (edge samples
  take the one-sided value belonging to the step), which makes both the RK4
  march and the quadrature exact up to rounding; what remains in the residual
  is genuinely the physics of the finite width.
- The proper-time integrand is evaluated from a separately integrated
  branch-difference system (initial conditions zero, kick-difference forcing,
  gravity cancels), as -dv*(v1+v2)/2 + g*dz.  Forming v1 - v2 from the two
  branch solutions instead would inherit the rounding of the large common
  free-fall signal and ruin the gravity-independence of the result.
- Pulse windows span [t_ell, t_ell + sigma].  For sequences closed in phase
  space the common sigma/2 centroid shift drops out of every closed-form
  quantity, so no recentering is needed.

Each array is built once per call, and only what a result reads is marched:
the proper time reads the two branches' velocities, so their marches form no
positions.  Top-hat windows leave the three RK4 stage accelerations equal, so
one array serves all three.  Cosine windows evaluate their profile once per
node and once per step midpoint; the left and right stages are views of the
node profile, and the window quadrature weights are that same array.  A grid
over MAX_ORACLE_NODES is refused before anything is allocated, and a kick
amplitude or a proper-time integrand beyond the float range raises
NonFiniteResultError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import constants, _kernels
from ._exactsum import array_fsum
from .core import (
    GravityEnv,
    InitialConditions,
    PulseSequence,
    Species,
    require_valid,
)
from .errors import NonFiniteResultError, OracleAccuracyError, OracleConfigError
from .geometry import _closure_scales
from .kinematics import _branch_ks
from .phase import _laser_sum, gravito_recoil_phase, laser_phase, recoil_phase
from .phase import proper_time_difference as proper_time_closed

_SHAPES = ("tophat", "cosine")
_IMPULSE_HARD_LIMIT = 1e-6
_RESIDUAL_FLOOR = 1e-12
# Grid nodes one call may allocate.  Peak resident set of a whole process at
# this budget (cosine windows, the largest case): 823 MB for oracle_report,
# proper_time_numeric and `lpai oracle`, 701 MB for action_numeric, 640 MB
# for integrate_branch.
MAX_ORACLE_NODES = 8_000_000


@dataclass(frozen=True)
class OracleConfig:
    """Finite-pulse-width integration parameters.

    ``steps_per_segment`` takes any integer type (``operator.index``) and is
    stored as a Python int; a float or a string is refused.
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
class SampledTrajectory:
    """One branch on the integration grid: node times, positions, velocities."""

    t: np.ndarray
    z: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class OracleActions:
    """Numeric interaction action per hbar, decomposed."""

    total: float
    recoil_part: float
    gravito_recoil_part: float
    laser_part: float
    identity_residual: float  # relative, nan when the closed form is undefined


@dataclass(frozen=True)
class OracleResult:
    """Numeric-versus-closed-form comparison for one configuration."""

    sigma: float
    steps_per_segment: int
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


def _check_config(seq: PulseSequence, cfg: OracleConfig) -> None:
    times = seq.times
    sigma = cfg.pulse_width
    if len(times) >= 2:
        spacing = min(b - a for a, b in zip(times[:-1], times[1:]))
        if not sigma < 0.5 * spacing:
            raise OracleConfigError(
                f"pulse_width {sigma!r} must be smaller than half the minimum "
                f"pulse spacing {spacing!r}"
            )
    for t in times:
        if t + sigma <= t:
            raise OracleConfigError(
                f"pulse_width {sigma!r} is below the time resolution at t = {t!r}"
            )


@dataclass(frozen=True)
class _Grid:
    ts: np.ndarray
    h: np.ndarray
    windows: tuple[tuple[int, int], ...]  # node index span of each pulse window
    widths: tuple[float, ...]  # realized width ts[i1] - ts[i0] of each window
    # cosine: per window, the profile on its nodes ts[i0:i1+1] and on its step midpoints
    profiles: tuple[tuple[np.ndarray, np.ndarray], ...] | None


def _breakpoints(seq: PulseSequence, sigma: float) -> tuple[list[float], list[float]]:
    """Window end times, and the sorted grid breakpoints."""
    times = seq.times
    window_ends = [t + sigma for t in times]
    t_stop = max([seq.duration, *window_ends])
    return window_ends, sorted({min([0.0, *times]), t_stop, *times, *window_ends})


def _require_budget(breakpoints: Sequence[float], steps_per_segment: int) -> int:
    """Even step count per segment, once the grid fits in MAX_ORACLE_NODES."""
    n = steps_per_segment + (steps_per_segment % 2)
    nodes = (len(breakpoints) - 1) * n + 1
    if nodes > MAX_ORACLE_NODES:
        raise OracleConfigError(
            f"{len(breakpoints) - 1} segments of {n} steps need {nodes} grid nodes, "
            f"more than {MAX_ORACLE_NODES}; lower steps_per_segment"
        )
    return n


def _cosine(t: np.ndarray, start: float, width: float) -> np.ndarray:
    """Raised-cosine window profile 1 - cos(2 pi x / width), x = t - start clipped to the window."""
    return 1.0 - np.cos(2.0 * np.pi * np.clip(t - start, 0.0, width) / width)


def _build_grid(seq: PulseSequence, cfg: OracleConfig) -> _Grid:
    window_ends, breakpoints = _breakpoints(seq, cfg.pulse_width)
    n = _require_budget(breakpoints, cfg.steps_per_segment)
    pieces = [np.linspace(a, b, n + 1)[:-1] for a, b in zip(breakpoints[:-1], breakpoints[1:])]
    pieces.append(np.array([breakpoints[-1]]))
    ts = np.concatenate(pieces)
    h = np.diff(ts)

    position = {bp: i for i, bp in enumerate(breakpoints)}
    windows = tuple(
        (position[t] * n, position[end] * n) for t, end in zip(seq.times, window_ends)
    )
    widths = tuple(float(ts[i1] - ts[i0]) for i0, i1 in windows)
    profiles = None
    if cfg.pulse_shape == "cosine":
        profiles = tuple(
            (_cosine(ts[i0 : i1 + 1], t, width), _cosine(ts[i0:i1] + 0.5 * h[i0:i1], t, width))
            for t, (i0, i1), width in zip(seq.times, windows, widths)
        )
    return _Grid(ts=ts, h=h, windows=windows, widths=widths, profiles=profiles)


def _stage_accels(grid: _Grid, ks: Sequence[float], mass: float, g: float):
    """Acceleration arrays (left, mid, right) for one forcing: -g plus windows.

    Steps are assigned to windows by index through grid.windows rather than
    by comparing stage times against the window edges: t_ell + sigma - t_ell
    does not round back to sigma in general, and one misassigned edge sample
    costs a whole Simpson weight of impulse.  For the same reason the
    amplitude is normalized by the realized width ts[i1] - ts[i0] instead of
    the nominal one; otherwise every kick is off by a relative eps * t/sigma
    and gravity couples to the broken closure.

    Top-hat windows, and a forcing without kicks, leave the three stages
    equal, so one array is returned three times.  A cosine window's left and
    right stages read its node profile without the last and the first node.
    """
    base = np.full(grid.h.size, -float(g))
    kicks = [(i, _kick_amplitude(k, mass, grid.widths[i])) for i, k in enumerate(ks) if k != 0.0]
    if grid.profiles is None or not kicks:
        for i, amp in kicks:
            i0, i1 = grid.windows[i]
            base[i0:i1] += amp
        return base, base, base
    stages = (base, base.copy(), base.copy())
    for i, amp in kicks:
        i0, i1 = grid.windows[i]
        nodes, mid = grid.profiles[i]
        for arr, profile in zip(stages, (nodes[:-1], mid, nodes[1:])):
            arr[i0:i1] += amp * profile
    return stages


def _kick_amplitude(k: float, mass: float, width: float) -> float:
    """hbar*k/(m*width), refused with NonFiniteResultError beyond the float range."""
    denom = mass * width  # underflows to 0 for a subnormal mass
    amp = constants.HBAR * k / denom if denom != 0.0 else math.inf
    if not math.isfinite(amp):
        raise NonFiniteResultError(
            f"kick amplitude hbar*k/(m*width) is not finite for k = {k!r}, "
            f"mass = {mass!r}, width = {width!r}"
        )
    return amp


def _simpson(f: np.ndarray, ts: np.ndarray) -> float:
    """Composite Simpson over consecutive node pairs, correctly rounded.

    The per-pair terms are reduced by array_fsum, which returns math.fsum's
    value bit for bit.
    """
    if f.size < 3:
        return 0.0
    widths = ts[2::2] - ts[:-2:2]
    terms = (widths / 6.0) * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    return array_fsum(terms)


def _impulse_check(grid: _Grid, v: np.ndarray, ks: Sequence[float], mass: float, g: float) -> None:
    scale = max((constants.HBAR * abs(k) / mass for k in ks), default=0.0)
    if scale == 0.0:
        return
    worst = 0.0
    for (i0, i1), k, width in zip(grid.windows, ks, grid.widths):
        expected = constants.HBAR * k / mass - g * width
        worst = max(worst, abs((v[i1] - v[i0]) - expected))
    if worst > _IMPULSE_HARD_LIMIT * scale:
        raise OracleAccuracyError(
            f"velocity change per pulse off by {worst / scale:.3e} relative "
            f"(limit {_IMPULSE_HARD_LIMIT:.0e}); raise steps_per_segment"
        )


def _march_branch(grid: _Grid, ks, mass: float, g: float, z0: float | None, v0: float):
    """One impulse-checked branch: (z, v) on the grid nodes, z None when z0 is."""
    z, v = _kernels.march_rk4(grid.h, *_stage_accels(grid, ks, mass, g), z0, v0)
    _impulse_check(grid, v, ks, mass, g)
    return z, v


def integrate_branch(
    seq: PulseSequence,
    branch: int,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    cfg: OracleConfig,
) -> SampledTrajectory:
    """Integrate one branch with finite-width pulses; returns node samples.

    Raises OracleAccuracyError when the velocity change across a pulse
    window misses its impulse, as on a grid too coarse for the window.
    """
    grid = _quadrature_grid(seq, cfg)
    z, v = _march_branch(grid, _branch_ks(seq, branch), species.mass, env.g, ics.z0, ics.v0)
    return SampledTrajectory(t=grid.ts, z=z, v=v)


def _quadrature_grid(seq: PulseSequence, cfg: OracleConfig) -> _Grid:
    require_valid(seq, structural_only=True)
    _check_config(seq, cfg)
    return _build_grid(seq, cfg)


def _proper_time(grid: _Grid, seq, species, env, ics) -> tuple[float, float, float]:
    """Numeric delta_tau, and the end point (dz, dv) of the branch-difference system.

    The integrand reads the branch velocities only, so the branch marches
    form no positions.  An integrand beyond the float range (a tiny mass or a
    huge k) raises NonFiniteResultError.
    """
    m = species.mass
    k1 = _branch_ks(seq, 1)
    k2 = _branch_ks(seq, 2)
    dk = [a - b for a, b in zip(k1, k2)]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        _, v1 = _march_branch(grid, k1, m, env.g, None, ics.v0)
        _, v2 = _march_branch(grid, k2, m, env.g, None, ics.v0)
        dz, dv = _kernels.march_rk4(grid.h, *_stage_accels(grid, dk, m, 0.0), 0.0, 0.0)
        f = (-0.5 * dv * (v1 + v2) + env.g * dz) / constants.C**2
    if not np.isfinite(f).all():
        raise NonFiniteResultError("the proper-time integrand is not finite on the oracle grid")
    return _simpson(f, grid.ts), float(dz[-1]), float(dv[-1])


def proper_time_numeric(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    cfg: OracleConfig,
) -> float:
    """Branch proper-time difference by quadrature on the integrated motion."""
    return _proper_time(_quadrature_grid(seq, cfg), seq, species, env, ics)[0]


def _window_terms(grid: _Grid, *forcings) -> list[list[float]]:
    """Per (ks, z) forcing, k * (window average of z) for every window with k != 0.

    Each window's weights are built once and shared by the forcings; cosine
    weights are the window's node profile.
    """
    terms: list[list[float]] = [[] for _ in forcings]
    for i, ((i0, i1), width) in enumerate(zip(grid.windows, grid.widths)):
        ts = grid.ts[i0 : i1 + 1]
        w = None
        for out, (ks, z) in zip(terms, forcings):
            if ks[i] != 0.0:
                if w is None:
                    if grid.profiles is None:
                        w = 1.0 / width
                    else:
                        w = grid.profiles[i][0] / width
                out.append(ks[i] * _simpson(w * z[i0 : i1 + 1], ts))
    return terms


def action_numeric(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    cfg: OracleConfig,
) -> OracleActions:
    """Interaction action per hbar by window quadrature, decomposed.

    total = sum over pulses of k^(1)*avg(z1) - k^(2)*avg(z2) plus the laser
    terms, where avg is the window-weighted average of the integrated branch
    position.  The gravito-recoil part repeats the sum with the differential
    wave number against the pulse-free trajectory; the recoil part is the
    remainder.  identity_residual compares total against its closed-form
    counterpart 2*recoil + gravito_recoil + laser, relative to the larger of
    the two natural scales, and is nan when the closed form refuses the
    input (open or degenerate sequences).
    """
    grid = _quadrature_grid(seq, cfg)
    k1 = _branch_ks(seq, 1)
    k2 = _branch_ks(seq, 2)
    z1, _ = _march_branch(grid, k1, species.mass, env.g, ics.z0, ics.v0)
    z2, _ = _march_branch(grid, k2, species.mass, env.g, ics.z0, ics.v0)
    z_g, _ = _march_branch(grid, (), species.mass, env.g, ics.z0, ics.v0)  # pulse-free
    dk = [p.delta_k for p in seq.pulses]
    upper, lower, gravito = _window_terms(grid, (k1, z1), ([-k for k in k2], z2), (dk, z_g))
    kick_total = math.fsum(upper + lower)
    gravito_part = math.fsum(gravito)
    laser_part = _laser_sum(seq)
    total = kick_total + laser_part
    recoil_part = kick_total - gravito_part

    try:
        closed = (
            2.0 * recoil_phase(seq, species)
            + gravito_recoil_phase(seq, env, ics)
            + laser_phase(seq)
        )
    except ValueError:
        identity_residual = math.nan
    else:
        scale = max(abs(closed), _action_scale(seq, species, env, ics))
        diff = abs(total - closed)
        identity_residual = diff / scale if scale > 0.0 else (0.0 if diff == 0.0 else math.inf)

    return OracleActions(
        total=total,
        recoil_part=recoil_part,
        gravito_recoil_part=gravito_part,
        laser_part=laser_part,
        identity_residual=identity_residual,
    )


def _time_span(seq: PulseSequence) -> float:
    times = seq.times
    if not times:
        return seq.duration
    return max(seq.duration, times[-1]) - min(0.0, times[0])


def _delta_tau_scale(seq: PulseSequence, species: Species) -> float:
    vr = constants.HBAR * _closure_scales(seq)[0] / (species.mass * constants.C)
    return vr * vr * _time_span(seq)


def _action_scale(seq, species, env, ics) -> float:
    kmax, _ = _closure_scales(seq)
    span = _time_span(seq)
    z_scale = abs(ics.z0) + abs(ics.v0) * span + 0.5 * abs(env.g) * span * span
    recoil_scale = constants.HBAR * kmax * kmax * span / species.mass
    return recoil_scale + kmax * z_scale


def oracle_report(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    cfg: OracleConfig,
) -> OracleResult:
    """Full numeric-versus-closed-form comparison for a closed sequence."""
    grid = _quadrature_grid(seq, cfg)
    dtau_num, dz_end, dv_end = _proper_time(grid, seq, species, env, ics)
    z_g, _ = _march_branch(grid, (), species.mass, env.g, ics.z0, ics.v0)  # pulse-free
    (gravito_terms,) = _window_terms(grid, ([p.delta_k for p in seq.pulses], z_g))
    gravito_num = math.fsum(gravito_terms)

    dtau_closed = proper_time_closed(seq, species)
    omega_c = species.mass * constants.C**2 / constants.HBAR
    total_num = omega_c * dtau_num + gravito_num + _laser_sum(seq)

    diff = abs(dtau_num - dtau_closed)
    denom = max(abs(dtau_closed), _delta_tau_scale(seq, species))
    residual = diff / denom if denom > 0.0 else (0.0 if diff == 0.0 else math.inf)

    return OracleResult(
        sigma=cfg.pulse_width,
        steps_per_segment=cfg.steps_per_segment,
        pulse_shape=cfg.pulse_shape,
        delta_tau_numeric=dtau_num,
        delta_tau_closed=dtau_closed,
        residual_vs_closed_form=residual,
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

    for w in widths:
        _require_budget(_breakpoints(seq, w)[1], steps_per_segment)

    residuals = []
    for w in widths:
        cfg = OracleConfig(pulse_width=w, steps_per_segment=steps_per_segment, pulse_shape=pulse_shape)
        residuals.append(oracle_report(seq, species, env, ics, cfg).residual_vs_closed_form)

    for (w_a, r_a), (w_b, r_b) in zip(zip(widths, residuals), zip(widths[1:], residuals[1:])):
        if r_a > _RESIDUAL_FLOOR and r_b > _RESIDUAL_FLOOR and r_b >= r_a:
            raise OracleAccuracyError(
                f"residual failed to decrease from width {w_a!r} ({r_a:.3e}) "
                f"to {w_b!r} ({r_b:.3e})"
            )

    above = [(w, r) for w, r in zip(widths, residuals) if r > _RESIDUAL_FLOOR]
    if len(above) >= 2:
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

"""Independent numeric cross-check of the closed-form phase decomposition.

The closed forms treat laser kicks as instantaneous.  This module replaces
each kick by a finite window [t, t + sigma] carrying the same impulse, with
the profile P of a top-hat (P = 1) or a raised cosine (P = 1 - cos(2 pi
tau/w)), both of mean 1 over a window of width w, and integrates the
classical motion and the branch proper-time difference segment by segment.
Nothing here reuses the closed-form results except in the final residual
comparison, whose closed-form delta_tau and scale read one PulseTable
(_closed_form).  oracle_report forms every quantity of its result;
convergence_study reads only the residual, so it takes the closed form once
per study and, per width, integrates the proper time alone: no launch
trajectory, no window averages and no total phase.

The segment derivation, which the tests lean on:

- _layout sorts the window edges, the start min(0, t_0) and the end
  max(last window's end, duration) into breakpoints, so every segment is
  free flight or one window.  On each, every marched system has a known,
  state-independent acceleration: -g (-2g for the branch sum, 0 for the
  branch difference) plus, on a window kicked with k, A P(tau) with
  A = hbar*k/(m*w).  With S the integral of P from the window's start and
  Q_w the integral of S, both shapes give S(w) = w and Q_w(w) = w**2/2, so
  _kernels.march_rk4 with one step per segment and the step weights u = h
  and p = h**2/2 gives the state at every breakpoint exactly, up to rounding.
- The proper-time integrand is (g*dz - dv*(v1 + v2)/2) / c**2, read from a
  branch-difference system (start at rest, kick-difference forcing, gravity
  cancels) and the branch sum v1 + v2 (kicks k1 + k2, gravity 2g, start
  2 v0).  Forming v1 - v2 from two branch solutions instead would inherit
  the rounding of the large common free-fall signal.  A window needs three
  shape constants, int(tau*S) = a*w**3, int(S**2) = b*w**3 and
  int(Q_w) = c*w**3:

      top-hat  a = b = 1/3,             c = 1/6
      cosine   a = 1/3 + 1/(4 pi**2),   b = 1/3 + 5/(8 pi**2),
               c = 1/6 - 1/(4 pi**2)

  By parts int(Q_w) = w*Q_w(w) - int(tau*S), so a + c = 1/2 for any
  profile: a and c cancel out of the mean below, which reads b alone.
  With D and D' the values
  of dv/c**2 at a segment's start and end, V and V' those of v1 + v2, Z
  that of dz/c**2 and J_d (over c**2) and J_s the two systems' velocity
  jumps A*w, the integrand's mean over the segment is

      g*(Z + D*w/2) - (D*V + D'*V')/4 + kappa*J_d*J_s,  kappa = (1/2 - b)/2:

  the trapezoid of dv*(v1 + v2), which is what kicks at the windows'
  centroids would give, plus the finite-width term, which free flight
  lacks.  kappa is 1/12 for top-hat and (1 - 15/(4 pi**2))/12 for cosine
  windows.  delta_tau is math.fsum of each segment's mean times its width,
  up to the last window's end, since after it dv is the closure residual
  and free flight would integrate only rounding.
- So on a closed sequence delta_tau_numeric - delta_tau_closed =
  kappa*sigma*Q, Q = hbar**2 * sum(k1**2 - k2**2) / (m*c)**2: the
  finite-duration shift of Bertoldi, Minardi & Prevedelli (PRA 99, 033619,
  2019).  The common sigma/2 centroid shift drops out of every closed-form
  quantity of a closed sequence, so no recentering is needed.
- A window's average of the pulse-free trajectory, weighted by P/w, is
  z + v*w/2 - (g/2)*w**2*d at its start values z and v: d = 1/3 for
  top-hat and 1/3 - 1/(2 pi**2) for cosine windows.

A window kicks with hbar*k/(m*w) for its realized width w = fl(t + sigma) -
t rather than sigma, since t + sigma - t does not round back to sigma and
gravity would couple to the broken closure.  _layout is the one function
that relates a config to a sequence, and every entry point lays its config
out first: a width too wide for the pulse spacing and a window that rounds
to empty (t + sigma == t) are refused before anything is marched.  A kick
amplitude, a segment's mean integrand or the proper-time sum beyond the
float range raises NonFiniteResultError.  The oracle imports no numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import constants, _kernels
from ._exactsum import fsum_or_exact
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

# Each pulse shape's kappa and d of the segment derivation.
_SHAPES = {
    "tophat": (1.0 / 12.0, 1.0 / 3.0),
    "cosine": ((1.0 - 15.0 / (4.0 * math.pi**2)) / 12.0, 1.0 / 3.0 - 1.0 / (2.0 * math.pi**2)),
}
_RESIDUAL_FLOOR = 1e-12


@dataclass(frozen=True)
class OracleConfig:
    """Finite-pulse-width integration parameters.

    ``steps_per_segment`` is validated, an integer (``operator.index``) of
    at least 100 stored as a Python int, and read by nothing: every segment
    is integrated in closed form.  It stays for the callers that pass it.
    What depends on the sequence too (the width against the pulse spacing
    and the time resolution) is checked where the config is laid out,
    before anything is marched.
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
                f"pulse_shape must be one of {tuple(_SHAPES)}, got {self.pulse_shape!r}"
            )


@dataclass(frozen=True)
class OracleResult:
    """Numeric-versus-closed-form comparison for one configuration."""

    sigma: float
    pulse_shape: str
    delta_tau_numeric: float
    delta_tau_closed: float
    residual_vs_closed_form: float
    gravito_recoil_numeric: float
    total_phase_numeric: float
    closure_residuals: tuple[float, float]  # (position m, velocity m/s) at the last breakpoint

    def as_report(self) -> dict:
        """The report `lpai oracle` prints, in print order and under its short names."""
        return {
            "sigma": self.sigma,
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


@dataclass(frozen=True)
class _Segments:
    """A laid-out config: the breakpoints, and each segment's width and step weights."""

    ts: list[float]
    h: list[float]  # b - a, also the step weight u
    p: list[float]  # h * h / 2
    windows: tuple[int, ...]  # the segment of each pulse's window [t, t + sigma]


def _layout(seq: PulseSequence, cfg: OracleConfig) -> _Segments:
    """The segments of cfg on seq: the one rule relating a config to a sequence.

    Refuses, in this order and before anything is marched, a width not
    below half the least pulse spacing and a window that rounds to empty.
    """
    times, sigma = seq.times, cfg.pulse_width
    if len(times) >= 2:
        spacing = min(b - a for a, b in zip(times[:-1], times[1:]))
        if not sigma < 0.5 * spacing:
            raise OracleConfigError(
                f"pulse_width {sigma!r} must be smaller than half the minimum "
                f"pulse spacing {spacing!r}"
            )
    ends = [t + sigma for t in times]
    for t, end in zip(times, ends):
        if end == t:
            raise OracleConfigError(
                f"pulse_width {sigma!r} is below the time resolution at t = {t!r}"
            )
    edges = {*times, *ends}
    lo, hi = min(edges, default=0.0), max(edges, default=0.0)
    ts = sorted({min(0.0, lo), *edges, max(hi, seq.duration)})
    h = [b - a for a, b in zip(ts, ts[1:])]
    index = {t: i for i, t in enumerate(ts)}
    return _Segments(ts, h, [w * w * 0.5 for w in h], tuple(index[t] for t in times))


def _kick_amplitude(k: float, mass: float, width: float) -> float:
    """hbar*k/(m*width); NonFiniteResultError beyond the float range."""
    denom = mass * width  # underflows to 0 for a subnormal mass
    amp = constants.HBAR * k / denom if denom != 0.0 else math.inf
    if not math.isfinite(amp):
        raise NonFiniteResultError(
            f"kick amplitude hbar*k/(m*width) is not finite for k = {k!r}, "
            f"mass = {mass!r}, window width = {width!r}"
        )
    return amp


def _march(seg: _Segments, ks: Sequence[float], mass: float, g: float, z0, v0: float):
    """march_rk4 of one forcing, one step per segment: (z, v) at the breakpoints,
    z None when z0 is, and each segment's kick amplitude (0.0 where none)."""
    amps, kicks = [0.0] * len(seg.h), []
    for i, k in zip(seg.windows, ks):
        if k != 0.0:
            amps[i] = _kick_amplitude(k, mass, seg.h[i])
            kicks.append((i, i + 1, amps[i]))
    z, v = _kernels.march_rk4(seg.h, seg.h, seg.p, kicks, g, z0, v0)
    return z, v, amps


def _proper_time(seg: _Segments, seq, species, env, ics, shape: str):
    """Numeric delta_tau, and the end point (dz, dv) of the branch-difference system.

    A segment's mean integrand beyond the float range (a subnormal mass or a
    huge k) raises NonFiniteResultError, and so does a sum beyond it.
    """
    m, g, c2, kappa = species.mass, env.g, constants.C**2, _SHAPES[shape][0]
    k_sum = [x + y for x, y in zip(_branch_ks(seq, 1), _branch_ks(seq, 2))]
    _, v_sum, amp_sum = _march(seg, k_sum, m, 2.0 * g, None, 2.0 * ics.v0)
    dz, dv, amp_diff = _march(seg, [p.delta_k for p in seq.pulses], m, 0.0, 0.0, 0.0)
    terms = []
    for i in range(max(seg.windows, default=-1) + 1):  # up to the last window's end
        w, D, D1 = seg.h[i], dv[i] / c2, dv[i + 1] / c2
        mean = (
            g * (dz[i] / c2 + 0.5 * D * w)
            - (0.25 * D) * v_sum[i]
            - (0.25 * D1) * v_sum[i + 1]
            + kappa * (amp_diff[i] * w / c2) * (amp_sum[i] * w)
        )
        if not math.isfinite(mean):
            raise NonFiniteResultError(
                f"the proper-time integrand is not finite on the segment from t = {seg.ts[i]!r}"
            )
        terms.append(mean * w)
    try:
        dtau = math.fsum(terms)
    except (ValueError, OverflowError):  # inf - inf, or partial sums beyond the floats
        dtau = math.nan
    if not math.isfinite(dtau):
        raise NonFiniteResultError("the proper-time integral is not finite")
    return dtau, dz[-1], dv[-1]


def proper_time_numeric(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
    cfg: OracleConfig,
) -> float:
    """Branch proper-time difference, integrated segment by segment on the marched motion."""
    require_valid(seq, structural_only=True)
    return _proper_time(_layout(seq, cfg), seq, species, env, ics, cfg.pulse_shape)[0]


def _closed_form(seq: PulseSequence, species: Species) -> tuple[float, float]:
    """Closed-form delta_tau, and the least denominator of a residual against it.

    That scale is (largest recoil velocity / c)^2 times the span from
    min(0, t_0) to seq.duration.  Both read the one PulseTable of
    _closed_sum; an open sequence raises OpenSequenceError.
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
    require_valid(seq, structural_only=True)
    seg = _layout(seq, cfg)
    dtau_closed, scale = _closed_form(seq, species)  # an open sequence is refused unmarched
    dtau_num, dz_end, dv_end = _proper_time(seg, seq, species, env, ics, cfg.pulse_shape)
    z, v, _ = _march(seg, (), species.mass, env.g, ics.z0, ics.v0)  # pulse-free
    # math.fsum of the rounded products k * (window average of z_g)
    # (PulseTable.gravito_sum sums Dekker's exact products instead), through
    # _exactsum.fsum_or_exact: where fsum raises or is not finite, the
    # products are summed exactly, and a sum beyond the float range or a
    # window average that is not finite raises NonFiniteResultError
    d = _SHAPES[cfg.pulse_shape][1]
    factors, averages = [], []
    for i, k in zip(seg.windows, (p.delta_k for p in seq.pulses)):
        if k != 0.0:
            w = seg.h[i]
            factors.append(k)
            averages.append(z[i] + v[i] * (0.5 * w) - (0.5 * env.g) * (w * w) * d)
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

    ``steps_per_segment`` is validated as OracleConfig's and read by
    nothing.  Every width is laid out first (_layout: its spacing and
    resolution), then the closed form (delta_tau and the residual scale) is
    taken once; so an invalid width or an open sequence is refused before
    anything is marched.  Each width then integrates the proper time only
    (two marches, the branch sum and the branch difference); its residual is
    oracle_report's residual_vs_closed_form at that width, bit for bit.

    Raises OracleAccuracyError if the residual grows between two widths that
    both sit above the rounding floor; fits log residual against log width
    by least squares over the above-floor points and reports the slope (nan
    when fewer than two points qualify).
    """
    widths = [float(w) for w in widths]
    if len(widths) < 2:
        raise OracleConfigError("need at least two widths for a convergence study")
    if any(b >= a for a, b in zip(widths[:-1], widths[1:])):
        raise OracleConfigError(f"widths must be strictly decreasing, got {widths!r}")

    require_valid(seq, structural_only=True)
    layouts = [_layout(seq, OracleConfig(w, steps_per_segment, pulse_shape)) for w in widths]
    dtau_closed, scale = _closed_form(seq, species)
    residuals = [
        _residual(_proper_time(seg, seq, species, env, ics, pulse_shape)[0], dtau_closed, scale)
        for seg in layouts
    ]

    for (w_a, r_a), (w_b, r_b) in zip(zip(widths, residuals), zip(widths[1:], residuals[1:])):
        if r_a > _RESIDUAL_FLOOR and r_b > _RESIDUAL_FLOOR and r_b >= r_a:
            raise OracleAccuracyError(
                f"residual failed to decrease from width {w_a!r} ({r_a:.3e}) "
                f"to {w_b!r} ({r_b:.3e})"
            )

    logs = [(math.log(w), math.log(r)) for w, r in zip(widths, residuals) if r > _RESIDUAL_FLOOR]
    exponent = math.nan
    if len(logs) >= 2:
        mx = math.fsum(x for x, _ in logs) / len(logs)
        my = math.fsum(y for _, y in logs) / len(logs)
        sxy = math.fsum((x - mx) * (y - my) for x, y in logs)
        exponent = sxy / math.fsum((x - mx) * (x - mx) for x, _ in logs)

    return ConvergenceStudy(
        widths=tuple(widths),
        residuals=tuple(residuals),
        fitted_exponent=exponent,
        floor=_RESIDUAL_FLOOR,
    )

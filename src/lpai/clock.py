"""Two-internal-state interference: per-state fringes and the visibility beat.

A superposition of two internal states with masses m +/- dm/2 accumulates
slightly different recoil phases on the two branches, because the recoil part
scales as 1/mass while the gravito-recoil and laser terms carry no mass.
Averaging the two exit-port signals without state postselection gives

  P = (P_a + P_b)/2 = (1 + cos(eta*Omega*dtau/2) * cos(carrier)) / 2

with carrier = eta*omega_C*dtau + gravito_recoil + laser_phase evaluated at
the mean mass, and eta = 1/(1 - (dm/2m)^2) the exact splitting correction.
The slow cosine is the visibility envelope; it vanishes when the two states
have fully dephased, eta*Omega*dtau = pi.

Numerics: carrier phases reach 1e11 rad at realistic parameters, where
cos(x - y) and cos(x)cos(y) + sin(x)sin(y) differ badly if x - y is formed in
floats first.  The per-state probabilities are therefore built by angle
addition from one shared (carrier, half-beat) pair, which keeps the averaged
signal on the closed form to machine precision.  Agreement with the
per-state totals, which the two state masses give for the same recoil double
sum, is asserted in phase space at a relative tolerance, since an ulp of a
1e11 rad carrier is itself ~1e-5 rad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .core import (
    ClockPair,
    GravityEnv,
    InitialConditions,
    PhaseBreakdown,
    PulseSequence,
    Species,
    compton_frequency,
)
from .errors import InternalConsistencyError, NonFiniteResultError
from .phase import (
    _closed_sum,
    _gravito_recoil_sum,
    _laser_sum,
    proper_time_difference,
    recoil_parts,
    recoil_sums,
    total_phase,
)

_CONSISTENCY_RTOL = 1e-12


@dataclass(frozen=True)
class BeatSignal:
    """Exit-port signal of a clock pair: per-state, combined, and envelope."""

    p_a: float
    p_b: float
    p_combined: float
    envelope: float
    carrier_phase: float
    delta_tau: float


def per_state_phase(
    seq: PulseSequence,
    clock: ClockPair,
    state: str,
    env: GravityEnv,
    ics: InitialConditions,
) -> PhaseBreakdown:
    """Phase decomposition for one internal state ("a" excited, "b" ground)."""
    return total_phase(seq, clock.state_species(state), env, ics)


def fringe(
    seq: PulseSequence,
    source: Species | ClockPair,
    env: GravityEnv,
    ics: InitialConditions,
    state: str | None = None,
) -> float:
    """Single-state exit probability (1 + cos(total))/2.

    Pass a Species directly, or a ClockPair together with state "a" or "b"
    for the postselected signal of one clock state.
    """
    if isinstance(source, ClockPair):
        if state is None:
            raise ValueError('a ClockPair needs state "a" or "b"')
        breakdown = per_state_phase(seq, source, state, env, ics)
    else:
        if state is not None:
            raise ValueError("state only applies to a ClockPair")
        breakdown = total_phase(seq, source, env, ics)
    return 0.5 * (1.0 + math.cos(breakdown.total_phase))


def _clip_probability(p: float) -> float:
    return min(1.0, max(0.0, p))


def _beat_row(
    clock: ClockPair, env: GravityEnv, ics: InitialConditions
) -> Callable[[PulseSequence, float], BeatSignal]:
    """beat's row body for clock: a function of a valid, closed seq and its S.

    eta, the state species and the mean mass's Compton frequency are worked
    out once, here, for every call of the returned function.
    """
    mean = Species(clock.mean_mass)
    states = (clock.state_species("a"), clock.state_species("b"))
    eta = clock.eta
    compton = compton_frequency(mean)
    half_beat_rate = 0.5 * eta * clock.splitting_omega

    def row(seq: PulseSequence, s: float) -> BeatSignal:
        dtau, _ = recoil_parts(s, mean)
        gk = _gravito_recoil_sum(seq, env, ics)
        lp = _laser_sum(seq)
        total_a, total_b = (
            PhaseBreakdown.assemble(*recoil_parts(s, state), gk, lp).total_phase
            for state in states
        )
        carrier = eta * (dtau * compton) + gk + lp
        half_beat = half_beat_rate * dtau
        if not (math.isfinite(carrier) and math.isfinite(half_beat)):
            raise NonFiniteResultError(
                f"beat carrier {carrier!r} rad and half-beat {half_beat!r} rad "
                f"for delta_tau = {dtau!r} s"
            )

        cos_c, sin_c = math.cos(carrier), math.sin(carrier)
        cos_d, sin_d = math.cos(half_beat), math.sin(half_beat)
        p_a = 0.5 * (1.0 + cos_c * cos_d + sin_c * sin_d)  # cos(carrier - half_beat)
        p_b = 0.5 * (1.0 + cos_c * cos_d - sin_c * sin_d)  # cos(carrier + half_beat)
        p_combined = 0.5 * (p_a + p_b)
        p_closed_form = 0.5 * (1.0 + cos_d * cos_c)

        scale = max(1.0, abs(carrier), abs(half_beat))
        tol = _CONSISTENCY_RTOL * scale
        mean_mismatch = abs(0.5 * (total_a + total_b) - carrier)
        half_mismatch = abs(0.5 * (total_b - total_a) - half_beat)
        prob_mismatch = abs(p_combined - p_closed_form)
        if mean_mismatch > tol or half_mismatch > tol or prob_mismatch > 1e-12:
            raise InternalConsistencyError(
                "beat signal routes disagree: "
                f"carrier mismatch {mean_mismatch:.3e} rad, "
                f"half-beat mismatch {half_mismatch:.3e} rad, "
                f"probability mismatch {prob_mismatch:.3e} "
                f"(tolerance {tol:.3e} rad)"
            )

        return BeatSignal(
            p_a=_clip_probability(p_a),
            p_b=_clip_probability(p_b),
            p_combined=_clip_probability(p_combined),
            envelope=cos_d,
            carrier_phase=carrier,
            delta_tau=dtau,
        )

    return row


def beat(
    seq: PulseSequence,
    clock: ClockPair,
    env: GravityEnv,
    ics: InitialConditions,
) -> BeatSignal:
    """Combined two-state signal with its visibility envelope.

    The sequence is validated once, checked for closure once and its S is
    formed once.  The returned probabilities come from the shared
    (carrier, half-beat) angles of the mean-mass delta_tau.  The consistency
    check compares them with the per-state totals that the two state-mass
    formulas give for the same S, at a relative tolerance of 1e-12, and
    raises InternalConsistencyError if the two routes disagree; a nan or
    infinite carrier or half-beat raises NonFiniteResultError.  beat_rows
    runs the same row body on the S of each row of a grid.
    """
    return _beat_row(clock, env, ics)(seq, _closed_sum(seq, Species(clock.mean_mass)))


def beat_rows(
    build: Callable[..., PulseSequence],
    grid: Iterable[tuple[float, ...]],
    clock: ClockPair,
    env: GravityEnv,
    ics: InitialConditions,
) -> Iterator[BeatSignal | None]:
    """beat(build(*params), clock, env, ics) for each params of grid.

    Each row forms S once (phase.recoil_sums, where None marks a degenerate
    row) and runs beat's row body on it, so every value has beat's bits and
    a failing row raises beat's exception.
    """
    row = _beat_row(clock, env, ics)
    for built in recoil_sums(build, grid, Species(clock.mean_mass)):
        yield None if built is None else row(*built)


def clock_limit_phase(seq: PulseSequence, clock: ClockPair) -> tuple[float, float]:
    """Beat argument eta*Omega*dtau and its small-splitting limit Omega*dtau.

    The second value is what an idealized point clock with transition rate
    Omega would dephase by; the first keeps the exact mass-splitting factor.
    Gravity and launch conditions never enter: dtau does not depend on them.
    """
    dtau = proper_time_difference(seq, Species(clock.mean_mass, label=clock.label))
    phase_eta1 = clock.splitting_omega * dtau
    return clock.eta * phase_eta1, phase_eta1


def visibility_scan(
    builder: Callable[[float], PulseSequence],
    times: Iterable[float],
    clock: ClockPair,
) -> list[tuple[float, float]]:
    """Envelope cos(eta*Omega*dtau/2) over a geometry family parameterized by T.

    Rows come from phase.recoil_sums, one S per row formed in blocks, and
    carry clock_limit_phase's bits; sequences of different pulse counts are
    gathered separately.  T = 0 rows are emitted degenerately as (0.0, 1.0)
    without invoking the builder (builders require positive T).
    """
    times = [float(t) for t in times]
    mean = Species(clock.mean_mass, label=clock.label)
    eta = clock.eta
    rows: list[tuple[float, float]] = []
    for t_sep, row in zip(times, recoil_sums(builder, [(t,) for t in times], mean)):
        if row is None:
            rows.append((0.0, 1.0))
            continue
        dtau, _ = recoil_parts(row[1], mean)
        rows.append((t_sep, math.cos(0.5 * (eta * (clock.splitting_omega * dtau)))))
    return rows

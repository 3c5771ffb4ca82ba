"""Closed-form phase decomposition of a branch-dependent pulse sequence.

For a sequence closed in phase space the exit-port phase difference between
the two branches splits into three pieces:

  total = recoil_phase + gravito_recoil + laser_phase

where recoil_phase = omega_C * delta_tau is the special-relativistic part
driven purely by the photon recoils, gravito_recoil samples the launch
trajectory z_g at the pulse times with weights Delta k_ell, and laser_phase
sums the imprinted laser phase differences.  All three are branch-1 minus
branch-2 conventions, all phases are radians.

The recoil double sum S spans many orders of magnitude and cancels almost
completely for symmetric geometries, so _exactsum.PulseTable forms it
exactly from the pulse fields and rounds it once: the correctly rounded real
sum over the rounded time differences.  That keeps delta_tau bit for bit
under changes that only add mutually cancelling pulse pairs (a pause in a
symmetric geometry, say).  One PulseTable per call is the one reader of the
times and wave numbers: the closure moments and scales, S and the
gravito-recoil sum (PulseTable.gravito_sum) all come from it.  The
gravito-recoil and laser sums are correctly rounded through
_exactsum.fsum_or_exact.  An S, gravito-recoil or laser sum beyond the float
range, a non-finite z_g or delta_k or a time difference that overflows raises
NonFiniteResultError.
"""

from __future__ import annotations

import math

from . import constants
from ._exactsum import PulseTable, fsum_or_exact
from .core import (
    GravityEnv,
    InitialConditions,
    PhaseBreakdown,
    PulseSequence,
    Species,
    require_valid,
)
from .errors import NonFiniteResultError, OpenSequenceError
from .geometry import closure_check


def recoil_double_sum(seq: PulseSequence, table: PulseTable | None = None) -> float:
    """Branch-differential sum of k_n*k_ell*(t_n - t_ell) over pulse pairs.

    S = sum over n, sum over ell < n of [k_n^(1) k_ell^(1) - k_n^(2)
    k_ell^(2)] fl(t_n - t_ell) in s/m^2, correctly rounded given the rounded
    time differences (see _exactsum.PulseTable).  Raises NonFiniteResultError
    when a time difference overflows or S lies beyond the float range.
    table, when given, is PulseTable(seq.pulses), shared with closure_check.
    """
    return (table or PulseTable(seq.pulses)).recoil_sum()


def recoil_parts(s: float, mass: float) -> tuple[float, float]:
    """(delta_tau, recoil phase) for the recoil double sum s and a state mass in kg.

    mass is a Species' mass or a ClockPair state mass, both checked positive
    and finite at construction; omega_C is compton_frequency's m c^2 / hbar.
    Raises NonFiniteResultError when either result is nan or infinite, as
    for a mass so small that hbar*S/m overflows.
    """
    recoil = 0.5 * constants.HBAR * s / mass
    delta_tau = recoil / (mass * constants.C**2 / constants.HBAR)
    if not (math.isfinite(delta_tau) and math.isfinite(recoil)):
        raise NonFiniteResultError(
            f"delta_tau = {delta_tau!r} s and recoil phase = {recoil!r} rad for "
            f"S = {s!r} s/m^2 and mass {mass!r} kg"
        )
    return delta_tau, recoil


def _closed_sum(seq: PulseSequence, species: Species) -> tuple[float, PulseTable]:
    """S of seq and its PulseTable, after require_valid and the closure gate.

    The closure moments, their scales and S read the one table, returned
    for the gravito-recoil sum and the oracle's delta_tau scale to read as
    well.  An open sequence raises OpenSequenceError; an S beyond the float
    range raises NonFiniteResultError.
    """
    require_valid(seq)
    table = PulseTable(seq.pulses)
    report = closure_check(seq, species, table)
    if not report.closed:
        raise OpenSequenceError(
            "sequence is not closed in phase space "
            f"(kick moment {report.moment0:.3e} /m, "
            f"time-weighted moment {report.moment1:.3e} s/m); "
            "the closed-form decomposition drops boundary terms that do not "
            "vanish for open geometries"
        )
    return recoil_double_sum(seq, table), table


def proper_time_difference(seq: PulseSequence, species: Species) -> float:
    """Branch proper-time difference delta_tau in seconds.

    delta_tau = hbar^2 S / (2 m^2 c^2) with S from recoil_double_sum.  The
    value never reads g, z0 or v0: the launch trajectory drops out of the
    difference for closed sequences.
    """
    return recoil_parts(_closed_sum(seq, species)[0], species.mass)[0]


def recoil_phase(seq: PulseSequence, species: Species) -> float:
    """Recoil part of the phase, omega_C * delta_tau = hbar S / (2 m), in rad."""
    return recoil_parts(_closed_sum(seq, species)[0], species.mass)[1]


def gravito_recoil_phase(seq: PulseSequence, env: GravityEnv, ics: InitialConditions) -> float:
    """Kick-weighted sample of the launch trajectory: sum of dk_ell * z_g(t_ell).

    Mass never enters: the weights are wave numbers and z_g is common to both
    branches.  The products are summed exactly and rounded once
    (PulseTable.gravito_sum) so that the analytic cancellations (z0 and v0
    terms for closed sequences, everything for sequences whose first three
    kick moments vanish) survive numerically.
    """
    require_valid(seq)
    return PulseTable(seq.pulses).gravito_sum(env.g, ics.z0, ics.v0)


def laser_phase(seq: PulseSequence) -> float:
    """Imprinted laser phase difference, sum of phi_ell^(1) - phi_ell^(2), in rad."""
    require_valid(seq)
    return _laser_sum(seq)


def _laser_sum(seq: PulseSequence) -> float:
    """laser_phase of a sequence its caller has already validated."""
    # fsum rounds the exact sum in any order, and an overflow in any order
    # falls back to the same exact sum
    terms = [p.phi_upper for p in seq.pulses]
    terms += [-p.phi_lower for p in seq.pulses]
    return fsum_or_exact(terms, lambda: (terms, [1.0] * len(terms)), "laser phase sum", "rad")


def total_phase(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
) -> PhaseBreakdown:
    """Full decomposition for one internal state of mass species.mass."""
    s, table = _closed_sum(seq, species)
    return PhaseBreakdown.assemble(
        *recoil_parts(s, species.mass), table.gravito_sum(env.g, ics.z0, ics.v0), _laser_sum(seq)
    )


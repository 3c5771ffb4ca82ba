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
symmetric geometry, say).  The gravito-recoil and laser sums are fsums of
exact terms, or exact integer sums where fsum cannot round them correctly
(partial sums that overflow, products near the subnormal range).  One
PulseTable per call is the one reader of the times and wave numbers: the
closure moments and scales, S and the gravito-recoil sum all read it, the
last from _ARRAY_MIN_PULSES on in one array pass over its field array.  An S,
gravito-recoil or laser sum beyond the float range, a non-finite z_g or a
time difference that overflows raises NonFiniteResultError.
"""

from __future__ import annotations

import math

from . import constants
from ._exactsum import PulseTable, exact_dot, two_product
from .core import (
    GravityEnv,
    InitialConditions,
    PhaseBreakdown,
    PulseSequence,
    Species,
    compton_frequency,
    require_valid,
)
from .errors import NonFiniteResultError, OpenSequenceError
from .geometry import closure_check
from .kinematics import gravity_trajectory


def recoil_double_sum(seq: PulseSequence, table: PulseTable | None = None) -> float:
    """Branch-differential sum of k_n*k_ell*(t_n - t_ell) over pulse pairs.

    S = sum over n, sum over ell < n of [k_n^(1) k_ell^(1) - k_n^(2)
    k_ell^(2)] fl(t_n - t_ell) in s/m^2, correctly rounded given the rounded
    time differences (see _exactsum.PulseTable).  Raises NonFiniteResultError
    when a time difference overflows or S lies beyond the float range.
    table, when given, is PulseTable(seq.pulses), shared with closure_check.
    """
    return (table or PulseTable(seq.pulses)).recoil_sum()


def recoil_parts(s: float, species: Species) -> tuple[float, float]:
    """(delta_tau, recoil phase) of species for the recoil double sum s.

    Raises NonFiniteResultError when either is nan or infinite, as for a
    mass so small that hbar*S/m overflows.
    """
    recoil = 0.5 * constants.HBAR * s / species.mass
    delta_tau = recoil / compton_frequency(species)
    if not (math.isfinite(delta_tau) and math.isfinite(recoil)):
        raise NonFiniteResultError(
            f"delta_tau = {delta_tau!r} s and recoil phase = {recoil!r} rad for "
            f"S = {s!r} s/m^2 and mass {species.mass!r} kg"
        )
    return delta_tau, recoil


def _closed_sum(seq: PulseSequence, species: Species) -> tuple[float, PulseTable]:
    """S of seq and its PulseTable, after require_valid and the closure gate.

    The closure moments, their scales and S read the one table, returned
    for the gravito-recoil sum to read as well.  An open sequence raises
    OpenSequenceError; an S beyond the float range raises
    NonFiniteResultError.
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
    return recoil_parts(_closed_sum(seq, species)[0], species)[0]


def recoil_phase(seq: PulseSequence, species: Species) -> float:
    """Recoil part of the phase, omega_C * delta_tau = hbar S / (2 m), in rad."""
    return recoil_parts(_closed_sum(seq, species)[0], species)[1]


def gravito_recoil_phase(seq: PulseSequence, env: GravityEnv, ics: InitialConditions) -> float:
    """Kick-weighted sample of the launch trajectory: sum of dk_ell * z_g(t_ell).

    Mass never enters: the weights are wave numbers and z_g is common to both
    branches.  Products are accumulated exactly and fsum-reduced so that the
    analytic cancellations (z0 and v0 terms for closed sequences, everything
    for sequences whose first three kick moments vanish) survive numerically.
    """
    require_valid(seq)
    return _gravito_recoil_sum(PulseTable(seq.pulses), env, ics)


def _gravito_recoil_sum(table: PulseTable, env: GravityEnv, ics: InitialConditions) -> float:
    """gravito_recoil_phase over the PulseTable of a sequence that has passed require_valid.

    The fsum of Dekker's products is correctly rounded unless a nonzero
    product falls below 2**-968, where its error term leaves the normal
    range, or a split or a product overflows (|dk| or |z_g| from about
    1e300), which leaves fsum raising or not finite; then dk * z_g are
    summed exactly in integers.  Below _ARRAY_MIN_PULSES, and where a wave
    number is not a float, a loop calls gravity_trajectory and two_product
    per pulse.  Otherwise the same float operations run elementwise over
    the table's field array, and the terms reach fsum in the loop's order,
    so both give the same bits.
    """
    if table.array and table.float_k:
        import numpy as np

        times, ku, kl = table.fields
        g, z0, v0 = float(env.g), float(ics.z0), float(ics.v0)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            dks = ku - kl
            zgs = z0 + times * (v0 - 0.5 * g * times)  # gravity_trajectory's z_g
            product, error = two_product(dks, zgs)
            tiny = (abs(product) < 2.0**-968) & (dks != 0.0) & (zgs != 0.0)
        if not tiny.any():
            total = _finite_fsum(memoryview(np.column_stack((product, error)).ravel()))
            if total is not None:
                return total
    else:
        terms: list[float] = []
        for p in table.pulses:
            dk, zg = p.delta_k, gravity_trajectory(env, ics, p.t)[0]
            product, error = two_product(dk, zg)
            if abs(product) < 2.0**-968 and dk and zg:
                break
            terms += product, error
        else:
            total = _finite_fsum(terms)
            if total is not None:
                return total
        dks = [p.delta_k for p in table.pulses]
        zgs = [gravity_trajectory(env, ics, p.t)[0] for p in table.pulses]
    return exact_dot(dks, zgs, "gravito-recoil sum of dk * z_g", "rad")


def _finite_fsum(terms) -> float | None:
    """math.fsum(terms), or None where it raises or is not finite."""
    try:
        total = math.fsum(terms)
    except (ValueError, OverflowError):  # inf - inf, or partial sums beyond the floats
        return None
    return total if math.isfinite(total) else None


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
    try:
        return math.fsum(terms)
    except OverflowError:  # a partial sum overflowed; the sum may still be a float
        return exact_dot(terms, [1.0] * len(terms), "laser phase sum", "rad")


def total_phase(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
) -> PhaseBreakdown:
    """Full decomposition for one internal state of mass species.mass."""
    s, table = _closed_sum(seq, species)
    return PhaseBreakdown.assemble(
        *recoil_parts(s, species), _gravito_recoil_sum(table, env, ics), _laser_sum(seq)
    )


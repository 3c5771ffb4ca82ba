"""Closed-form phase decomposition of a branch-dependent pulse sequence.

For a sequence closed in phase space the exit-port phase difference between
the two branches splits into three pieces:

  total = recoil_phase + gravito_recoil + laser_phase

where recoil_phase = omega_C * delta_tau is the special-relativistic part
driven purely by the photon recoils, gravito_recoil samples the launch
trajectory z_g at the pulse times with weights Delta k_ell, and laser_phase
sums the imprinted laser phase differences.  All three are branch-1 minus
branch-2 conventions, all phases are radians.

The recoil double sum spans many orders of magnitude across use cases, so it
is accumulated from exact double-double products and reduced with correct
rounding (array_fsum, which returns math.fsum's value); the result is the
correctly rounded sum of its floating-point terms.  That makes
delta_tau reproducible bit for bit under changes that only add mutually
cancelling pulse pairs (a pause inserted in a symmetric geometry, say).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import constants
from ._exactsum import array_fsum, triple_product_rows, two_product
from .core import (
    GravityEnv,
    InitialConditions,
    PhaseBreakdown,
    PulseSequence,
    Species,
    compton_frequency,
    require_valid,
)
from .errors import OpenSequenceError
from .geometry import ClosureReport, closure_check
from .kinematics import gravity_trajectory


@functools.lru_cache(maxsize=32)
def _pair_gather(n: int) -> np.ndarray:
    """Read-only indices into the flat (t, k_upper, k_lower) x n pulse table.

    The gathered values form three rows of 2 * pairs entries, over the pairs
    ell < n in one fixed order: k_n for the upper branch then for the lower
    one, k_ell likewise, and t_n for every pair followed by t_ell.
    """
    later, earlier = np.tril_indices(n, -1)
    t, k_upper, k_lower = 0, n, 2 * n  # row offsets in the flat table
    index = np.concatenate(
        (
            k_upper + later, k_lower + later,
            k_upper + earlier, k_lower + earlier,
            t + later, t + earlier,
        )
    )
    index.flags.writeable = False
    return index


def recoil_double_sum(seq: PulseSequence) -> float:
    """Branch-differential sum of k_n*k_ell*(t_n - t_ell) over pulse pairs.

    Returns S = sum over n, sum over ell < n of
    [k_n^(1) k_ell^(1) - k_n^(2) k_ell^(2)] (t_n - t_ell) in s/m^2.  The
    diagonal ell = n terms vanish and are left out.  Each triple product
    enters as an exact four-term float expansion, formed for all pairs and
    both branches in one array pass, and array_fsum reduces the whole pile to
    math.fsum's value in a few exact extraction passes, so the return value
    is the correctly rounded sum given the rounded time differences.
    """
    pulses = seq.pulses
    table = np.array(
        [p.t for p in pulses] + [p.k_upper for p in pulses] + [p.k_lower for p in pulses],
        dtype=float,
    )
    factors = table[_pair_gather(len(pulses))].reshape(3, -1)
    # The last row holds t_n, t_ell; it becomes dt for the upper branch and
    # -dt, an exact negation, for the lower one in place of negating terms.
    t_n, t_ell = factors[2].reshape(2, -1)
    np.subtract(t_n, t_ell, out=t_n)
    np.negative(t_n, out=t_ell)
    # Products beyond the float range become inf/nan terms and fsum reports
    # them; numpy's warnings would only repeat that on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = triple_product_rows(factors)
    return array_fsum(terms.reshape(-1))


def require_closed(seq: PulseSequence, species: Species) -> ClosureReport:
    """Closure gate for the phase formulas; raises OpenSequenceError if open."""
    report = closure_check(seq, species)
    if not report.closed:
        raise OpenSequenceError(
            "sequence is not closed in phase space "
            f"(kick moment {report.moment0:.3e} /m, "
            f"time-weighted moment {report.moment1:.3e} s/m); "
            "the closed-form decomposition drops boundary terms that do not "
            "vanish for open geometries"
        )
    return report


def _proper_time_parts(seq: PulseSequence, species: Species) -> tuple[float, float]:
    require_valid(seq)
    require_closed(seq, species)
    s = recoil_double_sum(seq)
    recoil = 0.5 * constants.HBAR * s / species.mass
    delta_tau = recoil / compton_frequency(species)
    return delta_tau, recoil


def proper_time_difference(seq: PulseSequence, species: Species) -> float:
    """Branch proper-time difference delta_tau in seconds.

    delta_tau = hbar^2 S / (2 m^2 c^2) with S from recoil_double_sum.  The
    value never reads g, z0 or v0: the launch trajectory drops out of the
    difference for closed sequences.
    """
    return _proper_time_parts(seq, species)[0]


def recoil_phase(seq: PulseSequence, species: Species) -> float:
    """Recoil part of the phase, omega_C * delta_tau = hbar S / (2 m), in rad."""
    return _proper_time_parts(seq, species)[1]


def gravito_recoil_phase(seq: PulseSequence, env: GravityEnv, ics: InitialConditions) -> float:
    """Kick-weighted sample of the launch trajectory: sum of dk_ell * z_g(t_ell).

    Mass never enters: the weights are wave numbers and z_g is common to both
    branches.  Products are accumulated exactly and fsum-reduced so that the
    analytic cancellations (z0 and v0 terms for closed sequences, everything
    for sequences whose first three kick moments vanish) survive numerically.
    """
    require_valid(seq)
    env.require_uniform()
    terms: list[float] = []
    for p in seq.pulses:
        zg, _ = gravity_trajectory(env, ics, p.t)
        terms.extend(two_product(p.delta_k, zg))
    return math.fsum(terms)


def laser_phase(seq: PulseSequence) -> float:
    """Imprinted laser phase difference, sum of phi_ell^(1) - phi_ell^(2), in rad."""
    require_valid(seq)
    return math.fsum(x for p in seq.pulses for x in (p.phi_upper, -p.phi_lower))


def total_phase(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
) -> PhaseBreakdown:
    """Full decomposition for one internal state of mass species.mass."""
    delta_tau, recoil = _proper_time_parts(seq, species)
    return PhaseBreakdown.assemble(
        delta_tau=delta_tau,
        recoil_phase=recoil,
        gravito_recoil=gravito_recoil_phase(seq, env, ics),
        laser_phase=laser_phase(seq),
    )

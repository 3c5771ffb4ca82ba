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
Every exact sum that overflows, S and the gravito-recoil and laser sums
alike, raises NonFiniteResultError with math.fsum's message.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from . import constants
from ._exactsum import (
    array_fsum,
    checked_sum,
    scratch,
    triple_product_rows,
    triple_product_terms,
    two_product,
)
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

if TYPE_CHECKING:
    import numpy as np


# One index is 24*n*(n - 1) bytes, 24 MB at 1000 pulses, so only the last
# pulse count's is kept: 32 of them held 76 MB for lengths of 300-331.
@functools.lru_cache(maxsize=1)
def _pair_gather(n: int) -> np.ndarray:
    """Indices into the flat pulse table of a sequence of n pulses.

    The table is (t, k_upper, k_lower) x n.  The gathered values form three
    rows of 2 * pairs entries, over the pairs ell < n in one fixed order:
    k_n for the upper branch then for the lower one, k_ell likewise, and t_n
    for every pair followed by t_ell.  Every call with n shares the array,
    so callers only read it.  It stays writeable all the same: np.take
    copies a read-only index on every call.
    """
    import numpy as np

    later, earlier = np.tril_indices(n, -1)
    t, k_upper, k_lower = 0, n, 2 * n  # row offsets in the flat table
    index = np.concatenate(
        (
            k_upper + later, k_lower + later,
            k_upper + earlier, k_lower + earlier,
            t + later, t + earlier,
        )
    )
    return index


def _pair_terms(seq: PulseSequence) -> np.ndarray:
    """Pair terms of seq, shaped (4, n * (n - 1)) for both branches of every pair.

    Flattened, they are the exact four-term expansions of every pair term
    in the order recoil_double_sum reduces them in.  The array is a view of
    this thread's scratch (see _exactsum): it stays valid until the next
    recoil sum in the same thread.
    """
    import numpy as np

    pulses = seq.pulses
    table = [p.t for p in pulses] + [p.k_upper for p in pulses] + [p.k_lower for p in pulses]
    index = _pair_gather(seq.n_pulses)
    columns = index.size // 3
    work = scratch("_pair_terms", 7 * columns)
    factors, terms = work[: 3 * columns], work[3 * columns :].reshape(4, columns)
    # mode="clip" writes straight into factors; the default "raise" gathers
    # into a buffer first.  The indices are all in range, so nothing clips.
    np.array(table, dtype=float).take(index, out=factors, mode="clip")
    factors = factors.reshape(3, columns)
    # The last row holds t_n then t_ell; it becomes dt for the upper branch
    # and -dt, an exact negation, for the lower one in place of negating
    # terms.
    t_n, t_ell = factors[2].reshape(2, -1)
    # Differences and products beyond the float range become inf/nan terms,
    # as in the scalar loop, and fsum reports them; numpy's warnings would
    # only repeat that on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(t_n, t_ell, out=t_n)
        np.negative(t_n, out=t_ell)
        return triple_product_rows(factors, out=terms)


# recoil_double_sum forms its terms in one array pass from this pulse count
# on; the loop is faster below it (2-CPU x86-64 machine, numpy 2.4, best of
# 9 alternating rounds: loop 12.2/19.2/38.1/59.3/81.2 us, array in the
# thread's scratch 35.8/36.8/46.5/54.7/55.4 us at 3/4/5/6/7 pulses).
_PAIR_ARRAY_MIN_PULSES = 6


def recoil_double_sum(seq: PulseSequence) -> float:
    """Branch-differential sum of k_n*k_ell*(t_n - t_ell) over pulse pairs.

    Returns S = sum over n, sum over ell < n of
    [k_n^(1) k_ell^(1) - k_n^(2) k_ell^(2)] (t_n - t_ell) in s/m^2.  The
    diagonal ell = n terms vanish and are left out.  Each triple product
    enters as an exact four-term float expansion and the pile is reduced to
    math.fsum's value: the correctly rounded sum given the rounded time
    differences.  From _PAIR_ARRAY_MIN_PULSES pulses on, _pair_terms forms
    the terms in one array pass.  Below it a loop forms the same floats in
    the same order (fields read through float() in _pair_terms' table order,
    pairs in np.tril_indices order, the upper branch, then the lower one with
    -dt, rows q, g, f, h), so both paths give the same bits or exception.
    """
    if seq.n_pulses >= _PAIR_ARRAY_MIN_PULSES:
        return array_fsum(_pair_terms(seq).reshape(-1))
    t, k_upper, k_lower = (
        [float(getattr(p, name)) for p in seq.pulses] for name in ("t", "k_upper", "k_lower")
    )
    pairs = [(n, ell, t[n] - t[ell]) for n in range(len(t)) for ell in range(n)]
    products = [triple_product_terms(k_upper[n], k_upper[ell], dt) for n, ell, dt in pairs]
    products += [triple_product_terms(k_lower[n], k_lower[ell], -dt) for n, ell, dt in pairs]
    return math.fsum([terms[i] for i in (0, 2, 1, 3) for terms in products])


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


def _closed_sum(seq: PulseSequence, species: Species) -> float:
    """S of seq, after require_valid and the closure gate of the phase formulas.

    An open sequence raises OpenSequenceError; an S whose exact sum
    overflows raises NonFiniteResultError with fsum's message.
    """
    require_valid(seq)
    report = closure_check(seq, species)
    if not report.closed:
        raise OpenSequenceError(
            "sequence is not closed in phase space "
            f"(kick moment {report.moment0:.3e} /m, "
            f"time-weighted moment {report.moment1:.3e} s/m); "
            "the closed-form decomposition drops boundary terms that do not "
            "vanish for open geometries"
        )
    return checked_sum(recoil_double_sum, seq)


def proper_time_difference(seq: PulseSequence, species: Species) -> float:
    """Branch proper-time difference delta_tau in seconds.

    delta_tau = hbar^2 S / (2 m^2 c^2) with S from recoil_double_sum.  The
    value never reads g, z0 or v0: the launch trajectory drops out of the
    difference for closed sequences.
    """
    return recoil_parts(_closed_sum(seq, species), species)[0]


def recoil_phase(seq: PulseSequence, species: Species) -> float:
    """Recoil part of the phase, omega_C * delta_tau = hbar S / (2 m), in rad."""
    return recoil_parts(_closed_sum(seq, species), species)[1]


def gravito_recoil_phase(seq: PulseSequence, env: GravityEnv, ics: InitialConditions) -> float:
    """Kick-weighted sample of the launch trajectory: sum of dk_ell * z_g(t_ell).

    Mass never enters: the weights are wave numbers and z_g is common to both
    branches.  Products are accumulated exactly and fsum-reduced so that the
    analytic cancellations (z0 and v0 terms for closed sequences, everything
    for sequences whose first three kick moments vanish) survive numerically.
    """
    require_valid(seq)
    return _gravito_recoil_sum(seq, env, ics)


def _gravito_recoil_sum(seq: PulseSequence, env: GravityEnv, ics: InitialConditions) -> float:
    """gravito_recoil_phase of a sequence that has passed require_valid."""
    terms: list[float] = []
    for p in seq.pulses:
        zg, _ = gravity_trajectory(env, ics, p.t)
        terms.extend(two_product(p.delta_k, zg))
    return checked_sum(math.fsum, terms)


def laser_phase(seq: PulseSequence) -> float:
    """Imprinted laser phase difference, sum of phi_ell^(1) - phi_ell^(2), in rad."""
    require_valid(seq)
    return _laser_sum(seq)


def _laser_sum(seq: PulseSequence) -> float:
    """laser_phase of a sequence its caller has already validated."""
    return checked_sum(math.fsum, (x for p in seq.pulses for x in (p.phi_upper, -p.phi_lower)))


def total_phase(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
) -> PhaseBreakdown:
    """Full decomposition for one internal state of mass species.mass."""
    s = _closed_sum(seq, species)
    return PhaseBreakdown.assemble(
        *recoil_parts(s, species), _gravito_recoil_sum(seq, env, ics), _laser_sum(seq)
    )


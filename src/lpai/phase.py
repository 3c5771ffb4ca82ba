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
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import constants
from ._exactsum import array_fsum, triple_product_rows, triple_product_terms, two_product
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
from .geometry import ClosureReport, closure_check
from .kinematics import gravity_trajectory

if TYPE_CHECKING:
    import numpy as np


@functools.lru_cache(maxsize=32)
def _pair_gather(n: int, rows: int) -> np.ndarray:
    """Read-only indices into the flat pulse tables of rows sequences of n pulses.

    Each sequence's table is (t, k_upper, k_lower) x n.  The gathered values
    form three rows, and each holds 2 * pairs entries per sequence, over the
    pairs ell < n in one fixed order: k_n for the upper branch then for the
    lower one, k_ell likewise, and t_n for every pair followed by t_ell.
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
    index = (index.reshape(3, 1, -1) + 3 * n * np.arange(rows)[:, None]).reshape(-1)
    index.flags.writeable = False
    return index


def _pair_terms(seqs: Sequence[PulseSequence]) -> np.ndarray:
    """Pair terms of sequences with one pulse count, shaped (4, len(seqs), width).

    terms[:, i], flattened, holds the exact four-term expansions of every
    pair term of seqs[i] in the order recoil_double_sum reduces them in.
    All sequences share one gather and one triple_product_rows call.
    """
    import numpy as np

    n = seqs[0].n_pulses
    rows, width = len(seqs), n * (n - 1)  # width: both branches of every pair
    table: list[float] = []
    for seq in seqs:
        pulses = seq.pulses
        table += [p.t for p in pulses] + [p.k_upper for p in pulses] + [p.k_lower for p in pulses]
    factors = np.array(table, dtype=float)[_pair_gather(n, rows)].reshape(3, -1)
    # The last row holds t_n, t_ell per sequence; it becomes dt for the
    # upper branch and -dt, an exact negation, for the lower one in place of
    # negating terms.
    times = factors[2].reshape(rows, 2, width // 2)
    t_n, t_ell = times[:, 0], times[:, 1]
    np.subtract(t_n, t_ell, out=t_n)
    np.negative(t_n, out=t_ell)
    # Products beyond the float range become inf/nan terms and fsum reports
    # them; numpy's warnings would only repeat that on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = triple_product_rows(factors)
    return terms.reshape(4, rows, width)


# recoil_double_sum forms its terms in one array pass from this pulse count
# on; the loop is faster below it (2-CPU x86-64 machine, numpy 2.4: loop
# 15.7/27.3/46.1/69.5 us, array 42.5/43.6/51.5/47.4 us at 3/4/5/6 pulses).
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
        return array_fsum(_pair_terms([seq]).reshape(-1))
    t, k_upper, k_lower = (
        [float(getattr(p, name)) for p in seq.pulses] for name in ("t", "k_upper", "k_lower")
    )
    pairs = [(n, ell, t[n] - t[ell]) for n in range(len(t)) for ell in range(n)]
    products = [triple_product_terms(k_upper[n], k_upper[ell], dt) for n, ell, dt in pairs]
    products += [triple_product_terms(k_lower[n], k_lower[ell], -dt) for n, ell, dt in pairs]
    return math.fsum([terms[i] for i in (0, 2, 1, 3) for terms in products])


# Pulse pairs whose terms one block of recoil_sums forms together; a
# degenerate row counts as one.  About 170 rows of a four-pulse builder: the
# block's arrays take a few hundred kilobytes whatever the grid size, and
# larger blocks are no faster.
_BLOCK_PAIRS = 1024


def _row_terms(block: list[PulseSequence | None]) -> list[np.ndarray | None]:
    """Contiguous pair terms of each sequence in block, one gather per pulse count."""
    out: list[np.ndarray | None] = [None] * len(block)
    by_count: dict[int, list[int]] = {}
    for i, seq in enumerate(block):
        if seq is not None:
            by_count.setdefault(seq.n_pulses, []).append(i)
    for index in by_count.values():
        terms = _pair_terms([block[i] for i in index])
        for i, row in zip(index, terms.transpose(1, 0, 2).reshape(len(index), -1)):
            out[i] = row
    return out


def recoil_sums(
    build: Callable[..., PulseSequence],
    grid: Iterable[tuple[float, ...]],
    species: Species,
) -> Iterator[tuple[PulseSequence, float] | None]:
    """The sequence build(*params) and its S for each params of grid, in order.

    A row with a zero parameter is the degenerate corner of a sweep: no
    kicks and no dephasing, and builders reject it.  It yields None without
    calling build.  Every other sequence passes require_valid and
    require_closed once.  The rows are formed in blocks: the pair terms of a
    block come from one _pair_terms call per pulse count, and each row's S
    is array_fsum of its own terms, so it has recoil_double_sum's bits or
    raises its exception.  A row's failure, in build, the gates or S,
    surfaces only after every earlier row has been yielded, as in a
    row-by-row evaluation.
    """
    rows = iter(grid)
    exhausted = False
    while not exhausted:
        block: list[PulseSequence | None] = []
        failure: Exception | None = None
        pairs = 0
        try:
            for params in rows:
                seq = None
                if 0.0 not in params:
                    seq = build(*params)
                    require_valid(seq)
                    require_closed(seq, species)
                block.append(seq)
                pairs += 1 if seq is None else seq.n_pulses * (seq.n_pulses - 1) // 2
                if pairs >= _BLOCK_PAIRS:
                    break
            else:
                exhausted = True
        except Exception as exc:  # raised below, after the rows before it
            failure = exc
        for seq, terms in zip(block, _row_terms(block)):
            yield None if seq is None else (seq, array_fsum(terms))
        if failure is not None:
            raise failure


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
    """S of seq, after require_valid and require_closed."""
    require_valid(seq)
    require_closed(seq, species)
    return recoil_double_sum(seq)


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
    return math.fsum(terms)


def laser_phase(seq: PulseSequence) -> float:
    """Imprinted laser phase difference, sum of phi_ell^(1) - phi_ell^(2), in rad."""
    require_valid(seq)
    return _laser_sum(seq)


def _laser_sum(seq: PulseSequence) -> float:
    """laser_phase without the pulse checks; the oracle sums pulse-free sequences too."""
    return math.fsum(x for p in seq.pulses for x in (p.phi_upper, -p.phi_lower))


def _breakdown(
    seq: PulseSequence, s: float, species: Species, env: GravityEnv, ics: InitialConditions
) -> PhaseBreakdown:
    """total_phase of a valid, closed seq whose recoil double sum is s."""
    return PhaseBreakdown.assemble(
        *recoil_parts(s, species), _gravito_recoil_sum(seq, env, ics), _laser_sum(seq)
    )


def total_phase(
    seq: PulseSequence,
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
) -> PhaseBreakdown:
    """Full decomposition for one internal state of mass species.mass."""
    return _breakdown(seq, _closed_sum(seq, species), species, env, ics)


def phase_rows(
    build: Callable[..., PulseSequence],
    grid: Iterable[tuple[float, ...]],
    species: Species,
    env: GravityEnv,
    ics: InitialConditions,
) -> Iterator[PhaseBreakdown | None]:
    """total_phase(build(*params), species, env, ics) for each params of grid.

    One S per row from recoil_sums; None marks a degenerate row.  Each value
    has total_phase's bits, and a failing row raises total_phase's exception.
    """
    for row in recoil_sums(build, grid, species):
        yield None if row is None else _breakdown(*row, species, env, ics)

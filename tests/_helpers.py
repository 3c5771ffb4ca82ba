"""Shared generators for randomized closed geometries and clock pairs."""

from __future__ import annotations

import math

import numpy as np

from lpai import ClockPair, Pulse, PulseSequence, constants
from lpai._exactsum import triple_product_terms


def random_closed_sequence(
    rng: np.random.Generator,
    n_pulses: int | None = None,
    *,
    k_scale: float = 1e3,
    with_common_mode: bool = False,
    with_phases: bool = False,
) -> PulseSequence:
    """Random sequence with vanishing kick moments 0 and 1.

    The first n-2 differential wave numbers are free draws; the last two are
    solved from the closure system.  The modest k scale keeps recoil phases
    of order 1e3 rad so cosine-based identities stay testable.  Optional
    common-mode kicks load both branches without changing closure; optional
    laser phases exercise the laser term.
    """
    n = int(n_pulses) if n_pulses is not None else int(rng.integers(3, 9))
    if n < 3:
        raise ValueError("need at least 3 pulses to solve closure")
    gaps = rng.uniform(0.05, 0.5, size=n - 1)
    times = np.concatenate(([0.0], np.cumsum(gaps)))

    dk = np.empty(n)
    dk[: n - 2] = rng.uniform(-k_scale, k_scale, size=n - 2)
    head = dk[: n - 2].sum()
    head_t = (times[: n - 2] * dk[: n - 2]).sum()
    t_a, t_b = times[n - 2], times[n - 1]
    # moment0: dk_a + dk_b = -head; moment1: t_a dk_a + t_b dk_b = -head_t
    dk_b = (t_a * head - head_t) / (t_b - t_a)
    dk_a = -head - dk_b
    dk[n - 2] = dk_a
    dk[n - 1] = dk_b

    common = rng.uniform(-k_scale, k_scale, size=n) if with_common_mode else np.zeros(n)
    if with_phases:
        phi_up = rng.uniform(-np.pi, np.pi, size=n)
        phi_lo = rng.uniform(-np.pi, np.pi, size=n)
    else:
        phi_up = np.zeros(n)
        phi_lo = np.zeros(n)

    pulses = tuple(
        Pulse(
            t=float(times[i]),
            k_upper=float(dk[i] + common[i]),
            k_lower=float(common[i]),
            phi_upper=float(phi_up[i]),
            phi_lower=float(phi_lo[i]),
        )
        for i in range(n)
    )
    return PulseSequence(pulses)


def random_clock(
    rng: np.random.Generator,
    *,
    max_ratio: float = 0.3,
    min_ratio: float = 0.0,
    mean_mass: float | None = None,
) -> ClockPair:
    """Clock pair with mass splitting ratio delta_m / mean_mass below max_ratio."""
    m = mean_mass if mean_mass is not None else 10.0 ** rng.uniform(-26.0, -24.0)
    ratio = rng.uniform(min_ratio, max_ratio)
    omega = ratio * m * constants.C**2 / constants.HBAR
    return ClockPair(mean_mass=m, splitting_omega=omega)


def recoil_double_sum_loop(seq: PulseSequence) -> float:
    """Pair-by-pair reference for lpai.recoil_double_sum on Python floats.

    The same exact triple-product expansions and fsum as the array pass, one
    pair and one branch at a time, with the vanishing ell = n terms kept.
    """
    terms: list[float] = []
    pulses = seq.pulses
    for n, pn in enumerate(pulses):
        for pl in pulses[: n + 1]:
            dt = pn.t - pl.t
            for kn, kl, sign in (
                (pn.k_upper, pl.k_upper, 1.0),
                (pn.k_lower, pl.k_lower, -1.0),
            ):
                terms.extend(sign * v for v in triple_product_terms(kn, kl, dt))
    return math.fsum(terms)


def float_bits(x: float) -> bytes:
    import struct

    return struct.pack("<d", x)

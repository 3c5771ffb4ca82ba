"""Shared generators for randomized closed geometries and clock pairs."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from lpai import ClockPair, Pulse, PulseSequence, constants


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


def recoil_sum_by_fractions(seq: PulseSequence) -> Fraction:
    """The recoil double sum S of seq in exact rational arithmetic.

    The documented contract: fields read through float(), the rounded time
    differences fl(t_n - t_ell) as the inputs, everything after that exact.
    """
    pulses = [(float(p.t), float(p.k_upper), float(p.k_lower)) for p in seq.pulses]
    total = Fraction(0)
    for n, (tn, un, ln) in enumerate(pulses):
        for tl, ul, ll in pulses[:n]:
            c = Fraction(un) * Fraction(ul) - Fraction(ln) * Fraction(ll)
            total += c * Fraction(tn - tl)
    return total


def moments_by_fractions(seq: PulseSequence) -> tuple[Fraction, Fraction, Fraction]:
    """sum(dk), sum(t dk) and sum(t^2 dk) of seq in exact rational arithmetic."""
    m0 = m1 = m2 = Fraction(0)
    for p in seq.pulses:
        t, dk = Fraction(float(p.t)), Fraction(float(p.k_upper)) - Fraction(float(p.k_lower))
        m0, m1, m2 = m0 + dk, m1 + t * dk, m2 + t * t * dk
    return m0, m1, m2


def rounded(x: Fraction) -> bytes | str:
    """float_bits of x rounded to the nearest float, or "overflow" beyond the float range."""
    try:
        return float_bits(float(x))
    except OverflowError:
        return "overflow"


def march_rk4_loop(h, u, p, kicks, g, z0, v0):
    """The reduced RK4 march of lpai._kernels as a plain step-by-step loop.

    The bit reference for march_rk4's cumulative sums: kicks holds
    (i0, i1, amp), which adds amp * u and amp * p on the steps i0 .. i1 - 1.
    """
    n = h.size
    amps = [None] * n
    for i0, i1, amp in kicks:
        amps[i0:i1] = [amp] * (i1 - i0)
    z = np.empty(n + 1)
    v = np.empty(n + 1)
    z[0] = z0
    v[0] = v0
    for i in range(n):
        dv = h[i] * -g
        dz = (h[i] * h[i]) * (-0.5 * g)
        if amps[i] is not None:
            dv += u[i] * amps[i]
            dz += p[i] * amps[i]
        dz += h[i] * v[i]
        z[i + 1] = z[i] + dz
        v[i + 1] = v[i] + dv
    return z, v


def float_bits(x: float) -> bytes:
    import struct

    return struct.pack("<d", x)


# --- RK4 reference pipeline ----------------------------------------------------
#
# The finite-width oracle integrated numerically, in plain numpy and apart
# from lpai.oracle, which integrates every segment in closed form: every march
# of the velocity increments -g*h plus amp*u on its kicked windows and the
# position increments h**2*(-g/2), plus amp*p, plus h*v, each march on fresh
# arrays, numpy scalars into fsum.  A top-hat window and every free segment
# take one Simpson pair, a cosine window steps_per_segment rounded up to even,
# each segment through np.linspace.  A cosine window evaluates its profile at
# the window fractions j/n of its nodes and (j + 1/2)/n of its step midpoints,
# window by window (_ref_cosine), forms RK4's step weights from them, and
# scales its kick by the sum of its u and its average by the profile's Simpson
# integral on the grid.  The proper time reads the march of the branch sum and
# integrates up to the last window's end node.  The tests hold lpai.oracle to
# these values within bounds: RK4 and Simpson are exact on top-hat windows and
# fourth order in the steps of cosine ones.


def _ref_window_steps(cfg) -> int:
    """The steps a pulse window of cfg takes, cosine counts rounded up to even."""
    steps = cfg.steps_per_segment
    return steps + steps % 2 if cfg.pulse_shape == "cosine" else 2


def _ref_grid(seq: PulseSequence, sigma: float, steps: int, uniform: bool = False):
    """Node times, steps and window node spans.

    A pulse window takes steps rounded up to even, every other segment 2
    steps; uniform=True gives every segment the window's count.
    """
    times = seq.times
    window_ends = [t + sigma for t in times]
    t_lo = min([0.0, *times])
    t_stop = max([seq.duration, *window_ends]) if times else seq.duration
    breakpoints = sorted({t_lo, t_stop, *times, *window_ends})
    n = steps + (steps % 2)
    segments = list(zip(breakpoints[:-1], breakpoints[1:]))
    counts = [n if uniform or (a, b) in zip(times, window_ends) else 2 for a, b in segments]
    pieces = [np.linspace(a, b, c + 1)[:-1] for (a, b), c in zip(segments, counts)]
    pieces.append(np.array([breakpoints[-1]]))
    ts = np.concatenate(pieces)
    first_node = {bp: sum(counts[:i]) for i, bp in enumerate(breakpoints)}
    windows = [(first_node[t], first_node[end]) for t, end in zip(times, window_ends)]
    return ts, np.diff(ts), windows


def _ref_cosine(n: int, j0: float, count: int):
    """Raised cosine 1 - cos(2 pi (j0 + j) / n) at the window fractions j = 0 .. count - 1."""
    return 1.0 - np.cos(2.0 * np.pi * ((np.arange(count) + j0) / n))


def ref_step_weights(grid, shape: str):
    """Per step velocity and position increments per unit kick amplitude: (u, p).

    Top-hat: h and h**2/2.  Cosine: (h/6) (PL + 4 PM + PR) and (h**2/6)
    (PL + 2 PM) on the windows' steps, zero elsewhere (no march reads them).
    """
    ts, h, windows = grid
    if shape == "tophat":
        return h, h * h / 2.0
    u, p = np.zeros(h.size), np.zeros(h.size)
    for i0, i1 in windows:
        n = i1 - i0
        left, mid, right = (_ref_cosine(n, j0, n) for j0 in (0.0, 0.5, 1.0))
        u[i0:i1] = (h[i0:i1] / 6.0) * (left + 4.0 * mid + right)
        p[i0:i1] = (h[i0:i1] * h[i0:i1] / 6.0) * (left + 2.0 * mid)
    return u, p


def ref_kicks(grid, u, ks, shape: str, mass: float):
    """(i0, i1, amp) per window with k != 0: amp = hbar*k/(m * area).

    The area is the window's realized width for top-hat and the sum of its
    u, the profile's integral under the march's own step rule, for cosine.
    """
    ts, _, windows = grid
    kicks = []
    for (i0, i1), k in zip(windows, ks):
        if k == 0.0:
            continue
        area = ts[i1] - ts[i0] if shape == "tophat" else float(np.sum(u[i0:i1]))
        kicks.append((i0, i1, constants.HBAR * k / (mass * area)))
    return kicks


def _ref_march(h, u, p, kicks, g: float, z0: float, v0: float):
    dv = -g * h
    dz = (h * h) * (-0.5 * g)
    for i0, i1, amp in kicks:
        dv[i0:i1] += amp * u[i0:i1]
        dz[i0:i1] += amp * p[i0:i1]
    v = np.concatenate(([v0], dv)).cumsum()
    dz += h * v[:-1]
    z = np.concatenate(([z0], dz)).cumsum()
    return z, v


def _ref_simpson(f, ts) -> float:
    if f.size < 3:
        return 0.0
    widths = ts[2::2] - ts[:-2:2]
    return math.fsum((widths / 6.0) * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2]))


def _ref_window_integral(grid, shape: str, span, values) -> float:
    i0, i1 = span
    ts = grid[0][i0 : i1 + 1]
    width = ts[-1] - ts[0]
    if shape == "tophat":
        w = np.full(ts.shape, 1.0 / width)
    else:
        profile = _ref_cosine(i1 - i0, 0.0, i1 - i0 + 1)
        w = profile / _ref_simpson(profile, ts)
    return _ref_simpson(w * values[i0 : i1 + 1], ts)


def ref_run(seq: PulseSequence, species, env, ics, cfg, uniform: bool = False) -> dict:
    """Grid and marches (branch sum, branches, difference system, launch) of one oracle run.

    uniform=True is the grid the oracle used before free flight and top-hat
    windows took one Simpson pair: steps_per_segment on every segment.
    """
    steps = cfg.steps_per_segment if uniform else _ref_window_steps(cfg)
    grid = _ref_grid(seq, cfg.pulse_width, steps, uniform)
    m, shape, h = species.mass, cfg.pulse_shape, grid[1]
    u, p = ref_step_weights(grid, shape)
    k1 = [p.k_upper for p in seq.pulses]
    k2 = [p.k_lower for p in seq.pulses]
    dk = [a - b for a, b in zip(k1, k2)]
    k_sum = [a + b for a, b in zip(k1, k2)]
    march = lambda ks, g, z0, v0: _ref_march(h, u, p, ref_kicks(grid, u, ks, shape, m), g, z0, v0)
    run = {"grid": grid}
    run["vsum"] = march(k_sum, 2.0 * env.g, 0.0, 2.0 * ics.v0)[1]
    run["z1"], run["v1"] = march(k1, env.g, ics.z0, ics.v0)
    run["z2"], run["v2"] = march(k2, env.g, ics.z0, ics.v0)
    run["dz"], run["dv"] = march(dk, 0.0, 0.0, 0.0)
    run["zg"], run["vg"] = march([], env.g, ics.z0, ics.v0)
    return run


def _ref_dtau(run: dict, g: float) -> float:
    """Simpson integral of the proper-time integrand up to the last window's end node."""
    ts, _, windows = run["grid"]
    end = max((i1 for _, i1 in windows), default=0) + 1
    f = (-0.5 * run["dv"] * run["vsum"] + g * run["dz"]) / constants.C**2
    return _ref_simpson(f[:end], ts[:end])


def ref_proper_time_numeric(seq: PulseSequence, species, env, ics, cfg) -> float:
    return _ref_dtau(ref_run(seq, species, env, ics, cfg), env.g)


def _ref_laser(seq: PulseSequence) -> float:
    return math.fsum(x for p in seq.pulses for x in (p.phi_upper, -p.phi_lower))


def _ref_time_span(seq: PulseSequence) -> float:
    times = seq.times
    if not times:
        return seq.duration
    return max(seq.duration, times[-1]) - min(0.0, times[0])


def _ref_k_max(seq: PulseSequence) -> float:
    return max((max(abs(p.k_upper), abs(p.k_lower)) for p in seq.pulses), default=0.0)


def ref_gravito_terms(seq: PulseSequence, run: dict, shape: str) -> list[float]:
    """dk * (window average of the pulse-free trajectory), per window with dk != 0."""
    return [
        p.delta_k * _ref_window_integral(run["grid"], shape, span, run["zg"])
        for p, span in zip(seq.pulses, run["grid"][2])
        if p.delta_k != 0.0
    ]


def ref_oracle_report(seq: PulseSequence, species, env, ics, cfg, uniform: bool = False) -> dict:
    """OracleResult fields, as the frozen pipeline computes them; uniform as in ref_run."""
    from lpai import proper_time_difference

    run = ref_run(seq, species, env, ics, cfg, uniform)
    dtau_num = _ref_dtau(run, env.g)
    gravito_num = math.fsum(ref_gravito_terms(seq, run, cfg.pulse_shape))
    dtau_closed = proper_time_difference(seq, species)
    omega_c = species.mass * constants.C**2 / constants.HBAR
    vr = constants.HBAR * _ref_k_max(seq) / (species.mass * constants.C)
    diff = abs(dtau_num - dtau_closed)
    denom = max(abs(dtau_closed), vr * vr * _ref_time_span(seq))
    return {
        "sigma": cfg.pulse_width,
        "pulse_shape": cfg.pulse_shape,
        "delta_tau_numeric": dtau_num,
        "delta_tau_closed": dtau_closed,
        "residual_vs_closed_form": (
            diff / denom if denom > 0.0 else (0.0 if diff == 0.0 else math.inf)
        ),
        "gravito_recoil_numeric": gravito_num,
        "total_phase_numeric": omega_c * dtau_num + gravito_num + _ref_laser(seq),
        "closure_residuals": (float(run["dz"][-1]), float(run["dv"][-1])),
    }


# --- the finite-width shift ---------------------------------------------------

# kappa of each window shape: delta_tau_numeric - delta_tau_closed = kappa*sigma*Q
# on a closed sequence (Bertoldi, Minardi & Prevedelli, PRA 99, 033619, 2019)
KAPPA = {"tophat": 1.0 / 12.0, "cosine": (1.0 - 15.0 / (4.0 * math.pi**2)) / 12.0}


def finite_width_shift(seq: PulseSequence, mass: float, sigma: float, shape: str) -> float:
    """kappa*sigma*Q, Q = hbar**2 * sum(k_upper**2 - k_lower**2) / (m*c)**2, from Fractions."""
    q = sum(Fraction(p.k_upper) ** 2 - Fraction(p.k_lower) ** 2 for p in seq.pulses)
    hbar, mc = Fraction(constants.HBAR), Fraction(mass) * Fraction(constants.C)
    return float(Fraction(KAPPA[shape]) * Fraction(sigma) * hbar * hbar * q / (mc * mc))

"""Reference computations made apart from lpai, and the checks that use them.

Exact parts are computed in ``fractions.Fraction`` from the stored floats:
the recoil double sum S over the rounded pairwise time differences, the
gravito-recoil sum, the laser sum and the closure moments.  Rounding a
Fraction to float is correctly rounded, so these match lpai's documented
correctly-rounded results bit for bit.  The formulas that assemble them into
delta_tau, the carrier, the envelope and the probabilities are written out
here from the paper, in the float order lpai documents; lpai promises
byte-identical outputs, so those comparisons are bit for bit too.  Paper
properties (mzi, rbi-double, gravity independence, the beat identity) and the
oracle's convergence are checked with stated tolerances.

Every ``check_*`` function returns a list of failure messages; empty means
the input passed.
"""

from __future__ import annotations

import json
import math
import struct
from fractions import Fraction

# CODATA 2018, written out here rather than read from lpai.constants
HBAR = 1.054571817e-34
C = 299792458.0
EPS = 2.0**-53
_ORACLE_FLOOR = 1e-12
_ORACLE_TOL = 1e-6  # lpai oracle --tol default


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def _bits_check(fails: list[str], name: str, got: float, want: float) -> None:
    if not same_bits(got, want):
        fails.append(f"{name}: got {got!r}, reference {want!r}")


def _ulp(x: float) -> float:
    return math.ulp(x) if x != 0.0 else math.ulp(0.0)


def builder_pulses(geometry: str, k: float, T: float, Tp: float) -> list[tuple]:
    """The four geometries of the paper as (t, k_upper, k_lower, 0, 0) pulses."""
    if geometry == "mzi" or (geometry == "rbi-sym" and Tp == 0.0):
        p = [(0.0, k, 0.0), (T, -k, k), (2.0 * T, 0.0, -k)]
    elif geometry == "rbi-sym":
        p = [(0.0, k, 0.0), (T, -k, 0.0), (T + Tp, 0.0, k), (2.0 * T + Tp, 0.0, -k)]
    elif geometry == "rbi-asym" and Tp == 0.0:
        p = [(0.0, k, 0.0), (T, -2.0 * k, 0.0), (2.0 * T, k, 0.0)]
    elif geometry == "rbi-asym":
        p = [(0.0, k, 0.0), (T, -k, 0.0), (T + Tp, -k, 0.0), (2.0 * T + Tp, k, 0.0)]
    elif geometry == "rbi-double":
        p = [(0.0, k, 0.0), (T, -2.0 * k, 0.0), (3.0 * T, 2.0 * k, 0.0), (4.0 * T, -k, 0.0)]
    else:
        raise ValueError(f"unknown geometry {geometry!r}")
    return [(*x, 0.0, 0.0) for x in p]


def spec_pulses(spec: dict) -> list[tuple]:
    if "pulses" in spec:
        return [tuple(p) for p in spec["pulses"]]
    return builder_pulses(spec["geometry"], spec["k"], spec["T"], spec["Tp"])


# --- exact sums -----------------------------------------------------------------


def exact_recoil_sum(pulses) -> Fraction:
    """S = sum over ell < n of (k1_n k1_ell - k2_n k2_ell) * fl(t_n - t_ell), exactly."""
    total = Fraction(0)
    for n, (tn, kun, kln, _, _) in enumerate(pulses):
        fu, fl = Fraction(kun), Fraction(kln)
        for tl, kul, kll, _, _ in pulses[:n]:
            total += (fu * Fraction(kul) - fl * Fraction(kll)) * Fraction(tn - tl)
    return total


def launch_z(g: float, z0: float, v0: float, t: float) -> float:
    """z_g(t) = z0 + v0 t - g t^2 / 2 in float, as lpai evaluates it."""
    return z0 + t * (v0 - 0.5 * g * t)


def exact_gravito(pulses, g: float, z0: float, v0: float) -> tuple[float, float, float]:
    """(sum dk*fl(z_g) rounded once, sum dk*z_g with exact z_g, an error bound between lpai and the latter)."""
    on_float = Fraction(0)
    on_exact = Fraction(0)
    bound = 0.0
    fg, fz, fv = Fraction(g), Fraction(z0), Fraction(v0)
    for t, ku, kl, _, _ in pulses:
        dk = ku - kl
        ft = Fraction(t)
        on_float += Fraction(dk) * Fraction(launch_z(g, z0, v0, t))
        on_exact += (Fraction(ku) - Fraction(kl)) * (fz + ft * fv - fg * ft * ft / 2)
        bound += abs(dk) * (abs(z0) + abs(t) * abs(v0) + abs(g) * t * t)
    return float(on_float), float(on_exact), 8.0 * EPS * bound


def exact_laser(pulses) -> float:
    return float(sum((Fraction(pu) - Fraction(pl) for _, _, _, pu, pl in pulses), Fraction(0)))


def exact_moments(pulses) -> tuple[float, float, float]:
    m = [Fraction(0)] * 3
    for t, ku, kl, _, _ in pulses:
        dk, ft = Fraction(ku) - Fraction(kl), Fraction(t)
        m = [m[0] + dk, m[1] + ft * dk, m[2] + ft * ft * dk]
    return float(m[0]), float(m[1]), float(m[2])


# --- closed-form assembly -------------------------------------------------------


def clip(p: float) -> float:
    return min(1.0, max(0.0, p))


def delta_tau_of(s: float, mass: float) -> tuple[float, float]:
    """(delta_tau, recoil phase) = (hbar^2 S / (2 m^2 c^2), hbar S / (2 m))."""
    recoil = 0.5 * HBAR * s / mass
    return recoil / (mass * C**2 / HBAR), recoil


def beat_of(s: float, gk: float, lp: float, mass: float, omega: float) -> dict:
    """Beat signal of a clock pair from S, the gravito-recoil and the laser sums."""
    dtau, _ = delta_tau_of(s, mass)
    x = HBAR * omega / C**2 / (2.0 * mass)
    eta = 1.0 / (1.0 - x * x)
    carrier = eta * (dtau * (mass * C**2 / HBAR)) + gk + lp
    half = 0.5 * eta * omega * dtau
    cc, sc, cd, sd = math.cos(carrier), math.sin(carrier), math.cos(half), math.sin(half)
    p_a = 0.5 * (1.0 + cc * cd + sc * sd)
    p_b = 0.5 * (1.0 + cc * cd - sc * sd)
    return {
        "p_a": clip(p_a),
        "p_b": clip(p_b),
        "p_combined": clip(0.5 * (p_a + p_b)),
        "envelope": cd,
        "carrier_phase": carrier,
        "delta_tau": dtau,
        "eta": eta,
    }


BEAT_FIELDS = ("p_a", "p_b", "p_combined", "envelope", "carrier_phase", "delta_tau")


class BeatReference:
    """Everything the beat checks compare against, computed once per input."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.pulses = spec_pulses(spec)
        self.s = float(exact_recoil_sum(self.pulses))
        self.gk, self.gk_exact, self.gk_bound = exact_gravito(
            self.pulses, spec["g"], spec["z0"], spec["v0"]
        )
        self.lp = exact_laser(self.pulses)
        self.beat = beat_of(self.s, self.gk, self.lp, spec["mass"], spec["omega"])


def check_beat(ref: BeatReference, out: dict, parts: dict) -> list[str]:
    """Check one beat output against the reference.

    ``out`` holds the BeatSignal fields of the timed call.  ``parts`` holds
    values from lpai's public functions on the same input: ``S``
    (recoil_double_sum), ``gravito`` (gravito_recoil_phase), ``laser``
    (laser_phase) and ``delta_tau_no_gravity`` (beat with g, z0, v0 zero).
    """
    fails: list[str] = []
    spec, want = ref.spec, ref.beat
    _bits_check(fails, "recoil_double_sum S", parts["S"], ref.s)
    _bits_check(fails, "gravito_recoil_phase", parts["gravito"], ref.gk)
    _bits_check(fails, "laser_phase", parts["laser"], ref.lp)
    for name in BEAT_FIELDS:
        _bits_check(fails, f"beat.{name}", out[name], want[name])

    # independent of the float assembly: exact rational delta_tau and z_g(t)
    exact_dtau = Fraction(HBAR) ** 2 * Fraction(ref.s) / (
        2 * Fraction(spec["mass"]) ** 2 * Fraction(C) ** 2
    )
    if abs(Fraction(out["delta_tau"]) - exact_dtau) > 4 * Fraction(_ulp(float(exact_dtau))):
        fails.append(f"delta_tau {out['delta_tau']!r} is not hbar^2 S/(2 m^2 c^2) = {float(exact_dtau)!r}")
    if abs(parts["gravito"] - ref.gk_exact) > ref.gk_bound + _ulp(ref.gk_exact):
        fails.append(
            f"gravito-recoil {parts['gravito']!r} differs from the exact z_g sum "
            f"{ref.gk_exact!r} by more than {ref.gk_bound:.3e}"
        )

    # paper properties
    if not same_bits(parts["delta_tau_no_gravity"], out["delta_tau"]):
        fails.append("delta_tau changes when g, z0 and v0 are set to zero")
    if out["envelope"] != math.cos(0.5 * want["eta"] * spec["omega"] * out["delta_tau"]):
        fails.append("envelope is not cos(eta Omega delta_tau / 2)")
    p_closed = 0.5 * (1.0 + out["envelope"] * math.cos(out["carrier_phase"]))
    if not abs(out["p_combined"] - p_closed) <= 8.0 * EPS:
        fails.append(f"P {out['p_combined']!r} is not (1 + envelope cos carrier)/2 = {p_closed!r}")
    geometry = spec.get("geometry")
    k, T = spec.get("k"), spec.get("T")
    if geometry == "mzi":
        if not same_bits(out["delta_tau"], 0.0):
            fails.append(f"mzi delta_tau is {out['delta_tau']!r}, not 0")
        want_total = -k * spec["g"] * T * T
        if abs(out["carrier_phase"] - want_total) > ref.gk_bound + 4 * _ulp(want_total):
            fails.append(f"mzi total {out['carrier_phase']!r} is not -k g T^2 = {want_total!r}")
    if geometry == "rbi-double":
        want_total = want["eta"] * (-2.0 * HBAR * k * k * T / spec["mass"])
        if abs(out["carrier_phase"] - want_total) > ref.gk_bound + 1e-12 * abs(want_total):
            fails.append(f"rbi-double total {out['carrier_phase']!r} is not -2 hbar k^2 T/m = {want_total!r}")
    return fails


# --- oracle ---------------------------------------------------------------------


def _slope(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    return sxy / sxx


def check_oracle(spec: dict, out: tuple, parts: dict) -> list[str]:
    """Check one oracle-convergence output (top-hat then cosine study).

    ``parts`` holds ``S`` (recoil_double_sum) and ``delta_tau``
    (proper_time_difference) of the input, the closed form the oracle tests.
    """
    fails: list[str] = []
    pulses = spec_pulses(spec)
    s = float(exact_recoil_sum(pulses))
    _bits_check(fails, "recoil_double_sum S", parts["S"], s)
    _bits_check(fails, "proper_time_difference", parts["delta_tau"], delta_tau_of(s, spec["mass"])[0])
    n = len(spec["widths"])
    for i, shape in enumerate(("tophat", "cosine")):
        block = out[i * (2 * n + 1) : (i + 1) * (2 * n + 1)]
        widths, res, exponent = block[:n], block[n : 2 * n], block[2 * n]
        if list(widths) != list(spec["widths"]):
            fails.append(f"{shape}: widths {widths!r} are not the requested {spec['widths']!r}")
            continue
        if not all(math.isfinite(r) and r > _ORACLE_FLOOR for r in res):
            fails.append(f"{shape}: residuals {res!r} are not all finite and above the floor")
            continue
        if not all(b < a for a, b in zip(res[:-1], res[1:])):
            fails.append(f"{shape}: residuals {res!r} do not decrease strictly")
        if not abs(exponent - 1.0) <= 0.05:
            fails.append(f"{shape}: fitted exponent {exponent!r} is not about 1")
        refit = _slope([math.log(w) for w in widths], [math.log(r) for r in res])
        if not abs(refit - exponent) <= 1e-9 * abs(refit):
            fails.append(f"{shape}: fitted exponent {exponent!r} disagrees with a refit {refit!r}")
    return fails


# --- cli ------------------------------------------------------------------------


def _row_values(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _check_sim(fails: list[str], spec: dict, stdout: str) -> None:
    doc = json.loads(stdout)
    ref = BeatReference(spec)
    dtau, recoil = delta_tau_of(ref.s, spec["mass"])
    phase = {
        "delta_tau": dtau,
        "recoil_phase": recoil,
        "gravito_recoil": ref.gk,
        "laser_phase": ref.lp,
        "total_phase": recoil + ref.gk + ref.lp,
    }
    for name, want in phase.items():
        _bits_check(fails, f"simulate phase.{name}", doc["phase"][name], want)
    for name in BEAT_FIELDS:
        _bits_check(fails, f"simulate beat.{name}", doc["beat"][name], ref.beat[name])


def _check_closure(fails: list[str], spec: dict, stdout: str) -> None:
    rows = dict(line.split() for line in _row_values(stdout))
    pulses = [tuple(p) for p in spec["pulses"]]
    m0, m1, m2 = exact_moments(pulses)
    duration = pulses[-1][0]
    hbar_over_m = HBAR / spec["mass"]
    want = {
        "delta_z_final": hbar_over_m * (duration * m0 - m1),
        "delta_v_final": hbar_over_m * m0,
        "moment0": m0,
        "moment1": m1,
        "moment2": m2,
    }
    for name, value in want.items():
        _bits_check(fails, f"check {name}", float(rows[name]), value)
    if rows.get("closed") != "true":
        fails.append("check reports a closed random sequence as open")


def _check_oracle_cli(fails: list[str], spec: dict, stdout: str) -> None:
    doc = json.loads(stdout)["oracle"]
    pulses = spec_pulses(spec)
    s = float(exact_recoil_sum(pulses))
    closed = delta_tau_of(s, spec["mass"])[0]
    _bits_check(fails, "oracle delta_tau_closed", doc["delta_tau_closed"], closed)
    res, numeric = doc["rel_residual"], doc["delta_tau_numeric"]
    if not 0.0 < res < _ORACLE_TOL:
        fails.append(f"oracle rel_residual {res!r} outside (0, {_ORACLE_TOL})")
    k_max = max(max(abs(p[1]), abs(p[2])) for p in pulses)
    v_recoil = HBAR * k_max / (spec["mass"] * C)
    span = pulses[-1][0] - min(0.0, pulses[0][0])
    scale = max(abs(closed), v_recoil * v_recoil * span)
    _bits_check(fails, "oracle rel_residual", res, abs(numeric - closed) / scale)
    omega_c = spec["mass"] * C**2 / HBAR
    total = omega_c * numeric + doc["gravito_recoil_numeric"] + exact_laser(pulses)
    _bits_check(fails, "oracle total_phase_numeric", doc["total_phase_numeric"], total)
    gk_float, _, bound = exact_gravito(pulses, spec["g"], spec["z0"], spec["v0"])
    scale = max(abs(gk_float), spec["k"] * (abs(spec["z0"]) + abs(spec["v0"]) + spec["g"]))
    if not abs(doc["gravito_recoil_numeric"] - gk_float) <= 1e-6 * scale + bound:
        fails.append(
            f"oracle gravito_recoil_numeric {doc['gravito_recoil_numeric']!r} "
            f"is not near the closed form {gk_float!r}"
        )


def _check_scan(fails: list[str], spec: dict, stdout: str, linspace) -> None:
    lines = _row_values(stdout)
    if lines[0] != "T,delta_tau,envelope,carrier_phase,P":
        fails.append(f"scan header {lines[0]!r}")
        return
    grid = linspace(spec["from"], spec["to"], spec["steps"])
    if len(lines) - 1 != len(grid):
        fails.append(f"scan has {len(lines) - 1} rows, expected {len(grid)}")
        return
    for line, t in zip(lines[1:], grid):
        row = [float(x) for x in line.split(",")]
        row_spec = {**spec, "T": t}
        ref = BeatReference(row_spec)
        want = [t, ref.beat["delta_tau"], ref.beat["envelope"], ref.beat["carrier_phase"], ref.beat["p_combined"]]
        for name, got, value in zip(("T", "delta_tau", "envelope", "carrier_phase", "P"), row, want):
            if not same_bits(got, value):
                fails.append(f"scan row T={t!r} {name}: got {got!r}, reference {value!r}")
                return


def check_cli(spec: dict, results: list[tuple[int, str]], linspace) -> list[str]:
    """Check the (exit code, stdout) of the four processes of one cli-session operation.

    ``linspace(start, stop, n)`` gives the scan grid as floats (numpy's, as
    the CLI documents its grid).
    """
    fails: list[str] = []
    names = ("simulate", "check", "oracle", "scan")
    for name, (code, _) in zip(names, results):
        if code != 0:
            fails.append(f"{name} exited {code}")
    if fails:
        return fails
    (_, sim), (_, chk), (_, orc), (_, scan) = results
    try:
        _check_sim(fails, spec["simulate"], sim)
        _check_closure(fails, spec["check"], chk)
        _check_oracle_cli(fails, spec["oracle"], orc)
        _check_scan(fails, spec["scan"], scan, linspace)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        fails.append(f"unparseable output: {exc!r}")
    return fails

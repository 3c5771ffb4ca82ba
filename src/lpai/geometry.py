"""Standard interferometer geometries, closure diagnostics and a file format.

A geometry closes when both branches meet again in phase space at the end of
the sequence.  With instantaneous kicks that is a property of the transfer
differences alone: writing dk_l = k_upper_l - k_lower_l, the final velocity
offset is (hbar/m) * sum(dk_l) and the final position offset is
(hbar/m) * (t_end * sum(dk_l) - sum(t_l * dk_l)), so closure means the zeroth
and first time-moments of dk vanish.  A vanishing second moment additionally
removes sensitivity to a uniform acceleration of the launch trajectory.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import constants
from ._exactsum import array_fsum, triple_product_rows, triple_product_terms, two_product
from .core import Pulse, PulseSequence, Species
from .errors import GeometryParseError

# Relative weight for the moment tolerances; scaled by the largest |k| and
# |t*k| in the sequence so parsed decimal files still register as closed.
_CLOSURE_RTOL = 1e-12


@dataclass(frozen=True)
class ClosureReport:
    """Phase-space mismatch of the two branches at the end of the sequence."""

    delta_z_final: float  # m
    delta_v_final: float  # m/s
    moment0: float        # 1/m,   sum of dk
    moment1: float        # s/m,   sum of t*dk
    moment2: float        # s^2/m, sum of t^2*dk
    closed: bool


# Pulse count from which _moments forms its terms in one array pass; the
# loop is faster below it.  Measured on a 2-CPU x86-64 machine with numpy
# 2.4: loop 15/33/50/400 us, array 37/42/45/100 us at 4/8/12/100 pulses.
_MOMENTS_MIN_PULSES = 10


def _moments(seq: PulseSequence) -> tuple[float, float, float]:
    """Exactly rounded moments sum(dk), sum(t dk), sum(t^2 dk).

    Each moment is the fsum of exact product expansions taken column by
    column, pulse 0 upper, pulse 0 lower, pulse 1 upper and so on, with the
    lower branch's terms multiplied by -1.0.  From _MOMENTS_MIN_PULSES pulses
    on, the terms of all columns are formed in one array pass and laid out in
    that same order, so both paths sum the same floats in the same order:
    they return the same moments, or raise the same fsum exception when
    terms overflow.  That holds for float fields; the array pass reads int
    fields as float64, as recoil_double_sum does.
    """
    if seq.n_pulses >= _MOMENTS_MIN_PULSES:
        return _moments_array(seq)
    m0_terms: list[float] = []
    m1_terms: list[float] = []
    m2_terms: list[float] = []
    for p in seq.pulses:
        for sign, k in ((1.0, p.k_upper), (-1.0, p.k_lower)):
            m0_terms.append(sign * k)
            q, e = two_product(p.t, k)
            m1_terms.extend((sign * q, sign * e))
            m2_terms.extend(sign * u for u in triple_product_terms(p.t, p.t, k))
    return math.fsum(m0_terms), math.fsum(m1_terms), math.fsum(m2_terms)


def _moments_array(seq: PulseSequence) -> tuple[float, float, float]:
    """_moments' terms for all columns from one triple_product_rows call.

    The factors (t, t, k) give the four terms of t*t*k, and (1, t, k) give
    two_product(t, k) as their q and f terms, since 1*t is t exactly.
    """
    import numpy as np

    n, pulses = seq.n_pulses, seq.pulses
    fields = np.array(
        [p.t for p in pulses] + [p.k_upper for p in pulses] + [p.k_lower for p in pulses],
        dtype=float,
    ).reshape(3, n)
    factors = np.ones((3, 2, 2, n))  # (a, b, c) x (t*t*k, 1*t*k) x branch x pulse
    factors[0, 0] = fields[0]
    factors[1] = fields[0]
    factors[2] = fields[1:]
    # Products beyond the float range become inf/nan terms and fsum reports
    # them; numpy's warnings would only repeat that on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = triple_product_rows(factors.reshape(3, -1)).reshape(4, 2, 2, n)  # q, g, f, h
    # Each moment's terms on axes (term, branch, pulse); the transpose lays
    # them out pulse by pulse, then branch by branch, as the loop does.
    k, m1, m2 = fields[1:], terms[[0, 2], 1], terms[[0, 2, 1, 3], 0]
    for m in (k, m1, m2):
        m[..., 1, :] *= -1.0
    return tuple(array_fsum(m.T.reshape(-1)) for m in (k, m1, m2))


def _closure_scales(seq: PulseSequence) -> tuple[float, float]:
    """Largest |k| and largest |t*k| over the pulses, both branches; 0.0 if none."""
    k_scale = tk_scale = 0.0
    for p in seq.pulses:
        k = max(abs(p.k_upper), abs(p.k_lower))
        tk = abs(p.t) * k
        if k > k_scale:
            k_scale = k
        if tk > tk_scale:
            tk_scale = tk
    return k_scale, tk_scale


def closure_check(seq: PulseSequence, species: Species) -> ClosureReport:
    """Evaluate the closure moments and the final phase-space offsets.

    The ``closed`` flag depends only on the moments (species-independent);
    the offsets scale with hbar/mass.
    """
    m0, m1, m2 = _moments(seq)
    k_scale, tk_scale = _closure_scales(seq)
    closed = abs(m0) <= _CLOSURE_RTOL * k_scale and abs(m1) <= _CLOSURE_RTOL * tk_scale
    hbar_over_m = constants.HBAR / species.mass
    delta_v = hbar_over_m * m0
    delta_z = hbar_over_m * (seq.duration * m0 - m1)
    return ClosureReport(delta_z, delta_v, m0, m1, m2, closed)


def _check_builder_args(k: float, T: float, Tp: float | None = None) -> None:
    if not (math.isfinite(k) and k != 0.0):
        raise ValueError(f"k must be finite and non-zero, got {k!r}")
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be positive and finite, got {T!r}")
    if Tp is not None and not (math.isfinite(Tp) and Tp >= 0.0):
        raise ValueError(f"Tprime must be non-negative and finite, got {Tp!r}")


def build_mzi(k: float, T: float) -> PulseSequence:
    """Three-pulse Mach-Zehnder: split, redirect, recombine at (0, T, 2T)."""
    _check_builder_args(k, T)
    return PulseSequence(
        (
            Pulse(0.0, k, 0.0),
            Pulse(T, -k, k),
            Pulse(2.0 * T, 0.0, -k),
        ),
        name="mzi",
    )


def build_rbi_symmetric(k: float, T: float, Tp: float = 0.0) -> PulseSequence:
    """Four-pulse Ramsey-Borde, one beam-splitter pair per branch.

    Pulses at (0, T, T+Tp, 2T+Tp); the first pair addresses the upper branch,
    the second pair the lower one.  A zero pause merges the two central
    pulses into one pulse acting on both branches.
    """
    _check_builder_args(k, T, Tp)
    if Tp == 0.0:
        return PulseSequence(
            (
                Pulse(0.0, k, 0.0),
                Pulse(T, -k, k),
                Pulse(2.0 * T, 0.0, -k),
            ),
            name="rbi-sym",
        )
    t3 = T + Tp
    t4 = 2.0 * T + Tp
    return PulseSequence(
        (
            Pulse(0.0, k, 0.0),
            Pulse(T, -k, 0.0),
            Pulse(t3, 0.0, k),
            Pulse(t4, 0.0, -k),
        ),
        name="rbi-sym",
    )


def build_rbi_asymmetric(k: float, T: float, Tp: float = 0.0) -> PulseSequence:
    """Four-pulse Ramsey-Borde acting on one branch only: kicks (+k,-k,-k,+k).

    Pulses at (0, T, T+Tp, 2T+Tp) all address the upper branch; the lower
    branch never moves.  The proper-time difference is independent of the
    pause Tp.  A zero pause merges the two central pulses.
    """
    _check_builder_args(k, T, Tp)
    if Tp == 0.0:
        return PulseSequence(
            (
                Pulse(0.0, k, 0.0),
                Pulse(T, -2.0 * k, 0.0),
                Pulse(2.0 * T, k, 0.0),
            ),
            name="rbi-asym",
        )
    t3 = T + Tp
    t4 = 2.0 * T + Tp
    return PulseSequence(
        (
            Pulse(0.0, k, 0.0),
            Pulse(T, -k, 0.0),
            Pulse(t3, -k, 0.0),
            Pulse(t4, k, 0.0),
        ),
        name="rbi-asym",
    )


def build_rbi_double_loop(k: float, T: float) -> PulseSequence:
    """Figure-eight single-branch geometry: kicks (+k,-2k,+2k,-k) at (0,T,3T,4T).

    All three closure moments vanish, so the signal is insensitive to the
    launch trajectory and to a uniform acceleration; what remains is the pure
    recoil phase -2*hbar*k^2*T/mass.
    """
    _check_builder_args(k, T)
    return PulseSequence(
        (
            Pulse(0.0, k, 0.0),
            Pulse(T, -2.0 * k, 0.0),
            Pulse(3.0 * T, 2.0 * k, 0.0),
            Pulse(4.0 * T, -k, 0.0),
        ),
        name="rbi-double",
    )


# --- geometry file format ---------------------------------------------------
#
#   # comment until end of line
#   name <token>                 (optional, at most once)
#   tend <float>                 (optional, at most once; default: last pulse)
#   pulse <t> <k_upper> <k_lower> [<phi_upper> <phi_lower>]
#
# Numbers are plain decimal floats; pulse times must strictly increase in
# file order.  Serialization writes 17 significant digits, so a
# parse(serialize(seq)) round trip reproduces every float bit-exactly.

_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?\Z")
_NONFINITE_RE = re.compile(r"[+-]?(nan|inf|infinity)\Z", re.IGNORECASE)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _phase_worth_writing(x: float) -> bool:
    # -0.0 must be written out or a round trip would lose its sign bit
    return x != 0.0 or math.copysign(1.0, x) < 0.0


def serialize_geometry(seq: PulseSequence) -> str:
    """Render a sequence in the line-oriented geometry format."""
    lines = []
    if seq.name is not None:
        if not seq.name or re.search(r"[\s#]", seq.name):
            raise ValueError(f"geometry name must be a single token, got {seq.name!r}")
        lines.append(f"name {seq.name}")
    lines.append(f"tend {_fmt(seq.duration)}")
    with_phases = any(
        _phase_worth_writing(p.phi_upper) or _phase_worth_writing(p.phi_lower)
        for p in seq.pulses
    )
    for p in seq.pulses:
        cols = [_fmt(p.t), _fmt(p.k_upper), _fmt(p.k_lower)]
        if with_phases:
            cols += [_fmt(p.phi_upper), _fmt(p.phi_lower)]
        lines.append("pulse " + " ".join(cols))
    return "\n".join(lines) + "\n"


def _tokenize(line: str) -> list[tuple[int, str]]:
    """(1-based column, token) pairs; '#' starts a comment."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", line)]


def _parse_number(token: str, line_no: int, col: int) -> float:
    if _NONFINITE_RE.match(token):
        raise GeometryParseError(
            f"non-finite number {token!r}", line=line_no, column=col, rule="non-finite number"
        )
    if not _NUMBER_RE.match(token):
        raise GeometryParseError(
            f"bad numeric token {token!r}", line=line_no, column=col, rule="syntax"
        )
    return float(token)


def parse_geometry(text: str) -> PulseSequence:
    """Parse the geometry file format; raises GeometryParseError with line/column."""
    name: str | None = None
    tend: float | None = None
    tend_pos: tuple[int, int] | None = None
    pulses: list[Pulse] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        col0, head = tokens[0]
        args = tokens[1:]
        if head == "name":
            if name is not None:
                raise GeometryParseError(
                    "duplicate 'name' directive", line=line_no, column=col0, rule="duplicate directive"
                )
            if len(args) != 1:
                raise GeometryParseError(
                    f"'name' takes one token, got {len(args)}", line=line_no, column=col0, rule="syntax"
                )
            name = args[0][1]
        elif head == "tend":
            if tend is not None:
                raise GeometryParseError(
                    "duplicate 'tend' directive", line=line_no, column=col0, rule="duplicate directive"
                )
            if len(args) != 1:
                raise GeometryParseError(
                    f"'tend' takes one number, got {len(args)}", line=line_no, column=col0, rule="syntax"
                )
            tend = _parse_number(args[0][1], line_no, args[0][0])
            tend_pos = (line_no, col0)
        elif head == "pulse":
            if len(args) not in (3, 5):
                raise GeometryParseError(
                    f"'pulse' takes 3 or 5 numbers, got {len(args)}",
                    line=line_no,
                    column=col0,
                    rule="syntax",
                )
            values = [_parse_number(tok, line_no, col) for col, tok in args]
            if pulses and values[0] <= pulses[-1].t:
                raise GeometryParseError(
                    f"pulse time {values[0]!r} does not exceed previous time {pulses[-1].t!r}",
                    line=line_no,
                    column=args[0][0],
                    rule="non-monotone times",
                )
            phi_u, phi_l = (values[3], values[4]) if len(values) == 5 else (0.0, 0.0)
            pulses.append(Pulse(values[0], values[1], values[2], phi_u, phi_l))
        else:
            raise GeometryParseError(
                f"unknown directive {head!r}", line=line_no, column=col0, rule="syntax"
            )

    if tend is not None and pulses and tend < pulses[-1].t:
        line_no, col0 = tend_pos  # type: ignore[misc]
        raise GeometryParseError(
            f"tend {tend!r} precedes last pulse time {pulses[-1].t!r}",
            line=line_no,
            column=col0,
            rule="duration before last pulse",
        )
    return PulseSequence(tuple(pulses), duration=tend, name=name)

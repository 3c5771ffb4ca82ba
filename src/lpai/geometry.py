"""Standard interferometer geometries, closure diagnostics and a file format.

A geometry closes when both branches meet again in phase space at the end of
the sequence.  With instantaneous kicks that is a property of the transfer
differences alone: writing dk_l = k_upper_l - k_lower_l, the final velocity
offset is (hbar/m) * sum(dk_l) and the final position offset is
(hbar/m) * (t_end * sum(dk_l) - sum(t_l * dk_l)), so closure means the zeroth
and first time-moments of dk vanish.  A vanishing second moment additionally
removes sensitivity to a uniform acceleration of the launch trajectory.
The moments are exact integer sums over the stored fields, rounded once,
and their tolerances scale with the largest |k| and |t k|; both come from
_exactsum.PulseTable, shared with the recoil double sum.

The four builders are one pulse train at (0, T, T+Tp, 2T+Tp); a zero pause
merges its central pair, the Tp -> 0 limit in which rbi-sym is mzi's train.
Arguments whose train has a time or kick beyond the float range, or times
that do not increase strictly, are refused with a ValueError naming them.
A geometry file's sequence rules are PulseSequence's structural ones,
reported at the pulse's time token or at 'tend'.  serialize_geometry refuses
whatever parse_geometry would refuse, so the round trip holds for every
sequence it accepts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from . import constants
from ._exactsum import PulseTable
from .core import STRUCTURAL_RULES, Pulse, PulseSequence, Species, require_valid, validate_sequence
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


def closure_check(
    seq: PulseSequence, species: Species, table: PulseTable | None = None
) -> ClosureReport:
    """Evaluate the closure moments and the final phase-space offsets.

    The ``closed`` flag depends only on the moments (species-independent);
    the offsets scale with hbar/mass.  Each moment is the correctly rounded
    exact sum over the stored fields; one beyond the float range raises
    NonFiniteResultError.  The moments' tolerances are _CLOSURE_RTOL times
    the table's scales(), the largest |k| and |t k|.  table, when given, is
    PulseTable(seq.pulses), made by a caller that passes the same table to
    recoil_double_sum.
    """
    table = table or PulseTable(seq.pulses)
    m0, m1, m2 = table.moments()
    k_scale, tk_scale = table.scales()
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


def _train(
    name: str, k: float, T: float, Tp: float, upper, lower, arg_names: tuple
) -> PulseSequence:
    """Pulses at (0, T, T+Tp, 2T+Tp) kicking each branch by its multiples of k.

    upper and lower hold one multiple (0, +-1 or +-2) per pulse.  Tp == 0.0
    (-0.0 included) merges the central pair into one pulse at T carrying both
    kicks.  A train whose times are not finite and strictly increasing, or
    whose kicks are not finite (T + Tp rounding to T, 2T + Tp or 2k beyond
    the float range), raises ValueError naming the builder's arguments,
    arg_names among (k, T, Tprime).
    """
    times, upper, lower = [0.0, T, T + Tp, 2.0 * T + Tp], list(upper), list(lower)
    if Tp == 0.0:
        del times[2]
        upper[1:3], lower[1:3] = [upper[1] + upper[2]], [lower[1] + lower[2]]
    kick = {0: 0.0, 1: k, -1: -k, 2: 2.0 * k, -2: -2.0 * k}
    pulses = tuple(Pulse(t, kick[u], kick[l]) for t, u, l in zip(times, upper, lower))
    seq = PulseSequence(pulses, name=name)
    if seq._violations:  # the sequence's own scan, made when it was built
        given = ", ".join(f"{n} = {v!r}" for n, v in zip(arg_names, (k, T, Tp)))
        raise ValueError(
            f"{name} at {given} has no valid pulse train ({seq._violations[0].rule}): its "
            "times must be finite and strictly increasing and its kicks finite"
        )
    return seq


# One beam-splitter pair per branch: the first pair on the upper branch
_SYMMETRIC = ((1, -1, 0, 0), (0, 0, 1, -1))


def build_mzi(k: float, T: float) -> PulseSequence:
    """Three-pulse Mach-Zehnder: split, redirect, recombine at (0, T, 2T); rbi-sym at Tp = 0."""
    _check_builder_args(k, T)
    return _train("mzi", k, T, 0.0, *_SYMMETRIC, ("k", "T"))


def build_rbi_symmetric(k: float, T: float, Tp: float = 0.0) -> PulseSequence:
    """Four-pulse Ramsey-Borde, one beam-splitter pair per branch.

    Pulses at (0, T, T+Tp, 2T+Tp); the first pair addresses the upper branch,
    the second pair the lower one.  A zero pause merges the two central
    pulses into one pulse acting on both branches.
    """
    _check_builder_args(k, T, Tp)
    return _train("rbi-sym", k, T, Tp, *_SYMMETRIC, ("k", "T", "Tprime"))


def build_rbi_asymmetric(k: float, T: float, Tp: float = 0.0) -> PulseSequence:
    """Four-pulse Ramsey-Borde acting on one branch only: kicks (+k,-k,-k,+k).

    Pulses at (0, T, T+Tp, 2T+Tp) all address the upper branch; the lower
    branch never moves.  The proper-time difference is independent of the
    pause Tp.  A zero pause merges the two central pulses.
    """
    _check_builder_args(k, T, Tp)
    return _train("rbi-asym", k, T, Tp, (1, -1, -1, 1), (0, 0, 0, 0), ("k", "T", "Tprime"))


def build_rbi_double_loop(k: float, T: float) -> PulseSequence:
    """Figure-eight single-branch geometry: kicks (+k,-2k,+2k,-k) at (0,T,3T,4T).

    All three closure moments vanish, so the signal is insensitive to the
    launch trajectory and to a uniform acceleration; what remains is the pure
    recoil phase -2*hbar*k^2*T/mass.  Its times are the train's at Tp = 2T.
    """
    _check_builder_args(k, T)
    return _train("rbi-double", k, T, 2.0 * T, (1, -2, 2, -1), (0, 0, 0, 0), ("k", "T"))


# --- geometry file format ---------------------------------------------------
#
#   # comment until end of line
#   name <token>                 (optional, at most once)
#   tend <float>                 (optional, at most once; default: last pulse)
#   pulse <t> <k_upper> <k_lower> [<phi_upper> <phi_lower>]
#
# Numbers are plain decimal floats.  Serialization writes 17 significant
# digits, so a parse(serialize(seq)) round trip reproduces every float
# bit-exactly.

_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?\Z")
_NONFINITE_RE = re.compile(r"[+-]?(nan|inf|infinity)\Z", re.IGNORECASE)


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _phase_worth_writing(x: float) -> bool:
    # -0.0 must be written out or a round trip would lose its sign bit
    return x != 0.0 or math.copysign(1.0, x) < 0.0


def serialize_geometry(seq: PulseSequence) -> str:
    """Render a sequence in the geometry format; ValueError for one parsing would refuse."""
    require_valid(seq, structural_only=True)
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
    """The token's float; nan, inf and a decimal beyond the float range (1e400)
    are a non-finite number at the token's own column."""
    if not (_NUMBER_RE.match(token) or _NONFINITE_RE.match(token)):
        raise GeometryParseError(
            f"bad numeric token {token!r}", line=line_no, column=col, rule="syntax"
        )
    value = float(token)
    if not math.isfinite(value):
        raise GeometryParseError(
            f"non-finite number {token!r}", line=line_no, column=col, rule="non-finite number"
        )
    return value


def parse_geometry(text: str) -> PulseSequence:
    """Parse the geometry file format; raises GeometryParseError with line/column."""
    directives: dict[str, str | float] = {}  # 'name' and 'tend', each read once
    pulses: list[Pulse] = []
    where: dict[int | None, tuple[int, int]] = {}  # time token by pulse index; None: 'tend'

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        col0, head = tokens[0]
        args = tokens[1:]
        if head in ("name", "tend"):
            if head in directives:
                raise GeometryParseError(
                    f"duplicate {head!r} directive", line=line_no, column=col0, rule="duplicate directive"
                )
            if len(args) != 1:
                what = "number" if head == "tend" else "token"
                raise GeometryParseError(
                    f"{head!r} takes one {what}, got {len(args)}", line=line_no, column=col0, rule="syntax"
                )
            col, token = args[0]
            if head == "tend":
                token = _parse_number(token, line_no, col)
                where[None] = (line_no, col0)
            directives[head] = token
        elif head == "pulse":
            if len(args) not in (3, 5):
                raise GeometryParseError(
                    f"'pulse' takes 3 or 5 numbers, got {len(args)}", line=line_no, column=col0, rule="syntax"
                )
            where[len(pulses)] = (line_no, args[0][0])
            # the phases default to 0.0 when the line has no phase columns
            pulses.append(Pulse(*(_parse_number(tok, line_no, col) for col, tok in args)))
        else:
            raise GeometryParseError(
                f"unknown directive {head!r}", line=line_no, column=col0, rule="syntax"
            )

    seq = PulseSequence(tuple(pulses), duration=directives.get("tend"), name=directives.get("name"))
    for v in validate_sequence(seq):
        if v.rule in STRUCTURAL_RULES:
            # a sequence-level finding needs a 'tend': the default duration is the last time
            line_no, col = where[v.pulse_index]
            raise GeometryParseError(v.message, line=line_no, column=col, rule=v.rule)
    return seq

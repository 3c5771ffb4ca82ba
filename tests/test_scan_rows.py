"""`lpai scan` rows against per-row beat and total_phase, and visibility_scan.

Every scan row is one beat (with --omega) or one total_phase call on the
row's built sequence: each CSV line must carry that call's bits, a zero
parameter must give the degenerate row, and the first failing row in grid
order must decide the exit code and stderr, with nothing on stdout.
visibility_scan maps clock_limit_phase over T the same way.
"""

import contextlib
import io
import math
from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

from lpai import (
    ClockPair,
    GravityEnv,
    InitialConditions,
    InternalConsistencyError,
    NonFiniteResultError,
    OpenSequenceError,
    Species,
    beat,
    build_rbi_symmetric,
    clock_limit_phase,
    total_phase,
    visibility_scan,
)
from lpai.cli import _BUILDERS, _csv_line, _linspace, main


def mostly(typical, extremes):
    """typical three draws in four, else one of extremes."""
    return st.one_of(typical, typical, typical, st.sampled_from(extremes))


# Wave numbers of either sign and pulse separations, with the values that
# make a row degenerate (0), fail in its builder (-0.1), in its closure
# moments (T = 1e300, or k = 1e300 whose moments come out nan) or in its
# recoil sum (k = 1e155).
WAVE_NUMBERS = mostly(
    st.floats(1e5, 1e11).flatmap(lambda k: st.sampled_from([k, -k])), [0.0, 1e155, 1e300]
)
SEPARATIONS = mostly(st.floats(1e-4, 2.0), [0.0, -0.1, 1e300, 8.5e307])


@st.composite
def scans(draw, omegas):
    """A scan: geometry, varied and fixed parameters, grid, mass, omega and g."""
    vary = draw(st.sampled_from(["T", "k"]))
    varied, fixed = (SEPARATIONS, WAVE_NUMBERS) if vary == "T" else (WAVE_NUMBERS, SEPARATIONS)
    start, stop = sorted(draw(st.lists(varied, min_size=2, max_size=2)))
    return {
        "geometry": draw(st.sampled_from(list(_BUILDERS))),
        "vary": vary,
        "start": start,
        "stop": stop,
        "steps": draw(st.integers(1, 8)),
        "fixed": draw(fixed),
        "t_pause": draw(st.sampled_from([0.0, 0.0375, 0.3])),
        "mass": draw(st.sampled_from([5e-324, 1e-30, 1.443157e-25, 1e-20])),
        "omega": draw(st.sampled_from(omegas)),
        # 1e308 overflows the gravito-recoil sum
        "g": draw(st.sampled_from([0.0, 9.81, -3.5e4, 1e308])),
    }


def argv(scan):
    out = [
        "scan", "--geometry", scan["geometry"], "--vary", scan["vary"],
        f"--from={scan['start']!r}", f"--to={scan['stop']!r}", "--steps", str(scan["steps"]),
        f"--{'k' if scan['vary'] == 'T' else 'T'}={scan['fixed']!r}",
        f"--mass={scan['mass']!r}", f"--g={scan['g']!r}",
    ]
    # only the pause builders read --Tprime; the others refuse it
    if "Tprime" in _BUILDERS[scan["geometry"]][1]:
        out.append(f"--Tprime={scan['t_pause']!r}")
    if scan["omega"] is not None:
        out.append(f"--omega={scan['omega']!r}")
    return out


def failure(exc):
    """The exit code and stderr that lpai prints for exc."""
    if isinstance(exc, OpenSequenceError):
        return 2, f"open geometry: {exc}\n"
    if isinstance(exc, (NonFiniteResultError, InternalConsistencyError)):
        return 3, f"numeric failure: {exc}\n"
    if isinstance(exc, ValueError):
        return 1, f"error: {exc}\n"
    raise exc


def expected(scan):
    """(exit code, CSV lines after the column line, stderr) from per-row library calls."""
    species, env, ics = Species(scan["mass"]), GravityEnv(scan["g"]), InitialConditions()
    build, reads = _BUILDERS[scan["geometry"]]
    lines = []
    try:
        clock = None if scan["omega"] is None else ClockPair(scan["mass"], scan["omega"])
        for value in _linspace(scan["start"], scan["stop"], scan["steps"]):
            k, t_sep = (scan["fixed"], value) if scan["vary"] == "T" else (value, scan["fixed"])
            if k == 0.0 or t_sep == 0.0:
                fields = [0.0] * 5 if clock is None else [0.0, 1.0, 0.0, 1.0]
            else:
                point = {"k": k, "T": t_sep, "Tprime": scan["t_pause"]}
                seq = build(*(point[name] for name in reads))
                if clock is None:
                    fields = astuple(total_phase(seq, species, env, ics))
                else:
                    b = beat(seq, clock, env, ics)
                    fields = [b.delta_tau, b.envelope, b.carrier_phase, b.p_combined]
            lines.append(_csv_line([value, *fields]))
    except Exception as exc:
        code, err = failure(exc)
        return code, [], err
    return 0, lines, ""


def check_scan(scan):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv(scan))
    want_code, want_lines, want_err = expected(scan)
    assert (code, err.getvalue()) == (want_code, want_err)
    if code:
        assert out.getvalue() == ""
    else:
        body = [line + "\n" for line in out.getvalue().splitlines() if not line.startswith("#")]
        assert body[1:] == want_lines


@settings(max_examples=150, deadline=None)
@given(scans([None]))
def test_phase_rows_match_total_phase_row_by_row(scan):
    check_scan(scan)


@settings(max_examples=150, deadline=None)
@given(scans([0.0, 1e10, 2.696928e15]))
def test_beat_rows_match_beat_row_by_row(scan):
    check_scan(scan)


def test_visibility_scan_matches_the_clock_limit_phase_across_pulse_counts():
    clock = ClockPair(1.443157e-25, 2.696928e15)

    def builder(t_sep):  # three pulses without a pause, four with one
        return build_rbi_symmetric(1.8e10, t_sep, 0.05 if t_sep > 0.2 else 0.0)

    times = [0.0, 0.1, 0.25, 0.15, 0.3, 0.0, 0.35]
    rows = visibility_scan(builder, iter(times), clock)
    expected = [
        (0.0, 1.0) if t == 0.0 else (t, math.cos(0.5 * clock_limit_phase(builder(t), clock)[0]))
        for t in times
    ]
    assert rows == expected

"""The scan rows against per-row beat, total_phase and clock_limit_phase.

phase_rows, beat_rows and visibility_scan map total_phase, beat and
clock_limit_phase over a grid row by row: every row must carry the bits of
the per-row function, a zero parameter must give the degenerate row without
a build, and a failing row must raise its exception after every earlier row.
"""

import math
import tracemalloc
from dataclasses import asdict

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpai import (
    ClockPair,
    GravityEnv,
    InitialConditions,
    Species,
    beat,
    build_rbi_symmetric,
    clock_limit_phase,
    total_phase,
    visibility_scan,
)
from lpai.cli import _BUILDERS, _build_sequence
from lpai.clock import beat_rows
from lpai.phase import phase_rows


def reference(grid, evaluate):
    """evaluate(params) row by row, None for a degenerate row, up to the first exception."""
    out = []
    for params in grid:
        if 0.0 in params:
            out.append(None)
            continue
        try:
            out.append(evaluate(params))
        except Exception as exc:
            out.append(exc)
            break
    return out


def drain(rows):
    out = []
    try:
        out.extend(rows)
    except Exception as exc:
        out.append(exc)
    return out


def hexed(row):
    if row is None:
        return None
    if isinstance(row, Exception):
        return type(row), str(row)
    return {name: float.hex(value) for name, value in asdict(row).items()}


def mostly(typical, extremes):
    """typical three draws in four, else one of extremes."""
    return st.one_of(typical, typical, typical, st.sampled_from(extremes))


# Wave numbers of either sign and pulse separations, with the values that
# make a row degenerate (0), fail in its builder (-0.1), in its closure gate
# (1e300 s^2 k) or in its recoil sum (k = 1e155).
WAVE_NUMBERS = mostly(
    st.floats(1e5, 1e11).flatmap(lambda k: st.sampled_from([k, -k])), [0.0, 1e155, 1e300]
)
SEPARATIONS = mostly(st.floats(1e-4, 2.0), [0.0, -0.1, 1e300, 8.5e307])


@st.composite
def scans(draw):
    geometry = draw(st.sampled_from(_BUILDERS))
    t_pause = draw(st.sampled_from([0.0, 0.0375, 0.3]))
    rows = draw(st.integers(1, 12))
    ks = draw(st.lists(WAVE_NUMBERS, min_size=rows, max_size=rows))
    ts = draw(st.lists(SEPARATIONS, min_size=rows, max_size=rows))
    mass = draw(st.sampled_from([5e-324, 1e-30, 1.443157e-25, 1e-20]))
    omega = draw(st.sampled_from([0.0, 1e10, 2.696928e15]))
    env = GravityEnv(draw(st.sampled_from([0.0, 9.81, -3.5e4])))
    ics = InitialConditions(draw(st.sampled_from([0.0, 0.4])), draw(st.sampled_from([0.0, -1.3])))

    def build(k, t_sep):
        return _build_sequence(geometry, k, t_sep, t_pause)

    return build, list(zip(ks, ts)), mass, omega, env, ics


@settings(max_examples=150, deadline=None)
@given(scans())
def test_phase_rows_match_total_phase_row_by_row(scan):
    build, grid, mass, _, env, ics = scan
    species = Species(mass)
    expected = reference(grid, lambda params: total_phase(build(*params), species, env, ics))
    got = drain(phase_rows(build, grid, species, env, ics))
    assert list(map(hexed, got)) == list(map(hexed, expected))


@settings(max_examples=150, deadline=None)
@given(scans())
def test_beat_rows_match_beat_row_by_row(scan):
    build, grid, mass, omega, env, ics = scan
    try:
        clock = ClockPair(mass, omega)
    except ValueError:
        assume(False)
    expected = reference(grid, lambda params: beat(build(*params), clock, env, ics))
    got = drain(beat_rows(build, grid, clock, env, ics))
    assert list(map(hexed, got)) == list(map(hexed, expected))


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


def test_memory_of_the_rows_path_does_not_grow_with_the_grid():
    species, env, ics = Species(1e-25), GravityEnv(9.81), InitialConditions(0.1, 0.2)

    def peak(rows):
        grid = ((1e7, 0.01 + 1e-4 * i) for i in range(rows))
        tracemalloc.start()
        try:
            for _ in phase_rows(lambda k, t: _build_sequence("rbi-double", k, t, 0.0), grid,
                                species, env, ics):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(100), peak(1000)
    assert large < 1.2 * small

"""Finite-pulse-width oracle: closed-form segments, accuracy invariants and the RK4 reference."""

import math
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpai import (
    GravityEnv,
    InitialConditions,
    NonFiniteResultError,
    OracleAccuracyError,
    OracleConfig,
    OracleConfigError,
    OpenSequenceError,
    PulseSequence,
    Species,
    build_mzi,
    build_rbi_asymmetric,
    build_rbi_double_loop,
    build_rbi_symmetric,
    constants,
    convergence_study,
    gravito_recoil_phase,
    gravity_trajectory,
    oracle_report,
    proper_time_difference,
    proper_time_numeric,
)
from lpai import Pulse, _exactsum, _kernels, oracle, phase

from _helpers import (
    finite_width_shift,
    march_rk4_loop,
    random_closed_sequence,
    ref_oracle_report,
    ref_proper_time_numeric,
    ref_run,
)

SR = Species(1.443157e-25)
FLAT = GravityEnv(0.0)
REST = InitialConditions()
EPS = sys.float_info.epsilon


def march_branch(seq, branch, species, env, ics, cfg):
    """One branch marched over the oracle's segments: breakpoint times, positions, velocities."""
    seg = oracle._layout(seq, cfg)
    ks = [p.k_upper if branch == 1 else p.k_lower for p in seq.pulses]
    z, v, _ = oracle._march(seg, ks, species.mass, env.g, ics.z0, ics.v0)
    return np.asarray(seg.ts), np.asarray(z), np.asarray(v)


def window_velocity_jump(ts, v, t_pulse, sigma):
    """Velocity change across one pulse window, read off the breakpoints."""
    i0 = int(np.searchsorted(ts, t_pulse))
    i1 = int(np.searchsorted(ts, t_pulse + sigma))
    assert ts[i0] == t_pulse and i1 == i0 + 1
    return v[i1] - v[i0], ts[i1] - ts[i0]


def residual_scale(seq, mass=SR.mass):
    """(hbar k_max / (m c))**2 times the span from min(0, t_0) to the duration."""
    k_max = max(max(abs(p.k_upper), abs(p.k_lower)) for p in seq.pulses)
    span = seq.duration - min(0.0, seq.times[0])
    return (constants.HBAR * k_max / (mass * constants.C)) ** 2 * span


def study_from(seq, species, env, ics, cfg):
    """convergence_study of cfg's steps and shape from cfg's width down to half of it."""
    widths = [cfg.pulse_width, cfg.pulse_width / 2.0]
    return convergence_study(
        seq, species, env, ics, widths,
        steps_per_segment=cfg.steps_per_segment, pulse_shape=cfg.pulse_shape,
    )


# the three library entries and a branch march on _layout: each lays a
# config out before it marches anything
ENTRIES = [
    oracle_report, proper_time_numeric, study_from, lambda seq, *rest: march_branch(seq, 1, *rest)
]
ENTRY_IDS = ["report", "proper-time", "study", "branch"]


def assert_refused_unmarched(monkeypatch, entry, seq, cfg, message):
    """entry refuses cfg on seq with exactly message, before any march."""
    calls = []
    march = _kernels.march_rk4
    monkeypatch.setattr(_kernels, "march_rk4", lambda *args: calls.append(1) or march(*args))
    with pytest.raises(OracleConfigError) as refused:
        entry(seq, SR, GravityEnv(9.81), REST, cfg)
    assert str(refused.value) == message
    assert calls == []


class TestConfig:
    @pytest.mark.parametrize("width", [0.0, -1e-6, math.nan, math.inf])
    def test_bad_width_is_rejected(self, width):
        with pytest.raises(OracleConfigError):
            OracleConfig(pulse_width=width)

    def test_too_few_steps_are_rejected(self):
        with pytest.raises(OracleConfigError, match="at least 100"):
            OracleConfig(pulse_width=1e-6, steps_per_segment=99)

    @pytest.mark.parametrize("steps", [100.5, "400"])
    def test_non_integer_steps_are_rejected(self, steps):
        with pytest.raises(OracleConfigError, match="must be an integer"):
            OracleConfig(pulse_width=1e-6, steps_per_segment=steps)

    def test_numpy_integer_steps_are_accepted_as_int(self):
        cfg = OracleConfig(pulse_width=1e-6, steps_per_segment=np.int64(400))
        assert type(cfg.steps_per_segment) is int and cfg.steps_per_segment == 400

    def test_unknown_shape_is_rejected(self):
        with pytest.raises(OracleConfigError, match="pulse_shape"):
            OracleConfig(pulse_width=1e-6, pulse_shape="gaussian")

    @pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
    def test_width_must_fit_between_pulses(self, monkeypatch, entry):
        message = "pulse_width 0.06 must be smaller than half the minimum pulse spacing 0.1"
        cfg = OracleConfig(pulse_width=0.06)
        assert_refused_unmarched(monkeypatch, entry, build_rbi_asymmetric(1e7, 0.1), cfg, message)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("steps", [100, 10**12])
    def test_a_config_takes_one_step_per_segment_whatever_its_steps(self, shape, steps):
        # 3 windows and the 2 free segments between them, 6 breakpoints;
        # steps_per_segment is accepted and unread
        seq, cfg = build_rbi_asymmetric(1e7, 0.1), OracleConfig(1e-6, steps, shape)
        assert march_branch(seq, 1, SR, FLAT, REST, cfg)[0].size == 6
        assert oracle._layout(seq, cfg).windows == (0, 2, 4)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("seed", range(3))
    def test_steps_per_segment_is_not_read(self, seed, shape):
        rng = np.random.default_rng(100 + seed)
        seq = random_closed_sequence(rng, k_scale=1e7, with_common_mode=True, with_phases=True)
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
        reports = [
            asdict(oracle_report(seq, SR, env, ics, OracleConfig(spacing / 50.0, steps, shape)))
            for steps in (100, 4000)
        ]
        assert {k: _hex(v) for k, v in reports[0].items()} == {
            k: _hex(v) for k, v in reports[1].items()
        }
        widths = [spacing / 50.0, spacing / 100.0]
        studies = [
            convergence_study(
                seq, SR, env, ics, widths, steps_per_segment=steps, pulse_shape=shape
            )
            for steps in (100, 4000)
        ]
        assert _hex(list(studies[0].residuals)) == _hex(list(studies[1].residuals))

    @pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
    def test_width_below_the_time_resolution_is_refused(self, monkeypatch, entry):
        # 1e20 + 1.0 rounds back to 1e20: the window would have no width
        seq = PulseSequence(
            (Pulse(1e20, 1e7, 0.0), Pulse(2e20, -2e7, 0.0), Pulse(3e20, 1e7, 0.0))
        )
        message = "pulse_width 1.0 is below the time resolution at t = 1e+20"
        assert_refused_unmarched(monkeypatch, entry, seq, OracleConfig(pulse_width=1.0), message)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
    def test_a_window_that_rounds_to_empty_is_refused(self, monkeypatch, entry, shape):
        # 1 + 0.4 ulp(1) rounds back to 1
        seq = PulseSequence((Pulse(1.0, 1e7, 0.0), Pulse(2.0, -2e7, 0.0), Pulse(3.0, 1e7, 0.0)))
        width = 0.4 * math.ulp(1.0)
        message = f"pulse_width {width!r} is below the time resolution at t = 1.0"
        assert_refused_unmarched(
            monkeypatch, entry, seq, OracleConfig(width, 100, shape), message
        )

    def test_a_window_of_one_ulp_is_one_segment(self):
        # 1 + 0.6 ulp(1) rounds to 1 + ulp(1): the narrowest window at 1 s
        seq = PulseSequence((Pulse(0.25, 2e7, 0.0), Pulse(0.5, -3e7, 0.0), Pulse(1.0, 1e7, 0.0)))
        seg = oracle._layout(seq, OracleConfig(0.6 * math.ulp(1.0)))
        assert all(a < b for a, b in zip(seg.ts[:-1], seg.ts[1:]))
        assert seg.h[seg.windows[-1]] == math.ulp(1.0)

    @pytest.mark.parametrize("steps", [100.5, "400"])
    def test_study_refuses_non_integer_steps_as_a_config_error(self, steps):
        with pytest.raises(OracleConfigError, match="must be an integer"):
            convergence_study(
                build_mzi(1e7, 0.1), SR, FLAT, REST, [1e-5, 5e-6], steps_per_segment=steps
            )

    @pytest.mark.parametrize("pulses", [3, 2], ids=["closed", "open"])
    def test_study_checks_every_width_before_the_first_march(self, monkeypatch, pulses):
        # 0.1 + 1e-20 rounds back to 0.1; an open sequence gets the config
        # error too, since the closed form comes after the width checks
        calls = []
        march = _kernels.march_rk4
        monkeypatch.setattr(_kernels, "march_rk4", lambda *args: calls.append(1) or march(*args))
        seq = PulseSequence(build_mzi(1e7, 0.1).pulses[:pulses])
        with pytest.raises(OracleConfigError, match="below the time resolution at t = 0.1"):
            convergence_study(
                seq, SR, GravityEnv(9.81), REST, [1e-5, 1e-20], steps_per_segment=100
            )
        assert calls == []


class TestSegments:
    """Every segment is free flight or one window, and takes one step."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["tophat", "cosine"]),
        steps=st.sampled_from([100, 400]),
        width_divisor=st.sampled_from([50, 100, 200, 400]),
        g=st.floats(0.0, 20.0),
        z0=st.floats(-10.0, 10.0),
        v0=st.floats(-10.0, 10.0),
        tail=st.floats(1e-3, 5.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_residual_agrees_with_the_rk4_reference_on_a_uniform_grid(
        self, seed, shape, steps, width_divisor, g, z0, v0, tail
    ):
        seq = random_closed_sequence(
            np.random.default_rng(seed), k_scale=1e7, with_common_mode=True, with_phases=True
        )
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        cfg = OracleConfig(spacing / width_divisor, steps, shape)
        env, ics = GravityEnv(g), InitialConditions(z0, v0)
        # the same pulses with a free flight after the last window
        later = PulseSequence(seq.pulses, duration=seq.times[-1] + cfg.pulse_width + tail)
        breakpoints = 2 * len(seq.pulses)  # the first pulse is at t = 0
        assert len(oracle._layout(seq, cfg).ts) == breakpoints
        assert len(oracle._layout(later, cfg).ts) == breakpoints + 1
        for s in (seq, later):
            new = oracle_report(s, SR, env, ics, cfg).residual_vs_closed_form
            uniform = ref_oracle_report(s, SR, env, ics, cfg, uniform=True)
            assert abs(new - uniform["residual_vs_closed_form"]) <= 1e-10

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["tophat", "cosine"]),
        fraction=st.floats(1e-9, 0.49),
        offset=st.floats(-10.0, 10.0),
        tail=st.floats(0.0, 1.0),
        ulps=st.one_of(st.none(), st.integers(1, 8000)),
    )
    @example(seed=0, shape="tophat", fraction=0.25, offset=5e-324, tail=0.0, ulps=None)
    @example(seed=0, shape="cosine", fraction=0.25, offset=1.0, tail=0.0, ulps=1)
    @example(seed=0, shape="tophat", fraction=0.25, offset=-7.0, tail=0.0, ulps=40)
    @settings(max_examples=150, deadline=None)
    def test_each_window_is_the_segment_from_its_pulse_to_its_end(
        self, seed, shape, fraction, offset, tail, ulps
    ):
        """Every width of at least one ulp at the largest |t| is laid out, in rising breakpoints."""
        base = random_closed_sequence(
            np.random.default_rng(seed), k_scale=1e7, with_common_mode=True
        )
        pulses = tuple(replace(p, t=p.t + offset) for p in base.pulses)
        seq = PulseSequence(pulses, duration=pulses[-1].t + tail)
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        ulp = math.ulp(max(abs(t) for t in seq.times))
        cfg = OracleConfig(fraction * spacing if ulps is None else ulps * ulp, 100, shape)
        seg = oracle._layout(seq, cfg)
        assert all(a < b for a, b in zip(seg.ts[:-1], seg.ts[1:]))
        assert seg.h == [b - a for a, b in zip(seg.ts[:-1], seg.ts[1:])]
        assert len(seg.windows) == len(seq.times)
        for i, t in zip(seg.windows, seq.times):
            assert (seg.ts[i], seg.ts[i + 1]) == (t, t + cfg.pulse_width)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    def test_a_free_flight_of_one_float_is_one_segment(self, shape):
        # from t = 0 to the first pulse at 5e-324, and from the last window's
        # end to the next float
        base = build_mzi(1e7, 0.1)
        pulses = tuple(replace(p, t=p.t + 5e-324) for p in base.pulses)
        cfg = OracleConfig(1e-5, 100, shape)
        end = pulses[-1].t + cfg.pulse_width
        seq = PulseSequence(pulses, duration=math.nextafter(end, math.inf))
        ts = oracle._layout(seq, cfg).ts
        assert ts[:2] == [0.0, 5e-324] and ts[-2:] == [end, seq.duration]
        assert oracle_report(seq, SR, GravityEnv(9.81), REST, cfg).residual_vs_closed_form <= 1e-12


class TestImpulseInvariant:
    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("g", [0.0, 9.81])
    def test_each_window_carries_the_right_impulse(self, shape, g):
        k, T = 1.8e10, 0.325
        seq = build_rbi_asymmetric(k, T)
        cfg = OracleConfig(pulse_width=1e-6 * T, pulse_shape=shape)
        ts, _, v = march_branch(seq, 1, SR, GravityEnv(g), REST, cfg)
        scale = constants.HBAR * 2.0 * k / SR.mass
        for pulse, k_here in zip(seq.pulses, (k, -2.0 * k, k)):
            jump, width = window_velocity_jump(ts, v, pulse.t, cfg.pulse_width)
            expected = constants.HBAR * k_here / SR.mass - g * width
            assert abs(jump - expected) <= 1e-9 * scale

    # four pulses: both branches kicked at 0, k1 = -k2 at 0.1 (no branch-sum
    # kick), k1 = k2 at 0.2 (no branch-difference kick), one branch at 0.3
    PINNED = PulseSequence(
        (
            Pulse(0.0, 3e7, 1e7),
            Pulse(0.1, -1.5e7, 1.5e7),
            Pulse(0.2, 5e6, 5e6),
            Pulse(0.3, 1e7, 0.0),
        )
    )

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("window", [0, 1, 2], ids=["both", "sum-free", "difference-free"])
    @pytest.mark.parametrize(
        "errors", [(1, 0), (0, 1), (1, -1), (1, 1)], ids=["upper", "lower", "opposite", "alike"]
    )
    def test_a_mis_scaled_kick_trips_the_gate_unless_it_is_a_launch_change(
        self, monkeypatch, shape, window, errors
    ):
        # a kick off by 1e-4 of the largest kick on the upper branch, the
        # lower one or both: the branch sum carries e1 + e2 of it and the
        # branch difference e1 - e2, so one march or both carry it into the
        # proper time, and the gap to the shifted closed form sees it
        seq, env, ics = self.PINNED, GravityEnv(9.81), InitialConditions(0.4, -1.3)
        cfg = OracleConfig(1e-4, 100, shape)
        assert finite_width_gap(seq, env, ics, cfg) <= gap_floor(seq, env, ics)
        seg = oracle._layout(seq, cfg)
        i = seg.windows[window]
        extra = 1e-4 * constants.HBAR * 3e7 / (SR.mass * seg.h[i])
        e1, e2 = errors
        march = _kernels.march_rk4

        def mis_scaled(h, kicks, g, z0, v0):
            # the branch sum forms no positions; the difference starts at z = 0
            share = {None: e1 + e2, 0.0: e1 - e2}.get(z0, 0)
            amps = dict(kicks)
            amps[i] = amps.get(i, 0.0) + share * extra
            kicks = [(j, amp) for j, amp in amps.items() if amp != 0.0]
            return march(h, kicks, g, z0, v0)

        monkeypatch.setattr(_kernels, "march_rk4", mis_scaled)
        gap = finite_width_gap(seq, env, ics, cfg)
        if window == 0 and e1 == e2:
            # except the same error on both branches where they split: that
            # changes the launch velocity, which a closed sequence does not read
            assert gap <= gap_floor(seq, env, ics)
        else:
            assert gap > 1e6 * gap_floor(seq, env, ics)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    def test_a_nearly_cancelling_branch_sum_keeps_the_residual_small(self, shape):
        # k1 + k2 = 2**-10 /m at every pulse against branch kicks of 2**23 /m
        # and more (all exact): the sum's kicks lie below the rounding of its
        # free-fall velocity 2g*t, each branch's do not
        k, c = 2.0**23, 2.0**-10
        upper = (k + c / 2, -2 * k + c / 2, k + c / 2)
        seq = PulseSequence(tuple(Pulse(0.1 * i, ku, c - ku) for i, ku in enumerate(upper)))
        assert [p.k_upper + p.k_lower for p in seq.pulses] == [c] * 3
        report = oracle_report(seq, SR, GravityEnv(9.81), REST, OracleConfig(1e-4, 100, shape))
        assert report.residual_vs_closed_form <= 1e-6

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["tophat", "cosine"]),
        g=st.floats(0.0, 20.0),
        v0=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_the_branch_sum_march_is_the_sum_of_the_branch_marches(self, seed, shape, g, v0):
        seq = random_closed_sequence(
            np.random.default_rng(seed), k_scale=1e7, with_common_mode=True
        )
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        seg = oracle._layout(seq, OracleConfig(spacing / 50.0, 100, shape))
        k1, k2 = [p.k_upper for p in seq.pulses], [p.k_lower for p in seq.pulses]
        v1 = np.array(oracle._march(seg, k1, SR.mass, g, None, v0)[1])
        v2 = np.array(oracle._march(seg, k2, SR.mass, g, None, v0)[1])
        k_sum = [a + b for a, b in zip(k1, k2)]
        v_sum = np.array(oracle._march(seg, k_sum, SR.mass, 2.0 * g, None, 2.0 * v0)[1])
        # V bounds every partial sum and every increment's size in all three
        # marches: each of the N steps rounds a running sum by eps/2 * V per
        # march, and the increments and kick amplitudes round by a few eps
        # relative; 4 N eps V covers all of it
        kicks = sum(constants.HBAR * (abs(a) + abs(b)) / SR.mass for a, b in zip(k1, k2))
        V = 2.0 * abs(v0) + 2.0 * g * (seg.ts[-1] - seg.ts[0]) + kicks
        assert np.abs(v_sum - (v1 + v2)).max() <= 4.0 * len(seg.h) * EPS * V

    def test_free_fall_matches_the_closed_form(self):
        seq = PulseSequence((), duration=2.0)
        env = GravityEnv(9.81)
        ics = InitialConditions(z0=3.0, v0=-1.0)
        ts, z, v = march_branch(seq, 1, SR, env, ics, OracleConfig(pulse_width=1e-3))
        zg, vg = zip(*(gravity_trajectory(env, ics, t) for t in ts.tolist()))
        np.testing.assert_allclose(z, zg, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(v, vg, rtol=1e-12, atol=1e-12)

    def test_coasting_stays_on_the_straight_line(self):
        seq = PulseSequence((), duration=1.0)
        ics = InitialConditions(z0=0.5, v0=2.0)
        ts, z, v = march_branch(seq, 1, SR, FLAT, ics, OracleConfig(pulse_width=1e-3))
        np.testing.assert_allclose(z, 0.5 + 2.0 * ts, rtol=1e-12)
        np.testing.assert_array_equal(v, np.full(v.shape, 2.0))


class TestProperTimeNumeric:
    def test_asymmetric_residual_at_narrow_width(self):
        T = 0.325
        cfg = OracleConfig(pulse_width=1e-6 * T)
        report = oracle_report(build_rbi_asymmetric(1.8e10, T), SR, GravityEnv(9.81), REST, cfg)
        assert report.residual_vs_closed_form <= 1e-6
        assert report.delta_tau_numeric == pytest.approx(report.delta_tau_closed, rel=1e-6)

    def test_gravity_does_not_move_the_numeric_proper_time(self):
        T = 0.325
        seq = build_rbi_asymmetric(1.8e10, T)
        cfg = OracleConfig(pulse_width=1e-6 * T)
        values = [
            proper_time_numeric(seq, SR, GravityEnv(g), InitialConditions(z0, v0), cfg)
            for g, z0, v0 in [(0.0, 0.0, 0.0), (9.81, 1.0, -0.5), (100.0, -3.0, 2.0)]
        ]
        closed = proper_time_difference(seq, SR)
        assert max(values) - min(values) <= 1e-8 * abs(closed)

    def test_mzi_proper_time_stays_on_zero(self):
        T = 0.1
        cfg = OracleConfig(pulse_width=1e-6 * T)
        report = oracle_report(build_mzi(1e7, T), SR, GravityEnv(9.81), REST, cfg)
        assert report.delta_tau_closed == 0.0
        assert report.residual_vs_closed_form <= 1e-6

    def test_total_phase_tracks_the_gravimeter_signal(self):
        k, T, g = 1e7, 0.1, 9.81
        cfg = OracleConfig(pulse_width=1e-6 * T)
        report = oracle_report(build_mzi(k, T), SR, GravityEnv(g), REST, cfg)
        assert report.total_phase_numeric == pytest.approx(-k * g * T**2, rel=1e-6)

    def test_pulse_shapes_agree(self):
        T = 0.325
        seq = build_rbi_asymmetric(1.8e10, T)
        tophat = OracleConfig(pulse_width=1e-6 * T, pulse_shape="tophat")
        cosine = OracleConfig(pulse_width=1e-6 * T, pulse_shape="cosine")
        r_top = oracle_report(seq, SR, FLAT, REST, tophat)
        r_cos = oracle_report(seq, SR, FLAT, REST, cosine)
        assert r_top.residual_vs_closed_form <= 1e-6
        assert r_cos.residual_vs_closed_form <= 1e-6

    def test_closure_residuals_are_tiny_for_closed_sequences(self):
        T = 0.325
        k = 1.8e10
        cfg = OracleConfig(pulse_width=1e-6 * T)
        report = oracle_report(build_rbi_asymmetric(k, T), SR, GravityEnv(9.81), REST, cfg)
        dz, dv = report.closure_residuals
        v_scale = constants.HBAR * 2.0 * k / SR.mass
        assert abs(dv) <= 1e-9 * v_scale
        assert abs(dz) <= 1e-9 * v_scale * 2.0 * T

    @pytest.mark.parametrize("mass", [5e-190, 3e-190])
    def test_an_integral_beyond_the_float_range_is_a_numeric_failure(self, mass):
        # every segment's mean integrand is finite, but the free flight's
        # mean times its 10 s overflows
        seq, cfg = build_rbi_asymmetric(1e7, 10.0), OracleConfig(1e-3, 100)
        with pytest.raises(NonFiniteResultError, match="proper-time integral is not finite"):
            proper_time_numeric(seq, Species(mass), GravityEnv(9.81), REST, cfg)

    def test_an_integrand_beyond_the_float_range_is_a_numeric_failure(self):
        # at 1e-300 kg the recoil velocities near 1e273 m/s square beyond the floats
        seq, cfg = build_rbi_asymmetric(1e7, 0.1), OracleConfig(1e-3)
        with pytest.raises(NonFiniteResultError, match="integrand is not finite on the segment"):
            proper_time_numeric(seq, Species(1e-300), GravityEnv(9.81), REST, cfg)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize(
        "entry, k",
        [(proper_time_numeric, 1e7), (oracle_report, 1e-300)],
        ids=["proper_time_numeric", "oracle_report"],
    )
    def test_a_step_whose_square_overflows_is_a_numeric_failure(self, shape, entry, k):
        # the free-flight steps, near 5e159 s, square beyond the float range
        seq, cfg = build_rbi_asymmetric(k, 1e160), OracleConfig(1e150, pulse_shape=shape)
        with pytest.raises(NonFiniteResultError):
            entry(seq, Species(1e-25), FLAT, REST, cfg)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("seed", range(3))
    def test_free_flight_after_the_last_window_leaves_the_proper_time_alone(self, shape, seed):
        # the sum ends at the last window's end; the closure residuals still
        # read the last breakpoint, at the duration
        seq = random_closed_sequence(
            np.random.default_rng(200 + seed), k_scale=1e7, with_common_mode=True, with_phases=True
        )
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
        cfg = OracleConfig(spacing / 50.0, 400, shape)
        dtau = oracle_report(seq, SR, env, ics, cfg).delta_tau_numeric
        dk = [p.delta_k for p in seq.pulses]
        for tail in (0.1, 1.0, 10.0):
            later = PulseSequence(seq.pulses, duration=seq.times[-1] + cfg.pulse_width + tail)
            report = oracle_report(later, SR, env, ics, cfg)
            assert report.delta_tau_numeric.hex() == dtau.hex()
            assert proper_time_numeric(later, SR, env, ics, cfg).hex() == dtau.hex()
            seg = oracle._layout(later, cfg)
            assert seg.ts[-1] == later.duration
            dz, dv, _ = oracle._march(seg, dk, SR.mass, 0.0, 0.0, 0.0)
            assert report.closure_residuals == (dz[-1], dv[-1])

    def test_report_serializes_with_stable_keys(self):
        cfg = OracleConfig(pulse_width=1e-7, steps_per_segment=100)
        report = oracle_report(build_mzi(1e7, 0.1), SR, FLAT, REST, cfg)
        payload = report.as_report()
        assert list(payload) == [
            "sigma",
            "pulse_shape",
            "delta_tau_numeric",
            "delta_tau_closed",
            "rel_residual",
            "gravito_recoil_numeric",
            "total_phase_numeric",
            "closure_residuals",
        ]


def finite_width_gap(seq, env, ics, cfg, closed=None):
    """|delta_tau_numeric - delta_tau_closed - kappa*sigma*Q| over the residual scale."""
    report = oracle_report(seq, SR, env, ics, cfg)
    closed = report.delta_tau_closed if closed is None else closed
    shift = finite_width_shift(seq, SR.mass, cfg.pulse_width, cfg.pulse_shape)
    return abs(report.delta_tau_numeric - closed - shift) / residual_scale(seq)


def gap_floor(seq, env, ics):
    """The rounding floor of finite_width_gap: a few eps, and at g != 0 or v0 != 0 a
    few eps times the gravity and launch terms (g*span + |v0|) * hbar*k_max*span /
    (m c**2), which cancel on a closed sequence, over the residual scale."""
    k_max = max(max(abs(p.k_upper), abs(p.k_lower)) for p in seq.pulses)
    span = seq.duration - min(0.0, seq.times[0])
    launch = (env.g * span + abs(ics.v0)) * SR.mass / (constants.HBAR * k_max)
    return 4.0 * EPS + 8.0 * EPS * launch


def _shift_cases():
    for k, T in ((1.8e10, 0.325), (1e7, 0.1)):
        yield f"mzi-{k:g}", build_mzi(k, T)
        yield f"rbi-sym-{k:g}", build_rbi_symmetric(k, T, 0.1 * T)
        yield f"rbi-asym-{k:g}", build_rbi_asymmetric(k, T, 0.1 * T)
        yield f"rbi-double-{k:g}", build_rbi_double_loop(k, T)
    for seed in range(6):
        seq = random_closed_sequence(
            np.random.default_rng(300 + seed), k_scale=(1e3, 1e7)[seed % 2],
            with_common_mode=True, with_phases=True,
        )
        yield f"random{seed}", seq


SHIFT_CASES = dict(_shift_cases())


class TestFiniteWidthShift:
    """At one width the oracle is the closed form plus kappa*sigma*Q, to rounding."""

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize(
        "g, ics", [(0.0, REST), (9.81, InitialConditions(0.4, -1.3))], ids=["g0", "gravity"]
    )
    @pytest.mark.parametrize("name", SHIFT_CASES)
    def test_the_gap_to_the_shifted_closed_form_is_rounding(self, name, g, ics, shape):
        seq, env = SHIFT_CASES[name], GravityEnv(g)
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        for divisor in (10, 100, 1000):
            cfg = OracleConfig(spacing / divisor, pulse_shape=shape)
            assert finite_width_gap(seq, env, ics, cfg) <= gap_floor(seq, env, ics)

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["tophat", "cosine"]),
        k_scale=st.sampled_from([1e3, 1e7]),
        fraction=st.floats(1e-6, 0.4),
        g=st.sampled_from([0.0, 9.81]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_closed_sequences_sit_on_the_shifted_closed_form(
        self, seed, shape, k_scale, fraction, g
    ):
        seq = random_closed_sequence(
            np.random.default_rng(seed), k_scale=k_scale, with_common_mode=True, with_phases=True
        )
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        env, ics = GravityEnv(g), (REST if g == 0.0 else InitialConditions(0.4, -1.3))
        cfg = OracleConfig(fraction * spacing, pulse_shape=shape)
        assert finite_width_gap(seq, env, ics, cfg) <= gap_floor(seq, env, ics)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize(
        "g, ics", [(0.0, REST), (9.81, InitialConditions(0.4, -1.3))], ids=["g0", "gravity"]
    )
    def test_a_closed_form_off_by_1e9_trips_the_gate(self, g, ics, shape):
        seq, env = build_rbi_asymmetric(1.8e10, 0.325), GravityEnv(g)
        cfg = OracleConfig(0.325 * 1e-4, pulse_shape=shape)
        closed = proper_time_difference(seq, SR)
        assert finite_width_gap(seq, env, ics, cfg) <= gap_floor(seq, env, ics)
        assert finite_width_gap(seq, env, ics, cfg, closed * (1.0 + 1e-9)) > gap_floor(seq, env, ics)


class TestGravitoRecoilNumeric:
    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("k_scale", [1e3, 1e7])
    @pytest.mark.parametrize("seed", range(3))
    def test_window_averages_match_the_closed_form(self, shape, k_scale, seed):
        rng = np.random.default_rng(seed)
        seq = random_closed_sequence(rng, k_scale=k_scale, with_common_mode=True, with_phases=True)
        env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        cfg = OracleConfig(spacing / 50.0, 100, shape)
        numeric = oracle_report(seq, SR, env, ics, cfg).gravito_recoil_numeric
        scale = sum(abs(p.delta_k * gravity_trajectory(env, ics, p.t)[0]) for p in seq.pulses)
        assert abs(numeric - gravito_recoil_phase(seq, env, ics)) <= 1e-12 * scale

    @pytest.mark.parametrize("z0", [1.5e301, 3e301, 1e308])
    def test_a_launch_height_near_the_float_range_is_summed_exactly(self, z0):
        # k * (window average of z_g) overflows although the sum is zero
        seq, ics = build_mzi(1e7, 0.1), InitialConditions(z0)
        report = oracle_report(seq, SR, FLAT, ics, OracleConfig(1e-6))
        assert report.gravito_recoil_numeric == gravito_recoil_phase(seq, FLAT, ics) == 0.0
        assert math.isfinite(report.total_phase_numeric)

    def test_a_window_without_a_kick_difference_is_skipped(self, monkeypatch):
        # a common-mode pulse at T/2 loads both branches alike: delta_k = 0
        mzi = build_mzi(1e7, 0.1)
        pulses = (mzi.pulses[0], Pulse(0.05, 3e6, 3e6), *mzi.pulses[1:])
        seq, env = PulseSequence(pulses, duration=mzi.duration), GravityEnv(9.81)
        summed = []
        fsum_or_exact = oracle.fsum_or_exact

        def recorded(terms, factors, *rest):
            summed.append(factors())
            return fsum_or_exact(terms, factors, *rest)

        monkeypatch.setattr(oracle, "fsum_or_exact", recorded)
        report = oracle_report(seq, SR, env, REST, OracleConfig(1e-4, 100))
        assert report.residual_vs_closed_form <= 1e-12
        scale = sum(abs(p.delta_k * gravity_trajectory(env, REST, p.t)[0]) for p in seq.pulses)
        closed = gravito_recoil_phase(seq, env, REST)
        assert abs(report.gravito_recoil_numeric - closed) <= 1e-12 * scale
        [(factors, averages)] = summed
        assert factors == [1e7, -2e7, 1e7] and len(averages) == 3

    def test_a_window_average_beyond_the_float_range_is_a_numeric_failure(self):
        # the launch at 1.7976e308 m rises past the float range inside the
        # first window: its average is inf
        ics = InitialConditions(1.7976e308, 8e307)
        with pytest.raises(NonFiniteResultError, match="window average of z_g has a factor"):
            oracle_report(build_mzi(1e7, 0.1), SR, FLAT, ics, OracleConfig(1e-2))

    @pytest.mark.parametrize(
        "g, message",
        [(1e11, "gravito-recoil sum .* overflows"), (1e10, "total phase is not finite")],
        ids=["gravito-sum", "total"],
    )
    def test_a_sum_beyond_the_float_range_is_a_numeric_failure(self, g, message):
        seq, heavy = build_mzi(1e300, 0.1), Species(1e200)
        with pytest.raises(NonFiniteResultError, match=message):
            oracle_report(seq, heavy, GravityEnv(g), REST, OracleConfig(1e-6))


class TestConvergence:
    def test_residual_decreases_with_width_and_fits_a_power_law(self):
        T = 0.325
        study = convergence_study(
            build_rbi_asymmetric(1.8e10, T),
            SR,
            GravityEnv(9.81),
            REST,
            [T * 1e-3, T * 1e-4, T * 1e-5],
            steps_per_segment=100,
        )
        assert all(a > b for a, b in zip(study.residuals, study.residuals[1:]))
        assert 0.9 < study.fitted_exponent < 1.1
        assert study.floor == 1e-12

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("k_scale", [1e3, 1e7])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_closed_sequences_converge_at_first_order(self, shape, k_scale, seed):
        rng = np.random.default_rng(seed)
        seq = random_closed_sequence(rng, k_scale=k_scale, with_common_mode=True, with_phases=True)
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        w = spacing / 50.0
        study = convergence_study(
            seq,
            SR,
            GravityEnv(9.81),
            InitialConditions(0.4, -1.3),
            [w, w / 2.0, w / 4.0],
            steps_per_segment=100,
            pulse_shape=shape,
        )
        assert all(a > b for a, b in zip(study.residuals, study.residuals[1:]))
        assert abs(study.fitted_exponent - 1.0) <= 0.1

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    def test_narrow_widths_converge_at_first_order_under_gravity(self, shape):
        # widths down to 1e-3/4 of the spacing at k_scale 1e3, where the
        # gravity terms that cancel are 1e7 times the recoil ones
        env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
        for seed in range(40):
            seq = random_closed_sequence(
                np.random.default_rng(seed), k_scale=1e3, with_common_mode=True, with_phases=True
            )
            spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
            w = 1e-3 * spacing
            study = convergence_study(seq, SR, env, ics, [w, w / 2.0, w / 4.0], pulse_shape=shape)
            assert abs(study.fitted_exponent - 1.0) <= 0.1, seed

    @pytest.mark.parametrize("seed", range(4))
    def test_the_fit_is_numpys_least_squares_slope(self, seed):
        T = 0.325
        seq = build_rbi_asymmetric(1.8e10, T)
        widths = [T * 1e-3, T * 1e-4, T * 1e-5, T * 1e-6]
        if seed:
            seq = random_closed_sequence(np.random.default_rng(seed), k_scale=1e7)
            spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
            widths = [spacing / 10.0 / 3.0**i for i in range(5)]
        study = convergence_study(seq, SR, GravityEnv(9.81), REST, widths)
        # polyfit solves its least squares by an SVD, in other roundings
        slope = np.polyfit(np.log(study.widths), np.log(study.residuals), 1)[0]
        assert abs(study.fitted_exponent - slope) <= 1e-14 * abs(slope)

    @pytest.mark.parametrize(
        "residuals, raises",
        [((1e-6, 2e-6), True), ((1e-6, 1e-6), True), ((2e-13, 5e-13), False)],
        ids=["growing", "flat", "below-the-floor"],
    )
    def test_a_residual_that_does_not_decrease_is_refused(self, monkeypatch, residuals, raises):
        per_width = iter(residuals)
        monkeypatch.setattr(oracle, "_residual", lambda *args: next(per_width))
        study = lambda: convergence_study(build_mzi(1e7, 0.1), SR, FLAT, REST, [1e-5, 5e-6])
        if raises:
            message = rf"residual failed to decrease from width 1e-05 \({residuals[0]:.3e}\) to 5e-06"
            with pytest.raises(OracleAccuracyError, match=message):
                study()
        else:
            assert math.isnan(study().fitted_exponent)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("seed", range(4))
    def test_each_residual_is_the_reports_residual_at_that_width(self, shape, seed):
        rng = np.random.default_rng(100 + seed)
        seq = random_closed_sequence(rng, k_scale=1e7, with_common_mode=True, with_phases=True)
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        widths = [spacing / 50.0, spacing / 100.0, spacing / 200.0]
        env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
        study = convergence_study(
            seq, SR, env, ics, widths, steps_per_segment=100, pulse_shape=shape
        )
        reports = [
            oracle_report(seq, SR, env, ics, OracleConfig(w, 100, shape)).residual_vs_closed_form
            for w in widths
        ]
        assert [r.hex() for r in study.residuals] == [r.hex() for r in reports]

    def test_a_study_integrates_the_proper_time_only(self, monkeypatch):
        calls = []
        march, recoil = _kernels.march_rk4, phase.recoil_double_sum

        def recorded(h, kicks, g, z0, v0):
            calls.append(z0)
            return march(h, kicks, g, z0, v0)

        def report(*args):
            raise AssertionError("a study ran oracle_report")

        monkeypatch.setattr(_kernels, "march_rk4", recorded)
        monkeypatch.setattr(oracle, "oracle_report", report)
        monkeypatch.setattr(phase, "recoil_double_sum", lambda *args: calls.append("S") or recoil(*args))
        seq, ics = build_rbi_double_loop(1e7, 0.1), InitialConditions(0.4, -1.3)
        widths = [1e-4, 5e-5, 2.5e-5, 1.25e-5]
        convergence_study(seq, SR, GravityEnv(9.81), ics, widths, steps_per_segment=100)
        # the closed form once, then per width the branch sum and the branch
        # difference; the pulse-free launch march (z0 = 0.4) never runs
        assert calls == ["S"] + [None, 0.0] * 4

    def test_non_decreasing_widths_are_rejected(self):
        with pytest.raises(OracleConfigError, match="strictly decreasing"):
            convergence_study(build_mzi(1e7, 0.1), SR, FLAT, REST, [1e-5, 1e-4])

    def test_a_single_width_is_rejected(self):
        with pytest.raises(OracleConfigError, match="at least two"):
            convergence_study(build_mzi(1e7, 0.1), SR, FLAT, REST, [1e-5])


class TestTopHatWindows:
    @pytest.mark.parametrize("sigma", [1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("pause, coefficient", [(0.0, 1 / 16), (0.5, 2 / 15)])
    def test_asymmetric_residual_is_the_closed_form_of_the_ramps(self, sigma, pause, coefficient):
        """rel_residual * T / sigma of rbi-asym is 1/16 at Tp = 0 and 2/15 at Tp = T/2.

        Only the upper branch is kicked, so the branch-difference velocity u
        is the upper branch's recoil velocity, and the proper-time integrand
        is -(u * v_g + u**2 / 2 - g * dz) / c**2.  Its launch terms integrate
        to a multiple of dz(t_end), zero for a closed sequence, so
        delta_tau = -integral(u**2) / (2 c**2).  With vr = hbar*k/m and
        instantaneous kicks, u is vr on [0, T] and -vr on [T + Tp, 2T + Tp]:
        integral(u**2) = 2 vr**2 T.  A top-hat window of width sigma turns
        each jump of u from a to b into a linear ramp, whose sigma * (a**2 +
        a*b + b**2) / 3 replaces sigma * b**2.

        Tp = T/2 > sigma: the ramps 0 -> vr and 0 -> -vr each give
        vr**2 sigma / 3 for vr**2 sigma, and vr -> 0 and -vr -> 0 each give
        vr**2 sigma / 3 for 0: integral(u**2) = vr**2 (2T - 2 sigma / 3), so
        |delta_tau_num - delta_tau_closed| = vr**2 sigma / (3 c**2).  The
        residual's scale is max(|delta_tau_closed|, (vr_max / c)**2 * span)
        with vr_max = vr and span = 2T + Tp = 5T/2, so the residual is
        sigma / (3 * 5T/2) = 2 sigma / (15 T).

        Tp = 0: the two central pulses merge into one -2k kick.  The ramps
        0 -> vr and vr -> -vr each give vr**2 sigma / 3 for vr**2 sigma, and
        -vr -> 0 gives vr**2 sigma / 3 for 0: integral(u**2) =
        vr**2 (2T - sigma), a difference of vr**2 sigma / (2 c**2).  Now
        vr_max = 2 vr and span = 2T, a scale of 8 vr**2 T / c**2 above
        |delta_tau_closed| = vr**2 T / c**2, so the residual is
        sigma / (16 T).
        """
        k, T = 1.8e10, 0.325
        seq = build_rbi_asymmetric(k, T, pause * T)
        env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
        report = oracle_report(seq, SR, env, ics, OracleConfig(sigma))
        assert report.residual_vs_closed_form * T / sigma == pytest.approx(coefficient, rel=1e-9)


def march_loop(h, kicks, g, z0, v0):
    """march_rk4_loop with the exact weights u = h and p = h*h*0.5 on each kicked step."""
    h = np.asarray(h, dtype=float)
    return march_rk4_loop(h, h, h * h * 0.5, [(i, i + 1, amp) for i, amp in kicks], g, z0, v0)


class TestKernels:
    def rand_problem(self, n=5000, seed=2):
        h = np.random.default_rng(seed).uniform(1e-5, 1e-3, n).tolist()
        # three runs of kicked steps, and free steps before, between and after them
        runs = [(100, 1100, 3.5), (2000, 2002, -40.0), (3000, 4900, 0.7)]
        kicks = [(i, amp) for i0, i1, amp in runs for i in range(i0, i1)]
        return (h, kicks, 9.81, 0.3, -1.7)

    def test_the_running_sums_are_the_loop_bit_for_bit(self):
        h, kicks, g, z0, v0 = self.rand_problem()
        z, v = _kernels.march_rk4(h, kicks, g, z0, v0)
        z_loop, v_loop = march_loop(h, kicks, g, z0, v0)
        assert np.array(z).tobytes() == z_loop.tobytes()
        assert np.array(v).tobytes() == v_loop.tobytes()

    def test_without_a_start_position_only_velocities_are_formed(self):
        h, kicks, g, z0, v0 = self.rand_problem()
        z, v = _kernels.march_rk4(h, kicks, g, None, v0)
        assert z is None
        assert v == _kernels.march_rk4(h, kicks, g, z0, v0)[1]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        edges=st.lists(st.integers(0, 40), unique=True, max_size=6).map(sorted),
        positions=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_float_lists_march_as_the_loop(self, seed, n, edges, positions):
        # up to three disjoint runs of kicked steps (none included) between
        # free steps, with and without positions
        rng = np.random.default_rng(seed)
        h = (10.0 ** rng.uniform(-9.0, 1.0, n)).tolist()
        edges = [e for e in edges if e <= n]
        kicks = [
            (i, amp)
            for i0, i1 in zip(edges[::2], edges[1::2])
            for amp in [float(rng.uniform(-1e6, 1e6))]
            for i in range(i0, i1)
        ]
        g, v0, z0 = (float(x) for x in rng.uniform(-20.0, 20.0, 3) * [1.0, 50.0, 50.0])
        z0 = z0 if positions else None
        z, v = _kernels.march_rk4(h, kicks, g, z0, v0)
        assert type(v) is list and len(v) == n + 1
        z_loop, v_loop = march_loop(h, kicks, g, 0.0 if z0 is None else z0, v0)
        assert np.array(v).tobytes() == v_loop.tobytes()
        if z0 is None:
            assert z is None
        else:
            assert type(z) is list
            assert np.array(z).tobytes() == z_loop.tobytes()


class TestMarchedWork:
    def test_proper_time_branch_marches_form_no_positions(self, monkeypatch):
        calls = []
        march = _kernels.march_rk4

        def recorded(h, kicks, g, z0, v0):
            z, v = march(h, kicks, g, z0, v0)
            calls.append((z0, z))
            return z, v

        monkeypatch.setattr(_kernels, "march_rk4", recorded)
        cfg = OracleConfig(1e-4, 100, "cosine")
        seq = build_rbi_double_loop(1e7, 0.1)
        proper_time_numeric(seq, SR, GravityEnv(9.81), InitialConditions(0.4, -1.3), cfg)
        # the branch sum, then the branch-difference system, whose dz is read
        assert [z0 for z0, _ in calls] == [None, 0.0]
        assert calls[0][1] is None
        assert len(calls[1][1]) == len(oracle._layout(seq, cfg).ts)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("g", [0.0, 9.81])
    def test_far_from_the_origin_every_window_carries_its_impulse(self, shape, g):
        rng = np.random.default_rng(3)
        base = random_closed_sequence(rng, 8, k_scale=1e7, with_common_mode=True)
        seq = PulseSequence(
            tuple(Pulse(p.t + 1e3, p.k_upper, p.k_lower) for p in base.pulses),
            duration=base.duration + 1e3,
        )
        seg = oracle._layout(seq, OracleConfig(1e-6, 100, shape))
        # marched from rest, the branch difference carries hbar*dk/m per
        # window to rounding: each kick is scaled by its realized width
        dk = [p.delta_k for p in seq.pulses]
        _, dv, _ = oracle._march(seg, dk, SR.mass, 0.0, None, 0.0)
        for i, k in zip(seg.windows, dk):
            impulse = constants.HBAR * k / SR.mass
            assert abs((dv[i + 1] - dv[i]) - impulse) <= 1e-10 * abs(impulse)
        # the branch sum's windows add hbar*(k1 + k2)/m - 2g*w each
        k_sum = [p.k_upper + p.k_lower for p in seq.pulses]
        _, v_sum, _ = oracle._march(seg, k_sum, SR.mass, 2.0 * g, None, -2.6)
        scale = max(constants.HBAR * (abs(p.k_upper) + abs(p.k_lower)) / SR.mass for p in seq.pulses)
        for i, k in zip(seg.windows, k_sum):
            expected = constants.HBAR * k / SR.mass - 2.0 * g * seg.h[i]
            assert abs((v_sum[i + 1] - v_sum[i]) - expected) <= 1e-9 * scale

    @pytest.mark.parametrize(
        "pulses, error, message",
        [(2, OpenSequenceError, "not closed"), (1, ValueError, "too few pulses")],
    )
    def test_a_refused_sequence_is_never_marched(self, monkeypatch, pulses, error, message):
        calls = []
        march = _kernels.march_rk4
        monkeypatch.setattr(_kernels, "march_rk4", lambda *args: calls.append(1) or march(*args))
        seq = PulseSequence(build_mzi(1e7, 0.4).pulses[:pulses])
        with pytest.raises(error, match=message):
            oracle_report(seq, SR, GravityEnv(9.81), REST, OracleConfig(1e-4, 400000))
        assert calls == []

    def test_a_report_reads_one_pulse_table_and_one_recoil_sum(self, monkeypatch):
        calls = []
        init, recoil = _exactsum.PulseTable.__init__, phase.recoil_double_sum
        monkeypatch.setattr(
            _exactsum.PulseTable, "__init__", lambda *args: calls.append("table") or init(*args)
        )
        monkeypatch.setattr(phase, "recoil_double_sum", lambda *args: calls.append("S") or recoil(*args))
        seq, ics = build_rbi_double_loop(1e7, 0.1), InitialConditions(0.4, -1.3)
        oracle_report(seq, SR, GravityEnv(9.81), ics, OracleConfig(1e-4, 100))
        assert calls == ["table", "S"]

    def test_a_subnormal_mass_is_a_non_finite_kick(self):
        with pytest.raises(NonFiniteResultError, match="kick amplitude"):
            march_branch(build_mzi(1e7, 0.1), 1, Species(5e-324), FLAT, REST, OracleConfig(0.01))


def _hex(value):
    if isinstance(value, (tuple, list)):
        return [_hex(v) for v in value]
    return float.hex(value) if isinstance(value, float) else value


# The oracle's agreement with the RK4 reference, relative to each quantity's
# scale: top-hat windows are exact in both, up to rounding; cosine windows at
# 4000 steps carry the reference's per-step rounding, which gravity raises.
REFERENCE_TOL = {"tophat": 1e-13, "cosine": 5e-11}


def _reference_cases():
    env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
    cases = []
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        seq = random_closed_sequence(rng, k_scale=1e7, with_common_mode=True, with_phases=True)
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        for shape, steps in (("tophat", 100), ("cosine", 4000)):
            cfg = OracleConfig(spacing / 50.0, steps, shape)
            cases.append(pytest.param(seq, env, ics, cfg, id=f"random{seed}-{shape}-{steps}"))
    # the lower branch is addressed by no pulse
    upper_only = PulseSequence(
        (Pulse(0.0, 1e7, 0.0), Pulse(0.1, -2e7, 0.0, 0.3, 0.0), Pulse(0.2, 1e7, 0.0))
    )
    empty = PulseSequence((), duration=1.0)
    for shape, steps in (("tophat", 100), ("cosine", 4000)):
        cfg = OracleConfig(1e-5, steps, shape)
        cases.append(pytest.param(upper_only, env, ics, cfg, id=f"upper-only-{shape}"))
        cases.append(pytest.param(empty, env, ics, cfg, id=f"empty-{shape}"))
    return cases


def _reference_nodes(seq, cfg, run):
    """The index of each of the oracle's breakpoints among the reference's nodes."""
    ts = oracle._layout(seq, cfg).ts
    nodes = np.searchsorted(run["grid"][0], ts)
    assert run["grid"][0][nodes].tolist() == ts
    return nodes


def _branch_speed(seq, env, ics):
    """A bound on every velocity of the branches: launch, free fall and all kicks."""
    span = seq.duration - min((0.0, *seq.times))
    kicks = sum(constants.HBAR * (abs(p.k_upper) + abs(p.k_lower)) / SR.mass for p in seq.pulses)
    return abs(ics.v0) + env.g * span + kicks, span


@pytest.mark.parametrize("seq, env, ics, cfg", _reference_cases())
class TestFrozenPipeline:
    """The oracle agrees with the RK4 reference pipeline in tests/_helpers.py."""

    def test_report(self, seq, env, ics, cfg):
        if len(seq.pulses) < 2:
            with pytest.raises(ValueError, match="too few pulses"):
                ref_oracle_report(seq, SR, env, ics, cfg)
            with pytest.raises(ValueError, match="too few pulses"):
                oracle_report(seq, SR, env, ics, cfg)
            return
        tol = REFERENCE_TOL[cfg.pulse_shape]
        report = asdict(oracle_report(seq, SR, env, ics, cfg))
        ref = ref_oracle_report(seq, SR, env, ics, cfg)
        assert report.keys() == ref.keys()
        for name in ("sigma", "pulse_shape", "delta_tau_closed"):
            assert _hex(report[name]) == _hex(ref[name])
        scale = residual_scale(seq)
        assert abs(report["delta_tau_numeric"] - ref["delta_tau_numeric"]) <= tol * scale
        assert abs(report["residual_vs_closed_form"] - ref["residual_vs_closed_form"]) <= tol
        action = sum(abs(p.delta_k * gravity_trajectory(env, ics, p.t)[0]) for p in seq.pulses)
        gap = abs(report["gravito_recoil_numeric"] - ref["gravito_recoil_numeric"])
        assert gap <= tol * action
        omega_c = SR.mass * constants.C**2 / constants.HBAR
        gap = abs(report["total_phase_numeric"] - ref["total_phase_numeric"])
        assert gap <= tol * (omega_c * scale + action)
        speed, span = _branch_speed(seq, env, ics)
        (dz, dv), (dz_ref, dv_ref) = report["closure_residuals"], ref["closure_residuals"]
        assert abs(dv - dv_ref) <= tol * speed and abs(dz - dz_ref) <= tol * speed * span

    def test_proper_time_and_action(self, seq, env, ics, cfg):
        if len(seq.pulses) < 2:
            return
        tol = REFERENCE_TOL[cfg.pulse_shape]
        gap = proper_time_numeric(seq, SR, env, ics, cfg) - ref_proper_time_numeric(
            seq, SR, env, ics, cfg
        )
        assert abs(gap) <= tol * residual_scale(seq)
        # the launch march that the gravito-recoil action reads
        run = ref_run(seq, SR, env, ics, cfg)
        nodes = _reference_nodes(seq, cfg, run)
        z_g, _, _ = oracle._march(oracle._layout(seq, cfg), (), SR.mass, env.g, ics.z0, ics.v0)
        speed, span = _branch_speed(seq, env, ics)
        assert np.abs(np.array(z_g) - run["zg"][nodes]).max() <= tol * (abs(ics.z0) + speed * span)

    def test_branch_arrays(self, seq, env, ics, cfg):
        tol = REFERENCE_TOL[cfg.pulse_shape]
        run = ref_run(seq, SR, env, ics, cfg)
        nodes = _reference_nodes(seq, cfg, run)
        speed, span = _branch_speed(seq, env, ics)
        for branch in (1, 2):
            _, z, v = march_branch(seq, branch, SR, env, ics, cfg)
            assert np.abs(v - run[f"v{branch}"][nodes]).max() <= tol * speed
            assert np.abs(z - run[f"z{branch}"][nodes]).max() <= tol * (abs(ics.z0) + speed * span)


@pytest.mark.parametrize("seed", range(3))
def test_the_cosine_gap_to_the_reference_is_fourth_order_in_its_steps(seed):
    # at g = 0 the reference's RK4 truncation dominates its rounding: twice
    # the steps take the gap down 16 times in theory, at least 12 here
    seq = random_closed_sequence(
        np.random.default_rng(100 + seed), k_scale=1e7, with_common_mode=True, with_phases=True
    )
    spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
    dtau = proper_time_numeric(seq, SR, FLAT, REST, OracleConfig(spacing / 50.0, 100, "cosine"))
    gaps = [
        abs(dtau - ref_proper_time_numeric(
            seq, SR, FLAT, REST, OracleConfig(spacing / 50.0, steps, "cosine")
        ))
        for steps in (100, 200)
    ]
    assert gaps[0] >= 12.0 * gaps[1] > 0.0

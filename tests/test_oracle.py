"""Finite-pulse-width integrator: accuracy invariants and kernel equivalence."""

import math
import sys
import threading
import tracemalloc
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
    march_rk4_loop,
    random_closed_sequence,
    ref_gravito_terms,
    ref_oracle_report,
    ref_proper_time_numeric,
    ref_run,
)

SR = Species(1.443157e-25)
FLAT = GravityEnv(0.0)
REST = InitialConditions()


def march_branch(seq, branch, species, env, ics, cfg):
    """One impulse-checked branch on the oracle's grid: node times, positions, velocities.

    As float64 arrays for both shapes: a top-hat grid and its marches are
    float lists, which np.asarray takes over bit for bit.
    """
    grid = oracle._quadrature_grid(seq, cfg)
    ks = [p.k_upper if branch == 1 else p.k_lower for p in seq.pulses]
    z, v = oracle._march(grid, ks, species.mass, env.g, ics.z0, ics.v0, "z_g", "v_g")
    return np.asarray(grid.ts), np.asarray(z), np.asarray(v)


def window_velocity_jump(ts, v, t_pulse, sigma):
    """Velocity change across one pulse window, read off the node samples."""
    i0 = int(np.searchsorted(ts, t_pulse))
    i1 = int(np.searchsorted(ts, t_pulse + sigma))
    assert ts[i0] == t_pulse
    return v[i1] - v[i0], ts[i1] - ts[i0]


def study_from(seq, species, env, ics, cfg):
    """convergence_study of cfg's steps and shape from cfg's width down to half of it."""
    widths = [cfg.pulse_width, cfg.pulse_width / 2.0]
    return convergence_study(
        seq, species, env, ics, widths,
        steps_per_segment=cfg.steps_per_segment, pulse_shape=cfg.pulse_shape,
    )


# the three library entries and a branch march on _quadrature_grid: each lays
# a config out before it forms anything
ENTRIES = [
    oracle_report, proper_time_numeric, study_from, lambda seq, *rest: march_branch(seq, 1, *rest)
]
ENTRY_IDS = ["report", "proper-time", "study", "branch"]


def assert_refused_unformed(monkeypatch, entry, seq, cfg, message):
    """entry refuses cfg on seq with exactly message, before any profile, grid or march."""
    calls = []
    march = _kernels.march_rk4
    monkeypatch.setattr(
        _kernels, "march_rk4", lambda *args, **kw: calls.append(1) or march(*args, **kw)
    )
    for name in ("_raised_cosine", "_build_grid"):
        def formed(*args, name=name, **kwargs):
            raise AssertionError(f"{name} ran before the config was refused")

        monkeypatch.setattr(oracle, name, formed)
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
        assert_refused_unformed(monkeypatch, entry, build_rbi_asymmetric(1e7, 0.1), cfg, message)

    @pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
    def test_grid_over_the_node_budget_is_refused_before_allocating(self, monkeypatch, entry):
        # 1e12 steps per cosine window would need petabytes, and a profile of
        # 1e12 nodes terabytes: neither may be formed
        message = (
            "3 pulse windows of 1000000000000 steps and 2 free segments need 3000000000005 "
            "grid nodes, more than 8000000; lower steps_per_segment"
        )
        cfg = OracleConfig(pulse_width=1e-6, steps_per_segment=10**12, pulse_shape="cosine")
        assert_refused_unformed(monkeypatch, entry, build_rbi_asymmetric(1e7, 0.1), cfg, message)

    def test_node_budget_boundary(self, monkeypatch):
        seq = build_rbi_asymmetric(1e7, 0.1)  # 3 windows and the 2 free segments between them
        cfg = OracleConfig(1e-6, 101, "cosine")  # rounds up to 102
        nodes = 3 * 102 + 2 * 2 + 1
        monkeypatch.setattr(oracle, "MAX_ORACLE_NODES", nodes)
        assert march_branch(seq, 1, SR, FLAT, REST, cfg)[0].size == nodes
        monkeypatch.setattr(oracle, "MAX_ORACLE_NODES", nodes - 1)
        message = (
            f"3 pulse windows of 102 steps and 2 free segments need {nodes} grid nodes, "
            f"more than {nodes - 1}; lower steps_per_segment"
        )
        with pytest.raises(OracleConfigError, match=message):
            march_branch(seq, 1, SR, FLAT, REST, cfg)

    @pytest.mark.parametrize("steps", [100, 10**12])
    def test_a_tophat_window_takes_one_simpson_pair(self, monkeypatch, steps):
        # steps_per_segment is accepted and unread: 3 windows and 2 free
        # segments of 2 steps, at most 4 * pulses + 3 nodes
        seq, cfg = build_rbi_asymmetric(1e7, 0.1), OracleConfig(1e-6, steps)
        nodes = 3 * 2 + 2 * 2 + 1
        assert nodes <= 4 * len(seq.pulses) + 3
        assert march_branch(seq, 1, SR, FLAT, REST, cfg)[0].size == nodes
        assert oracle_report(seq, SR, FLAT, REST, cfg).steps_per_segment == 2
        # the budget still holds; more steps would not lower the node count
        monkeypatch.setattr(oracle, "MAX_ORACLE_NODES", nodes - 1)
        message = (
            f"3 pulse windows of 2 steps and 2 free segments need {nodes} grid nodes, "
            f"more than {nodes - 1}"
        )
        with pytest.raises(OracleConfigError) as refused:
            march_branch(seq, 1, SR, FLAT, REST, cfg)
        assert str(refused.value) == message

    @pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
    def test_width_below_the_time_resolution_is_refused(self, monkeypatch, entry):
        # 1e20 + 1.0 rounds back to 1e20: the window would have no width
        seq = PulseSequence(
            (Pulse(1e20, 1e7, 0.0), Pulse(2e20, -2e7, 0.0), Pulse(3e20, 1e7, 0.0))
        )
        message = "pulse_width 1.0 is below the time resolution at t = 1e+20"
        assert_refused_unformed(monkeypatch, entry, seq, OracleConfig(pulse_width=1.0), message)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("entry", ENTRIES, ids=ENTRY_IDS)
    def test_a_window_its_steps_cannot_split_is_refused(self, monkeypatch, entry, shape):
        # 1 + 1.2 ulp(1) rounds to 1 + ulp(1): neither 2 top-hat steps nor 100
        # cosine steps split that window into rising nodes
        seq = PulseSequence((Pulse(1.0, 1e7, 0.0), Pulse(2.0, -2e7, 0.0), Pulse(3.0, 1e7, 0.0)))
        width = 1.2 * math.ulp(1.0)
        message = f"pulse_width {width!r} is below the time resolution at t = 1.0"
        assert_refused_unformed(monkeypatch, entry, seq, OracleConfig(width, 100, shape), message)

    @pytest.mark.parametrize("shape, steps", [("tophat", 2), ("cosine", 100)])
    def test_the_narrowest_accepted_window_has_rising_nodes(self, shape, steps):
        # floats are spaced widest at the last window, at 1 s: a width of
        # m ulp(1) gives steps of m / steps ulps, refused up to 8, accepted above
        seq = PulseSequence((Pulse(0.25, 2e7, 0.0), Pulse(0.5, -3e7, 0.0), Pulse(1.0, 1e7, 0.0)))
        ulp = math.ulp(1.0)
        with pytest.raises(OracleConfigError, match="below the time resolution at t = 1.0"):
            oracle._quadrature_grid(seq, OracleConfig(8 * steps * ulp, 100, shape))
        ts = oracle._quadrature_grid(seq, OracleConfig((8 * steps + 1) * ulp, 100, shape)).ts
        assert (np.diff(ts) > 0.0).all()

    def test_study_checks_the_budget_before_the_first_width(self, monkeypatch):
        def width(*args, **kwargs):
            raise AssertionError("a width ran before the budget check")

        monkeypatch.setattr(oracle, "_build_grid", width)
        with pytest.raises(OracleConfigError, match="grid nodes"):
            convergence_study(
                build_mzi(1e7, 0.1), SR, FLAT, REST, [1e-5, 1e-6],
                steps_per_segment=10**9, pulse_shape="cosine",
            )

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
        monkeypatch.setattr(
            _kernels, "march_rk4", lambda *args, **kw: calls.append(1) or march(*args, **kw)
        )
        seq = PulseSequence(build_mzi(1e7, 0.1).pulses[:pulses])
        with pytest.raises(OracleConfigError, match="below the time resolution at t = 0.1"):
            convergence_study(
                seq, SR, GravityEnv(9.81), REST, [1e-5, 1e-20], steps_per_segment=100
            )
        assert calls == []


class TestWindowedGrid:
    """Only cosine windows take steps_per_segment steps; the rest take one Simpson pair."""

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
    def test_the_residual_agrees_with_the_uniform_grid_to_rounding(
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
        windows, n = len(seq.pulses), (steps + steps % 2 if shape == "cosine" else 2)
        nodes = windows * n + 2 * (windows - 1) + 1  # the first pulse is at t = 0
        assert len(oracle._quadrature_grid(seq, cfg).ts) == nodes
        assert len(oracle._quadrature_grid(later, cfg).ts) == nodes + 2
        for s in (seq, later):
            new = oracle_report(s, SR, env, ics, cfg).residual_vs_closed_form
            uniform = ref_oracle_report(s, SR, env, ics, cfg, uniform=True)
            assert abs(new - uniform["residual_vs_closed_form"]) <= 1e-10

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["tophat", "cosine"]),
        steps=st.integers(100, 401),
        fraction=st.floats(1e-9, 0.49),
        offset=st.floats(-10.0, 10.0),
        tail=st.floats(0.0, 1.0),
        ulps=st.one_of(st.none(), st.integers(1, 20 * 402)),
    )
    @example(seed=0, shape="tophat", steps=100, fraction=0.25, offset=5e-324, tail=0.0, ulps=None)
    @example(seed=0, shape="cosine", steps=100, fraction=0.25, offset=1.0, tail=0.0, ulps=2)
    @example(seed=0, shape="tophat", steps=100, fraction=0.25, offset=-7.0, tail=0.0, ulps=40)
    @settings(max_examples=150, deadline=None)
    def test_each_window_spans_the_nodes_of_its_pulse_and_its_end(
        self, seed, shape, steps, fraction, offset, tail, ulps
    ):
        """Every accepted layout has strictly rising nodes, few-ulp widths included."""
        base = random_closed_sequence(
            np.random.default_rng(seed), k_scale=1e7, with_common_mode=True
        )
        pulses = tuple(replace(p, t=p.t + offset) for p in base.pulses)
        seq = PulseSequence(pulses, duration=pulses[-1].t + tail)
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        ulp = math.ulp(max(abs(t) for t in seq.times))
        cfg = OracleConfig(fraction * spacing if ulps is None else ulps * ulp, steps, shape)
        try:
            grid = oracle._quadrature_grid(seq, cfg)
        except OracleConfigError as refused:
            # only a window of at most 8 ulps a step, at the largest |t|
            # (twice that ulp past a power of two), is refused
            assert "below the time resolution" in str(refused)
            assert ulps is not None and ulps <= 16 * oracle._window_steps(cfg) + 2
            return
        ts = np.asarray(grid.ts).tolist()
        assert all(a < b for a, b in zip(ts[:-1], ts[1:]))
        assert len(grid.windows) == len(seq.times)
        for (i0, i1), t in zip(grid.windows, seq.times):
            assert (ts[i0], ts[i1]) == (t, t + cfg.pulse_width)
            assert i1 - i0 == oracle._window_steps(cfg)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    def test_a_free_flight_no_float_splits_is_left_out(self, shape):
        # 0 + 5e-324 / 2 rounds to 0, and no float lies between the last
        # window's end and one ulp past it: two steps would repeat a node
        base = build_mzi(1e7, 0.1)
        pulses = tuple(replace(p, t=p.t + 5e-324) for p in base.pulses)
        cfg = OracleConfig(1e-5, 100, shape)
        end = pulses[-1].t + cfg.pulse_width
        seq = PulseSequence(pulses, duration=math.nextafter(end, math.inf))
        ts = np.asarray(oracle._quadrature_grid(seq, cfg).ts).tolist()
        assert all(a < b for a, b in zip(ts[:-1], ts[1:]))
        assert (ts[0], ts[-1]) == (5e-324, end)
        # a free flight a float splits keeps its two steps
        seq = PulseSequence(pulses, duration=math.nextafter(end, math.inf) + 1e-9)
        ts = np.asarray(oracle._quadrature_grid(seq, cfg).ts).tolist()
        assert ts[-3:] == [end, end + (seq.duration - end) / 2, seq.duration]


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

    def test_a_kick_below_the_rounding_of_the_free_fall_velocity_is_refused(self):
        # hbar*k/m ~ 7e-13 m/s against g*t ~ 200 m/s: each velocity rounds by
        # ~3e-14, so the window's jump is off by far more than the limit, and
        # more steps only add roundings
        seq, cfg = build_mzi(1e-3, 10.0), OracleConfig(pulse_width=1e-2, steps_per_segment=100)
        with pytest.raises(OracleAccuracyError, match="below the float rounding"):
            oracle_report(seq, SR, GravityEnv(9.81), REST, cfg)

    def test_every_march_is_impulse_checked(self, monkeypatch):
        checked = []
        check = oracle._impulse_check

        def recorded(grid, v, ks, mass, g, scale_ks):
            checked.append((list(ks), g, list(scale_ks)))
            check(grid, v, ks, mass, g, scale_ks)

        monkeypatch.setattr(oracle, "_impulse_check", recorded)
        seq, env = build_rbi_double_loop(1e7, 0.1), GravityEnv(9.81)
        oracle_report(seq, SR, env, InitialConditions(0.4, -1.3), OracleConfig(1e-4, 100))
        k1, k2 = [p.k_upper for p in seq.pulses], [p.k_lower for p in seq.pulses]
        dk = [p.delta_k for p in seq.pulses]
        # the branch sum at 2g, scaled by both branches' kicks, the branch
        # difference at g = 0, and the pulse-free launch
        assert checked == [
            ([a + b for a, b in zip(k1, k2)], 2.0 * env.g, k1 + k2),
            (dk, 0.0, dk),
            ([], env.g, []),
        ]

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
    def test_no_branch_kick_escapes_the_impulse_checks(self, monkeypatch, shape, window, errors):
        # a kick off by 1e-4 of the largest kick on the upper branch, the
        # lower one or both: the branch sum carries e1 + e2 of it and the
        # branch difference e1 - e2, so one check or both see it
        seq, env, ics = self.PINNED, GravityEnv(9.81), InitialConditions(0.4, -1.3)
        cfg = OracleConfig(1e-4, 100, shape)
        oracle_report(seq, SR, env, ics, cfg)  # passes as it stands
        grid = oracle._quadrature_grid(seq, cfg)
        span = grid.windows[window]
        extra = 1e-4 * constants.HBAR * 3e7 / (SR.mass * grid.kick_areas[window])
        e1, e2 = errors
        march = _kernels.march_rk4

        def mis_scaled(h, u, p, kicks, g, z0, v0, **buffers):
            # the branch sum forms no positions; the difference starts at z = 0
            share = {None: e1 + e2, 0.0: e1 - e2}.get(z0, 0)
            amps = {(i0, i1): amp for i0, i1, amp in kicks}
            amps[span] = amps.get(span, 0.0) + share * extra
            kicks = [(i0, i1, amp) for (i0, i1), amp in amps.items() if amp != 0.0]
            return march(h, u, p, kicks, g, z0, v0, **buffers)

        monkeypatch.setattr(_kernels, "march_rk4", mis_scaled)
        with pytest.raises(OracleAccuracyError, match="velocity change per pulse off by"):
            oracle_report(seq, SR, env, ics, cfg)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    def test_a_branch_sum_that_nearly_cancels_is_checked_at_the_branch_scale(self, shape):
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
        steps=st.sampled_from([100, 401]),
        g=st.floats(0.0, 20.0),
        v0=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_the_branch_sum_march_is_the_sum_of_the_branch_marches(self, seed, shape, steps, g, v0):
        seq = random_closed_sequence(
            np.random.default_rng(seed), k_scale=1e7, with_common_mode=True
        )
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        grid = oracle._quadrature_grid(seq, OracleConfig(spacing / 50.0, steps, shape))
        k1, k2 = [p.k_upper for p in seq.pulses], [p.k_lower for p in seq.pulses]
        v1 = np.array(oracle._march(grid, k1, SR.mass, g, None, v0, "z_g", "v_g")[1])
        v2 = np.array(oracle._march(grid, k2, SR.mass, g, None, v0, "z_g", "v_g")[1])
        k_sum = [a + b for a, b in zip(k1, k2)]
        _, v_sum = oracle._march(
            grid, k_sum, SR.mass, 2.0 * g, None, 2.0 * v0, "z_g", "v_sum", scale_ks=k1 + k2
        )
        # V bounds every partial sum and every increment's size in all three
        # marches: each of the N steps rounds a cumulative sum by eps/2 * V
        # per march, and the increments and kick amplitudes round by a few
        # eps relative; 4 N eps V covers all of it
        kicks = sum(constants.HBAR * (abs(a) + abs(b)) / SR.mass for a, b in zip(k1, k2))
        V = 2.0 * abs(v0) + 2.0 * g * (grid.ts[-1] - grid.ts[0]) + kicks
        bound = 4.0 * len(grid.h) * np.finfo(float).eps * V
        assert np.abs(np.asarray(v_sum) - (v1 + v2)).max() <= bound

    def test_free_fall_matches_the_closed_form(self):
        seq = PulseSequence((), duration=2.0)
        env = GravityEnv(9.81)
        ics = InitialConditions(z0=3.0, v0=-1.0)
        ts, z, v = march_branch(seq, 1, SR, env, ics, OracleConfig(pulse_width=1e-3))
        zg, vg = gravity_trajectory(env, ics, ts)
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
        # the integrand is finite, but its Simpson terms or their sum are not:
        # fsum overflowed (5e-190) or numpy warned and the sum was -inf (3e-190);
        # pytest turns any warning into an error
        seq, cfg = build_rbi_asymmetric(1e7, 10.0), OracleConfig(1e-3, 100)
        with pytest.raises(NonFiniteResultError, match="proper-time integral is not finite"):
            proper_time_numeric(seq, Species(mass), GravityEnv(9.81), REST, cfg)

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize(
        "entry, k",
        [(proper_time_numeric, 1e7), (oracle_report, 1e-300)],
        ids=["proper_time_numeric", "oracle_report"],
    )
    def test_a_step_whose_square_overflows_is_a_numeric_failure(self, shape, entry, k):
        # the free-flight steps, near 5e159 s, square beyond the float range
        # while the grid is built; a numpy overflow warning would be an error
        # here, as pytest turns warnings into errors
        seq, cfg = build_rbi_asymmetric(k, 1e160), OracleConfig(1e150, pulse_shape=shape)
        with pytest.raises(NonFiniteResultError):
            entry(seq, Species(1e-25), FLAT, REST, cfg)

    @pytest.mark.parametrize("pairs", [2, _exactsum._FSUM_MAX_TERMS + 1])
    @pytest.mark.parametrize(
        "fill, first, last",
        [(2.5e307, 2.5e307, 2.5e307), (0.0, math.inf, -math.inf)],
        ids=["overflowing-sum", "opposite-infinities"],
    )
    def test_a_simpson_sum_that_fsum_refuses_is_nan(self, pairs, fill, first, last):
        # pair widths 6, so each term is f0 + 4 f1 + f2: 1.5e308 each, whose
        # sum fsum refuses with OverflowError, or +inf in the first pair and
        # -inf in the last, which it refuses with ValueError; below and above
        # the term count from which array_fsum takes its array path, and on
        # the float lists of a top-hat grid
        ts = np.arange(2 * pairs + 1) * 3.0
        f = np.full(ts.size, fill)
        f[1], f[-2] = first, last
        assert math.isnan(oracle._simpson(f, ts, np.empty(ts.size - 1)))
        assert math.isnan(oracle._simpson(f.tolist(), ts.tolist()))

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("seed", range(3))
    def test_free_flight_after_the_last_window_leaves_the_proper_time_alone(self, shape, seed):
        # the Simpson sum ends at the last window's end node; the closure
        # residuals still read the grid's last node, at the duration
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
            grid = oracle._quadrature_grid(later, cfg)
            assert grid.ts[-1] == later.duration
            dz, dv = oracle._march(grid, dk, SR.mass, 0.0, 0.0, 0.0, "dz", "dv")
            assert report.closure_residuals == (float(dz[-1]), float(dv[-1]))

    def test_report_serializes_with_stable_keys(self):
        cfg = OracleConfig(pulse_width=1e-7, steps_per_segment=100)
        report = oracle_report(build_mzi(1e7, 0.1), SR, FLAT, REST, cfg)
        payload = report.as_report()
        assert set(payload) == {
            "sigma",
            "steps",
            "pulse_shape",
            "delta_tau_numeric",
            "delta_tau_closed",
            "rel_residual",
            "gravito_recoil_numeric",
            "total_phase_numeric",
            "closure_residuals",
        }


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

    def test_a_launch_height_near_the_float_range_is_summed_exactly(self):
        # k * (window average of z_g) overflows although the sum is zero
        seq, ics = build_mzi(1e7, 0.1), InitialConditions(1.5e301)
        report = oracle_report(seq, SR, FLAT, ics, OracleConfig(1e-6))
        assert report.gravito_recoil_numeric == gravito_recoil_phase(seq, FLAT, ics) == 0.0
        assert math.isfinite(report.total_phase_numeric)

    def test_a_window_without_a_kick_difference_is_skipped(self):
        # a common-mode pulse at T/2 loads both branches alike: delta_k = 0
        mzi = build_mzi(1e7, 0.1)
        pulses = (mzi.pulses[0], Pulse(0.05, 3e6, 3e6), *mzi.pulses[1:])
        seq, env = PulseSequence(pulses, duration=mzi.duration), GravityEnv(9.81)
        cfg = OracleConfig(1e-4, 100)
        report = oracle_report(seq, SR, env, REST, cfg)
        assert report.residual_vs_closed_form <= 1e-12
        scale = sum(abs(p.delta_k * gravity_trajectory(env, REST, p.t)[0]) for p in seq.pulses)
        closed = gravito_recoil_phase(seq, env, REST)
        assert abs(report.gravito_recoil_numeric - closed) <= 1e-12 * scale
        grid = oracle._quadrature_grid(seq, cfg)
        z_g, _ = oracle._march(grid, (), SR.mass, env.g, REST.z0, REST.v0, "z_g", "v_g")
        factors, averages = oracle._window_terms(grid, [p.delta_k for p in seq.pulses], z_g)
        assert factors == [1e7, -2e7, 1e7] and len(averages) == 3

    @pytest.mark.parametrize("z0", [3e301, 1e308])
    def test_a_window_average_beyond_the_float_range_is_a_numeric_failure(self, z0):
        # a numpy warning would be raised here: pytest turns warnings into errors
        with pytest.raises(NonFiniteResultError, match="window average"):
            oracle_report(build_mzi(1e7, 0.1), SR, FLAT, InitialConditions(z0), OracleConfig(1e-6))

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

        def recorded(h, u, p, kicks, g, z0, v0, **buffers):
            calls.append(z0)
            return march(h, u, p, kicks, g, z0, v0, **buffers)

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
    """A top-hat window takes one Simpson pair, on which the march and the quadrature are exact."""

    @pytest.mark.parametrize("seed", range(3))
    def test_steps_per_segment_is_not_read(self, seed):
        rng = np.random.default_rng(100 + seed)
        seq = random_closed_sequence(rng, k_scale=1e7, with_common_mode=True, with_phases=True)
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
        reports = [
            asdict(oracle_report(seq, SR, env, ics, OracleConfig(spacing / 50.0, steps)))
            for steps in (100, 4000)
        ]
        # the config echo states the steps the windows took, 2 at both
        assert reports[0]["steps_per_segment"] == 2
        assert {k: _hex(v) for k, v in reports[0].items()} == {
            k: _hex(v) for k, v in reports[1].items()
        }
        widths = [spacing / 50.0, spacing / 100.0]
        studies = [
            convergence_study(seq, SR, env, ics, widths, steps_per_segment=steps)
            for steps in (100, 4000)
        ]
        assert _hex(list(studies[0].residuals)) == _hex(list(studies[1].residuals))

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
        # steps_per_segment is unread: the default
        report = oracle_report(seq, SR, env, ics, OracleConfig(sigma))
        assert report.residual_vs_closed_form * T / sigma == pytest.approx(coefficient, rel=1e-9)


def march_rk4(h, u, p, kicks, g, z0, v0):
    """_kernels.march_rk4 into fresh arrays; z is passed when z0 is."""
    n = h.size
    positions = {} if z0 is None else {"z": np.empty(n + 1)}
    return _kernels.march_rk4(
        h, u, p, kicks, g, z0, v0, v=np.empty(n + 1), work=np.empty(n), **positions
    )


class TestKernels:
    def rand_problem(self, n=5000, seed=2):
        rng = np.random.default_rng(seed)
        h = rng.uniform(1e-5, 1e-3, n)
        u, p = rng.normal(size=n), rng.normal(size=n)
        # three windows of kicks, and free steps before, between and after them
        kicks = [(100, 1100, 3.5), (2000, 2002, -40.0), (3000, 4900, 0.7)]
        return (h, u, p, kicks, 9.81, 0.3, -1.7)

    def test_loop_and_cumsum_paths_are_bitwise_identical(self):
        problem = self.rand_problem()
        z_np, v_np = march_rk4(*problem)
        z_py, v_py = march_rk4_loop(*problem)
        np.testing.assert_array_equal(z_np, z_py)
        np.testing.assert_array_equal(v_np, v_py)

    def test_without_a_start_position_only_velocities_are_formed(self):
        h, u, p, kicks, g, z0, v0 = self.rand_problem()
        z, v = march_rk4(h, u, p, kicks, g, None, v0)
        assert z is None
        assert v.tobytes() == march_rk4(h, u, p, kicks, g, z0, v0)[1].tobytes()

    def test_u_and_p_are_read_on_the_kicked_steps_only(self):
        h, u, p, kicks, g, z0, v0 = self.rand_problem()
        want = march_rk4(h, u, p, kicks, g, z0, v0)
        free = np.ones(h.size, dtype=bool)
        for i0, i1, _ in kicks:
            free[i0:i1] = False
        u[free], p[free] = np.nan, np.nan
        got = march_rk4(h, u, p, kicks, g, z0, v0)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        edges=st.lists(st.integers(0, 40), unique=True, max_size=6).map(sorted),
        positions=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_float_lists_march_as_the_arrays_and_the_loop(self, seed, n, edges, positions):
        # a top-hat grid marches float lists: it must give the array branch's
        # bits, and the loop's; up to three disjoint kicked windows (none
        # included) between free steps, with and without positions
        rng = np.random.default_rng(seed)
        h = 10.0 ** rng.uniform(-9.0, 1.0, n)
        u, p = rng.uniform(-1e3, 1e3, n), rng.uniform(-1e3, 1e3, n)
        edges = [e for e in edges if e <= n]
        kicks = [
            (i0, i1, float(rng.uniform(-1e6, 1e6))) for i0, i1 in zip(edges[::2], edges[1::2])
        ]
        g, v0, z0 = (float(x) for x in rng.uniform(-20.0, 20.0, 3) * [1.0, 50.0, 50.0])
        z0 = z0 if positions else None
        z, v = _kernels.march_rk4(h.tolist(), u.tolist(), p.tolist(), kicks, g, z0, v0)
        assert type(v) is list and len(v) == n + 1
        z_np, v_np = march_rk4(h, u, p, kicks, g, z0, v0)
        z_loop, v_loop = march_rk4_loop(h, u, p, kicks, g, 0.0 if z0 is None else z0, v0)
        assert np.array(v).tobytes() == v_np.tobytes() == v_loop.tobytes()
        if z0 is None:
            assert z is None and z_np is None
        else:
            assert type(z) is list
            assert np.array(z).tobytes() == z_np.tobytes() == z_loop.tobytes()


class TestMarchedWork:
    def test_proper_time_branch_marches_form_no_positions(self, monkeypatch):
        calls = []
        march = _kernels.march_rk4

        def recorded(h, u, p, kicks, g, z0, v0, **buffers):
            z, v = march(h, u, p, kicks, g, z0, v0, **buffers)
            calls.append((z0, z))
            return z, v

        monkeypatch.setattr(_kernels, "march_rk4", recorded)
        cfg = OracleConfig(1e-4, 100, "cosine")
        seq = build_rbi_double_loop(1e7, 0.1)
        proper_time_numeric(seq, SR, GravityEnv(9.81), InitialConditions(0.4, -1.3), cfg)
        # the branch sum, then the branch-difference system, whose dz is read
        assert [z0 for z0, _ in calls] == [None, 0.0]
        assert calls[0][1] is None
        assert calls[1][1].size == oracle._quadrature_grid(seq, cfg).ts.size

    def test_a_study_forms_the_cosine_profile_once(self, monkeypatch):
        calls = []
        profile = oracle._raised_cosine
        monkeypatch.setattr(oracle, "_raised_cosine", lambda cfg: calls.append(1) or profile(cfg))
        seq, env = build_rbi_double_loop(1e7, 0.1), GravityEnv(9.81)
        widths = [4e-4, 2e-4, 1e-4, 5e-5]
        convergence_study(seq, SR, env, REST, widths, steps_per_segment=100, pulse_shape="cosine")
        assert calls == [1]

    @given(n=st.integers(50, 5000).map(lambda half: 2 * half))
    def test_the_cosine_profile_is_zero_at_both_window_edges(self, n):
        profile = oracle._raised_cosine(OracleConfig(1.0, n, "cosine"))
        nodes, u_weights, p_weights = profile
        assert (nodes.size, u_weights.size, p_weights.size) == (n + 1, n, n)
        assert not any(x.flags.writeable for x in profile)  # shared by every window
        assert float.hex(float(nodes[0])) == float.hex(float(nodes[-1])) == float.hex(0.0)
        # the RK4 step weights of the profile, at the midpoints (j + 1/2)/n
        mids = 1.0 - np.cos(2.0 * np.pi * ((np.arange(n) + 0.5) / n))
        assert u_weights.tobytes() == (nodes[:-1] + 4.0 * mids + nodes[1:]).tobytes()
        assert p_weights.tobytes() == (nodes[:-1] + 2.0 * mids).tobytes()

    @pytest.mark.parametrize("g", [0.0, 9.81])
    @pytest.mark.parametrize("steps", [100, 101, 1000])
    def test_every_window_reads_the_one_profile_far_from_the_origin(self, steps, g):
        rng = np.random.default_rng(3)
        base = random_closed_sequence(rng, 8, k_scale=1e7, with_common_mode=True)
        seq = PulseSequence(
            tuple(Pulse(p.t + 1e3, p.k_upper, p.k_lower) for p in base.pulses),
            duration=base.duration + 1e3,
        )
        cfg = OracleConfig(1e-6, steps, "cosine")
        grid = oracle._quadrature_grid(seq, cfg)
        nodes, u_weights, p_weights = oracle._raised_cosine(cfg)
        assert grid.node_profile.tobytes() == nodes.tobytes()
        for (i0, i1), area in zip(grid.windows, grid.kick_areas):
            h = grid.h[i0:i1]
            assert grid.u[i0:i1].tobytes() == ((h / 6.0) * u_weights).tobytes()
            assert grid.p[i0:i1].tobytes() == ((h * h / 6.0) * p_weights).tobytes()
            assert area == float(grid.u[i0:i1].sum())
        forcings = [
            ([p.k_upper for p in seq.pulses], g),
            ([p.k_lower for p in seq.pulses], g),
            ([p.k_upper + p.k_lower for p in seq.pulses], 2.0 * g),
            ([p.delta_k for p in seq.pulses], 0.0),
        ]
        for ks, g_forcing in forcings:
            # the impulse check passes on every window
            oracle._march(grid, ks, SR.mass, g_forcing, None, -1.3, "z_g", "v_g")
        # marched from rest, the branch difference carries hbar*dk/m per window
        # to rounding: each kick is scaled by its profile's area on the grid
        dk = forcings[3][0]
        _, dv = oracle._march(grid, dk, SR.mass, 0.0, None, 0.0, "z_g", "v_g")
        for (i0, i1), k in zip(grid.windows, dk):
            impulse = constants.HBAR * k / SR.mass
            assert abs((dv[i1] - dv[i0]) - impulse) <= 1e-10 * abs(impulse)

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


def _arena_case(shape, steps=2000, seed=5):
    seq = random_closed_sequence(
        np.random.default_rng(seed), 6, k_scale=1e7, with_common_mode=True, with_phases=True
    )
    spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
    return seq, GravityEnv(9.81), InitialConditions(0.4, -1.3), OracleConfig(spacing / 50.0, steps, shape)


class TestOracleArena:
    """A cosine call's grid-sized arrays live in one per-thread arena, or fresh above
    _SCRATCH_MAX; a top-hat call's grid is float lists and leaves the arena alone."""

    def test_a_second_report_allocates_nothing_grid_sized(self, monkeypatch):
        seq, env, ics, cfg = _arena_case("cosine")
        monkeypatch.setattr(_exactsum._scratch, "buffers", {})  # no arena from earlier tests
        nodes = oracle._quadrature_grid(seq, cfg).ts.size
        assert len(oracle._ROLES) * nodes <= _exactsum._SCRATCH_MAX
        oracle_report(seq, SR, env, ics, cfg)  # grows this thread's arena
        kept = _exactsum._scratch.buffers["oracle"]
        tracemalloc.start()
        try:
            oracle_report(seq, SR, env, ics, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _exactsum._scratch.buffers["oracle"] is kept
        assert kept.size == len(oracle._ROLES) * nodes  # exactly its slots, no spare tail
        grid = oracle._quadrature_grid(seq, cfg)
        assert all(np.shares_memory(a, kept) for a in (grid.ts, grid.h, grid.u, grid.p))
        assert peak < nodes * 8

    def test_a_tophat_report_leaves_the_arena_untouched(self, monkeypatch):
        seq, env, ics, cfg = _arena_case("tophat")
        grid = oracle._quadrature_grid(seq, cfg)
        assert grid.arena is None
        assert all(type(a) is list for a in (grid.ts, grid.h, grid.u, grid.p))
        monkeypatch.setattr(_exactsum._scratch, "buffers", {})  # no arena from earlier tests
        oracle_report(seq, SR, env, ics, cfg)
        proper_time_numeric(seq, SR, env, ics, cfg)
        assert "oracle" not in _exactsum._scratch.buffers
        # an arena a cosine call left keeps its bytes
        cosine, *rest = _arena_case("cosine")
        oracle_report(cosine, SR, *rest)
        kept = _exactsum._scratch.buffers["oracle"]
        before = kept.tobytes()
        oracle_report(seq, SR, env, ics, cfg)
        assert _exactsum._scratch.buffers["oracle"] is kept
        assert kept.tobytes() == before

    def test_a_grid_above_the_arena_bound_gets_fresh_arrays(self, monkeypatch):
        seq, env, ics, cfg = _arena_case("cosine", steps=100)
        oracle_report(seq, SR, env, ics, cfg)
        kept = _exactsum._scratch.buffers["oracle"]
        nodes = oracle._quadrature_grid(seq, cfg).ts.size
        # one element short of the grid's slots
        monkeypatch.setattr(_exactsum, "_SCRATCH_MAX", len(oracle._ROLES) * nodes - 1)
        grid = oracle._quadrature_grid(seq, cfg)
        assert grid.arena.buffer is None
        assert not any(np.shares_memory(a, kept) for a in (grid.ts, grid.h, grid.u, grid.p))
        report = asdict(oracle_report(seq, SR, env, ics, cfg))
        ref = ref_oracle_report(seq, SR, env, ics, cfg)
        assert {k: _hex(v) for k, v in report.items()} == {k: _hex(v) for k, v in ref.items()}
        assert _exactsum._scratch.buffers["oracle"] is kept

    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    def test_threads_reporting_at_once_get_their_single_thread_bits(self, shape):
        cases = [_arena_case(shape, steps=400, seed=seed) for seed in range(20, 24)]
        want = [_hex(list(asdict(oracle_report(seq, SR, *rest)).values())) for seq, *rest in cases]
        threads = 3 * len(cases)  # more threads than cores, three per input
        start = threading.Barrier(threads)
        got: list[list] = [[] for _ in range(threads)]

        def work(i: int) -> None:
            seq, *rest = cases[i % len(cases)]
            start.wait(timeout=30)
            for _ in range(4):
                got[i].append(_hex(list(asdict(oracle_report(seq, SR, *rest)).values())))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert got == [[want[i % len(cases)]] * 4 for i in range(threads)]


def _hex(value):
    if isinstance(value, (tuple, list)):
        return [_hex(v) for v in value]
    return float.hex(value) if isinstance(value, float) else value


def _frozen_cases():
    env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
    cases = []
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        seq = random_closed_sequence(rng, k_scale=1e7, with_common_mode=True, with_phases=True)
        spacing = min(b - a for a, b in zip(seq.times[:-1], seq.times[1:]))
        for shape in ("tophat", "cosine"):
            for steps in (100, 101):
                cfg = OracleConfig(spacing / 50.0, steps, shape)
                cases.append(pytest.param(seq, env, ics, cfg, id=f"random{seed}-{shape}-{steps}"))
        # 2100 Simpson terms per window and more over the grid: the sums take
        # array_fsum's extraction passes instead of math.fsum
        if seed == 0:
            for shape in ("tophat", "cosine"):
                cfg = OracleConfig(spacing / 50.0, 4200, shape)
                cases.append(pytest.param(seq, env, ics, cfg, id=f"random{seed}-{shape}-4200"))
    # the lower branch is addressed by no pulse
    upper_only = PulseSequence(
        (Pulse(0.0, 1e7, 0.0), Pulse(0.1, -2e7, 0.0, 0.3, 0.0), Pulse(0.2, 1e7, 0.0))
    )
    empty = PulseSequence((), duration=1.0)
    for shape in ("tophat", "cosine"):
        cfg = OracleConfig(1e-5, 200, shape)
        cases.append(pytest.param(upper_only, env, ics, cfg, id=f"upper-only-{shape}"))
        cases.append(pytest.param(empty, env, ics, cfg, id=f"empty-{shape}"))
    return cases


@pytest.mark.parametrize("seq, env, ics, cfg", _frozen_cases())
class TestFrozenPipeline:
    """The oracle reproduces the frozen pipeline in tests/_helpers.py bit for bit."""

    def test_report(self, seq, env, ics, cfg):
        if len(seq.pulses) < 2:
            with pytest.raises(ValueError, match="too few pulses"):
                ref_oracle_report(seq, SR, env, ics, cfg)
            with pytest.raises(ValueError, match="too few pulses"):
                oracle_report(seq, SR, env, ics, cfg)
            return
        report = asdict(oracle_report(seq, SR, env, ics, cfg))
        ref = ref_oracle_report(seq, SR, env, ics, cfg)
        assert {k: _hex(v) for k, v in report.items()} == {k: _hex(v) for k, v in ref.items()}

    def test_proper_time_and_action(self, seq, env, ics, cfg):
        assert float.hex(proper_time_numeric(seq, SR, env, ics, cfg)) == float.hex(
            ref_proper_time_numeric(seq, SR, env, ics, cfg)
        )
        # the gravito-recoil action, window by window, and the launch march it reads
        run = ref_run(seq, SR, env, ics, cfg)
        grid = oracle._quadrature_grid(seq, cfg)
        z_g, _ = oracle._march(grid, (), SR.mass, env.g, ics.z0, ics.v0, "z_g", "v_g")
        assert np.asarray(z_g).tobytes() == run["zg"].tobytes()
        factors, averages = oracle._window_terms(grid, [p.delta_k for p in seq.pulses], z_g)
        terms = [k * average for k, average in zip(factors, averages)]
        assert _hex(terms) == _hex(ref_gravito_terms(seq, run, cfg.pulse_shape))

    def test_branch_arrays(self, seq, env, ics, cfg):
        run = ref_run(seq, SR, env, ics, cfg)
        for branch in (1, 2):
            ts, z, v = march_branch(seq, branch, SR, env, ics, cfg)
            assert ts.tobytes() == run["grid"][0].tobytes()
            assert z.tobytes() == run[f"z{branch}"].tobytes()
            assert v.tobytes() == run[f"v{branch}"].tobytes()

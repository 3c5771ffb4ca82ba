"""Finite-pulse-width integrator: accuracy invariants and kernel equivalence."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from lpai import (
    GravityEnv,
    InitialConditions,
    OracleAccuracyError,
    OracleConfig,
    OracleConfigError,
    PulseSequence,
    Species,
    action_numeric,
    build_mzi,
    build_rbi_asymmetric,
    build_rbi_double_loop,
    constants,
    convergence_study,
    gravity_trajectory,
    integrate_branch,
    laser_phase,
    oracle_report,
    proper_time_difference,
    proper_time_numeric,
)
from lpai import Pulse, _kernels, oracle

from _helpers import (
    march_rk4_loop,
    random_closed_sequence,
    ref_action_numeric,
    ref_oracle_report,
    ref_proper_time_numeric,
    ref_run,
)

SR = Species(1.443157e-25)
FLAT = GravityEnv(0.0)
REST = InitialConditions()


def window_velocity_jump(traj, t_pulse, sigma):
    """Velocity change across one pulse window, read off the node samples."""
    i0 = int(np.searchsorted(traj.t, t_pulse))
    i1 = int(np.searchsorted(traj.t, t_pulse + sigma))
    assert traj.t[i0] == t_pulse
    return traj.v[i1] - traj.v[i0], traj.t[i1] - traj.t[i0]


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

    def test_width_must_fit_between_pulses(self):
        cfg = OracleConfig(pulse_width=0.06)
        with pytest.raises(OracleConfigError, match="half the minimum"):
            integrate_branch(build_rbi_asymmetric(1e7, 0.1), 1, SR, FLAT, REST, cfg)

    @pytest.mark.parametrize(
        "entry",
        [
            oracle_report,
            proper_time_numeric,
            action_numeric,
            lambda seq, *rest: integrate_branch(seq, 1, *rest),
        ],
    )
    def test_grid_over_the_node_budget_is_refused_before_allocating(self, entry):
        # 1e12 steps per segment would need petabytes
        cfg = OracleConfig(pulse_width=1e-6, steps_per_segment=10**12)
        with pytest.raises(OracleConfigError, match="grid nodes"):
            entry(build_rbi_asymmetric(1e7, 0.1), SR, FLAT, REST, cfg)

    def test_node_budget_boundary(self, monkeypatch):
        seq = build_rbi_asymmetric(1e7, 0.1)  # 3 windows: 5 segments
        cfg = OracleConfig(pulse_width=1e-6, steps_per_segment=101)  # rounds up to 102
        nodes = 5 * 102 + 1
        monkeypatch.setattr(oracle, "MAX_ORACLE_NODES", nodes)
        assert integrate_branch(seq, 1, SR, FLAT, REST, cfg).t.size == nodes
        monkeypatch.setattr(oracle, "MAX_ORACLE_NODES", nodes - 1)
        with pytest.raises(OracleConfigError, match=f"need {nodes} grid nodes, more than {nodes - 1}"):
            integrate_branch(seq, 1, SR, FLAT, REST, cfg)

    def test_study_checks_the_budget_before_the_first_width(self, monkeypatch):
        def report(*args, **kwargs):
            raise AssertionError("a width ran before the budget check")

        monkeypatch.setattr(oracle, "oracle_report", report)
        with pytest.raises(OracleConfigError, match="grid nodes"):
            convergence_study(
                build_mzi(1e7, 0.1), SR, FLAT, REST, [1e-5, 1e-6], steps_per_segment=10**9
            )


class TestImpulseInvariant:
    @pytest.mark.parametrize("shape", ["tophat", "cosine"])
    @pytest.mark.parametrize("g", [0.0, 9.81])
    def test_each_window_carries_the_right_impulse(self, shape, g):
        k, T = 1.8e10, 0.325
        seq = build_rbi_asymmetric(k, T)
        cfg = OracleConfig(pulse_width=1e-6 * T, pulse_shape=shape)
        traj = integrate_branch(seq, 1, SR, GravityEnv(g), REST, cfg)
        scale = constants.HBAR * 2.0 * k / SR.mass
        for pulse, k_here in zip(seq.pulses, (k, -2.0 * k, k)):
            jump, width = window_velocity_jump(traj, pulse.t, cfg.pulse_width)
            expected = constants.HBAR * k_here / SR.mass - g * width
            assert abs(jump - expected) <= 1e-9 * scale

    def test_free_fall_matches_the_closed_form(self):
        seq = PulseSequence((), duration=2.0)
        env = GravityEnv(9.81)
        ics = InitialConditions(z0=3.0, v0=-1.0)
        traj = integrate_branch(seq, 1, SR, env, ics, OracleConfig(pulse_width=1e-3))
        zg, vg = gravity_trajectory(env, ics, traj.t)
        np.testing.assert_allclose(traj.z, zg, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(traj.v, vg, rtol=1e-12, atol=1e-12)

    def test_coasting_stays_on_the_straight_line(self):
        seq = PulseSequence((), duration=1.0)
        ics = InitialConditions(z0=0.5, v0=2.0)
        traj = integrate_branch(seq, 1, SR, FLAT, ics, OracleConfig(pulse_width=1e-3))
        np.testing.assert_allclose(traj.z, 0.5 + 2.0 * traj.t, rtol=1e-12)
        np.testing.assert_array_equal(traj.v, np.full(traj.v.shape, 2.0))


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


class TestActionNumeric:
    def test_action_identity_against_the_closed_decomposition(self):
        seq = build_rbi_double_loop(1e7, 0.1)
        cfg = OracleConfig(pulse_width=1e-6 * 0.4)
        actions = action_numeric(seq, SR, GravityEnv(9.81), InitialConditions(0.3, -0.8), cfg)
        assert actions.identity_residual <= 1e-8

    def test_laser_part_is_the_exact_phase_sum(self):
        from lpai import Pulse

        pulses = tuple(
            Pulse(p.t, p.k_upper, p.k_lower, 0.3 * i, -0.1 * i)
            for i, p in enumerate(build_rbi_double_loop(1e7, 0.1).pulses)
        )
        seq = PulseSequence(pulses)
        cfg = OracleConfig(pulse_width=1e-7, steps_per_segment=100)
        actions = action_numeric(seq, SR, FLAT, REST, cfg)
        assert actions.laser_part == laser_phase(seq)

    def test_pulse_free_action_is_zero_with_undefined_identity(self):
        seq = PulseSequence((), duration=1.0)
        actions = action_numeric(seq, SR, GravityEnv(9.81), REST, OracleConfig(pulse_width=1e-3))
        assert actions.total == 0.0
        assert actions.recoil_part == 0.0
        assert actions.gravito_recoil_part == 0.0
        assert math.isnan(actions.identity_residual)


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

    def test_non_decreasing_widths_are_rejected(self):
        with pytest.raises(OracleConfigError, match="strictly decreasing"):
            convergence_study(build_mzi(1e7, 0.1), SR, FLAT, REST, [1e-5, 1e-4])

    def test_a_single_width_is_rejected(self):
        with pytest.raises(OracleConfigError, match="at least two"):
            convergence_study(build_mzi(1e7, 0.1), SR, FLAT, REST, [1e-5])


class TestKernels:
    def rand_problem(self, n=5000, seed=2):
        rng = np.random.default_rng(seed)
        h = rng.uniform(1e-5, 1e-3, n)
        return (h, rng.normal(size=n), rng.normal(size=n), rng.normal(size=n), 0.3, -1.7)

    def test_loop_and_cumsum_paths_are_bitwise_identical(self):
        h, al, am, ar, z0, v0 = self.rand_problem()
        z_np, v_np = _kernels.march_rk4(h, al, am, ar, z0, v0)
        z_py, v_py = march_rk4_loop(h, al, am, ar, z0, v0)
        np.testing.assert_array_equal(z_np, z_py)
        np.testing.assert_array_equal(v_np, v_py)


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
        actions = action_numeric(seq, SR, env, ics, cfg)
        ref = ref_action_numeric(seq, SR, env, ics, cfg)
        assert {k: _hex(getattr(actions, k)) for k in ref} == {k: _hex(v) for k, v in ref.items()}

    def test_branch_arrays(self, seq, env, ics, cfg):
        run = ref_run(seq, SR, env, ics, cfg)
        for branch in (1, 2):
            traj = integrate_branch(seq, branch, SR, env, ics, cfg)
            assert traj.t.tobytes() == run["grid"][0].tobytes()
            assert traj.z.tobytes() == run[f"z{branch}"].tobytes()
            assert traj.v.tobytes() == run[f"v{branch}"].tobytes()

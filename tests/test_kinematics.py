"""Piecewise trajectories: kick part, launch part, combined sampling."""

import math
import tracemalloc

import numpy as np
import pytest

from lpai import (
    GravityEnv,
    InitialConditions,
    NonFiniteResultError,
    Pulse,
    PulseSequence,
    Species,
    build_mzi,
    build_rbi_double_loop,
    constants,
    gravity_trajectory,
    kick_trajectory,
    sample,
    trajectory_table,
)
from lpai import core, kinematics

from _helpers import random_closed_sequence

ATOM = Species(1.443157e-25)
FLAT = GravityEnv(0.0)
REST = InitialConditions()


def recoil_velocity(k, species=ATOM):
    return constants.HBAR * k / species.mass


class TestKickTrajectory:
    def test_mzi_upper_branch_velocity_profile(self):
        k, T = 1e7, 0.4
        traj = kick_trajectory(build_mzi(k, T), 1, ATOM)
        vr = recoil_velocity(k)
        assert traj.velocity(0.0) == 0.0          # sampling at the pulse is pre-kick
        assert traj.velocity(0.5 * T) == vr
        assert type(traj.velocity(0.5 * T)) is type(traj.position(0.5 * T)) is float
        assert traj.velocity(T) == vr             # the second kick acts just after T
        assert traj.velocity(1.5 * T) == 0.0
        assert traj.velocity(2.0 * T) == 0.0

    def test_mzi_lower_branch_velocity_profile(self):
        k, T = 1e7, 0.4
        traj = kick_trajectory(build_mzi(k, T), 2, ATOM)
        vr = recoil_velocity(k)
        assert traj.velocity(0.5 * T) == 0.0
        assert traj.velocity(1.5 * T) == vr
        assert traj.velocity(2.0 * T) == vr

    def test_mzi_branches_meet_at_the_end(self):
        k, T = 1e7, 0.4
        z1 = kick_trajectory(build_mzi(k, T), 1, ATOM).position(2.0 * T)
        z2 = kick_trajectory(build_mzi(k, T), 2, ATOM).position(2.0 * T)
        assert z1 == z2
        assert z1 == recoil_velocity(k) * T

    def test_position_is_continuous_across_a_kick(self):
        seq = build_rbi_double_loop(1e7, 0.25)
        traj = kick_trajectory(seq, 1, ATOM)
        for t in seq.times:
            before = traj.position(np.nextafter(t, -np.inf)) if t > 0 else traj.position(0.0)
            assert traj.position(t) == pytest.approx(before, abs=1e-12)

    def test_pulse_free_branch_never_moves(self):
        seq = build_rbi_double_loop(1e7, 0.25)  # single-branch geometry
        traj = kick_trajectory(seq, 2, ATOM)
        for t in (0.0, 0.3, 0.7, 1.0):
            assert traj.position(t) == 0.0
            assert traj.velocity(t) == 0.0

    def test_doubling_the_mass_halves_the_kick_part_bitwise(self):
        seq = build_rbi_double_loop(1.7e9, 0.31)
        light = kick_trajectory(seq, 1, Species(1e-25))
        heavy = kick_trajectory(seq, 1, Species(2e-25))
        for t in (0.1, 0.31, 0.5, 0.93, 1.24):
            assert heavy.position(t) == 0.5 * light.position(t)
            assert heavy.velocity(t) == 0.5 * light.velocity(t)

    def test_invalid_branch_is_rejected(self):
        with pytest.raises(ValueError, match="branch"):
            kick_trajectory(build_mzi(1.0, 1.0), 3, ATOM)

    def test_structurally_broken_sequence_is_rejected(self):
        seq = PulseSequence((Pulse(0.0, math.nan, 0.0), Pulse(1.0, 1.0, 0.0)))
        with pytest.raises(ValueError, match="non-finite"):
            kick_trajectory(seq, 1, ATOM)


class TestGravityTrajectory:
    def test_free_fall_values_are_exact(self):
        env = GravityEnv(9.81)
        z, v = gravity_trajectory(env, InitialConditions(0.0, 0.0), 1.0)
        assert z == -(0.5 * 9.81)
        assert v == -9.81

    def test_launch_offsets_enter_linearly(self):
        env = GravityEnv(9.81)
        ics = InitialConditions(z0=3.0, v0=2.0)
        z, v = gravity_trajectory(env, ics, 1.0)
        assert z == 3.0 + 1.0 * (2.0 - 0.5 * 9.81)
        assert v == 2.0 - 9.81


class TestSample:
    def test_start_of_the_interferometer_is_the_launch_state(self):
        env = GravityEnv(9.81)
        ics = InitialConditions(z0=1.5, v0=-0.5)
        for branch in (1, 2):
            assert sample(build_mzi(1e7, 0.4), branch, ATOM, env, ics, 0.0) == (1.5, -0.5)

    def test_closed_sequence_branches_coincide_at_the_end(self):
        seq = build_mzi(1e7, 0.4)
        env = GravityEnv(9.81)
        ics = InitialConditions(2.0, 1.0)
        s1 = sample(seq, 1, ATOM, env, ics, seq.duration)
        s2 = sample(seq, 2, ATOM, env, ics, seq.duration)
        assert s1[0] == s2[0]
        # sampling is pre-kick, so the last pulse still separates the speeds
        last = seq.pulses[-1]
        v1 = s1[1] + constants.HBAR * last.k_upper / ATOM.mass
        v2 = s2[1] + constants.HBAR * last.k_lower / ATOM.mass
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_branch_separation_is_launch_independent(self):
        seq = build_mzi(1e7, 0.4)
        t = 0.3
        separations = []
        for g, z0, v0 in [(0.0, 0.0, 0.0), (9.81, 0.0, 0.0), (50.0, -7.0, 12.0)]:
            env, ics = GravityEnv(g), InitialConditions(z0, v0)
            z1, _ = sample(seq, 1, ATOM, env, ics, t)
            z2, _ = sample(seq, 2, ATOM, env, ics, t)
            separations.append(z1 - z2)
        spread = max(separations) - min(separations)
        assert spread <= 1e-12 * max(1.0, abs(separations[0]))

    def test_time_outside_the_interferometer_is_rejected(self):
        seq = build_mzi(1.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            sample(seq, 1, ATOM, FLAT, REST, -0.1)
        with pytest.raises(ValueError, match="outside"):
            sample(seq, 1, ATOM, FLAT, REST, 2.1)


class TestTrajectoryTable:
    def test_columns_and_grid(self):
        seq = build_mzi(1e7, 0.4)
        table = list(
            trajectory_table(seq, ATOM, GravityEnv(9.81), InitialConditions(1.0, 0.5), 0.1)
        )
        assert np.shape(table) == (9, 6)
        assert table[0][0] == 0.0
        assert table[-1][0] == seq.duration
        np.testing.assert_allclose(np.diff([row[0] for row in table]), 0.1, rtol=1e-12)

    def test_final_row_is_appended_when_dt_misses_the_end(self):
        seq = build_mzi(1e7, 0.4)  # duration 0.8
        table = list(trajectory_table(seq, ATOM, FLAT, REST, 0.3))
        assert table[-1][0] == seq.duration
        assert table[-2][0] == pytest.approx(0.6)

    def test_row_budget_is_checked_before_allocating(self):
        with pytest.raises(ValueError, match="rows"):
            trajectory_table(build_mzi(1e7, 0.4), ATOM, FLAT, REST, 1e-12)

    def test_row_budget_boundary(self, monkeypatch):
        seq = build_mzi(1e7, 0.4)  # 0.8 / 0.1 gives 9 rows
        monkeypatch.setattr(kinematics, "MAX_TRAJECTORY_ROWS", 9)
        assert np.shape(list(trajectory_table(seq, ATOM, FLAT, REST, 0.1))) == (9, 6)
        monkeypatch.setattr(kinematics, "MAX_TRAJECTORY_ROWS", 8)
        with pytest.raises(ValueError, match="more than 8 rows"):
            trajectory_table(seq, ATOM, FLAT, REST, 0.1)

    @staticmethod
    def assert_rows_equal_sample(seq, env, ics, dt):
        for row in trajectory_table(seq, ATOM, env, ics, dt):
            t = row[0]
            assert row[1:3] == sample(seq, 1, ATOM, env, ics, t)
            assert row[3:5] == sample(seq, 2, ATOM, env, ics, t)

    def test_rows_match_scalar_sampling(self):
        seq = build_rbi_double_loop(1e7, 0.25)
        self.assert_rows_equal_sample(seq, GravityEnv(9.81), InitialConditions(1.0, -0.5), 0.001)

    def test_rows_of_a_100_pulse_sequence_match_scalar_sampling(self):
        seq = random_closed_sequence(np.random.default_rng(4), 100, k_scale=1e7)
        self.assert_rows_equal_sample(seq, GravityEnv(9.81), InitialConditions(0.4, -1.3), 0.013)

    def test_sequence_ending_before_zero_is_rejected(self):
        seq = PulseSequence(
            (Pulse(-0.6, 1e7, 0.0), Pulse(-0.4, -1e7, 1e7), Pulse(-0.2, 0.0, -1e7))
        )
        with pytest.raises(ValueError, match="before"):
            trajectory_table(seq, ATOM, FLAT, REST, 0.01)

    def test_pre_kick_convention_on_grid_points(self):
        k, T = 1e7, 0.2
        table = list(trajectory_table(build_mzi(k, T), ATOM, FLAT, REST, T))
        # rows at t = 0, T, 2T; the velocity column shows the pre-kick value
        assert table[0][2] == 0.0
        assert table[1][2] == recoil_velocity(k)
        assert table[2][2] == 0.0

    def test_launch_column_matches_the_closed_form(self):
        env = GravityEnv(3.7)
        ics = InitialConditions(0.3, 1.1)
        table = list(trajectory_table(build_mzi(1e7, 0.4), ATOM, env, ics, 0.1))
        zg = [gravity_trajectory(env, ics, row[0])[0] for row in table]
        assert [row[5] for row in table] == zg

    def test_memory_does_not_grow_with_rows_times_pulses(self):
        seq = random_closed_sequence(np.random.default_rng(3), 100, k_scale=1e7)
        tracemalloc.start()
        try:
            rows = sum(1 for _ in trajectory_table(seq, ATOM, FLAT, REST, seq.duration / 20000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the rows are formed one at a time and none is held, so the peak (~20 KB,
        # mostly the two segment tables) does not grow with their count; the
        # 20,001 rows held as floats would be 960 KB
        assert rows == 20001
        assert peak < 64 * 1024

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan, math.inf])
    def test_bad_dt_is_rejected(self, dt):
        with pytest.raises(ValueError, match="dt"):
            trajectory_table(build_mzi(1.0, 1.0), ATOM, FLAT, REST, dt)


class TestNonFiniteTrajectory:
    """A position or velocity beyond the floats is refused, naming its time, not returned."""

    # closed; tend 1e300 lets t (v0 - g t / 2) overflow on the launch part
    FAR = PulseSequence(
        (Pulse(0.0, 1e7, 0.0), Pulse(1.0, -1e7, 1e7), Pulse(2.0, 0.0, -1e7)), duration=1e300
    )
    FAST = InitialConditions(0.0, 1e10)

    def test_sample_refuses_an_overflowing_launch_position(self):
        # the launch part alone is (-inf, -9.81e300) here
        with pytest.raises(NonFiniteResultError, match=r"^branch 1 at t = 1e\+300 s .*-inf m"):
            sample(self.FAR, 1, ATOM, GravityEnv(9.81), self.FAST, 1e300)
        z, v = sample(self.FAR, 1, ATOM, GravityEnv(9.81), self.FAST, 1e150)
        assert math.isfinite(z) and math.isfinite(v)

    def test_sample_refuses_an_overflowing_kick_velocity(self):
        # hbar k / m overflows; branch 2 is kicked at t = 1 only
        seq = PulseSequence(
            (Pulse(0.0, 1e40, 0.0), Pulse(1.0, -1e40, 1e40), Pulse(2.0, 0.0, -1e40))
        )
        light = Species(5e-324)
        assert sample(seq, 2, light, FLAT, REST, 0.5) == (0.0, 0.0)
        with pytest.raises(NonFiniteResultError, match=r"^branch 1 at t = 0\.5 s .*velocity inf"):
            sample(seq, 1, light, FLAT, REST, 0.5)
        with pytest.raises(NonFiniteResultError, match=r"^branch 2 at t = 1\.5 s"):
            sample(seq, 2, light, FLAT, REST, 1.5)

    def test_a_table_row_that_overflows_raises_when_it_is_formed(self):
        rows = trajectory_table(self.FAR, ATOM, FLAT, self.FAST, 1e299)
        assert next(rows) == (0.0, 0.0, 1e10, 0.0, 1e10, 0.0)
        with pytest.raises(NonFiniteResultError, match=r"^branch 1 at t = 1e\+299 s .*inf m"):
            next(rows)


class TestValidatesOnce:
    """Each public entry point validates its sequence once, however many branches it reads."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        original = core.validate_sequence
        monkeypatch.setattr(core, "validate_sequence", lambda seq: calls.append(seq) or original(seq))
        return calls

    def test_trajectory_table(self, calls):
        seq = build_mzi(1e7, 0.4)
        trajectory_table(seq, ATOM, GravityEnv(9.81), REST, 0.1)
        assert calls == [seq]

    def test_sample(self, calls):
        seq = build_mzi(1e7, 0.4)
        sample(seq, 2, ATOM, GravityEnv(9.81), REST, 0.3)
        assert calls == [seq]

    def test_kick_trajectory(self, calls):
        seq = build_mzi(1e7, 0.4)
        kick_trajectory(seq, 1, ATOM)
        assert calls == [seq]

"""Two-state fringes, the visibility beat and its envelope."""

import math
from dataclasses import asdict

import numpy as np
import pytest

import lpai.clock
from lpai import (
    ClockPair,
    GravityEnv,
    InitialConditions,
    InternalConsistencyError,
    NonFiniteResultError,
    Species,
    beat,
    build_mzi,
    build_rbi_asymmetric,
    build_rbi_double_loop,
    clock_limit_phase,
    constants,
    fringe,
    per_state_phase,
    proper_time_difference,
    total_phase,
    visibility_scan,
)

from _helpers import random_clock, random_closed_sequence

FLAT = GravityEnv(0.0)
REST = InitialConditions()
SR_MASS = 1.443157e-25


def clock_with_ratio(ratio: float, mean_mass: float = 1e-25) -> ClockPair:
    omega = ratio * mean_mass * constants.C**2 / constants.HBAR
    return ClockPair(mean_mass=mean_mass, splitting_omega=omega)


def solve_splitting_for_pi(seq, mean_mass: float) -> ClockPair:
    """Clock whose beat argument eta*Omega*|dtau| lands on pi for this geometry."""
    dtau = abs(proper_time_difference(seq, Species(mean_mass)))
    omega = math.pi / dtau
    for _ in range(60):  # eta depends on omega; the fixed point converges fast
        clock = ClockPair(mean_mass, omega)
        omega = math.pi / (clock.eta * dtau)
    return ClockPair(mean_mass, omega)


class TestPerStatePhase:
    def test_zero_splitting_collapses_both_states(self):
        clock = ClockPair(mean_mass=SR_MASS, splitting_omega=0.0)
        seq = build_rbi_double_loop(1e7, 0.1)
        a = per_state_phase(seq, clock, "a", FLAT, REST)
        b = per_state_phase(seq, clock, "b", FLAT, REST)
        assert a == b

    def test_recoil_scales_with_the_inverse_state_mass(self):
        clock = clock_with_ratio(0.2)
        seq = build_rbi_double_loop(1e3, 0.4)
        a = per_state_phase(seq, clock, "a", FLAT, REST).total_phase
        b = per_state_phase(seq, clock, "b", FLAT, REST).total_phase
        # pure recoil signal: phase_j * m_j is state independent
        assert a * clock.mass_a == pytest.approx(b * clock.mass_b, rel=1e-13)

    def test_gravimeter_signal_is_state_independent(self):
        clock = clock_with_ratio(0.2)
        seq = build_mzi(1e7, 0.4)
        env = GravityEnv(9.81)
        a = per_state_phase(seq, clock, "a", env, REST).total_phase
        b = per_state_phase(seq, clock, "b", env, REST).total_phase
        assert a == b  # no recoil part, and the other terms carry no mass


class TestFringe:
    def test_species_fringe_is_the_cosine_of_the_total(self):
        seq = build_rbi_double_loop(1e3, 0.4)
        total = total_phase(seq, Species(1e-25), FLAT, REST).total_phase
        assert fringe(seq, Species(1e-25), FLAT, REST) == 0.5 * (1.0 + math.cos(total))

    def test_zero_phase_gives_unit_probability(self):
        assert fringe(build_mzi(1e7, 0.4), Species(SR_MASS), FLAT, REST) == 1.0

    def test_pi_phase_darkens_the_port(self):
        g, T = 9.81, 0.4
        k = math.pi / (g * T**2)  # gravimeter phase of exactly -pi up to rounding
        p = fringe(build_mzi(k, T), Species(SR_MASS), GravityEnv(g), REST)
        assert p <= 1e-28

    def test_half_pi_phase_gives_even_odds(self):
        g, T = 9.81, 0.4
        k = 0.5 * math.pi / (g * T**2)
        p = fringe(build_mzi(k, T), Species(SR_MASS), GravityEnv(g), REST)
        assert p == pytest.approx(0.5, abs=1e-12)

    def test_clock_pair_needs_a_state(self):
        clock = clock_with_ratio(0.1)
        with pytest.raises(ValueError, match="state"):
            fringe(build_mzi(1e7, 0.4), clock, FLAT, REST)

    def test_species_rejects_a_state(self):
        with pytest.raises(ValueError, match="state"):
            fringe(build_mzi(1e7, 0.4), Species(SR_MASS), FLAT, REST, state="a")

    def test_per_state_fringes_come_from_the_state_masses(self):
        clock = clock_with_ratio(0.2)
        seq = build_rbi_double_loop(1e3, 0.4)
        pa = fringe(seq, clock, FLAT, REST, state="a")
        pa_direct = fringe(seq, clock.state_species("a"), FLAT, REST)
        assert pa == pa_direct


class TestBeat:
    def test_no_proper_time_difference_means_no_beat(self):
        clock = clock_with_ratio(0.2, mean_mass=SR_MASS)
        signal = beat(build_mzi(1e7, 0.4), clock, FLAT, REST)
        assert signal.delta_tau == 0.0
        assert signal.envelope == 1.0
        assert signal.carrier_phase == 0.0
        assert signal.p_a == signal.p_b == signal.p_combined == 1.0

    def test_combined_signal_is_the_average_of_the_states(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            seq = random_closed_sequence(rng, with_common_mode=True, with_phases=True)
            clock = random_clock(rng)
            signal = beat(seq, clock, GravityEnv(9.81), InitialConditions(0.5, -0.2))
            assert abs(signal.p_combined - 0.5 * (signal.p_a + signal.p_b)) <= 1e-15
            for p in (signal.p_a, signal.p_b, signal.p_combined):
                assert 0.0 <= p <= 1.0
            assert abs(signal.envelope) <= 1.0

    def test_combined_signal_matches_the_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            seq = random_closed_sequence(rng, with_common_mode=True, with_phases=True)
            clock = random_clock(rng)
            signal = beat(seq, clock, FLAT, REST)
            closed = 0.5 * (1.0 + signal.envelope * math.cos(signal.carrier_phase))
            assert abs(signal.p_combined - closed) <= 1e-12

    def test_full_dephasing_kills_the_visibility(self):
        seq = build_rbi_double_loop(1e7, 0.1)
        clock = solve_splitting_for_pi(seq, 1e-25)
        signal = beat(seq, clock, FLAT, REST)
        assert abs(signal.envelope) <= 1e-12
        assert signal.p_combined == pytest.approx(0.5, abs=1e-12)

    def test_carrier_matches_the_mean_mass_total_up_to_eta(self):
        seq = build_rbi_double_loop(1e3, 0.4)
        clock = clock_with_ratio(0.2)
        signal = beat(seq, clock, FLAT, REST)
        mean_total = total_phase(seq, Species(clock.mean_mass), FLAT, REST).total_phase
        assert signal.carrier_phase == pytest.approx(clock.eta * mean_total, rel=1e-14)

    def test_a_non_finite_proper_time_is_a_typed_error(self):
        seq = build_rbi_double_loop(1e7, 0.1)
        with pytest.raises(NonFiniteResultError):
            beat(seq, ClockPair(5e-324, 0.0), FLAT, REST)

    def test_a_non_finite_carrier_is_a_typed_error(self):
        # a 1e300 kg clock: omega_C overflows to inf while delta_tau underflows to -0.0
        with pytest.raises(NonFiniteResultError, match="beat carrier nan rad"):
            beat(build_rbi_double_loop(1e7, 0.1), ClockPair(1e300, 1e15), GravityEnv(9.81), REST)

    def test_a_state_total_beyond_the_floats_is_refused_as_a_phase_breakdown(self):
        # g = 1e158: a state's recoil phase and the gravito-recoil sum are
        # finite but their sum is -inf; the state is refused before the carrier
        with pytest.raises(NonFiniteResultError) as info:
            beat(build_rbi_asymmetric(1e150, 1.0), ClockPair(1e-42, 0.0), GravityEnv(1e158), REST)
        assert str(info.value) == (
            "phase breakdown is not finite: PhaseBreakdown(delta_tau=-1.2374022909929108e+299, "
            "recoil_phase=-1.0545718169999997e+308, gravito_recoil=-1e+308, laser_phase=0.0, "
            "total_phase=-inf)"
        )

    @pytest.mark.parametrize("rel, trips", [(1e-9, True), (1e-14, False)])
    def test_a_perturbed_state_total_trips_the_consistency_check(self, monkeypatch, rel, trips):
        # g = 0 and no laser phases: each state's total is its recoil phase
        seq, clock = build_rbi_double_loop(1e7, 0.1), clock_with_ratio(1e-10, SR_MASS)
        exact, unperturbed = lpai.clock.recoil_parts, beat(seq, clock, FLAT, REST)

        def perturbed(s, mass):
            dtau, recoil = exact(s, mass)
            return dtau, recoil * (1.0 + rel) if mass == clock.mass_a else recoil

        monkeypatch.setattr(lpai.clock, "recoil_parts", perturbed)
        if trips:
            with pytest.raises(InternalConsistencyError, match="carrier mismatch"):
                beat(seq, clock, FLAT, REST)
        else:  # the state totals only feed the check
            assert beat(seq, clock, FLAT, REST) == unperturbed

    def test_beat_fields_serialize(self):
        signal = beat(build_rbi_double_loop(1e3, 0.4), clock_with_ratio(0.1), FLAT, REST)
        d = asdict(signal)
        assert list(d) == ["p_a", "p_b", "p_combined", "envelope", "carrier_phase", "delta_tau"]


class TestClockLimit:
    def test_exact_equals_limit_for_zero_splitting(self):
        seq = build_rbi_double_loop(1e7, 0.1)
        clock = ClockPair(mean_mass=1e-25, splitting_omega=0.0)
        full, eta1 = clock_limit_phase(seq, clock)
        assert full == eta1 == 0.0

    @pytest.mark.parametrize("ratio", [0.01, 0.1, 0.2])
    def test_relative_gap_is_eta_minus_one(self, ratio):
        seq = build_rbi_double_loop(1e7, 0.1)
        clock = clock_with_ratio(ratio)
        full, eta1 = clock_limit_phase(seq, clock)
        assert eta1 != 0.0
        assert abs(full - eta1) / abs(eta1) == pytest.approx(clock.eta - 1.0, abs=1e-14)

    def test_realistic_optical_clock_sits_at_the_limit(self):
        seq = build_rbi_double_loop(1.8e10, 0.325)
        clock = ClockPair(mean_mass=SR_MASS, splitting_omega=2.696928e15)
        full, eta1 = clock_limit_phase(seq, clock)
        assert full == eta1  # eta underflows to 1.0 for an optical splitting


class TestVisibilityScan:
    def test_zero_separation_is_emitted_degenerately(self):
        clock = ClockPair(SR_MASS, 2.696928e15)
        rows = visibility_scan(lambda T: build_rbi_double_loop(1.8e10, T), [0.0, 0.1], clock)
        assert rows[0] == (0.0, 1.0)

    def test_envelope_decays_while_the_argument_grows_to_pi(self):
        clock = ClockPair(SR_MASS, 2.696928e15)
        times = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
        rows = visibility_scan(lambda T: build_rbi_double_loop(1.8e10, T), times, clock)
        envelopes = [env for _, env in rows]
        assert all(e1 > e2 for e1, e2 in zip(envelopes, envelopes[1:]))
        assert all(0.0 < e < 1.0 for e in envelopes)

    def test_rows_match_the_clock_limit_phase(self):
        clock = ClockPair(SR_MASS, 2.696928e15)
        builder = lambda T: build_rbi_double_loop(1.8e10, T)
        rows = visibility_scan(builder, [0.1, 0.2], clock)
        for t_sep, env in rows:
            full, _ = clock_limit_phase(builder(t_sep), clock)
            assert env == math.cos(0.5 * full)

    def test_beat_envelope_agrees_with_the_scan(self):
        clock = ClockPair(SR_MASS, 2.696928e15)
        seq = build_rbi_double_loop(1.8e10, 0.325)
        signal = beat(seq, clock, FLAT, REST)
        full, _ = clock_limit_phase(seq, clock)
        assert signal.envelope == pytest.approx(math.cos(0.5 * full), rel=1e-12)

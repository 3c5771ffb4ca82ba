"""Data types: species, clock pairs, sequence validation, phase container."""

import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpai import (
    ClockPair,
    GravityEnv,
    InitialConditions,
    PhaseBreakdown,
    Pulse,
    PulseSequence,
    Species,
    beat,
    compton_frequency,
    constants,
    recoil_double_sum,
    require_valid,
    total_phase,
    validate_sequence,
)
from lpai import core

SR_MASS = 1.443157e-25


def mzi_like(k=1.0, T=1.0):
    return PulseSequence((Pulse(0.0, k, 0.0), Pulse(T, -k, k), Pulse(2.0 * T, 0.0, -k)))


class TestSpecies:
    @pytest.mark.parametrize("mass", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_non_positive_or_non_finite_mass(self, mass):
        with pytest.raises(ValueError):
            Species(mass)

    def test_is_frozen(self):
        s = Species(1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.mass = 2.0


class TestComptonFrequency:
    @pytest.mark.parametrize("mass", [SR_MASS, 1.0, 1.6605390666e-27, 2.2e-25])
    def test_matches_exact_rational_arithmetic(self, mass):
        got = compton_frequency(Species(mass))
        exact = Fraction(mass) * Fraction(constants.C) ** 2 / Fraction(constants.HBAR)
        assert got == pytest.approx(float(exact), rel=5e-16)

    def test_strontium_magnitude(self):
        # coarse sanity: the rest-energy frequency of a 1.443157e-25 kg atom
        omega = compton_frequency(Species(SR_MASS))
        assert 1.22e26 < omega < 1.24e26
        assert abs(omega - 1.2301e26) / 1.2301e26 < 5e-4

    def test_doubling_mass_doubles_frequency_bitwise(self):
        m = SR_MASS
        assert compton_frequency(Species(2.0 * m)) == 2.0 * compton_frequency(Species(m))


class TestClockPair:
    def test_delta_m_matches_exact_rational_arithmetic(self):
        clock = ClockPair(mean_mass=1e-25, splitting_omega=2.7e15)
        exact = Fraction(constants.HBAR) * Fraction(2.7e15) / Fraction(constants.C) ** 2
        assert clock.delta_m == pytest.approx(float(exact), rel=5e-16)

    def test_state_masses_straddle_the_mean(self):
        omega = 0.2 * 1e-25 * constants.C**2 / constants.HBAR  # sizeable splitting
        clock = ClockPair(mean_mass=1e-25, splitting_omega=omega)
        assert clock.mass_a > clock.mean_mass > clock.mass_b
        assert clock.mass_a - clock.mean_mass == pytest.approx(0.5 * clock.delta_m, rel=1e-12)
        assert clock.mass_a + clock.mass_b == pytest.approx(2.0 * clock.mean_mass, rel=1e-15)

    def test_eta_is_exactly_one_for_zero_splitting(self):
        assert ClockPair(mean_mass=1e-25, splitting_omega=0.0).eta == 1.0

    def test_eta_underflows_to_one_for_realistic_optical_splittings(self):
        # (dm/2m)^2 ~ 1e-22 for an optical clock transition: below resolution
        clock = ClockPair(mean_mass=SR_MASS, splitting_omega=2.696928e15)
        assert clock.eta == 1.0

    @pytest.mark.parametrize("ratio", [0.01, 0.1, 0.2, 0.3])
    def test_eta_matches_exact_rational_arithmetic(self, ratio):
        m = 1e-25
        omega = ratio * m * constants.C**2 / constants.HBAR
        clock = ClockPair(mean_mass=m, splitting_omega=omega)
        x = Fraction(constants.HBAR) * Fraction(omega) / Fraction(constants.C) ** 2
        x /= 2 * Fraction(m)
        expected = 1 / (1 - x * x)
        assert clock.eta == pytest.approx(float(expected), rel=1e-15)

    @given(ratio=st.floats(min_value=0.0, max_value=1.9, exclude_max=True))
    def test_eta_never_below_one(self, ratio):
        omega = ratio * 1e-25 * constants.C**2 / constants.HBAR
        assert ClockPair(mean_mass=1e-25, splitting_omega=omega).eta >= 1.0

    def test_rejects_negative_or_oversized_splitting(self):
        with pytest.raises(ValueError):
            ClockPair(mean_mass=1e-25, splitting_omega=-1.0)
        too_big = 2.5 * 1e-25 * constants.C**2 / constants.HBAR
        with pytest.raises(ValueError):
            ClockPair(mean_mass=1e-25, splitting_omega=too_big)

    def test_rejects_a_ground_state_mass_that_rounds_to_zero(self):
        # delta_m is 3 subnormal units against 2 for the mean: 0.5 * delta_m
        # rounds up to the mean, so mass_b would be 0.0 with delta_m < 2 mean_mass
        with pytest.raises(ValueError, match="splitting too large"):
            ClockPair(1e-323, 1.2000373463725388e-272)

    @given(
        mean_mass=st.floats(min_value=5e-324, max_value=sys.float_info.max),
        splitting_omega=st.one_of(
            st.floats(min_value=0.0, max_value=sys.float_info.max),
            st.floats(min_value=0.0, max_value=1e-271),  # subnormal delta_m
        ),
    )
    def test_accepted_pairs_have_positive_finite_state_masses(self, mean_mass, splitting_omega):
        mass_b = mean_mass - 0.5 * (constants.HBAR * splitting_omega / constants.C**2)
        if not mass_b > 0.0:
            with pytest.raises(ValueError, match="splitting too large"):
                ClockPair(mean_mass, splitting_omega)
            return
        clock = ClockPair(mean_mass, splitting_omega)
        assert clock.mass_b == mass_b
        assert 0.0 < clock.mass_b <= clock.mean_mass <= clock.mass_a < math.inf
        assert 1.0 <= clock.eta < math.inf

    def test_state_species(self):
        omega = 0.1 * 1e-25 * constants.C**2 / constants.HBAR
        clock = ClockPair(mean_mass=1e-25, splitting_omega=omega, label="pair")
        a = clock.state_species("a")
        b = clock.state_species("b")
        assert a.mass == clock.mass_a
        assert b.mass == clock.mass_b
        assert a.label == "pair|a"
        with pytest.raises(ValueError):
            clock.state_species("c")


class TestPulseSequence:
    def test_delta_k(self):
        assert Pulse(0.0, 3.0, 1.0).delta_k == 2.0

    def test_duration_defaults_to_last_pulse_time(self):
        seq = mzi_like(T=0.7)
        assert seq.duration == seq.pulses[-1].t

    def test_explicit_duration_is_kept(self):
        seq = PulseSequence(mzi_like(T=0.5).pulses, duration=2.0)
        assert seq.duration == 2.0

    def test_empty_sequence_has_zero_duration(self):
        assert PulseSequence(()).duration == 0.0

    def test_times_property(self):
        assert mzi_like(T=0.5).times == (0.0, 0.5, 1.0)

    def test_pulses_are_normalized_to_a_tuple(self):
        seq = PulseSequence([Pulse(0.0, 1.0, 0.0), Pulse(1.0, -1.0, 0.0)])
        assert isinstance(seq.pulses, tuple)


class TestValidation:
    def test_valid_sequence_reports_nothing(self):
        assert validate_sequence(mzi_like()) == []

    def test_non_finite_field_is_reported_with_pulse_index(self):
        seq = PulseSequence((Pulse(0.0, math.nan, 0.0), Pulse(1.0, -1.0, 0.0)))
        rules = [(v.rule, v.pulse_index) for v in validate_sequence(seq)]
        assert ("non-finite field", 0) in rules

    @pytest.mark.parametrize("second_t", [0.0, -1.0])
    def test_non_monotone_times(self, second_t):
        seq = PulseSequence((Pulse(0.0, 1.0, 0.0), Pulse(second_t, -1.0, 0.0)))
        assert any(v.rule == "non-monotone times" for v in validate_sequence(seq))

    def test_duration_before_last_pulse(self):
        seq = PulseSequence(mzi_like(T=1.0).pulses, duration=0.5)
        assert any(v.rule == "duration before last pulse" for v in validate_sequence(seq))

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_pulses(self, n):
        seq = PulseSequence(tuple(Pulse(float(i), 1.0, 0.0) for i in range(n)))
        assert [v.rule for v in validate_sequence(seq)] == ["too few pulses"]

    def test_all_violations_are_collected(self):
        seq = PulseSequence((Pulse(0.0, math.inf, 0.0), Pulse(0.0, 1.0, math.nan)), duration=-1.0)
        rules = {v.rule for v in validate_sequence(seq)}
        assert rules == {"non-finite field", "non-monotone times", "duration before last pulse"}

    def test_an_int_beyond_the_float_range_is_a_non_finite_field(self):
        big = 2**1100
        seq = PulseSequence((Pulse(0.0, 1.0, 0.0), Pulse(big, -1.0, 0.0)))
        assert [(v.rule, v.pulse_index) for v in validate_sequence(seq)] == [
            ("non-finite field", 1),
            ("non-finite field", None),  # the duration defaults to the last time
        ]
        seq = PulseSequence((Pulse(0.0, 1.0, 0.0), Pulse(1.0, -big, 0.0)))
        assert [(v.rule, v.pulse_index) for v in validate_sequence(seq)] == [("non-finite field", 1)]
        with pytest.raises(ValueError, match="non-finite field"):
            require_valid(seq)

    def test_ints_within_the_float_range_are_kept_exactly(self):
        # 2**1024 - 2**971 is the largest float; one more ulp/2 rounds to inf
        edge = 2**1024 - 2**971
        seq = PulseSequence((Pulse(0.0, edge, 0.0), Pulse(1.0, 2**1000 + 1, 0.0)))
        assert validate_sequence(seq) == []
        assert seq.pulses[1].k_upper == 2**1000 + 1 and type(seq.pulses[1].k_upper) is int
        beyond = PulseSequence((Pulse(0.0, edge + 2**970, 0.0), Pulse(1.0, 1.0, 0.0)))
        assert [v.rule for v in validate_sequence(beyond)] == ["non-finite field"]

    def test_validation_is_idempotent(self):
        seq = PulseSequence((Pulse(0.0, 1.0, 0.0),))
        assert validate_sequence(seq) == validate_sequence(seq)

    def test_each_call_returns_a_new_list(self):
        seq = PulseSequence((Pulse(0.0, 1.0, 0.0),))
        first = validate_sequence(seq)
        first.clear()
        second = validate_sequence(seq)
        assert [v.rule for v in second] == ["too few pulses"]
        assert second is not validate_sequence(seq)
        assert second == validate_sequence(seq)

    def test_a_sequence_is_scanned_once_when_built(self, monkeypatch):
        scans = []
        scan = core._scan
        monkeypatch.setattr(core, "_scan", lambda seq: scans.append(seq) or scan(seq))
        seq = mzi_like(k=1e7, T=0.1)
        assert len(scans) == 1
        env, ics = GravityEnv(9.81), InitialConditions(0.0, 1.0)
        beat(seq, ClockPair(SR_MASS, 2.7e15), env, ics)
        total_phase(seq, Species(SR_MASS), env, ics)
        validate_sequence(seq)
        assert len(scans) == 1
        renamed = dataclasses.replace(seq, name="mzi")
        assert len(scans) == 2 and scans[-1] is renamed

    def test_stored_findings_stay_out_of_the_fields(self):
        seq = PulseSequence((Pulse(0.0, 1.0, 0.0),))
        assert seq == PulseSequence((Pulse(0.0, 1.0, 0.0),))
        assert "too few" not in repr(seq)
        assert set(dataclasses.asdict(seq)) == {"pulses", "duration", "name"}

    def test_an_element_without_pulse_fields_fails_at_construction(self):
        with pytest.raises(AttributeError):
            PulseSequence(((0.0, 1.0, 0.0), (1.0, -1.0, 0.0)), duration=1.0)

    def test_require_valid_raises_with_rule_names(self):
        seq = PulseSequence((Pulse(0.0, 1.0, 0.0),))
        with pytest.raises(ValueError, match="too few pulses"):
            require_valid(seq)

    def test_structural_only_accepts_a_single_pulse(self):
        require_valid(PulseSequence((Pulse(0.0, 1.0, 0.0),)), structural_only=True)


class TestNumpyScalars:
    FIELDS = np.array(
        [[0.0, 0.1, 0.35, 0.5], [1.1e7, -2.3e7, 0.9e7, 0.3e7], [0.2e7, 0.0, -0.7e7, 0.5e7]]
    )

    def sequences(self, dtype):
        t, k_upper, k_lower = self.FIELDS.astype(dtype)
        numpy_seq = PulseSequence(
            tuple(Pulse(*f, dtype(0.25), np.int64(-1)) for f in zip(t, k_upper, k_lower))
        )
        plain_seq = PulseSequence(
            tuple(Pulse(*map(float, f), 0.25, -1.0) for f in zip(t, k_upper, k_lower))
        )
        return numpy_seq, plain_seq

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fields_validate_and_give_the_sum_of_their_float_values(self, dtype):
        numpy_seq, plain_seq = self.sequences(dtype)
        assert validate_sequence(numpy_seq) == []
        assert all(
            type(getattr(p, name)) is float
            for p in numpy_seq.pulses
            for name in ("t", "k_upper", "k_lower", "phi_upper", "phi_lower")
        )
        assert type(numpy_seq.duration) is float
        assert numpy_seq == plain_seq
        s = recoil_double_sum(numpy_seq)
        assert float.hex(s) == float.hex(recoil_double_sum(plain_seq))

    def test_a_numpy_nan_is_still_reported(self):
        seq = PulseSequence((Pulse(np.float32("nan"), 1.0, 0.0), Pulse(1.0, -1.0, 0.0)))
        assert [(v.rule, v.pulse_index) for v in validate_sequence(seq)] == [("non-finite field", 0)]

    def test_scalar_parameters_accept_numpy_floats(self):
        assert type(Species(np.float32(1e-25)).mass) is float
        pair = ClockPair(np.float64(SR_MASS), np.float32(2.7e15))
        assert (type(pair.mean_mass), type(pair.splitting_omega)) == (float, float)
        assert type(GravityEnv(np.float32(9.81)).g) is float
        assert InitialConditions(np.float32(0.5), np.int64(-1)) == InitialConditions(
            float(np.float32(0.5)), -1.0
        )


class TestEnvironment:
    def test_gravity_env_rejects_non_finite(self):
        with pytest.raises(ValueError):
            GravityEnv(math.nan)

    def test_initial_conditions_reject_non_finite(self):
        with pytest.raises(ValueError):
            InitialConditions(z0=math.inf)

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda x: GravityEnv(x), "g must be finite"),
            (lambda x: Species(x), "mass must be positive and finite"),
            (lambda x: InitialConditions(x, 0.0), "initial conditions must be finite"),
            (lambda x: InitialConditions(0.0, -x), "initial conditions must be finite"),
            (lambda x: ClockPair(x, 1.0), "mean_mass must be positive and finite"),
            (lambda x: ClockPair(SR_MASS, x), "splitting_omega must be non-negative and finite"),
        ],
        ids=["g", "mass", "z0", "v0", "mean_mass", "splitting"],
    )
    def test_an_int_beyond_the_float_range_is_refused(self, make, message):
        with pytest.raises(ValueError, match=message):
            make(2**1100)
        make(3)  # a small int is accepted as before

    def test_an_int_within_the_float_range_is_stored_as_given(self):
        env, ics = GravityEnv(2**1000), InitialConditions(2**60 + 1, -3)
        assert (env.g, ics.z0, ics.v0) == (2**1000, 2**60 + 1, -3)
        assert {type(x) for x in (env.g, ics.z0, ics.v0)} == {int}


class TestPhaseBreakdown:
    def test_assemble_sums_the_three_terms(self):
        b = PhaseBreakdown.assemble(
            delta_tau=1e-16, recoil_phase=2.0, gravito_recoil=-3.0, laser_phase=0.5
        )
        assert b.total_phase == 2.0 + -3.0 + 0.5

    def test_as_dict_and_json_round_trip(self):
        b = PhaseBreakdown.assemble(1e-16, 2.0, -3.0, 0.5)
        d = dataclasses.asdict(b)
        assert list(d) == [
            "delta_tau",
            "recoil_phase",
            "gravito_recoil",
            "laser_phase",
            "total_phase",
        ]
        assert json.loads(json.dumps(d)) == d

    def test_as_table_lists_every_field_with_units(self):
        lines = PhaseBreakdown.assemble(1e-16, 2.0, -3.0, 0.5).as_table().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("delta_tau")
        assert lines[0].endswith(" s")
        assert all(line.endswith((" s", " rad")) for line in lines)

"""Closed-form phase decomposition against exact rational arithmetic."""

import math
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpai import (
    GravityEnv,
    InitialConditions,
    NonFiniteResultError,
    OpenSequenceError,
    Pulse,
    PulseSequence,
    Species,
    build_mzi,
    build_rbi_asymmetric,
    build_rbi_double_loop,
    build_rbi_symmetric,
    constants,
    gravito_recoil_phase,
    laser_phase,
    proper_time_difference,
    recoil_double_sum,
    recoil_phase,
    total_phase,
)
from lpai import phase
from lpai._exactsum import array_fsum

from _helpers import float_bits, random_closed_sequence, recoil_double_sum_loop

SR = Species(1.443157e-25)
FLAT = GravityEnv(0.0)
REST = InitialConditions()


def double_sum_by_fractions(seq: PulseSequence) -> Fraction:
    """Reference value of the recoil double sum in exact rational arithmetic.

    Mirrors the documented contract: the rounded pulse-time differences are
    the inputs, everything after that is exact.
    """
    total = Fraction(0)
    for n, pn in enumerate(seq.pulses):
        for pl in seq.pulses[: n + 1]:
            dt = Fraction(pn.t - pl.t)  # float difference, then exact
            total += (
                Fraction(pn.k_upper) * Fraction(pl.k_upper)
                - Fraction(pn.k_lower) * Fraction(pl.k_lower)
            ) * dt
    return total


def delta_tau_by_fractions(seq: PulseSequence, species: Species) -> float:
    s = double_sum_by_fractions(seq)
    hbar, c, m = Fraction(constants.HBAR), Fraction(constants.C), Fraction(species.mass)
    return float(hbar * hbar * s / (2 * m * m * c * c))


EDGE_SEQUENCES = {
    "no pulses": PulseSequence(()),
    "one pulse": PulseSequence((Pulse(0.0, 1.8e10, -3.3e6),)),
    "two pulses": PulseSequence((Pulse(0.0, 1e7, 0.0), Pulse(0.3, -1e7, 0.0))),
    "three signed zeros": PulseSequence(
        (Pulse(0.0, 0.0, -0.0), Pulse(0.1, -0.0, 0.0), Pulse(0.2, -0.0, -0.0))
    ),
    "three pulses": PulseSequence(
        (Pulse(0.0, 1e7, 2e7), Pulse(0.1, -2e7, -2e7), Pulse(0.3, 1e7, 0.0))
    ),
    "mzi": build_mzi(1.8e10, 0.325),
    "rbi-sym": build_rbi_symmetric(1.8e10, 0.1, 0.3),
    "rbi-asym": build_rbi_asymmetric(1.8e10, 0.325, 0.07),
    "rbi-double": build_rbi_double_loop(8.7e9, 0.35),
}


def swap_branches(seq: PulseSequence) -> PulseSequence:
    return PulseSequence(
        tuple(Pulse(p.t, p.k_lower, p.k_upper, p.phi_lower, p.phi_upper) for p in seq.pulses),
        duration=seq.duration,
    )


class TestRecoilDoubleSum:
    def test_mzi_cancels_exactly(self):
        assert recoil_double_sum(build_mzi(1.8e10, 0.325)) == 0.0

    @pytest.mark.parametrize("k,T", [(1.8e10, 0.325), (1e7, 0.1), (-3.3e6, 2.7)])
    def test_asymmetric_is_the_correctly_rounded_sum(self, k, T):
        got = recoil_double_sum(build_rbi_asymmetric(k, T))
        assert got == float(double_sum_by_fractions(build_rbi_asymmetric(k, T)))
        # and the rational value itself is -2 k^2 T exactly (times are 0, T, 2T)
        assert double_sum_by_fractions(build_rbi_asymmetric(k, T)) == (
            -2 * Fraction(k) * Fraction(k) * Fraction(T)
        )

    def test_random_sequences_match_the_rational_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            seq = random_closed_sequence(rng, with_common_mode=True, with_phases=True)
            assert recoil_double_sum(seq) == float(double_sum_by_fractions(seq))

    @pytest.mark.parametrize(
        "n_pulses,k_scale,seed", [(40, 1e3, 17), (90, 1e7, 19), (150, 1e11, 23)]
    )
    def test_long_sequences_match_the_rational_reference(self, n_pulses, k_scale, seed):
        rng = np.random.default_rng(seed)
        seq = random_closed_sequence(
            rng, n_pulses, k_scale=k_scale, with_common_mode=True, with_phases=True
        )
        assert recoil_double_sum(seq) == float(double_sum_by_fractions(seq))

    @pytest.mark.parametrize("k_scale", [1e-3, 1e7, 1e11, 1e100, 1e200])
    def test_long_sequences_match_the_pair_loop_bit_for_bit(self, k_scale):
        # 40 pulses give 6240 pair terms, enough for array_fsum's extraction
        rng = np.random.default_rng(29)
        seq = random_closed_sequence(
            rng, 40, k_scale=k_scale, with_common_mode=True, with_phases=True
        )
        outcomes = []
        for f in (recoil_double_sum, recoil_double_sum_loop):
            try:
                outcomes.append(float_bits(f(seq)))
            except ValueError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("name", EDGE_SEQUENCES)
    def test_array_pass_matches_the_pair_loop_bit_for_bit(self, name):
        seq = EDGE_SEQUENCES[name]
        assert float_bits(recoil_double_sum(seq)) == float_bits(recoil_double_sum_loop(seq))

    def test_overflow_raises_the_loop_error_without_numpy_warnings(self):
        seq = build_rbi_asymmetric(1e200, 0.1)
        with pytest.raises(ValueError) as expected:
            recoil_double_sum_loop(seq)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as got:
                recoil_double_sum(seq)
        assert str(got.value) == str(expected.value) == "-inf + inf in fsum"

    def test_an_overflowing_square_on_the_diagonal_does_not_poison_the_sum(self):
        # k^2 overflows on the middle pulse, but it only meets itself in the
        # vanishing ell = n term; every pair term is finite.
        seq = PulseSequence(
            (
                Pulse(0.0, 1.0, 0.0),
                Pulse(0.5, 1e160, 1e160),
                Pulse(1.0, -2.0, 0.0),
                Pulse(2.0, 1.0, 0.0),
            )
        )
        assert recoil_double_sum(seq) == float(double_sum_by_fractions(seq))

    def test_pause_does_not_change_the_asymmetric_sum_for_dyadic_times(self):
        k, T = 1.8e10, 0.25
        merged = recoil_double_sum(build_rbi_asymmetric(k, T, 0.0))
        for Tp in (0.125, 0.25, 0.5):
            assert float_bits(recoil_double_sum(build_rbi_asymmetric(k, T, Tp))) == float_bits(
                merged
            )


def array_path(seq: PulseSequence) -> float:
    return array_fsum(phase._pair_terms([seq]).reshape(-1))


def loop_path(seq: PulseSequence) -> float:
    with mock.patch.object(phase, "_PAIR_ARRAY_MIN_PULSES", sys.maxsize):
        return recoil_double_sum(seq)


def outcome(f, seq):
    """Bits of f(seq), "nan" for any nan, or the type and message of its exception."""
    try:
        s = f(seq)
    except Exception as exc:
        return type(exc), str(exc)
    return "nan" if math.isnan(s) else float_bits(s)


THRESHOLD = phase._PAIR_ARRAY_MIN_PULSES
BIG = 2**60 + 1  # an int that float() rounds

PATH_CASES = {
    **EDGE_SEQUENCES,
    "k = 1e200": build_rbi_asymmetric(1e200, 0.1),
    "k = 1e200, long": random_closed_sequence(
        np.random.default_rng(3), THRESHOLD + 2, k_scale=1e200, with_common_mode=True
    ),
    "overflowing diagonal": PulseSequence(
        (Pulse(0.0, 1.0, 0.0), Pulse(0.5, 1e160, 1e160), Pulse(1.0, -2.0, 0.0), Pulse(2.0, 1.0, 0.0))
    ),
    # float() rounds t_0 and k_upper of pulse 1: S is 8.0, where the exact
    # ints would give 3
    "ints that float() rounds": PulseSequence(
        (Pulse(2**53 + 1, 1, 1), Pulse(2**53 + 2, 2**54 + 3, 2**54))
    ),
    # upper-branch terms ~0, X, -X, X, -X, X/2 (X = 1e308) in np.tril_indices
    # order; ordered by ell first, the two X of pairs (2, 0) and (3, 0) meet
    # and overflow
    "pair order": PulseSequence(
        (
            Pulse(0.0, 1e154, 0.0),
            Pulse(1e-300, -1e154, 0.0),
            Pulse(1.0, 1e154, 0.0),
            Pulse(2.0, 5e153, 0.0),
        )
    ),
    # equal branches: the upper block's 1e308 + 1e308 overflows before any
    # lower term can cancel it
    "branch order": PulseSequence(
        (Pulse(0.0, 1e154, 1e154), Pulse(1.0, 1e154, 1e154), Pulse(2.0, 5e153, 5e153))
    ),
    # t_n - t_ell of the ints is exact; of their floats it rounds
    "int fields": PulseSequence(
        tuple(
            Pulse(t, BIG * (-1) ** i, i - BIG, 0, 1)
            for i, t in enumerate([1, 2**53 + 1, 2**54 + 3, BIG, 3 * BIG][: THRESHOLD - 1])
        )
    ),
    **{
        f"{n} random pulses": random_closed_sequence(
            np.random.default_rng(n), n, k_scale=1e7, with_common_mode=True
        )
        for n in range(3, THRESHOLD + 3)
    },
}

# Finite fields from tiny to near overflow, and ints beyond 2**53.
FIELDS = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**64), 2**64)


class TestRecoilDoubleSumPaths:
    """The scalar loop below _PAIR_ARRAY_MIN_PULSES and the array pass agree."""

    @pytest.mark.parametrize("name", PATH_CASES)
    def test_loop_and_array_pass_agree(self, name):
        seq = PATH_CASES[name]
        assert outcome(loop_path, seq) == outcome(array_path, seq)

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("k = 1e200", (ValueError, "-inf + inf in fsum")),
            ("k = 1e200, long", (ValueError, "-inf + inf in fsum")),
            ("branch order", (OverflowError, "intermediate overflow in fsum")),
            ("pair order", "nan"),
            ("ints that float() rounds", float_bits(8.0)),
        ],
    )
    def test_the_cases_reach_their_outcomes(self, name, expected):
        assert outcome(array_path, PATH_CASES[name]) == expected

    @given(
        n=st.integers(2, THRESHOLD + 2),
        fields=st.lists(FIELDS, min_size=3 * (THRESHOLD + 2), max_size=3 * (THRESHOLD + 2)),
    )
    @settings(max_examples=300)
    def test_random_fields_give_the_same_outcome(self, n, fields):
        seq = PulseSequence(tuple(Pulse(*fields[3 * i : 3 * i + 3]) for i in range(n)))
        assert outcome(loop_path, seq) == outcome(array_path, seq)

    @pytest.mark.parametrize("n", [THRESHOLD - 1, THRESHOLD])
    def test_the_pulse_count_selects_the_path(self, n, monkeypatch):
        seq = PATH_CASES[f"{n} random pulses"]
        calls = []
        original = phase._pair_terms
        monkeypatch.setattr(phase, "_pair_terms", lambda seqs: calls.append(1) or original(seqs))
        recoil_double_sum(seq)
        assert len(calls) == (n >= THRESHOLD)


class TestProperTime:
    def test_mzi_is_exactly_zero(self):
        assert proper_time_difference(build_mzi(1.8e10, 0.325), SR) == 0.0

    @pytest.mark.parametrize(
        "k,T",
        [(1.8e10, 0.325), (1e7, 0.25), (1.05e9, 0.06), (2.4e9, 1.3)],
    )
    def test_asymmetric_matches_the_square_of_the_recoil_velocity(self, k, T):
        got = proper_time_difference(build_rbi_asymmetric(k, T), SR)
        vr_over_c = constants.HBAR * k / (SR.mass * constants.C)
        assert got == pytest.approx(-(vr_over_c**2) * T, rel=1e-12)
        assert got == pytest.approx(delta_tau_by_fractions(build_rbi_asymmetric(k, T), SR), rel=5e-15)

    def test_double_loop_proper_time(self):
        k, T = 8.7e9, 0.35
        got = proper_time_difference(build_rbi_double_loop(k, T), SR)
        vr_over_c = constants.HBAR * k / (SR.mass * constants.C)
        assert got == pytest.approx(-2.0 * vr_over_c**2 * T, rel=1e-12)

    def test_symmetric_geometry_has_no_proper_time_difference(self):
        # dyadic times: the cancellation is exact in floats as well
        assert proper_time_difference(build_rbi_symmetric(1.8e10, 0.25, 0.125), SR) == 0.0
        # generic times: zero up to rounding of the time differences
        got = proper_time_difference(build_rbi_symmetric(1.8e10, 0.1, 0.3), SR)
        scale = (constants.HBAR * 1.8e10 / (SR.mass * constants.C)) ** 2 * 0.5
        assert abs(got) <= 1e-12 * scale

    def test_scaling_in_k_is_exactly_quadratic(self):
        base = proper_time_difference(build_rbi_asymmetric(1.7e9, 0.31), SR)
        assert proper_time_difference(build_rbi_asymmetric(3.4e9, 0.31), SR) == 4.0 * base

    def test_scaling_in_T_is_exactly_linear_for_dyadic_T(self):
        base = proper_time_difference(build_rbi_asymmetric(1.7e9, 0.25), SR)
        assert proper_time_difference(build_rbi_asymmetric(1.7e9, 0.5), SR) == 2.0 * base

    def test_scaling_in_mass_is_exactly_inverse_quadratic(self):
        seq = build_rbi_asymmetric(1.7e9, 0.31)
        base = proper_time_difference(seq, Species(1e-25))
        assert proper_time_difference(seq, Species(2e-25)) == 0.25 * base

    def test_open_sequence_is_refused(self):
        seq = PulseSequence(build_mzi(1e7, 0.4).pulses[:2])
        with pytest.raises(OpenSequenceError, match="not closed"):
            proper_time_difference(seq, SR)

    def test_an_overflowing_proper_time_is_a_typed_error(self):
        seq = build_rbi_asymmetric(1e7, 0.1, 0.05)
        for f in (proper_time_difference, recoil_phase):
            with pytest.raises(NonFiniteResultError, match="delta_tau = -inf"):
                f(seq, Species(5e-324))
        with pytest.raises(NonFiniteResultError):
            total_phase(seq, Species(5e-324), FLAT, REST)

    def test_too_few_pulses_are_refused(self):
        with pytest.raises(ValueError, match="too few"):
            proper_time_difference(PulseSequence((Pulse(0.0, 1.0, 1.0),)), SR)


class TestGravitoRecoil:
    def test_mzi_second_difference_of_the_launch_parabola(self):
        k, T, g = 1e7, 0.4, 9.81
        got = gravito_recoil_phase(build_mzi(k, T), GravityEnv(g), REST)
        assert got == pytest.approx(-k * g * T**2, rel=1e-12)

    def test_zero_gravity_from_rest_gives_exactly_zero(self):
        assert gravito_recoil_phase(build_mzi(1e7, 0.4), FLAT, REST) == 0.0

    def test_launch_conditions_drop_out_for_closed_sequences(self):
        k, T, g = 1e7, 0.4, 9.81
        seq = build_mzi(k, T)
        base = gravito_recoil_phase(seq, GravityEnv(g), REST)
        for z0, v0 in [(10.0, 0.0), (0.0, -5.0), (-3.0, 7.0)]:
            shifted = gravito_recoil_phase(seq, GravityEnv(g), InitialConditions(z0, v0))
            zg_scale = abs(z0) + abs(v0) * 2 * T + 0.5 * g * (2 * T) ** 2
            assert abs(shifted - base) <= 1e-12 * k * max(1.0, zg_scale)

    def test_double_loop_suppresses_gravity_itself(self):
        k, T = 1e7, 0.1
        for g, z0, v0 in [(9.81, 0.0, 0.0), (3.3, -8.0, 12.0), (49.0, 5.0, -2.0)]:
            got = gravito_recoil_phase(build_rbi_double_loop(k, T), GravityEnv(g), InitialConditions(z0, v0))
            assert abs(got) <= 1e-9 * abs(k * g * T**2)


class TestLaserPhase:
    def test_signed_sum(self):
        seq = PulseSequence(
            (
                Pulse(0.0, 1.0, 0.0, phi_upper=0.25, phi_lower=-0.5),
                Pulse(1.0, -1.0, 0.0, phi_upper=-1.0, phi_lower=0.125),
            )
        )
        assert laser_phase(seq) == (0.25 + 0.5) + (-1.0 - 0.125)

    def test_builders_carry_no_laser_phase(self):
        assert laser_phase(build_rbi_double_loop(1e7, 0.1)) == 0.0


class TestPartsRefuseInvalidSequences:
    """gravito_recoil_phase and laser_phase refuse what total_phase refuses."""

    CASES = [
        PulseSequence((Pulse(0.0, math.nan, 0.0), Pulse(1.0, 1.0, 0.0))),
        PulseSequence((Pulse(0.0, 1.0, 0.0, phi_upper=math.inf), Pulse(1.0, -1.0, 0.0))),
        PulseSequence((Pulse(math.nan, 1.0, 0.0), Pulse(1.0, -1.0, 0.0))),
        PulseSequence((Pulse(0.0, 1.0, 0.0),)),
    ]

    @pytest.mark.parametrize("seq", CASES)
    def test_gravito_recoil_phase(self, seq):
        with pytest.raises(ValueError, match="invalid pulse sequence"):
            gravito_recoil_phase(seq, GravityEnv(9.81), REST)

    @pytest.mark.parametrize("seq", CASES)
    def test_laser_phase(self, seq):
        with pytest.raises(ValueError, match="invalid pulse sequence"):
            laser_phase(seq)


class TestTotalPhase:
    def test_mzi_total_is_the_gravimeter_phase(self):
        k, T, g = 1e7, 0.4, 9.81
        b = total_phase(build_mzi(k, T), SR, GravityEnv(g), REST)
        assert b.delta_tau == 0.0
        assert b.recoil_phase == 0.0
        assert b.total_phase == pytest.approx(-k * g * T**2, rel=1e-12)
        assert b.total_phase == b.gravito_recoil

    def test_double_loop_total_is_pure_recoil(self):
        k, T = 1e7, 0.1
        b = total_phase(build_rbi_double_loop(k, T), SR, FLAT, REST)
        expected = -2.0 * constants.HBAR * k**2 * T / SR.mass
        assert b.total_phase == pytest.approx(expected, rel=1e-12)
        assert b.laser_phase == 0.0

    def test_decomposition_identity_holds_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            seq = random_closed_sequence(rng, with_common_mode=True, with_phases=True)
            b = total_phase(seq, SR, GravityEnv(9.81), InitialConditions(1.0, -2.0))
            assert b.total_phase == b.recoil_phase + b.gravito_recoil + b.laser_phase
            assert math.isfinite(b.total_phase)

    def test_swapping_branches_negates_every_term(self):
        rng = np.random.default_rng(13)
        env, ics = GravityEnv(9.81), InitialConditions(0.7, -1.3)
        for _ in range(10):
            seq = random_closed_sequence(rng, with_common_mode=True, with_phases=True)
            b = total_phase(seq, SR, env, ics)
            s = total_phase(swap_branches(seq), SR, env, ics)
            assert s.delta_tau == -b.delta_tau
            assert s.recoil_phase == -b.recoil_phase
            assert s.gravito_recoil == -b.gravito_recoil
            assert s.laser_phase == -b.laser_phase
            assert s.total_phase == -b.total_phase

    def test_recoil_phase_is_compton_frequency_times_delta_tau(self):
        seq = build_rbi_asymmetric(1.8e10, 0.325)
        b = total_phase(seq, SR, FLAT, REST)
        assert b.recoil_phase == recoil_phase(seq, SR)
        assert b.recoil_phase == pytest.approx(
            b.delta_tau * SR.mass * constants.C**2 / constants.HBAR, rel=1e-12
        )

"""Closed-form phase decomposition against exact rational arithmetic."""

import contextlib
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpai import (
    ClockPair,
    GravityEnv,
    InitialConditions,
    NonFiniteResultError,
    OpenSequenceError,
    Pulse,
    PulseSequence,
    Species,
    beat,
    build_mzi,
    build_rbi_asymmetric,
    build_rbi_double_loop,
    build_rbi_symmetric,
    constants,
    gravito_recoil_phase,
    gravity_trajectory,
    laser_phase,
    proper_time_difference,
    recoil_double_sum,
    recoil_phase,
    total_phase,
)
from lpai import _exactsum, phase
from lpai._exactsum import PulseTable

from _helpers import float_bits, random_closed_sequence, recoil_sum_by_fractions, rounded

SR = Species(1.443157e-25)
FLAT = GravityEnv(0.0)
REST = InitialConditions()


def delta_tau_by_fractions(seq: PulseSequence, species: Species) -> float:
    s = recoil_sum_by_fractions(seq)
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


def s_outcome(f, seq):
    """float_bits of f(seq), or "overflow" where it refuses a sum beyond the float range."""
    try:
        return float_bits(f(seq))
    except NonFiniteResultError:
        return "overflow"


class TestRecoilDoubleSum:
    def test_mzi_cancels_exactly(self):
        assert recoil_double_sum(build_mzi(1.8e10, 0.325)) == 0.0

    @pytest.mark.parametrize("k,T", [(1.8e10, 0.325), (1e7, 0.1), (-3.3e6, 2.7)])
    def test_asymmetric_is_the_correctly_rounded_sum(self, k, T):
        got = recoil_double_sum(build_rbi_asymmetric(k, T))
        assert got == float(recoil_sum_by_fractions(build_rbi_asymmetric(k, T)))
        # and the rational value itself is -2 k^2 T exactly (times are 0, T, 2T)
        assert recoil_sum_by_fractions(build_rbi_asymmetric(k, T)) == (
            -2 * Fraction(k) * Fraction(k) * Fraction(T)
        )

    def test_random_sequences_match_the_rational_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            seq = random_closed_sequence(rng, with_common_mode=True, with_phases=True)
            assert recoil_double_sum(seq) == float(recoil_sum_by_fractions(seq))

    @pytest.mark.parametrize(
        "n_pulses,k_scale,seed", [(40, 1e3, 17), (90, 1e7, 19), (150, 1e11, 23)]
    )
    def test_long_sequences_match_the_rational_reference(self, n_pulses, k_scale, seed):
        rng = np.random.default_rng(seed)
        seq = random_closed_sequence(
            rng, n_pulses, k_scale=k_scale, with_common_mode=True, with_phases=True
        )
        assert recoil_double_sum(seq) == float(recoil_sum_by_fractions(seq))

    @pytest.mark.parametrize("k_scale", [1e-3, 1e7, 1e11, 1e100, 1e200])
    def test_long_sequences_match_the_pair_loop_bit_for_bit(self, k_scale):
        # 40 pulses take the array pass; at 1e200 S lies beyond the float range
        rng = np.random.default_rng(29)
        seq = random_closed_sequence(
            rng, 40, k_scale=k_scale, with_common_mode=True, with_phases=True
        )
        assert seq.n_pulses >= _exactsum._ARRAY_MIN_PULSES
        assert s_outcome(recoil_double_sum, seq) == rounded(recoil_sum_by_fractions(seq))

    @pytest.mark.parametrize("name", EDGE_SEQUENCES)
    def test_array_pass_matches_the_pair_loop_bit_for_bit(self, name, monkeypatch):
        seq = EDGE_SEQUENCES[name]
        monkeypatch.setattr(_exactsum, "_ARRAY_MIN_PULSES", 0)
        assert float_bits(recoil_double_sum(seq)) == rounded(recoil_sum_by_fractions(seq))

    def test_overflow_raises_the_loop_error_without_numpy_warnings(self, monkeypatch):
        seq = build_rbi_asymmetric(1e200, 0.1)  # S = -2 k^2 T = -2e399
        assert rounded(recoil_sum_by_fractions(seq)) == "overflow"
        for min_pulses in (0, sys.maxsize):
            monkeypatch.setattr(_exactsum, "_ARRAY_MIN_PULSES", min_pulses)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteResultError) as got:
                    recoil_double_sum(seq)
            assert str(got.value) == (
                "recoil double sum S overflows: its magnitude is at least 2**1326 s/m^2"
            )

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
        assert recoil_double_sum(seq) == float(recoil_sum_by_fractions(seq))

    def test_pause_does_not_change_the_asymmetric_sum_for_dyadic_times(self):
        k, T = 1.8e10, 0.25
        merged = recoil_double_sum(build_rbi_asymmetric(k, T, 0.0))
        for Tp in (0.125, 0.25, 0.5):
            assert float_bits(recoil_double_sum(build_rbi_asymmetric(k, T, Tp))) == float_bits(
                merged
            )


def array_path(seq: PulseSequence) -> float:
    with mock.patch.object(_exactsum, "_ARRAY_MIN_PULSES", 0):
        return recoil_double_sum(seq)


def loop_path(seq: PulseSequence) -> float:
    with mock.patch.object(_exactsum, "_ARRAY_MIN_PULSES", sys.maxsize):
        return recoil_double_sum(seq)


def outcome(f, seq):
    """(float, hex of f(seq)), or the type and message of its exception."""
    try:
        s = f(seq)
    except Exception as exc:
        return type(exc), str(exc)
    return float, s.hex()


THRESHOLD = _exactsum._ARRAY_MIN_PULSES
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
    # upper-branch pair terms ~0, X, -X, X, -X, X/2 (X = 1e308): summed in
    # some orders their partial sums overflow; the exact sum is X/2
    "pair order": PulseSequence(
        (
            Pulse(0.0, 1e154, 0.0),
            Pulse(1e-300, -1e154, 0.0),
            Pulse(1.0, 1e154, 0.0),
            Pulse(2.0, 5e153, 0.0),
        )
    ),
    # equal branches: each branch alone sums past the float range, but every
    # pair's k products cancel, so S is 0
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
    # t_n - t_ell overflows: both paths refuse it, and numpy must not warn
    "overflowing time difference": PulseSequence(
        tuple(
            Pulse(t, 0.0, 0.0)
            for t in [0.0, 0.0, 0.0, 1.947095003526814e299, 0.0, 0.0, -1.7976931329152208e308]
        )
    ),
    "overflowing monotone times": PulseSequence(
        tuple(
            Pulse(t, k, 0.0)
            for t, k in zip(
                [-1.7e308, 0.0, 1.0, 2.0, 3.0, 1.7e308], [1.0, 1.0, -2.0, 1.0, 0.0, -1.0]
            )
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
    """The scalar loops below _ARRAY_MIN_PULSES and the array passes agree."""

    @pytest.mark.parametrize("name", PATH_CASES)
    def test_loop_and_array_pass_agree(self, name):
        seq = PATH_CASES[name]
        assert outcome(loop_path, seq) == outcome(array_path, seq)

    @pytest.mark.parametrize(
        "name, expected",
        [
            (
                "k = 1e200",
                (NonFiniteResultError, "recoil double sum S overflows: its magnitude is at least 2**1326 s/m^2"),
            ),
            (
                "k = 1e200, long",
                (NonFiniteResultError, "recoil double sum S overflows: its magnitude is at least 2**1337 s/m^2"),
            ),
            # exact sums that are finite although float pair terms overflow
            ("branch order", (float, (0.0).hex())),
            ("pair order", (float, (5e307).hex())),
            (
                "overflowing time difference",
                (
                    NonFiniteResultError,
                    "pulse times 1.947095003526814e+299 s and -1.7976931329152208e+308 s "
                    "are too far apart: their difference overflows",
                ),
            ),
            (
                "overflowing monotone times",
                (
                    NonFiniteResultError,
                    "pulse times 1.7e+308 s and -1.7e+308 s are too far apart: their difference overflows",
                ),
            ),
            ("ints that float() rounds", (float, (8.0).hex())),
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

    @pytest.mark.parametrize("n", [5, 6, THRESHOLD - 1, THRESHOLD])
    def test_the_pulse_count_selects_the_path(self, n, monkeypatch):
        seq = PATH_CASES[f"{n} random pulses"]
        calls = []
        original = _exactsum._integers_array
        monkeypatch.setattr(
            _exactsum, "_integers_array", lambda fields: calls.append(1) or original(fields)
        )
        recoil_double_sum(seq)
        assert len(calls) == (n >= THRESHOLD)


class TestLongRecoilSum:
    """Long recoil sums work in row blocks of the pair matrix, on every call and in every thread."""

    def test_a_long_sum_allocates_row_blocks_not_the_pair_matrix(self, monkeypatch):
        # one row of 400 pulses per block; the default chunk would take 2.7 MB
        monkeypatch.setattr(_exactsum, "_CORRECTION_CHUNK", 400)
        seq = random_closed_sequence(
            np.random.default_rng(11), 400, k_scale=1e7, with_common_mode=True
        )
        tracemalloc.start()
        try:
            recoil_double_sum(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One float per pulse pair would be 1.28 MB; about 146 KB is measured.
        assert peak < 400 * 400 * 8 // 4

    def test_threads_summing_at_once_get_their_single_thread_bits(self):
        seqs = [
            random_closed_sequence(np.random.default_rng(seed), 100, k_scale=1e7, with_common_mode=True)
            for seed in range(40, 46)
        ]
        want = [float.hex(recoil_double_sum(seq)) for seq in seqs]
        threads = 3 * len(seqs)  # more threads than cores, three per input
        start = threading.Barrier(threads)
        got: list[list[str]] = [[] for _ in range(threads)]

        def work(i: int) -> None:
            seq = seqs[i % len(seqs)]
            start.wait(timeout=30)
            for _ in range(20):
                got[i].append(float.hex(recoil_double_sum(seq)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert got == [[want[i % len(seqs)]] * 20 for i in range(threads)]

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


NOT_FINITE_FACTOR = r"^gravito-recoil sum of dk \* z_g has a factor that is not finite$"


def gravito_by_fractions(seq: PulseSequence, env: GravityEnv, ics: InitialConditions) -> Fraction:
    """The sum of dk * fl(z_g) over the pulses in exact rational arithmetic."""
    return sum(
        Fraction(p.delta_k) * Fraction(gravity_trajectory(env, ics, p.t)[0]) for p in seq.pulses
    )


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

    def test_an_overflowing_sum_is_a_typed_error(self):
        # z_g is -inf at 2T, so no exact sum exists
        seq, env = build_mzi(1e7, 10.0), GravityEnv(1e308)
        runs = (
            lambda: gravito_recoil_phase(seq, env, REST),
            lambda: total_phase(seq, Species(1e-25), env, REST),
            lambda: beat(seq, ClockPair(1e-25, 1e15), env, REST),
        )
        for run in runs:
            with pytest.raises(NonFiniteResultError, match=NOT_FINITE_FACTOR):
                run()


    @pytest.mark.parametrize(
        "k, z0, v0",
        [(1e7, 1e301, 0.0), (1e7, 1e300, 3e299), (3e300, 7.0, -2.0), (-1e-5, 1e305, 1e304)],
    )
    def test_overflowing_splits_give_the_exact_sum(self, k, z0, v0):
        # Dekker's splits overflow from |dk| or |z_g| of about 1e300 and leave
        # a nan term; the products themselves are finite
        seq, env, ics = build_mzi(k, 0.1), GravityEnv(9.81), InitialConditions(z0, v0)
        got = gravito_recoil_phase(seq, env, ics)
        assert float_bits(got) == rounded(gravito_by_fractions(seq, env, ics))
        if (k, z0) == (1e7, 1e301):
            assert got == 0.0

    def test_products_that_overflow_with_both_signs_give_the_exact_sum(self):
        # dk * z_g overflows to +inf at 0 and 2T and to -inf at T, so fsum
        # raises "-inf + inf"; the exact sum is a float
        seq, env, ics = build_mzi(5e307, 0.5), GravityEnv(9.81), InitialConditions(1e10)
        got = gravito_recoil_phase(seq, env, ics)
        assert got == -1.226250648498535e308
        assert float_bits(got) == rounded(gravito_by_fractions(seq, env, ics))

    def test_products_near_the_subnormal_range_give_the_exact_sum(self):
        # Below 2**-968 Dekker's error terms leave the normal range and round
        k, z0, v0 = 3.5372393535447158e-158, 8.998680847381242e-152, -2.0663905069843966e-151
        seq = PulseSequence((Pulse(0.0, k, 0.0), Pulse(0.6193926537557488, -k, 0.0)))
        assert gravito_recoil_phase(seq, FLAT, InitialConditions(z0, v0)) == 4.5273377623531e-309
        rng = np.random.default_rng(17)
        for _ in range(500):
            signs = rng.choice([-1.0, 1.0], 3)
            k, z0, v0 = (signs * 10.0 ** rng.uniform(-170.0, -150.0, 3)).tolist()
            seq = PulseSequence((Pulse(0.0, k, 0.0), Pulse(float(rng.uniform(0.1, 1.0)), -k, 0.0)))
            ics = InitialConditions(z0, v0)
            got = gravito_recoil_phase(seq, FLAT, ics)
            assert float_bits(got) == rounded(gravito_by_fractions(seq, FLAT, ics))

    def test_a_sum_beyond_the_float_range_is_a_typed_error(self):
        seq = PulseSequence((Pulse(0.0, 1e300, 0.0), Pulse(1.0, -1e300, 0.0)))
        with pytest.raises(
            NonFiniteResultError,
            match=r"^gravito-recoil sum of dk \* z_g overflows: its magnitude is at least "
            r"2\*\*1029 rad$",
        ):
            gravito_recoil_phase(seq, FLAT, InitialConditions(0.0, 1e10))

    def test_an_infinite_launch_height_is_refused_not_summed_to_nan(self):
        # z_g overflows at t = 10 only, so fsum meets one infinity and a nan
        seq = PulseSequence((Pulse(0.0, 1e7, 0.0), Pulse(10.0, -1e7, 0.0)))
        with pytest.raises(NonFiniteResultError, match=NOT_FINITE_FACTOR):
            gravito_recoil_phase(seq, GravityEnv(1e308), REST)

    @pytest.mark.parametrize("n", [2, 20])
    def test_an_int_delta_k_beyond_the_float_range_is_refused(self, n):
        # delta_k = 2k = 3e308 is an int that no float holds; int wave numbers
        # take the per-pulse loop at 20 pulses too
        k = int(1.5e308)
        seq = PulseSequence(tuple(Pulse(float(t), *((-k, k) if t % 2 else (k, -k))) for t in range(n)))
        with pytest.raises(NonFiniteResultError, match=NOT_FINITE_FACTOR):
            gravito_recoil_phase(seq, GravityEnv(9.81), InitialConditions(1.0, 0.0))


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

    def test_an_overflow_within_the_sum_gives_the_exact_sum(self):
        # The partial sum 1e308 + 1e308 overflows, so fsum raises; the sum is 1e308
        first, second, third = build_mzi(1e7, 0.1).pulses
        seq = PulseSequence(
            (
                Pulse(first.t, first.k_upper, first.k_lower, 1e308, -1e308),
                Pulse(second.t, second.k_upper, second.k_lower, -1e308, 0.0),
                third,
            )
        )
        assert laser_phase(seq) == 1e308
        assert total_phase(seq, SR, FLAT, REST).laser_phase == 1e308

    def test_an_overflowing_sum_is_a_typed_error(self):
        first, *rest = build_mzi(1e7, 0.1).pulses
        seq = PulseSequence((Pulse(first.t, first.k_upper, first.k_lower, 1e308, -1e308), *rest))
        for run in (lambda: laser_phase(seq), lambda: total_phase(seq, SR, FLAT, REST)):
            with pytest.raises(
                NonFiniteResultError,
                match=r"^laser phase sum overflows: its magnitude is at least 2\*\*1024 rad$",
            ):
                run()


RANDOM_CLOSED = [
    pytest.param(
        random_closed_sequence(
            np.random.default_rng(seed), k_scale=k_scale, with_common_mode=True, with_phases=True
        ),
        id=f"{seed}-{k_scale:g}",
    )
    for k_scale in (1e3, 1e7)
    for seed in range(6)
]


class TestPartsAgainstFractions:
    """gravito_recoil_phase and laser_phase are correctly rounded exact sums."""

    @pytest.mark.parametrize("seq", RANDOM_CLOSED)
    def test_gravito_recoil_phase(self, seq):
        env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
        assert gravito_recoil_phase(seq, env, ics) == float(gravito_by_fractions(seq, env, ics))

    @pytest.mark.parametrize("seq", RANDOM_CLOSED)
    def test_laser_phase(self, seq):
        exact = sum(Fraction(p.phi_upper) - Fraction(p.phi_lower) for p in seq.pulses)
        assert laser_phase(seq) == float(exact)


def table_sums_outcome(seq: PulseSequence, env: GravityEnv, ics: InitialConditions, min_pulses):
    """float.hex of the gravito-recoil sum, the laser sum and the closure scales
    with the given crossover, each or its exception's type and message."""

    def outcome(f):
        try:
            value = f()
        except (NonFiniteResultError, OverflowError) as exc:
            return type(exc), str(exc)
        return tuple(map(float.hex, value)) if isinstance(value, tuple) else float.hex(value)

    with mock.patch.object(_exactsum, "_ARRAY_MIN_PULSES", min_pulses):
        table = PulseTable(seq.pulses)
        return (
            outcome(lambda: table.gravito_sum(env.g, ics.z0, ics.v0)),
            outcome(lambda: phase._laser_sum(seq)),
            outcome(table.scales),
        )


BIG_K = (2**60 + 1, 2**60 - 2**8 + 3)  # read through float() as 2**60 and 2**60 - 2**8

# Sequences whose terms reach the edges of the float range, and int wave
# numbers that float() rounds: (sequence, env, ics).
TABLE_CASES = {
    "products near 2**-968": (
        PulseSequence(
            (Pulse(0.0, 3.5e-158, 0.0), Pulse(0.6193926537557488, -3.5e-158, 0.0))
        ),
        FLAT,
        InitialConditions(8.998680847381242e-152, -2.0663905069843966e-151),
    ),
    "products that overflow with both signs": (
        build_mzi(5e307, 0.5), GravityEnv(9.81), InitialConditions(1e10)
    ),
    "overflowing splits": (build_mzi(3e300, 0.1), GravityEnv(9.81), InitialConditions(7.0, -2.0)),
    "an infinite z_g": (
        PulseSequence((Pulse(0.0, 1e7, 0.0), Pulse(10.0, -1e7, 0.0))), GravityEnv(1e308), REST
    ),
    "a sum beyond the float range": (
        PulseSequence((Pulse(0.0, 1e300, 0.0), Pulse(1.0, -1e300, 0.0))),
        FLAT,
        InitialConditions(0.0, 1e10),
    ),
    "int wave numbers beyond 2**53": (
        PulseSequence(tuple(Pulse(float(t), *(BIG_K if t % 2 else BIG_K[::-1])) for t in range(1, 21))),
        GravityEnv(9.81),
        InitialConditions(0.4, -1.3),
    ),
}

finite = st.floats(allow_nan=False, allow_infinity=False)
# products of two of these land near 2**-968, where Dekker's error terms round
near_tiny = st.floats(-(2.0**-470), 2.0**-470)
big_ints = st.integers(-(2**64), 2**64)  # float() rounds beyond 2**53
path_times = st.floats(-1e3, 1e3) | finite | st.integers(-100, 100)
float_wave_numbers = finite | near_tiny | st.floats(-1e12, 1e12) | st.just(0.0)
path_phases = finite | st.floats(-10.0, 10.0) | big_ints
path_launch = finite | near_tiny | st.floats(-10.0, 10.0)
# all-float wave numbers take the array pass when forced; an int sends a
# sequence to the loop on both sides
path_fields = st.sampled_from([float_wave_numbers, float_wave_numbers | big_ints]).flatmap(
    lambda k: st.lists(st.tuples(path_times, k, k, path_phases, path_phases), max_size=60)
)


class TestTableSumPaths:
    """The loop and array paths of the sums over a PulseTable give the same bits."""

    @given(
        fields=path_fields,
        g=path_launch,
        z0=path_launch,
        v0=path_launch,
    )
    @settings(max_examples=300, deadline=None)
    def test_array_and_loop_sums_agree_bit_for_bit(self, fields, g, z0, v0):
        seq = PulseSequence(tuple(Pulse(*f) for f in fields))
        env, ics = GravityEnv(g), InitialConditions(z0, v0)
        assert table_sums_outcome(seq, env, ics, 0) == table_sums_outcome(seq, env, ics, 10**9)

    @pytest.mark.parametrize("name", TABLE_CASES)
    def test_the_paths_agree_at_the_edges_of_the_float_range(self, name):
        seq, env, ics = TABLE_CASES[name]
        spy = mock.Mock(wraps=_exactsum.exact_dot)
        with mock.patch.object(_exactsum, "exact_dot", spy):
            assert table_sums_outcome(seq, env, ics, 0) == table_sums_outcome(seq, env, ics, 10**9)
        # every case but the int one leaves fsum to the exact sum, on both paths
        assert spy.call_count == (0 if name.startswith("int") else 2)

    def test_int_wave_numbers_are_subtracted_before_they_round(self):
        # float(ku) - float(kl) over the fields would give 0x1.04c3333333332p+18
        seq, env, ics = TABLE_CASES["int wave numbers beyond 2**53"]
        assert len(seq.pulses) == _exactsum._ARRAY_MIN_PULSES
        assert gravito_recoil_phase(seq, env, ics).hex() == "0x1.02b9accccccccp+18"
        rounded_fields = sum(
            Fraction(float(p.k_upper) - float(p.k_lower))
            * Fraction(gravity_trajectory(env, ics, p.t)[0])
            for p in seq.pulses
        )
        assert float(rounded_fields).hex() == "0x1.04c3333333332p+18"

    def test_no_beat_calls_gravity_trajectory(self):
        # every lpai binding of gravity_trajectory, as a tracer would wrap it
        spy = mock.Mock(wraps=gravity_trajectory)
        clock, env, ics = ClockPair(1.443157e-25, 2.7e15), GravityEnv(9.81), InitialConditions(0.4, -1.3)
        modules = [
            module for name, module in list(sys.modules.items())
            if name.startswith("lpai") and getattr(module, "gravity_trajectory", None) is gravity_trajectory
        ]
        with contextlib.ExitStack() as stack:
            for module in modules:
                stack.enter_context(mock.patch.object(module, "gravity_trajectory", spy))
            long = random_closed_sequence(np.random.default_rng(8), 100, with_common_mode=True)
            beat(long, clock, env, ics)
            beat(build_rbi_double_loop(1e7, 0.1), clock, env, ics)
        assert spy.call_count == 0

    def test_long_public_sums_run_no_integer_pass(self):
        seq = random_closed_sequence(np.random.default_rng(9), 100, with_phases=True)
        env, ics = GravityEnv(9.81), InitialConditions(0.4, -1.3)
        with mock.patch.object(PulseTable, "_integer_pass", side_effect=AssertionError):
            assert gravito_recoil_phase(seq, env, ics) == float(gravito_by_fractions(seq, env, ics))
            laser_phase(seq)


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

    def test_terms_whose_sum_overflows_are_refused(self):
        # recoil -1.05e308 rad and gravito-recoil -1e308 rad are finite; their sum is not
        seq, light = build_rbi_asymmetric(1e150, 1.0), Species(1e-42)
        with pytest.raises(NonFiniteResultError, match="phase breakdown is not finite"):
            total_phase(seq, light, GravityEnv(1e158), REST)

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

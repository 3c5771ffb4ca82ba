"""Builders, closure diagnostics and the geometry file format."""

import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpai import geometry
from lpai import (
    GeometryParseError,
    Pulse,
    PulseSequence,
    Species,
    build_mzi,
    build_rbi_asymmetric,
    build_rbi_double_loop,
    build_rbi_symmetric,
    closure_check,
    parse_geometry,
    serialize_geometry,
)

from _helpers import float_bits, random_closed_sequence

ATOM = Species(1.443157e-25)

signed_k = st.floats(min_value=1e-3, max_value=1e12).flatmap(
    lambda k: st.sampled_from([k, -k])
)
sep_T = st.floats(min_value=1e-6, max_value=1e4)


def swap_branches(seq: PulseSequence) -> PulseSequence:
    return PulseSequence(
        tuple(Pulse(p.t, p.k_lower, p.k_upper, p.phi_lower, p.phi_upper) for p in seq.pulses),
        duration=seq.duration,
        name=seq.name,
    )


def moments_outcome(seq: PulseSequence, min_pulses: int):
    """float.hex of each moment with the given crossover, or the fsum exception."""
    with mock.patch.object(geometry, "_MOMENTS_MIN_PULSES", min_pulses):
        try:
            return tuple(m.hex() for m in geometry._moments(seq))
        except (ValueError, OverflowError) as exc:
            return type(exc), str(exc)


# Any finite float, hypothesis' edge cases (+-0.0, subnormals, +-max) included
any_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def open_sequences(draw):
    fields = st.tuples(any_finite, any_finite, any_finite)
    return PulseSequence(tuple(Pulse(*f) for f in draw(st.lists(fields, max_size=60))))


@st.composite
def closed_sequences(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k_scale = draw(st.sampled_from([5e-324, 1e-300, 1.0, 1e7, 1e150, 1e300, 1e307]))
    # the closure solve overflows at the largest scales; the moments must
    # then agree on the inf/nan terms too
    with np.errstate(all="ignore"):
        return random_closed_sequence(
            rng, draw(st.integers(3, 60)), k_scale=k_scale, with_common_mode=draw(st.booleans())
        )


class TestBuilders:
    def test_mzi_structure(self):
        seq = build_mzi(2.0, 0.5)
        assert seq.pulses == (
            Pulse(0.0, 2.0, 0.0),
            Pulse(0.5, -2.0, 2.0),
            Pulse(1.0, 0.0, -2.0),
        )
        assert seq.name == "mzi"
        assert seq.duration == 1.0

    def test_symmetric_pause_zero_merges_the_central_pulses(self):
        merged = build_rbi_symmetric(2.0, 0.5, 0.0)
        assert merged.n_pulses == 3
        assert merged.pulses[1] == Pulse(0.5, -2.0, 2.0)

    def test_symmetric_with_pause(self):
        seq = build_rbi_symmetric(2.0, 0.5, 0.25)
        assert seq.times == (0.0, 0.5, 0.75, 1.25)
        assert [(p.k_upper, p.k_lower) for p in seq.pulses] == [
            (2.0, 0.0),
            (-2.0, 0.0),
            (0.0, 2.0),
            (0.0, -2.0),
        ]

    def test_asymmetric_pause_zero_merges_the_central_pulses(self):
        merged = build_rbi_asymmetric(2.0, 0.5, 0.0)
        assert merged.n_pulses == 3
        assert merged.pulses[1] == Pulse(0.5, -4.0, 0.0)

    def test_asymmetric_with_pause_is_single_branch(self):
        seq = build_rbi_asymmetric(2.0, 0.5, 0.25)
        assert seq.times == (0.0, 0.5, 0.75, 1.25)
        assert [p.k_upper for p in seq.pulses] == [2.0, -2.0, -2.0, 2.0]
        assert all(p.k_lower == 0.0 for p in seq.pulses)

    def test_double_loop_structure(self):
        seq = build_rbi_double_loop(2.0, 0.5)
        assert seq.times == (0.0, 0.5, 1.5, 2.0)
        assert [p.k_upper for p in seq.pulses] == [2.0, -4.0, 4.0, -2.0]

    @pytest.mark.parametrize("bad_k", [0.0, math.nan, math.inf])
    def test_zero_or_non_finite_k_is_rejected(self, bad_k):
        for builder in (build_mzi, build_rbi_symmetric, build_rbi_asymmetric, build_rbi_double_loop):
            with pytest.raises(ValueError):
                builder(bad_k, 0.5)

    @pytest.mark.parametrize("bad_T", [0.0, -0.5, math.nan])
    def test_non_positive_T_is_rejected(self, bad_T):
        with pytest.raises(ValueError):
            build_mzi(1.0, bad_T)

    def test_negative_pause_is_rejected(self):
        with pytest.raises(ValueError):
            build_rbi_symmetric(1.0, 0.5, -0.1)


class TestClosure:
    @given(k=signed_k, T=sep_T)
    @settings(max_examples=100)
    def test_mzi_moments_vanish_exactly(self, k, T):
        report = closure_check(build_mzi(k, T), ATOM)
        assert report.moment0 == 0.0
        assert report.moment1 == 0.0
        assert report.closed
        assert report.delta_z_final == 0.0
        assert report.delta_v_final == 0.0

    @given(k=signed_k, T=sep_T, Tp=st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=100)
    def test_ramsey_borde_variants_close(self, k, T, Tp):
        for builder in (build_rbi_symmetric, build_rbi_asymmetric):
            assert closure_check(builder(k, T, Tp), ATOM).closed

    @given(k=signed_k, T=sep_T)
    @settings(max_examples=100)
    def test_double_loop_closes_with_tiny_second_moment(self, k, T):
        report = closure_check(build_rbi_double_loop(k, T), ATOM)
        assert report.closed
        assert report.moment0 == 0.0
        assert abs(report.moment1) <= 1e-13 * abs(k) * 4.0 * T
        assert abs(report.moment2) <= 1e-12 * abs(k) * (4.0 * T) ** 2

    def test_double_loop_moments_vanish_exactly_for_dyadic_T(self):
        report = closure_check(build_rbi_double_loop(3.0, 0.25), ATOM)
        assert report.moment0 == 0.0
        assert report.moment1 == 0.0
        assert report.moment2 == 0.0

    def test_truncated_mzi_is_open_with_the_expected_moment(self):
        k = 7.0
        seq = PulseSequence(build_mzi(k, 0.5).pulses[:2])
        report = closure_check(seq, ATOM)
        assert not report.closed
        assert report.moment0 == -k

    def test_branch_swap_negates_the_moments(self):
        seq = build_rbi_double_loop(1.7e6, 0.31)
        a = closure_check(seq, ATOM)
        b = closure_check(swap_branches(seq), ATOM)
        assert b.moment0 == -a.moment0
        assert b.moment1 == -a.moment1
        assert b.moment2 == -a.moment2
        assert b.closed == a.closed

    def test_closed_flag_is_species_independent(self):
        seq = build_mzi(1e7, 0.4)
        flags = {closure_check(seq, Species(m)).closed for m in (1e-27, 1e-25, 1.0)}
        assert flags == {True}

    def test_offsets_scale_inversely_with_mass(self):
        seq = PulseSequence(build_mzi(1e7, 0.4).pulses[:2])  # open on purpose
        light = closure_check(seq, Species(1e-25))
        heavy = closure_check(seq, Species(2e-25))
        assert heavy.delta_v_final == 0.5 * light.delta_v_final
        assert heavy.delta_z_final == 0.5 * light.delta_z_final

    @given(seq=st.one_of(open_sequences(), closed_sequences()))
    @settings(max_examples=300, deadline=None)
    def test_array_and_loop_moments_agree_bit_for_bit(self, seq):
        assert moments_outcome(seq, 0) == moments_outcome(seq, 10**9)

    def test_int_fields_take_the_array_path_as_floats(self):
        # all products stay below 2**53, where int and float arithmetic agree
        seq = PulseSequence(tuple(Pulse(i, 3 - i, i % 2) for i in range(12)))
        assert moments_outcome(seq, 0) == moments_outcome(seq, 10**9)

    def test_long_sequences_take_the_array_path(self):
        seq = random_closed_sequence(np.random.default_rng(3), geometry._MOMENTS_MIN_PULSES)
        with mock.patch.object(geometry, "_moments_array", side_effect=AssertionError):
            with pytest.raises(AssertionError):
                closure_check(seq, ATOM)

    def test_empty_sequence_is_vacuously_closed(self):
        report = closure_check(PulseSequence(()), ATOM)
        assert report.closed
        assert report.moment0 == 0.0

    def test_report_serializes(self):
        report = closure_check(build_mzi(1.0, 1.0), ATOM)
        d = asdict(report)
        assert d["closed"] is True
        assert set(d) == {
            "delta_z_final",
            "delta_v_final",
            "moment0",
            "moment1",
            "moment2",
            "closed",
        }


# --- file format -------------------------------------------------------------

any_float = st.floats(allow_nan=False, allow_infinity=False)
name_token = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.",
    min_size=1,
    max_size=12,
)


@st.composite
def sequences(draw):
    times = sorted(
        draw(st.lists(st.floats(min_value=-1e5, max_value=1e5), unique=True, max_size=6))
    )
    pulses = tuple(
        Pulse(
            t,
            draw(any_float),
            draw(any_float),
            draw(any_float),
            draw(any_float),
        )
        for t in times
    )
    if pulses and draw(st.booleans()):
        duration = draw(st.floats(min_value=pulses[-1].t, max_value=1e6))
    else:
        duration = None
    return PulseSequence(pulses, duration=duration, name=draw(st.none() | name_token))


def assert_bit_identical(a: PulseSequence, b: PulseSequence) -> None:
    assert a.name == b.name
    assert float_bits(a.duration) == float_bits(b.duration)
    assert len(a.pulses) == len(b.pulses)
    for pa, pb in zip(a.pulses, b.pulses):
        for field in ("t", "k_upper", "k_lower", "phi_upper", "phi_lower"):
            assert float_bits(getattr(pa, field)) == float_bits(getattr(pb, field))


class TestFileFormat:
    @given(seq=sequences())
    @settings(max_examples=200)
    def test_round_trip_is_bit_exact(self, seq):
        assert_bit_identical(parse_geometry(serialize_geometry(seq)), seq)

    @pytest.mark.parametrize(
        "seq",
        [
            build_mzi(1e7, 0.325),
            build_rbi_symmetric(1e7, 0.3, 0.1),
            build_rbi_asymmetric(1.8e10, 0.325),
            build_rbi_double_loop(8.7e9, 0.35),
        ],
        ids=["mzi", "rbi-sym", "rbi-asym", "rbi-double"],
    )
    def test_builders_round_trip(self, seq):
        assert_bit_identical(parse_geometry(serialize_geometry(seq)), seq)

    def test_negative_zero_phase_survives_the_round_trip(self):
        seq = PulseSequence(
            (Pulse(0.0, 1.0, 0.0, -0.0, 0.5), Pulse(1.0, -1.0, 0.0)), name="signed"
        )
        back = parse_geometry(serialize_geometry(seq))
        assert math.copysign(1.0, back.pulses[0].phi_upper) == -1.0
        assert back.name == "signed"

    def test_phase_columns_are_omitted_when_all_phases_are_plus_zero(self):
        text = serialize_geometry(build_mzi(1.0, 1.0))
        pulse_lines = [line for line in text.splitlines() if line.startswith("pulse")]
        assert all(len(line.split()) == 4 for line in pulse_lines)

    def test_empty_sequence_serializes_to_a_bare_header(self):
        text = serialize_geometry(PulseSequence(()))
        assert text.splitlines() == ["tend 0.0000000000000000e+00"]
        back = parse_geometry(text)
        assert back.pulses == ()
        assert back.duration == 0.0

    def test_comments_and_blank_lines_are_ignored(self):
        text = (
            "# a comment line\n"
            "\n"
            "name demo  # trailing comment\n"
            "pulse 0.0 1.0 0.0\n"
            "pulse 1.0 -1.0 0.0 # another\n"
        )
        seq = parse_geometry(text)
        assert seq.name == "demo"
        assert seq.n_pulses == 2

    def test_missing_tend_defaults_to_the_last_pulse(self):
        seq = parse_geometry("pulse 0.0 1.0 0.0\npulse 2.5 -1.0 0.0\n")
        assert seq.duration == 2.5

    def test_empty_input_gives_an_empty_sequence(self):
        seq = parse_geometry("")
        assert seq.pulses == ()
        assert seq.duration == 0.0

    def test_serializing_a_bad_name_fails(self):
        seq = PulseSequence(build_mzi(1.0, 1.0).pulses, name="two words")
        with pytest.raises(ValueError, match="single token"):
            serialize_geometry(seq)


class TestParseErrors:
    def check(self, text, rule, line, column):
        with pytest.raises(GeometryParseError) as err:
            parse_geometry(text)
        assert err.value.rule == rule
        assert err.value.line == line
        assert err.value.column == column

    def test_bad_numeric_token(self):
        self.check("pulse 0.0 bogus 0.0\n", "syntax", 1, 11)

    def test_underscored_and_hex_numbers_are_rejected(self):
        self.check("pulse 0.0 1_0 0.0\n", "syntax", 1, 11)
        self.check("pulse 0.0 0x1p3 0.0\n", "syntax", 1, 11)

    def test_non_finite_number(self):
        self.check("pulse 0.0 nan 0.0\n", "non-finite number", 1, 11)
        self.check("pulse 0.0 -inf 0.0\n", "non-finite number", 1, 11)

    def test_wrong_argument_count(self):
        self.check("pulse 0.0 1.0 0.0 0.1\n", "syntax", 1, 1)

    def test_unknown_directive(self):
        self.check("pulses 0.0 1.0 0.0\n", "syntax", 1, 1)

    def test_non_monotone_times(self):
        self.check("pulse 0.0 1.0 0.0\npulse 0.0 -1.0 0.0\n", "non-monotone times", 2, 7)

    def test_duplicate_name(self):
        self.check("name a\nname b\n", "duplicate directive", 2, 1)

    def test_duplicate_tend(self):
        self.check("tend 1.0\ntend 2.0\n", "duplicate directive", 2, 1)

    def test_tend_before_last_pulse(self):
        text = "tend 0.5\npulse 0.0 1.0 0.0\npulse 1.0 -1.0 0.0\n"
        self.check(text, "duration before last pulse", 1, 1)

    def test_name_takes_exactly_one_token(self):
        self.check("name\n", "syntax", 1, 1)

    def test_error_message_is_informative(self):
        with pytest.raises(GeometryParseError, match="bogus"):
            parse_geometry("pulse 0.0 bogus 0.0\n")

"""The exact pulse-table sums and fsum_or_exact against Fractions."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpai import NonFiniteResultError, Pulse, PulseSequence, _exactsum
from lpai._exactsum import PulseTable

from _helpers import (
    float_bits,
    moments_by_fractions,
    random_closed_sequence,
    recoil_sum_by_fractions,
    rounded,
)

# --- PulseTable against exact rational arithmetic ------------------------------

tiny = st.floats(-(2.0**-1020), 2.0**-1020)  # subnormals and the smallest normals
big_ints = st.integers(-(2**64), 2**64)  # read through float(), which rounds beyond 2**53
times = st.floats(-1e300, 1e300) | tiny | st.floats(-10.0, 10.0) | big_ints
wave_numbers = st.floats(-1e300, 1e300) | tiny | st.floats(-1e12, 1e12) | st.just(0.0) | big_ints
PATHS = ("loop", "array", "array, exact")


def table_outcome(seq: PulseSequence, path: str):
    """(S, moments) of seq by one path, as float_bits or "overflow".

    "loop" sums the correction exactly in the scalar loop; "array" estimates
    it in array passes, and "array, exact" skips that estimate's check
    (_settled) and so always falls back to the exact loop.
    """
    min_pulses = 10**9 if path == "loop" else 0
    settled = (lambda *args: None) if path == "array, exact" else _exactsum._settled
    outcomes = []
    with mock.patch.object(_exactsum, "_ARRAY_MIN_PULSES", min_pulses):
        with mock.patch.object(_exactsum, "_settled", settled):
            for part in (PulseTable.recoil_sum, PulseTable.moments):
                try:
                    value = part(PulseTable(seq.pulses))
                except NonFiniteResultError:
                    outcomes.append("overflow")
                else:
                    outcomes.append(
                        tuple(map(float_bits, value)) if isinstance(value, tuple) else float_bits(value)
                    )
    return tuple(outcomes)


def reference_outcome(seq: PulseSequence):
    moments = tuple(rounded(m) for m in moments_by_fractions(seq))
    return rounded(recoil_sum_by_fractions(seq)), "overflow" if "overflow" in moments else moments


@given(
    fields=st.lists(st.tuples(times, wave_numbers, wave_numbers), max_size=24),
    path=st.sampled_from(PATHS),
)
@settings(max_examples=400, deadline=None)
def test_sums_are_the_rational_sums_rounded_once(fields, path):
    seq = PulseSequence(tuple(Pulse(*f) for f in fields))
    assert table_outcome(seq, path) == reference_outcome(seq)


# S = 3 * fl((1 + 2**-52) - 2**-80) = 3 + 3 * 2**-52 sits on a rounding tie,
# and the one inexact difference puts the array estimate's bound across it;
# the loop path sums every correction exactly.  On the lower branch the sign
# flips, and the correction's terms come from k_lower alone.
TIES = (
    (PulseSequence((Pulse(2.0**-80, 3.0, 0.0), Pulse(1.0 + 2.0**-52, 1.0, 0.0))), 1.0),
    (PulseSequence((Pulse(2.0**-80, 0.0, 3.0), Pulse(1.0 + 2.0**-52, 0.0, 1.0))), -1.0),
)


@pytest.mark.parametrize("min_pulses", [0, 10**9], ids=["array", "loop"])
def test_a_sum_on_a_rounding_tie_reaches_the_exact_correction(min_pulses, monkeypatch):
    monkeypatch.setattr(_exactsum, "_ARRAY_MIN_PULSES", min_pulses)
    calls = []
    exact = PulseTable._exact_correction
    monkeypatch.setattr(PulseTable, "_exact_correction", lambda t: calls.append(1) or exact(t))
    for tie, sign in TIES:
        s = PulseTable(tie.pulses).recoil_sum()
        assert s == float(recoil_sum_by_fractions(tie)) == sign * (3.0 + 4 * 2.0**-52)
    assert calls == [1, 1]


@pytest.mark.parametrize("chunk", [64, 400])
@pytest.mark.parametrize("path", ["array", "array, exact"])
@pytest.mark.parametrize("seed", range(3))
def test_a_correction_in_several_row_blocks_is_the_rational_sum(seed, path, chunk, monkeypatch):
    # 40 pulses are one row block at the default chunk; these chunks cut the
    # pair matrix into 40 blocks of one row and into 4 of ten rows
    monkeypatch.setattr(_exactsum, "_CORRECTION_CHUNK", chunk)
    exact_calls, exact = [], PulseTable._exact_correction
    monkeypatch.setattr(PulseTable, "_exact_correction", lambda t: exact_calls.append(1) or exact(t))
    seq = random_closed_sequence(np.random.default_rng(seed), 40, k_scale=1e7)
    assert table_outcome(seq, path)[0] == reference_outcome(seq)[0]
    # the estimate settles S; the forced-exact path sums the correction once
    assert len(exact_calls) == (0 if path == "array" else 1)


@pytest.mark.parametrize("n", range(2, _exactsum._ARRAY_MIN_PULSES))
def test_short_sums_are_summed_exactly_without_an_estimate(n, monkeypatch):
    for name in ("_settled", "_correction_array"):
        monkeypatch.setattr(_exactsum, name, mock.Mock(side_effect=AssertionError(name)))
    rng = np.random.default_rng(n)
    times = np.sort(10.0 ** rng.uniform(-3.0, 1.0, n)).tolist()  # most differences round
    ks = rng.uniform(-1e7, 1e7, (n, 2)).tolist()
    seq = PulseSequence(tuple(Pulse(t, *k) for t, k in zip(times, ks)))
    assert float_bits(PulseTable(seq.pulses).recoil_sum()) == rounded(recoil_sum_by_fractions(seq))


@pytest.mark.parametrize("min_pulses", [0, 10**9], ids=["array", "loop"])
@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan, pytest.param(2**1100, id="int-beyond-floats")]
)
def test_non_finite_fields_are_refused(bad, min_pulses, monkeypatch):
    monkeypatch.setattr(_exactsum, "_ARRAY_MIN_PULSES", min_pulses)
    for fields in ((bad, 1.0, 0.0), (0.5, 1.0, bad)):
        seq = PulseSequence((Pulse(0.0, 1.0, 0.0), Pulse(*fields)))
        with pytest.raises(NonFiniteResultError, match="finite pulse times and wave numbers"):
            PulseTable(seq.pulses)


# --- fsum_or_exact: fsum, or the exact sum where fsum fails ---------------------


def near_tie(rng, n, *, sign, odd, breaker, exponent=0, depth=150):
    """sign * 2**exponent, with an odd or even significand, plus half an ulp
    away from zero in pieces, the tie broken by breaker * 2**-depth half-ulps
    (no breaker when it is 0), padded to n terms with cancelling pairs between
    2**-depth and 1 half-ulps, as a list of floats in random order.

    The sum sits so close to a rounding tie that only a sum that is exact to
    below the breaker rounds it right.
    """
    big = sign * (1.0 + (2.0**-52 if odd else 0.0)) * 2.0**exponent
    half_ulp = sign * math.ulp(big) / 2.0
    head = [big, *[half_ulp / 4.0] * 4]
    if breaker:
        head.append(breaker * half_ulp * 2.0**-depth)
    rest = n - len(head)
    pairs = abs(half_ulp) * 2.0 ** -rng.uniform(0.0, depth, size=rest // 2)
    return rng.permutation(np.concatenate((head, pairs, -pairs, np.zeros(rest % 2)))).tolist()


@pytest.mark.parametrize("breaker", [1.0, -1.0, 0.0])
@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("exponent", [-700, 0, 900])
def test_sums_on_a_rounding_tie_are_fsums(sign, odd, breaker, exponent):
    # the fsum and the exact sum (terms None) both round the rational sum once,
    # ties to even
    rng = np.random.default_rng(exponent + 1000)
    for n in (64, 2049):
        x = near_tie(rng, n, sign=sign, odd=odd, breaker=breaker, exponent=exponent)
        assert len(x) == n
        by_fsum = _exactsum.fsum_or_exact(x, lambda: pytest.fail("summed exactly"), "tie", "1")
        by_exact = _exactsum.fsum_or_exact(None, lambda: (x, [1.0] * n), "tie", "1")
        exact = rounded(sum(map(Fraction, x), Fraction(0)))
        assert float_bits(by_fsum) == float_bits(by_exact) == exact


@pytest.mark.parametrize(
    "terms, message",
    [
        ([1e308, 1e308, -1e308], None),  # fsum's partial sums overflow, the sum does not
        ([1e308, 1e308], "tie overflows: its magnitude is at least 2\\*\\*1024 1"),
        ([math.inf, -math.inf], "tie has a factor that is not finite"),
    ],
    ids=["intermediate", "overflow", "inf-inf"],
)
def test_a_sum_that_fsum_refuses_is_summed_exactly(terms, message):
    factors = lambda: (terms, [1.0] * len(terms))  # noqa: E731
    if message is None:
        assert _exactsum.fsum_or_exact(terms, factors, "tie", "1") == 1e308
    else:
        with pytest.raises(NonFiniteResultError, match=message):
            _exactsum.fsum_or_exact(terms, factors, "tie", "1")

"""Error-free products and array sums against the scalar functions and math.fsum."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpai import _exactsum
from lpai._exactsum import array_fsum, triple_product_rows, triple_product_terms


def random_factors(rng, n):
    """Floats over the whole exponent range, with zeros, subnormals and overflow."""
    x = rng.choice([-1.0, 1.0], size=(3, n)) * 10.0 ** rng.uniform(-320, 160, size=(3, n))
    x[rng.random((3, n)) < 0.05] = 0.0
    return x


def test_rows_are_the_scalar_terms_bit_for_bit():
    rng = np.random.default_rng(5)
    x = random_factors(rng, 2 * _exactsum._BLOCK + 7)  # two whole column blocks and a part
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        rows = triple_product_rows(x)
    assert rows.shape == (4, x.shape[1])
    for j in range(x.shape[1]):
        q, f, g, h = triple_product_terms(*(float(v) for v in x[:, j]))
        for got, want in zip(rows[[0, 2, 1, 3], j].tolist(), (q, f, g, h)):
            assert (math.isnan(got) and math.isnan(want)) or (
                np.float64(got).tobytes() == np.float64(want).tobytes()
            )


def test_rows_written_into_out_are_the_new_rows():
    x = random_factors(np.random.default_rng(7), _exactsum._BLOCK + 1)
    out = np.full((4, x.shape[1]), np.nan)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        got = triple_product_rows(x, out=out)
        want = triple_product_rows(x)
    assert got is out
    assert out.tobytes() == want.tobytes()


def test_rows_sum_exactly_to_the_product():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1e7, 1e7, size=(3, 200))
    rows = triple_product_rows(x)
    for j in range(x.shape[1]):
        exact = Fraction(x[0, j]) * Fraction(x[1, j]) * Fraction(x[2, j])
        assert sum(Fraction(v) for v in rows[:, j].tolist()) == exact



# --- array_fsum against math.fsum -------------------------------------------

THRESHOLD = _exactsum._FSUM_MAX_TERMS


def fsum_outcome(f, x):
    """The float's hex, or the exception's type and message."""
    try:
        return float.hex(f(x))
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def spread(rng, n, lo=-330.0, hi=308.0):
    return rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(lo, hi, size=n)


def subnormals(rng, n):
    x = rng.integers(-(2**20), 2**20, size=n) * 2.0**-1074
    x[rng.random(n) < 0.1] = spread(rng, 1, -310.0, -300.0)[0]
    return x


def signed_zeros(rng, n):
    x = rng.choice([0.0, -0.0], size=n)
    if n and rng.random() < 0.3:
        x[:] = -0.0
    return x


def cancellation(rng, n):
    """Pairs v, -v in random order, plus at most one small leftover."""
    y = spread(rng, n // 2, -20.0, 20.0)
    x = np.concatenate((y, -y, spread(rng, n % 2, -330.0, -300.0)))
    return rng.permutation(x)


def ties(rng, n):
    """An odd or even significand plus exactly half an ulp in pieces, with or
    without a tie-breaker, padded with cancelling pairs."""
    big = (1.0 + rng.choice([0.0, 2.0**-52])) * 2.0 ** int(rng.integers(-900, 900))
    pieces = 2 ** int(rng.integers(0, 6))
    half_ulp = np.spacing(big) / 2.0
    tail = [rng.choice([-1.0, 1.0]) * half_ulp / pieces] * pieces
    breaker = [float(rng.choice([-1.0, 1.0])) * half_ulp * 2.0 ** -int(rng.integers(1, 60))]
    head = np.array([big, *tail, *breaker[: int(rng.integers(0, 2))]])
    pad = cancellation(rng, max(n - head.size, 0) // 2 * 2) * half_ulp
    return rng.permutation(np.concatenate((head, pad)))


def specials(rng, n):
    x = spread(rng, n, -10.0, 10.0)
    for value in rng.choice([np.inf, -np.inf, np.nan], size=int(rng.integers(1, 4))):
        x[rng.integers(0, n)] = value
    return x


def near_overflow(rng, n):
    return rng.choice([-1.0, 1.0], size=n) * 2.0 ** rng.uniform(1000.0, 1024.0, size=n)


KINDS = {
    "spread": spread,
    "subnormals": subnormals,
    "signed zeros": signed_zeros,
    "cancellation": cancellation,
    "ties": ties,
    "specials": specials,
    "near overflow": near_overflow,
}


@st.composite
def term_arrays(draw):
    n = draw(st.sampled_from([1, 2, 64, THRESHOLD - 1, THRESHOLD, THRESHOLD + 1, 3 * THRESHOLD + 7]))
    kind = draw(st.sampled_from(sorted(KINDS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.ascontiguousarray(KINDS[kind](rng, n), dtype=float)


@given(x=term_arrays())
@settings(max_examples=300, deadline=None)
def test_array_fsum_is_math_fsum_bit_for_bit(x):
    assert fsum_outcome(array_fsum, x) == fsum_outcome(lambda y: math.fsum(memoryview(y)), x)


def near_tie(rng, n, *, sign, odd, breaker, exponent=0, depth=150):
    """sign * 2**exponent, with an odd or even significand, plus half an ulp
    away from zero in pieces, the tie broken by breaker * 2**-depth half-ulps
    (no breaker when it is 0), padded to n terms with cancelling pairs between
    2**-depth and 1 half-ulps.

    The sum sits so close to a rounding tie that the passes cannot stop
    before their remainder falls below the breaker, about 40 bits deeper per
    pass, and the pairs leave a remainder at every depth on the way.
    """
    big = sign * (1.0 + (2.0**-52 if odd else 0.0)) * 2.0**exponent
    half_ulp = sign * np.spacing(abs(big)) / 2.0
    head = [big, *[half_ulp / 4.0] * 4]
    if breaker:
        head.append(breaker * half_ulp * 2.0**-depth)
    rest = n - len(head)
    pairs = abs(half_ulp) * 2.0 ** -rng.uniform(0.0, depth, size=rest // 2)
    return rng.permutation(np.concatenate((head, pairs, -pairs, np.zeros(rest % 2))))


@pytest.mark.parametrize("breaker", [1.0, -1.0, 0.0])
@pytest.mark.parametrize("odd", [False, True])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("exponent", [-700, 0, 900])
def test_sums_on_a_rounding_tie_are_fsums(sign, odd, breaker, exponent):
    rng = np.random.default_rng(exponent + 1000)
    for n in (THRESHOLD, 2 * THRESHOLD + 1):
        x = near_tie(rng, n, sign=sign, odd=odd, breaker=breaker, exponent=exponent)
        assert x.size == n
        assert float.hex(array_fsum(x)) == float.hex(math.fsum(memoryview(x)))


@pytest.mark.parametrize("passes", [1, 2, _exactsum._MAX_PASSES])
def test_the_pass_cap_hands_the_exact_remainder_to_fsum(monkeypatch, passes):
    monkeypatch.setattr(_exactsum, "_MAX_PASSES", passes)
    rng = np.random.default_rng(passes)
    # spread arrays settle after two passes; the near-tie ones need about
    # six (depth 150) or twelve (depth 400), so they reach every cap
    arrays = [spread(rng, 2 * THRESHOLD, -300.0, 290.0) for _ in range(20)]
    for depth in (150, 400):
        for sign, odd, breaker in ((1.0, False, 1.0), (-1.0, True, -1.0), (1.0, True, 1.0)):
            arrays.append(
                near_tie(rng, 2 * THRESHOLD, sign=sign, odd=odd, breaker=breaker, depth=depth)
            )
    for x in arrays:
        assert float.hex(array_fsum(x)) == float.hex(math.fsum(memoryview(x)))


@pytest.mark.parametrize(
    "x, error",
    [
        ([np.inf, -np.inf], (ValueError, "-inf + inf in fsum")),
        ([1e308, 1e308], (OverflowError, "intermediate overflow in fsum")),
    ],
)
def test_errors_above_the_threshold_are_fsums(x, error):
    terms = np.concatenate((np.array(x), np.ones(THRESHOLD)))
    assert fsum_outcome(array_fsum, terms) == error

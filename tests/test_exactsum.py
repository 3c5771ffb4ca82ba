"""Error-free products: the array form against the scalar functions."""

import math
from fractions import Fraction

import numpy as np

from lpai._exactsum import triple_product_rows, triple_product_terms


def random_factors(rng, n):
    """Floats over the whole exponent range, with zeros, subnormals and overflow."""
    x = rng.choice([-1.0, 1.0], size=(3, n)) * 10.0 ** rng.uniform(-320, 160, size=(3, n))
    x[rng.random((3, n)) < 0.05] = 0.0
    return x


def test_rows_are_the_scalar_terms_bit_for_bit():
    rng = np.random.default_rng(5)
    x = random_factors(rng, 4000)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        rows = triple_product_rows(x)
    assert rows.shape == (4, x.shape[1])
    for j in range(x.shape[1]):
        q, f, g, h = triple_product_terms(*(float(v) for v in x[:, j]))
        for got, want in zip(rows[[0, 2, 1, 3], j].tolist(), (q, f, g, h)):
            assert (math.isnan(got) and math.isnan(want)) or (
                np.float64(got).tobytes() == np.float64(want).tobytes()
            )


def test_rows_sum_exactly_to_the_product():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1e7, 1e7, size=(3, 200))
    rows = triple_product_rows(x)
    for j in range(x.shape[1]):
        exact = Fraction(x[0, j]) * Fraction(x[1, j]) * Fraction(x[2, j])
        assert sum(Fraction(v) for v in rows[:, j].tolist()) == exact


"""Error-free float products and correctly rounded sums.

The recoil double sum multiplies wave numbers (~1e7) with time separations
(~1e-1) and then cancels almost completely for symmetric geometries, so the
pair terms are expanded into exact float tuples (Dekker's algorithm) and
summed with correct rounding: the result is the correctly rounded value of
the real sum over the stored inputs.

Every step is a plain IEEE multiply or add with no fused multiply-add, and
numpy applies the same operations element by element.  So the scalar
functions also take float64 arrays, and triple_product_rows, the array form
of triple_product_terms, yields the same bits on every element.

array_fsum reduces large arrays in a few numpy passes by error-free
extraction (Rump, Ogita & Oishi, "Accurate floating-point summation part I:
faithful rounding", SIAM J. Sci. Comput. 31, 2008), stops as soon as the
rounding of the sum is settled (the idea of NearSum in part II of the same
paper) and returns exactly what math.fsum returns; short arrays, non-finite
terms and terms near overflow go to math.fsum itself.
"""

from __future__ import annotations

import math

import numpy as np

Real = float | np.ndarray

_SPLIT = 134217729.0  # 2**27 + 1, splits a 53-bit significand into two halves


def two_product(a: Real, b: Real) -> tuple[Real, Real]:
    """Return (p, e) with p = fl(a*b) and p + e == a*b exactly.

    a and b are floats or arrays; p and e have their broadcast shape.
    """
    p = a * b
    ac = _SPLIT * a
    ah = ac - (ac - a)
    al = a - ah
    bc = _SPLIT * b
    bh = bc - (bc - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def triple_product_terms(a: Real, b: Real, c: Real) -> tuple[Real, Real, Real, Real]:
    """Four terms whose exact sum equals the real product a*b*c.

    a, b and c are floats or arrays; each term is a float or an array of
    their broadcast shape, and the exactness holds element by element.
    """
    p, e = two_product(a, b)
    q, f = two_product(p, c)
    g, h = two_product(e, c)
    return q, f, g, h


# The two steps of two_product, for the array form.  two_product keeps them
# inline: on Python floats the extra calls would make it half as slow again.
def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: (hi, lo) with hi + lo == a exactly."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _product_error(p, ah, al, bh, bl) -> np.ndarray:
    """Exact a*b - p for p = fl(a*b), from the splits of a and b."""
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def triple_product_rows(x: np.ndarray) -> np.ndarray:
    """triple_product_terms(x[0], x[1], x[2]) for a C-contiguous (3, n) float64 array.

    Returns a new (4, n) array whose rows are the terms q, g, f, h, bit for
    bit.  One split serves both first-stage factors and one the two
    first-stage terms together with c, so a call costs about thirty numpy
    operations on contiguous rows whatever n is.
    """
    n = x.shape[1]
    ab_hi, ab_lo = _split(x[:2].reshape(-1))
    y = np.empty(4 * n)  # p, e, then c once for each of them
    pe, cc = y[: 2 * n], y[2 * n :]
    np.multiply(x[0], x[1], out=pe[:n])
    pe[n:] = _product_error(pe[:n], ab_hi[:n], ab_lo[:n], ab_hi[n:], ab_lo[n:])
    cc.reshape(2, n)[...] = x[2]
    hi, lo = _split(y)
    terms = np.empty(4 * n)  # q, g, then f, h
    products, errors = terms[: 2 * n], terms[2 * n :]
    np.multiply(pe, cc, out=products)
    errors[...] = _product_error(products, hi[: 2 * n], lo[: 2 * n], hi[2 * n :], lo[2 * n :])
    return terms.reshape(4, n)


# Below this many terms math.fsum is faster than the extraction passes (the
# crossover lies at 1-2k terms on a 2-CPU x86-64 machine with numpy 2.4).
_FSUM_MAX_TERMS = 2048
# Extraction passes before the remainder goes to math.fsum with the pass
# totals.  The pair terms of 100 pulses settle after two or three; the cap
# bounds the cost of sums that sit on a rounding tie down to their last bit.
_MAX_PASSES = 8


def array_fsum(x: np.ndarray) -> float:
    """math.fsum(memoryview(x)) for a contiguous 1-D float64 array, bit for bit.

    Each pass splits every term r into q = (sigma + r) - sigma and r - q,
    with sigma = 2**(e + bits), max|r| < 2**e and 2**bits >= n + 2.  Both
    parts are exact, and the q all lie on the float spacing at sigma, so
    q.sum() is exact in any order; the remainders go to the next pass.  The
    pass totals then sum exactly to the sum of x, and math.fsum, which rounds
    correctly, gives the same float for them as for x.

    The next pass's sigma also bounds what is left: |sum of r| <= n*max|r| <
    sigma.  So the sum of x lies strictly between the totals' sum - sigma and
    + sigma, and when math.fsum rounds both ends to the same float, that float
    is math.fsum(x) (rounding to nearest is monotone), and the passes stop.

    Short arrays, arrays with an inf or a nan, all-zero arrays and arrays
    whose largest term reaches 2**(1021 - bits), near overflow, go to
    math.fsum itself, and with them its exceptions, its order-dependent
    handling of special values and its sign of zero.
    """
    n = x.size
    if n < _FSUM_MAX_TERMS:
        return math.fsum(memoryview(x))
    bits = (n + 1).bit_length()
    m = max(x.max(), -x.min())  # nan propagates through both
    if not 0.0 < m < math.ldexp(1.0, 1021 - bits):
        return math.fsum(memoryview(x))
    totals: list[float] = []
    r = np.array(x)  # the passes work in place
    q = np.empty_like(r)
    sigma = math.ldexp(1.0, math.frexp(m)[1] + bits)
    for _ in range(_MAX_PASSES):
        np.add(r, sigma, out=q)
        q -= sigma
        totals.append(float(q.sum()))
        r -= q
        m = max(r.max(), -r.min())
        if m == 0.0:
            return math.fsum(totals)
        sigma = math.ldexp(1.0, math.frexp(m)[1] + bits)
        above = math.fsum([*totals, sigma])
        if above == math.fsum([*totals, -sigma]):
            return above
    totals.extend(memoryview(r))
    return math.fsum(totals)

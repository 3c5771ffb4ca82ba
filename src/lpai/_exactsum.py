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

The array functions work in a scratch that each thread keeps: one float64
buffer per use (triple_product_rows' column blocks, the recoil pair terms of
phase._pair_terms, array_fsum's working copies), grown on demand to at most
_SCRATCH_MAX floats; a larger request gets a fresh array.  Without it every
long recoil sum allocates megabytes of temporaries, the allocator hands them
back to the system, and the next sum faults them in again: 393 page faults
and 0.7 ms of system time in a 2.1 ms 100-pulse beat.  The scratch is per
thread because numpy releases the GIL inside its loops, so threads sharing
one buffer would race.
"""

from __future__ import annotations

import math
import threading
from typing import TYPE_CHECKING, Callable

from .errors import NonFiniteResultError

if TYPE_CHECKING:
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


# Largest buffer, in float64 elements (8 MiB), that a thread keeps for one use.
_SCRATCH_MAX = 1 << 20


class _Scratch(threading.local):
    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}


_scratch = _Scratch()


def scratch(use: str, size: int) -> np.ndarray:
    """size uninitialised float64 elements of this thread's buffer for use.

    The next request for the same use in the same thread returns the same
    memory, so a caller must be done with the array by then.  Requests above
    _SCRATCH_MAX get a fresh array that nothing keeps.
    """
    buffer = _scratch.buffers.get(use)
    if buffer is not None and size <= buffer.size:
        return buffer[:size]
    import numpy as np

    if size > _SCRATCH_MAX:
        return np.empty(size)
    # Powers of two keep regrowing rare; np.empty leaves the unused tail
    # untouched, so it costs address space, not memory.
    buffer = _scratch.buffers[use] = np.empty(min(1 << (size - 1).bit_length(), _SCRATCH_MAX))
    return buffer[:size]


# The two steps of two_product, for the array form; they write into the
# arrays they are given.  two_product keeps them inline: on Python floats
# the extra calls would make it half as slow again.
def _split(a: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> None:
    """Veltkamp's split of a into hi + lo == a exactly."""
    import numpy as np

    np.multiply(a, _SPLIT, out=hi)  # c
    np.subtract(hi, a, out=lo)  # c - a
    np.subtract(hi, lo, out=hi)
    np.subtract(a, hi, out=lo)


def _product_error(p, ah, al, bh, bl, out: np.ndarray, tmp: np.ndarray) -> None:
    """Exact a*b - p for p = fl(a*b), from the splits of a and b, into out.

    The operations are those of ((ah*bh - p) + ah*bl + al*bh) + al*bl.
    """
    import numpy as np

    np.multiply(ah, bh, out=out)
    np.subtract(out, p, out=out)
    for u, v in ((ah, bl), (al, bh), (al, bl)):
        np.multiply(u, v, out=tmp)
        np.add(out, tmp, out=out)


# Columns per block of triple_product_rows.  Its block scratch, twelve rows
# of at most this many floats (1.5 MiB), fits a 2 MiB L2 cache, and a
# 100-pulse recoil sum (9900 columns) is one block.  Per-call overhead
# dominates smaller blocks: a 100-pulse S took 0.74-0.77/0.71-0.73/0.59-0.62
# ms (best of 7, two runs) with blocks of 4096/8192/16384 columns (2-CPU
# x86-64, numpy 2.4).
_BLOCK = 1 << 14


def triple_product_rows(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """triple_product_terms(x[0], x[1], x[2]) for a (3, n) float64 array.

    Writes the terms q, g, f, h, bit for bit, as the rows of out, a (4, n)
    float64 array that does not overlap x, or of a new array when out is
    None, and returns it.  The columns go in blocks of _BLOCK through this
    thread's scratch, so nothing is allocated that grows with n.  One split
    serves both first-stage factors and one the two first-stage terms
    together with c, so a block costs about thirty numpy operations.
    """
    import numpy as np

    n = x.shape[1]
    if out is None:
        out = np.empty((4, n))
    work = scratch("triple_product_rows", 12 * min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        # Rows p, e, c, c, and the hi and lo parts of their splits.
        y, hi, lo = work[: 12 * (stop - start)].reshape(3, 4, -1)
        a, b, c = x[:, start:stop]
        # The splits of a and b sit in the first rows of hi and lo until
        # the split of y replaces them.
        _split(x[:2, start:stop], hi[:2], lo[:2])
        np.multiply(a, b, out=y[0])
        _product_error(y[0], hi[0], lo[0], hi[1], lo[1], y[1], y[2])
        y[2:] = c
        _split(y, hi, lo)
        products, errors = out[:2, start:stop], out[2:, start:stop]  # q, g, then f, h
        np.multiply(y[:2], y[2:], out=products)
        # p and e are spent: their rows take the partial products.
        _product_error(products, hi[:2], lo[:2], hi[2:], lo[2:], errors, y[:2])
    return out


# Below this many terms math.fsum is faster than the extraction passes.  On
# the pair terms of random closed sequences the two cross near 730 terms, 14
# pulses (2-CPU x86-64 machine, numpy 2.4, best of 9 alternating rounds:
# math.fsum 14.7/22.3/35.1/85.3 us, extraction 21.8/22.6/25.9/28.6 us at
# 528/728/960/2024 terms), with or without the scratch.
_FSUM_MAX_TERMS = 1024
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
    import numpy as np

    n = x.size
    if n < _FSUM_MAX_TERMS:
        return math.fsum(memoryview(x))
    bits = (n + 1).bit_length()
    m = max(x.max(), -x.min())  # nan propagates through both
    if not 0.0 < m < math.ldexp(1.0, 1021 - bits):
        return math.fsum(memoryview(x))
    totals: list[float] = []
    work = scratch("array_fsum", 2 * n)
    r, q = work[:n], work[n:]
    np.copyto(r, x)  # the passes work in place
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


def checked_sum(sum_fn: Callable, *args):
    """sum_fn(*args), with an exact sum's overflow as NonFiniteResultError.

    math.fsum raises ValueError ("-inf + inf in fsum") when its terms hold
    infinities of both signs and OverflowError ("intermediate overflow in
    fsum") when finite terms sum beyond the float range; both are re-raised
    as NonFiniteResultError with the same message, so the CLI exits 3.
    """
    try:
        return sum_fn(*args)
    except (ValueError, OverflowError) as exc:
        raise NonFiniteResultError(str(exc)) from exc

"""Exact sums over a pulse table, and correctly rounded float sums.

PulseTable reads a sequence's times and wave numbers once per call; the
closure scales and the gravito-recoil sum are formed there too.  It puts them
on common power-of-two integer scales and forms in one integer pass the closure
moments and the recoil double sum S over exact time differences; each is
rounded once (CPython's int / int true division rounds correctly, subnormals
included).  S is defined over the rounded differences fl(t_n - t_l), whose
rounding errors are exact floats (TwoSum).  One scalar loop sums them,
weighted, exactly in integers: below _ARRAY_MIN_PULSES always, from there
on only when an array-pass estimate with a rigorous error bound straddles a
rounding boundary (exact integer and expansion sums: Shewchuk, Discrete
Comput. Geom. 18, 1997).  exact_dot sums float products exactly in integers
too.  fsum_or_exact is the one rule for correctly rounded sums of terms:
math.fsum where it is finite, else exact_dot over the terms' factors; the
gravito-recoil, laser and oracle window sums all go through it.

two_product is Dekker's error-free product (Numer. Math. 18, 1971), exact
unless a split or the product overflows or a*b of nonzero a and b falls
below 2**-968 in magnitude; on float64 arrays it runs the same float
operations elementwise.

The array passes of a long table work in a float64 scratch that each
thread keeps, one buffer per use: freshly allocated temporaries would be
faulted in again on every call, and threads sharing a buffer would race, as
numpy releases the GIL inside its loops.
"""

from __future__ import annotations

import math
import operator
import threading
from typing import TYPE_CHECKING, Callable

from .errors import NonFiniteResultError

if TYPE_CHECKING:
    import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1, splits a 53-bit significand into two halves


def two_product(a: float, b: float) -> tuple[float, float]:
    """Return (p, e) with p = fl(a*b) and, barring overflow and underflow, p + e == a*b."""
    p = a * b
    ac = _SPLIT * a
    ah = ac - (ac - a)
    al = a - ah
    bc = _SPLIT * b
    bh = bc - (bc - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


# Largest buffer, in float64 elements (8 MiB), that a thread keeps for one use.
_SCRATCH_MAX = 1 << 20


class _Scratch(threading.local):
    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}


_scratch = _Scratch()


def scratch(use: str, size: int) -> np.ndarray:
    """size uninitialised float64 elements of this thread's buffer for use.

    A request larger than the buffer replaces it with one of exactly size
    elements; a smaller one gets a view of its head.  The next request for
    the same use in the same thread returns the same memory, so a caller
    must be done with the array by then.  Requests above _SCRATCH_MAX get a
    fresh array that nothing keeps.
    """
    buffer = _scratch.buffers.get(use)
    if buffer is not None and size <= buffer.size:
        return buffer[:size]
    import numpy as np

    if size > _SCRATCH_MAX:
        return np.empty(size)
    buffer = _scratch.buffers[use] = np.empty(size)
    return buffer


# --- exact integer sums over a pulse table -----------------------------------

# Pulse count from which PulseTable reads its fields with np.frexp and
# estimates the recoil correction in array passes; the scalar conversion and
# the exact correction loop are faster below it.
_ARRAY_MIN_PULSES = 20
# Pair-matrix elements per row block of _correction_array: its five blocks
# (at most 2.5 MiB) sit in the thread's scratch; 100 pulses are one block.
_CORRECTION_CHUNK = 1 << 16
_NOT_FINITE = "exact sums need finite pulse times and wave numbers"
_MOMENT_NAMES = (("closure moment sum(dk)", "/m"), ("closure moment sum(t dk)", "s/m"),
                 ("closure moment sum(t^2 dk)", "s^2/m"))


def _rounded(num: int, exp: int, what: str, unit: str) -> float:
    """num * 2**exp for exp <= 0, correctly rounded; NonFiniteResultError beyond the float range."""
    try:
        return num / (1 << -exp)
    except OverflowError:
        magnitude = abs(num).bit_length() - 1 + exp
        raise NonFiniteResultError(
            f"{what} overflows: its magnitude is at least 2**{magnitude} {unit}"
        ) from None


def _integers(xs: list[float]) -> tuple[list[int], int]:
    """Integers X_i and one exponent e <= 0 with xs[i] == X_i * 2**e exactly."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = max([d for _, d in ratios], default=1)
    return [n * (den // d) for n, d in ratios], 1 - den.bit_length()


def exact_dot(xs: list[float], ys: list[float], what: str, unit: str) -> float:
    """sum of float(x) * float(y) over the pairs, correctly rounded.

    An inf or nan factor, or a sum beyond the float range, raises
    NonFiniteResultError; what and unit name the sum in its message.
    """
    try:
        (X, ex), (Y, ey) = _integers([float(x) for x in xs]), _integers([float(y) for y in ys])
    except (OverflowError, ValueError):  # as_integer_ratio of an inf or a nan
        raise NonFiniteResultError(f"{what} has a factor that is not finite") from None
    return _rounded(sum(x * y for x, y in zip(X, Y)), ex + ey, what, unit)


def fsum_or_exact(terms, factors: Callable[[], tuple], what: str, unit: str) -> float:
    """math.fsum(terms) where it is finite, else exact_dot(*factors(), what, unit).

    terms None goes straight to the exact sum; factors is called only when
    the exact sum runs, so a caller builds its factor lists only then.
    """
    if terms is not None:
        try:
            total = math.fsum(terms)
        except (ValueError, OverflowError):  # inf - inf, or partial sums beyond the floats
            total = math.nan
        if math.isfinite(total):
            return total
    return exact_dot(*factors(), what, unit)


def _integers_array(fields: np.ndarray) -> tuple[list[int], int, list[int], int]:
    """(T, et, K, ek): _integers of the times and of both wave-number rows of a
    finite (3, n) float64 array, from one np.frexp pass."""
    import numpy as np

    frac, exp = np.frexp(fields)
    exp = np.where(frac != 0.0, exp - 53, 0)  # a zero lies on every grid
    et, ek = int(exp[0].min(initial=0)), int(exp[1:].min(initial=0))
    shifts = (exp - np.array([[et], [ek], [ek]])).ravel().tolist()
    mants = np.ldexp(frac, 53).astype(np.int64).ravel().tolist()
    ints, n = [m << s for m, s in zip(mants, shifts)], fields.shape[1]
    return ints[:n], et, ints[n:], ek


def _correction_array(t: np.ndarray, k: np.ndarray) -> tuple[float, float, bool]:
    """(estimate, bound, inexact) of R = sum over l < n of c_nl * r_nl, for t
    of shape (n,) and k = (ku, kl) of shape (n, 2).

    c_nl = ku_n ku_l - kl_n kl_l; r_nl = (t_n - t_l) - fl(t_n - t_l) is exact
    by TwoSum.  R lies within bound of the estimate; inexact says whether an
    r_nl is nonzero.  The r_nl form the strictly lower triangle of
    an n x n matrix, built in blocks of rows that matrix products with k and
    |k| sum.  Every step takes whole blocks: numpy would buffer a broadcast
    operand, 128 KiB a call.
    """
    import numpy as np

    n = t.size
    rows = max(1, min(n, _CORRECTION_CHUNK // n))
    work = scratch("_correction_array", 5 * rows * n)
    index, abs_k = np.arange(n, dtype=float), np.abs(k)
    y, y_abs = np.empty((n, 2)), np.empty((n, 2))
    inexact = False
    # Beyond the float range the estimate or the weight comes out inf or nan
    # and recoil_sum sums exactly; numpy's warnings would only repeat that.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            stop = min(start + rows, n)  # rows start:stop, columns :stop
            a, b, r, bb, upper = work[: 5 * (stop - start) * stop].reshape(5, stop - start, stop)
            np.copyto(a, t[start:stop, None])
            np.copyto(b, t[:stop])
            np.subtract(a, b, out=r)  # d = fl(t_n - t_l)
            np.subtract(r, a, out=bb)
            r -= bb
            np.subtract(a, r, out=r)
            bb += b
            r -= bb  # TwoSum's error (t_n - (d - bb)) - (t_l + bb)
            np.copyto(a, index[start:stop, None])
            np.copyto(b, index[:stop])
            upper = upper.view(bool)[:, :stop]
            np.less_equal(a, b, out=upper)
            np.copyto(r, 0.0, where=upper)
            inexact = inexact or bool(r.any())
            np.matmul(r, k[:stop], out=y[start:stop])
            np.abs(r, out=r)
            np.matmul(r, abs_k[:stop], out=y_abs[start:stop])
        est = float(k[:, 0] @ y[:, 0] - k[:, 1] @ y[:, 1])
        weight = float(abs_k[:, 0] @ y_abs[:, 0] + abs_k[:, 1] @ y_abs[:, 1])
    # weight sums |ku_n r_nl ku_l| + |kl_n r_nl kl_l|, R's terms' magnitudes.
    # A term passes at most 2n + 1 roundings of relative error u = 2**-53: the
    # estimate is within gamma_(2n+1) = (2n + 1)u / (1 - (2n + 1)u) of R's
    # weight, the computed weight within that factor of the true one.  Each of
    # n*n underflowing products, later scaled by at most kappa = max |k|, and
    # of 2n others adds at most 2**-1075.  bound is twice all that or more.
    kappa = float(abs_k.max())
    bound = (4 * n + 8) * 2.0**-52 * weight + (n * n * kappa + n) * 2.0**-1070
    return est, bound, inexact


def _settled(s: int, exp: int, est: float, bound: float) -> float | None:
    """The float of s * 2**exp - x for every x within bound of est, else None.

    Rounding is monotone: when both ends of the interval round to the same
    float, sign of zero included, every point in it does.
    """
    if not (math.isfinite(est) and math.isfinite(bound)):
        return None
    (m_est, d_est), (m_bound, d_bound) = est.as_integer_ratio(), bound.as_integer_ratio()
    den = max(1 << -exp, d_est, d_bound)  # all powers of two
    centre = s * (den >> -exp) - m_est * (den // d_est)
    width = m_bound * (den // d_bound)
    try:
        lo, hi = (centre - width) / den, (centre + width) / den
    except OverflowError:
        return None
    return lo if lo == hi and math.copysign(1.0, lo) == math.copysign(1.0, hi) else None


class PulseTable:
    """A pulse sequence's times and wave numbers, read once per call, and their sums.

    The fields are read through float() into three lists, or from
    _ARRAY_MIN_PULSES on into a (3, n) float64 array of t, k_upper and
    k_lower; a non-finite one, or an int beyond the float range, is refused.
    A table serves one call: closure_check reads its moments and scales,
    recoil_double_sum its S and gravito_sum its fields.  The moments and S
    come from one integer pass, which an array table runs on first use:
    t_i = T_i * 2**et and k_i = K_i * 2**ek on both branches (et, ek <= 0),
    S over exact differences as sum_n K_n (T_n sum_{l<n} K_l - sum_{l<n} K_l T_l).
    """

    # True where an array table's wave numbers are all floats: the difference
    # of its k rows is then each Pulse.delta_k, which subtracts other numbers
    # (ints beyond 2**53, say) exactly before it rounds.
    float_k = False

    def __init__(self, pulses) -> None:
        self.pulses = pulses
        self.array = len(pulses) >= _ARRAY_MIN_PULSES
        self._s = None
        ku, kl = [p.k_upper for p in pulses], [p.k_lower for p in pulses]
        if self.array:
            self.float_k = {*map(type, ku), *map(type, kl)} <= {float}
        try:
            t = [float(p.t) for p in pulses]
            if not self.float_k:
                ku, kl = list(map(float, ku)), list(map(float, kl))
        except OverflowError:  # an int beyond the float range
            raise NonFiniteResultError(_NOT_FINITE) from None
        if not self.array:
            self.fields = [t, ku, kl]
            self._integer_pass()  # its conversion refuses a non-finite field
            return
        import numpy as np

        self.fields = np.array([t, ku, kl])
        if not np.isfinite(self.fields).all():
            raise NonFiniteResultError(_NOT_FINITE)

    def scales(self) -> tuple[float, float]:
        """Largest |k| and largest |t| * |k| over the pulses and both branches; 0.0 if none.

        Rounding is monotone and sign-symmetric, so the largest |t| * |k| is
        also the largest |t * k| and the largest |t| times a pulse's larger |k|.
        """
        if self.array:
            import numpy as np

            a = np.abs(self.fields)
            with np.errstate(over="ignore"):  # an inf scale leaves every moment within tolerance
                return float(a[1:].max(initial=0.0)), float((a[0] * a[1:]).max(initial=0.0))
        t, ku, kl = self.fields
        k = ku + kl
        return max(map(abs, k), default=0.0), max(map(abs, map(operator.mul, t + t, k)), default=0.0)

    def gravito_sum(self, g: float, z0: float, v0: float) -> float:
        """sum of Pulse.delta_k * z_g(t), z_g = z0 + t (v0 - g t / 2) as
        kinematics.gravity_trajectory rounds it, correctly rounded.

        The fsum of Dekker's products, or their exact sum where a nonzero
        product falls below 2**-968 or a split or a product overflows.  A loop
        forms the terms below _ARRAY_MIN_PULSES and where a wave number is not
        a float; otherwise the same float operations run elementwise over the
        field array, terms in the loop's order, so both give the same bits.  A
        delta_k, a z_g or a sum beyond the float range raises
        NonFiniteResultError.
        """
        terms = []
        if self.array and self.float_k:
            import numpy as np

            times, ku, kl = self.fields
            g, z0, v0 = float(g), float(z0), float(v0)
            with np.errstate(over="ignore", invalid="ignore"):  # refused by the exact sum instead
                dks = ku - kl
                zgs = z0 + times * (v0 - 0.5 * g * times)
                product, error = two_product(dks, zgs)
                tiny = (abs(product) < 2.0**-968) & (dks != 0.0) & (zgs != 0.0)
            terms = None if tiny.any() else memoryview(np.column_stack((product, error)).ravel())
        else:
            try:
                for p in self.pulses:
                    # two_product would read an int delta_k through float() too
                    dk, zg = float(p.delta_k), z0 + p.t * (v0 - 0.5 * g * p.t)
                    product, error = two_product(dk, zg)
                    if abs(product) < 2.0**-968 and dk and zg:
                        terms = None
                        break
                    terms += product, error
            except OverflowError:  # an int delta_k beyond the float range, which exact_dot refuses
                terms = None

        def factors():
            pulses = self.pulses
            return [p.delta_k for p in pulses], [z0 + p.t * (v0 - 0.5 * g * p.t) for p in pulses]

        return fsum_or_exact(terms, factors, "gravito-recoil sum of dk * z_g", "rad")

    def _integer_pass(self) -> None:
        """Put the fields on their integer scales and form the moments and S, once."""
        if self._s is not None:
            return
        n = len(self.pulses)
        if self.array:
            self._T, self._et, k_ints, self._ek = _integers_array(self.fields)
        else:
            try:
                self._T, self._et = _integers(self.fields[0])
                k_ints, self._ek = _integers(self.fields[1] + self.fields[2])
            except (OverflowError, ValueError):  # as_integer_ratio of an inf or a nan
                raise NonFiniteResultError(_NOT_FINITE) from None
        self._KU, self._KL = k_ints[:n], k_ints[n:]
        sums = []
        for branch in (self._KU, self._KL):
            k_sum = tk_sum = ttk_sum = s = 0
            for t_i, k in zip(self._T, branch):
                if k:
                    tk = k * t_i
                    s += k * (t_i * k_sum - tk_sum)
                    k_sum += k
                    tk_sum += tk
                    ttk_sum += tk * t_i
            sums.append((k_sum, tk_sum, ttk_sum, s))
        *self._moment_ints, self._s = (upper - lower for upper, lower in zip(*sums))

    def moments(self) -> tuple[float, float, float]:
        """sum(dk), sum(t dk), sum(t^2 dk), correctly rounded, or NonFiniteResultError."""
        self._integer_pass()
        et, ek = self._et, self._ek
        return tuple(
            _rounded(m, exp, *what)
            for m, exp, what in zip(self._moment_ints, (ek, et + ek, 2 * et + ek), _MOMENT_NAMES)
        )

    def recoil_sum(self) -> float:
        """S = sum over l < n of (k1_n k1_l - k2_n k2_l) fl(t_n - t_l), correctly rounded.

        S is the sum over exact differences minus R = sum c_nl r_nl over their
        rounding errors.  Below _ARRAY_MIN_PULSES R is summed exactly; from
        there on it is estimated in array passes with an error bound and
        summed exactly only when the bound leaves S's rounding open.
        NonFiniteResultError when a time difference overflows or S lies
        beyond the float range.
        """
        t = self.fields[0]
        if len(self.pulses) < 2:
            return 0.0
        hi, lo = map(float, (t.max(), t.min()) if self.array else (max(t), min(t)))
        if not math.isfinite(hi - lo):
            raise NonFiniteResultError(
                f"pulse times {hi!r} s and {lo!r} s are too far apart: their difference overflows"
            )
        self._integer_pass()
        s, exp = self._s, self._et + 2 * self._ek
        if not self.array:
            s -= self._exact_correction()
        else:
            est, bound, inexact = _correction_array(t, self.fields[1:].T.copy())
            if inexact:
                settled = _settled(s, exp, est, bound)
                if settled is not None:
                    return settled
                s -= self._exact_correction()
        return _rounded(s, exp, "recoil double sum S", "s/m^2")

    def _exact_correction(self) -> int:
        """R = sum over l < n of c_nl r_nl, in units of 2**(et + 2 ek).

        Each r_nl is TwoSum's exact error of fl(t_n - t_l), which lies on the
        grid 2**et as t_n - t_l does; only a nonzero r_nl is put on that grid.
        TwoSum's steps do not overflow where the difference does not (Boldo,
        Graillat & Muller, ACM Trans. Math. Softw. 44, 2017).
        """
        t, KU, KL = list(map(float, self.fields[0])), self._KU, self._KL
        grid, total = 1 << -self._et, 0
        for n in range(1, len(t)):
            tn = t[n]
            yu = yl = 0
            for tl, ku, kl in zip(t[:n], KU, KL):
                d = tn - tl
                bb = d - tn
                r = (tn - (d - bb)) - (tl + bb)
                if r:
                    num, den = r.as_integer_ratio()
                    r = num * (grid // den)
                    yu += r * ku
                    yl += r * kl
            total += KU[n] * yu - KL[n] * yl
        return total

"""Certified interval arithmetic over exact rational endpoints.

Every quantity that feeds a strict inequality elsewhere in the package (floor
certification, constant thresholds, Lemma-style unit bounds) is carried as a
``RealInterval`` with ``fractions.Fraction`` endpoints.  Ring operations are
exact; only the transcendental constructors (pi, log, exp, roots) round, and
they always round *outward*, so a true value contained in the inputs is
contained in the output.  Precision is a bit count: log, exp and pi are
tightened to roughly 2^-prec relative width, while n-th roots round to the
grid of multiples of 2^-prec, an absolute width.

The hot kernels run on Python ints: relative rounding (``_round_rel``) and
the Horner evaluation ``eval_poly_interval`` carry integer numerators over a
common denominator and build ``Fraction``s once, with endpoints identical to
the ``Fraction`` definitions.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Union

Rat = Union[int, Fraction]

DEFAULT_PREC = 128


def _round_rel(n: int, d: int, prec: int) -> tuple[int, int]:
    """(m, s) with m/2^s = floor(x 2^s) for x = n/d (d > 0) and
    s = max(prec - floor(log2|x|), 0): x rounded toward -inf keeping ~prec
    significant bits, never to zero, and to floor(x) once |x| >= 2^prec."""
    if n == 0:
        return 0, 0
    a = abs(n)
    e = a.bit_length() - d.bit_length()  # |x| lies in (2^(e-1), 2^(e+1))
    if (d << e if e >= 0 else d) > (a if e >= 0 else a << -e):
        e -= 1
    s = max(prec - e, 0)
    return (n << s) // d, s


def round_down_rel(x: Fraction, prec: int) -> Fraction:
    """Round toward -inf keeping ~prec significant bits (never to zero)."""
    m, s = _round_rel(x.numerator, x.denominator, prec)
    return Fraction(m, 1 << s)


def round_up_rel(x: Fraction, prec: int) -> Fraction:
    m, s = _round_rel(-x.numerator, x.denominator, prec)
    return Fraction(-m, 1 << s)


class RealInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat | None = None):
        lo = lo if isinstance(lo, Fraction) else Fraction(lo)
        hi = lo if hi is None else hi if isinstance(hi, Fraction) else Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        self.lo = lo
        self.hi = hi

    # -- constructors -------------------------------------------------------

    @staticmethod
    def exact(q: Rat) -> "RealInterval":
        q = Fraction(q)
        return RealInterval(q, q)

    # -- predicates ---------------------------------------------------------

    def is_exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q: Rat) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi

    def straddles_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    # certified comparisons: True only when provable from the endpoints
    def certainly_lt(self, other: "RealInterval | Rat") -> bool:
        o = other if isinstance(other, RealInterval) else RealInterval.exact(other)
        return self.hi < o.lo

    def certainly_gt(self, other: "RealInterval | Rat") -> bool:
        o = other if isinstance(other, RealInterval) else RealInterval.exact(other)
        return self.lo > o.hi

    def certainly_positive(self) -> bool:
        return self.lo > 0

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    # -- exact ring operations ----------------------------------------------

    def __add__(self, other: "RealInterval | Rat") -> "RealInterval":
        o = other if isinstance(other, RealInterval) else RealInterval.exact(other)
        return RealInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "RealInterval":
        return RealInterval(-self.hi, -self.lo)

    def __sub__(self, other: "RealInterval | Rat") -> "RealInterval":
        o = other if isinstance(other, RealInterval) else RealInterval.exact(other)
        return RealInterval(self.lo - o.hi, self.hi - o.lo)

    def __mul__(self, other: "RealInterval | Rat") -> "RealInterval":
        o = other if isinstance(other, RealInterval) else RealInterval.exact(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RealInterval(min(products), max(products))

    __rmul__ = __mul__

    def inverse(self) -> "RealInterval":
        if self.straddles_zero():
            raise ZeroDivisionError("interval straddles zero")
        return RealInterval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other: "RealInterval | Rat") -> "RealInterval":
        o = other if isinstance(other, RealInterval) else RealInterval.exact(other)
        return self * o.inverse()

    def abs(self) -> "RealInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RealInterval(0, max(-self.lo, self.hi))

    def square(self) -> "RealInterval":
        a = self.abs()
        return RealInterval(a.lo * a.lo, a.hi * a.hi)

    def pow_int(self, n: int) -> "RealInterval":
        if n == 0:
            return RealInterval.exact(1)
        if n < 0:
            return self.pow_int(-n).inverse()
        result = RealInterval.exact(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def max_with(self, other: "RealInterval | Rat") -> "RealInterval":
        o = other if isinstance(other, RealInterval) else RealInterval.exact(other)
        return RealInterval(max(self.lo, o.lo), max(self.hi, o.hi))

    def rounded(self, prec: int) -> "RealInterval":
        """Outward-round endpoints keeping ~prec significant bits.

        Keeps denominators bounded in long exact computation chains without
        flushing tiny magnitudes to zero.
        """
        return RealInterval(round_down_rel(self.lo, prec), round_up_rel(self.hi, prec))

    def __repr__(self) -> str:
        if self.is_exact():
            return f"RealInterval({self.lo})"
        return f"RealInterval({float(self.lo)!r}, {float(self.hi)!r})"


# ---------------------------------------------------------------------------
# roots


def _int_nth_root_floor(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0 by Newton iteration on integers."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    x = 1 << (-(-n.bit_length() // k))  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    return x


def sqrt_interval(x: "RealInterval | Rat", prec: int = DEFAULT_PREC) -> RealInterval:
    """Certified square root, rounded outward to multiples of 2^-prec (an
    absolute width, as for nth_root_interval)."""
    return nth_root_interval(x, 2, prec)


def nth_root_interval(x: "RealInterval | Rat", n: int, prec: int = DEFAULT_PREC) -> RealInterval:
    """Certified n-th root of a nonnegative interval.

    Inexact endpoints round outward to multiples of 2^-prec: the width is
    about 2^-prec absolute, not relative, so the root of a value below
    2^-(n*prec) has lower endpoint 0.  Exact endpoints that are perfect n-th
    powers of rationals stay exact, so e.g. sqrt(25/4) is the point 5/2.
    """
    xi = x if isinstance(x, RealInterval) else RealInterval.exact(x)
    if xi.lo < 0:
        raise ValueError("n-th root of negative interval")

    def root(q: Fraction, up: bool) -> Fraction:
        """q^(1/n): exact when q is the n-th power of a rational, else rounded
        down (or up) to a multiple of 2^-prec."""
        rn = _int_nth_root_floor(q.numerator, n)
        rd = _int_nth_root_floor(q.denominator, n)
        if rn ** n == q.numerator and rd ** n == q.denominator:
            return Fraction(rn, rd)
        num = q.numerator << (n * prec)
        scaled = -(-num // q.denominator) if up else num // q.denominator
        r = _int_nth_root_floor(scaled, n)
        return Fraction(r + 1 if up and r ** n < scaled else r, 1 << prec)

    return RealInterval(root(xi.lo, False), root(xi.hi, True))


# ---------------------------------------------------------------------------
# transcendental constants and functions, all via series with explicit tails


@lru_cache(maxsize=None)
def pi_interval(prec: int = DEFAULT_PREC) -> RealInterval:
    """Machin's formula; atan partial sums of an alternating series bracket."""

    def atan_brackets(inv: int, terms: int) -> tuple[Fraction, Fraction]:
        # atan(1/inv); alternating series, consecutive partial sums bracket
        x = Fraction(1, inv)
        term = x
        s = Fraction(0)
        lo = hi = None
        x2 = x * x
        for k in range(terms):
            s += term if k % 2 == 0 else -term
            if k % 2 == 0:
                hi = s
            else:
                lo = s
            term *= x2 / Fraction(2 * k + 3) * Fraction(2 * k + 1)
        assert lo is not None and hi is not None
        return lo, hi

    # term magnitude ~ inv^-(2k+1); pick enough terms for 2^-(prec+16)
    t5 = (prec + 24) // 4 + 4      # log2(25) ~ 4.6 per term
    t239 = (prec + 24) // 15 + 4   # log2(239^2) ~ 15.8 per term
    lo5, hi5 = atan_brackets(5, max(t5, 4))
    lo239, hi239 = atan_brackets(239, max(t239, 4))
    lo = 16 * lo5 - 4 * hi239
    hi = 16 * hi5 - 4 * lo239
    return RealInterval(lo, hi).rounded(prec + 8)


def _atanh_brackets(t: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """atanh(t) for |t| < 1/2: positive series with geometric tail bound."""
    sign = 1
    if t < 0:
        sign = -1
        t = -t
    t2 = t * t
    term = t
    s = Fraction(0)
    k = 0
    bound = Fraction(1, 1 << (prec + 16))
    while True:
        s += term / (2 * k + 1)
        term *= t2
        k += 1
        # remaining tail <= term/(2k+1) * 1/(1-t2) <= term * 2
        if term * 2 <= bound:
            break
        if k > 4 * prec + 64:
            raise RuntimeError("atanh series failed to converge")
    tail = term * 2
    if sign > 0:
        return s, s + tail
    return -(s + tail), -s


@lru_cache(maxsize=None)
def ln2_interval(prec: int = DEFAULT_PREC) -> RealInterval:
    lo, hi = _atanh_brackets(Fraction(1, 3), prec)
    return RealInterval(2 * lo, 2 * hi).rounded(prec + 8)


def _log_point(q: Fraction, prec: int) -> RealInterval:
    """Certified enclosure of log(q) for an exact rational q > 0."""
    if q <= 0:
        raise ValueError("log of nonpositive value")
    if q == 1:
        return RealInterval.exact(0)
    # normalize q = m * 2^k with m in [3/4, 3/2)
    k = 0
    m = q
    while m >= Fraction(3, 2):
        m /= 2
        k += 1
    while m < Fraction(3, 4):
        m *= 2
        k -= 1
    t = (m - 1) / (m + 1)  # |t| <= 1/5
    lo_a, hi_a = _atanh_brackets(t, prec)
    l2 = ln2_interval(prec)
    res = RealInterval(2 * lo_a, 2 * hi_a) + l2 * k
    return res.rounded(prec + 8)


def log_interval(x: "RealInterval | Rat", prec: int = DEFAULT_PREC) -> RealInterval:
    xi = x if isinstance(x, RealInterval) else RealInterval.exact(x)
    if xi.lo <= 0:
        raise ValueError("log of interval touching zero")
    if xi.is_exact():
        return _log_point(xi.lo, prec)
    return RealInterval(_log_point(xi.lo, prec).lo, _log_point(xi.hi, prec).hi)


def _exp_point_brackets(q: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """Brackets for exp(q) at an exact rational q."""
    if q == 0:
        return Fraction(1), Fraction(1)
    # argument reduction: exp(q) = exp(q/2^m)^(2^m) with |q/2^m| <= 1/2
    m = 0
    r = q
    while abs(r) > Fraction(1, 2):
        r /= 2
        m += 1
    term = Fraction(1)
    s = Fraction(0)
    k = 0
    bound = Fraction(1, 1 << (prec + 16 + m))
    while True:
        s += term
        k += 1
        term *= r / k
        if abs(term) * 2 <= bound:
            break
        if k > 4 * prec + 64:
            raise RuntimeError("exp series failed to converge")
    tail = abs(term) * 2  # remaining tail bounded by first omitted term * 2
    lo, hi = s - tail, s + tail
    lo = max(lo, Fraction(0))
    for _ in range(m):
        lo, hi = lo * lo, hi * hi
        lo = round_down_rel(lo, prec + 16)
        hi = round_up_rel(hi, prec + 16)
    return lo, hi


def exp_interval(x: "RealInterval | Rat", prec: int = DEFAULT_PREC) -> RealInterval:
    xi = x if isinstance(x, RealInterval) else RealInterval.exact(x)
    lo, _ = _exp_point_brackets(xi.lo, prec)
    if xi.is_exact():
        _, hi = _exp_point_brackets(xi.lo, prec)
    else:
        _, hi = _exp_point_brackets(xi.hi, prec)
    return RealInterval(lo, hi).rounded(prec + 8)


# ---------------------------------------------------------------------------
# complex rectangles


class ComplexInterval:
    """Axis-aligned rectangle re x im enclosing a complex value."""

    __slots__ = ("re", "im")

    def __init__(self, re: "RealInterval | Rat", im: "RealInterval | Rat" = 0):
        self.re = re if isinstance(re, RealInterval) else RealInterval.exact(re)
        self.im = im if isinstance(im, RealInterval) else RealInterval.exact(im)

    @staticmethod
    def exact(re: Rat, im: Rat = 0) -> "ComplexInterval":
        return ComplexInterval(RealInterval.exact(re), RealInterval.exact(im))

    def conjugate(self) -> "ComplexInterval":
        return ComplexInterval(self.re, -self.im)

    def __add__(self, other: "ComplexInterval | Rat") -> "ComplexInterval":
        o = other if isinstance(other, ComplexInterval) else ComplexInterval.exact(other)
        return ComplexInterval(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __mul__(self, other: "ComplexInterval | Rat") -> "ComplexInterval":
        if isinstance(other, (int, Fraction)):
            return ComplexInterval(self.re * other, self.im * other)
        return ComplexInterval(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def abs_sq(self) -> RealInterval:
        return self.re.square() + self.im.square()

    def abs_interval(self, prec: int = DEFAULT_PREC) -> RealInterval:
        return sqrt_interval(self.abs_sq(), prec)

    def rounded(self, prec: int) -> "ComplexInterval":
        return ComplexInterval(self.re.rounded(prec), self.im.rounded(prec))

    def __repr__(self) -> str:
        return f"ComplexInterval(re={self.re!r}, im={self.im!r})"


def _mul_ends(al: int, ah: int, bl: int, bh: int) -> tuple[int, int]:
    p = (al * bl, al * bh, ah * bl, ah * bh)
    return min(p), max(p)


def eval_poly_interval(nums, q: int, z: ComplexInterval, prec: int) -> ComplexInterval:
    """Horner evaluation of the polynomial with coefficients nums / q (q > 0)
    on a rectangle, each step rounded outward to prec + 16 bits as
    ``ComplexInterval.rounded`` does.

    Runs on integers: z's endpoints over one denominator dz, the coefficients
    over q, the accumulator over 2^s, so a step's exact value lies over
    2^s dz q.  At a real point (z.im exactly 0) the imaginary part stays 0."""
    bits = prec + 16
    zs = (z.re.lo, z.re.hi, z.im.lo, z.im.hi)
    dz = lcm(*(e.denominator for e in zs))
    xl, xh, yl, yh = (e.numerator * (dz // e.denominator) for e in zs)
    rl = rh = il = ih = s = 0
    for c in reversed(nums):
        den = dz * q << s
        cn = c * dz << s
        lo, hi = _mul_ends(rl, rh, xl, xh)
        if yl or yh:
            a, b = _mul_ends(il, ih, yl, yh)
            lo, hi = lo - b, hi - a
            a, b = _mul_ends(rl, rh, yl, yh)
            e, f = _mul_ends(il, ih, xl, xh)
            il, ih = a + e, b + f
        ends = (_round_rel(lo * q + cn, den, bits), _round_rel(-hi * q - cn, den, bits),
                _round_rel(il * q, den, bits), _round_rel(-ih * q, den, bits))
        s = max(t for _, t in ends)
        rl, rh, il, ih = ((m << (s - t)) * sign for (m, t), sign in zip(ends, (1, -1, 1, -1)))
    return ComplexInterval(RealInterval(Fraction(rl, 1 << s), Fraction(rh, 1 << s)),
                           RealInterval(Fraction(il, 1 << s), Fraction(ih, 1 << s)))

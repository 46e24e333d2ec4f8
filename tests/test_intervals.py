import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiccf.fieldspec import bundled_table1_names, load_bundled
from padiccf.intervals import (
    ComplexInterval,
    RealInterval,
    eval_poly_interval,
    exp_interval,
    log_interval,
    ln2_interval,
    nth_root_interval,
    pi_interval,
    sqrt_interval,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=997
)


def _mp_fraction(fn) -> Fraction:
    """High-precision mpmath reference value as a Fraction (50 digits)."""
    with mpmath.workdps(70):
        return Fraction(mpmath.nstr(fn(), 50, strip_zeros=False))


def test_pi_and_ln2_contain_reference():
    ref = _mp_fraction(lambda: mpmath.pi)
    ref2 = _mp_fraction(lambda: mpmath.log(2))
    for prec in (64, 128, 256):
        pi = pi_interval(prec)
        assert pi.lo <= ref + Fraction(1, 10 ** 45)
        assert ref - Fraction(1, 10 ** 45) <= pi.hi
        assert pi.width() <= Fraction(1, 1 << (prec - 4))
        l2 = ln2_interval(prec)
        assert l2.lo <= ref2 + Fraction(1, 10 ** 45) and ref2 - Fraction(1, 10 ** 45) <= l2.hi


@settings(max_examples=80, deadline=None)
@given(rationals)
def test_exp_contains_true_value(q):
    iv = exp_interval(q, 96)
    ref = _mp_fraction(lambda: mpmath.exp(mpmath.mpf(q.numerator) / q.denominator))
    slack = abs(ref) / (1 << 80) + Fraction(1, 1 << 80)
    assert iv.lo - slack <= ref <= iv.hi + slack
    assert iv.lo > 0


@settings(max_examples=80, deadline=None)
@given(rationals.filter(lambda q: q > Fraction(1, 1000)))
def test_log_exp_inverse(q):
    lg = log_interval(q, 96)
    back = exp_interval(lg, 96)
    assert back.lo <= q <= back.hi


def test_sqrt_perfect_square_exact():
    s = sqrt_interval(Fraction(25, 4), 64)
    assert s.is_exact() and s.lo == Fraction(5, 2)
    r = nth_root_interval(Fraction(27, 8), 3, 64)
    assert r.is_exact() and r.lo == Fraction(3, 2)


@settings(max_examples=60, deadline=None)
@given(rationals.filter(lambda q: q > 0), st.integers(min_value=2, max_value=5))
def test_nth_root_encloses(q, n):
    iv = nth_root_interval(q, n, 96)
    assert iv.lo ** n <= q <= iv.hi ** n or iv.is_exact()
    if iv.is_exact():
        assert iv.lo ** n == q


def test_precision_escalation_nests():
    x = Fraction(29966629, 10 ** 7)
    coarse = log_interval(x, 64)
    fine = log_interval(x, 256)
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
    assert fine.width() < coarse.width()


def test_interval_algebra():
    a = RealInterval(Fraction(1), Fraction(2))
    b = RealInterval(Fraction(-3), Fraction(5))
    prod = a * b
    assert prod.lo == -6 and prod.hi == 10
    assert (a - a).contains(0)
    assert a.max_with(b).hi == 5
    with pytest.raises(ZeroDivisionError):
        b.inverse()
    assert (RealInterval(-2, -1)).abs().lo == 1
    assert a.pow_int(3).lo == 1 and a.pow_int(3).hi == 8
    assert a.pow_int(-1).lo == Fraction(1, 2)


def test_certified_comparisons():
    a = RealInterval(Fraction(1), Fraction(2))
    c = RealInterval(Fraction(3), Fraction(4))
    assert a.certainly_lt(c) and not c.certainly_lt(a)
    assert not a.certainly_lt(RealInterval(Fraction(2), Fraction(3)))


def test_complex_interval_abs():
    z = ComplexInterval.exact(Fraction(3), Fraction(4))
    mag = z.abs_interval(64)
    assert mag.is_exact() and mag.lo == 5
    sq = z.abs_sq()
    assert sq.lo == 25


def test_rounded_is_outward():
    a = RealInterval(Fraction(1, 3), Fraction(2, 3))
    r = a.rounded(16)
    assert r.lo <= a.lo and a.hi <= r.hi
    assert r.lo.denominator <= 1 << 20  # ~prec significant bits
    tiny = RealInterval(Fraction(3, 10 ** 40), Fraction(4, 10 ** 40))
    rt = tiny.rounded(64)
    assert rt.lo > 0  # relative rounding never flushes to zero


# Oracle for the integer Horner kernel: the Fraction-interval Horner it
# replaced, with its own copy of the relative rounding rule.


def _oracle_round_down_rel(x: Fraction, prec: int) -> Fraction:
    if x == 0:
        return x
    e = abs(x.numerator).bit_length() - x.denominator.bit_length()
    if Fraction(2) ** e > abs(x):
        e -= 1  # e = floor(log2|x|)
    shift = prec - e
    if shift <= 0:
        return Fraction(math.floor(x))
    return Fraction(math.floor(x * 2 ** shift), 2 ** shift)


def _oracle_round(iv, bits):
    return _oracle_round_down_rel(iv[0], bits), -_oracle_round_down_rel(-iv[1], bits)


def _oracle_mul(a, b):
    products = [x * y for x in a for y in b]
    return min(products), max(products)


def _oracle_horner(coeffs, z, prec):
    """(re lo, re hi, im lo, im hi) of Horner on (lo, hi) Fraction pairs,
    each step rounded outward to prec + 16 bits."""
    re, im = (z.re.lo, z.re.hi), (z.im.lo, z.im.hi)
    acc_re = acc_im = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        p1, p2 = _oracle_mul(acc_re, re), _oracle_mul(acc_im, im)
        p3, p4 = _oracle_mul(acc_re, im), _oracle_mul(acc_im, re)
        acc_re = _oracle_round((p1[0] - p2[1] + c, p1[1] - p2[0] + c), prec + 16)
        acc_im = _oracle_round((p3[0] + p4[0], p3[1] + p4[1]), prec + 16)
    return (*acc_re, *acc_im)


def _endpoints(z):
    return z.re.lo, z.re.hi, z.im.lo, z.im.hi


def _horner(coeffs, z, prec):
    """eval_poly_interval on the Fraction coefficients, put over one denominator."""
    q = math.lcm(*(c.denominator for c in coeffs))
    return eval_poly_interval([c.numerator * (q // c.denominator) for c in coeffs], q, z, prec)


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(rationals, min_size=1, max_size=6),
    lo=rationals,
    width=st.fractions(min_value=0, max_value=1, max_denominator=2 ** 40),
    im=st.one_of(st.just(None), st.tuples(rationals, st.fractions(
        min_value=0, max_value=1, max_denominator=2 ** 40))),
    scale=st.sampled_from([0, 100, 200]),
    prec=st.sampled_from([32, 64, 128]),
)
def test_eval_poly_real_point_matches_complex_horner(coeffs, lo, width, im, scale, prec):
    """Real points, complex boxes (nonzero im) and coefficients scaled by
    2^scale, past 2^(prec+16) where relative rounding is floor(x)."""
    coeffs = [c * 2 ** scale for c in coeffs]
    z = ComplexInterval(RealInterval(lo, lo + width),
                        0 if im is None else RealInterval(im[0], im[0] + im[1]))
    assert _endpoints(_horner(coeffs, z, prec)) == _oracle_horner(coeffs, z, prec)


@pytest.mark.parametrize("prec", [128, 256])
def test_eval_poly_on_bundled_root_boxes_matches_oracle(prec):
    """Every root box of the bundled fields, at the two precisions the floor
    uses, with p-power and random denominators and numerators up to
    10^(prec/2), past 2^(prec+16)."""
    rng = random.Random(prec)
    names = ["qsqrt14.json", "qz3.json"] + bundled_table1_names()
    boxes = [(k.degree, z) for k in (load_bundled(n).field for n in names)
             for z in k.embeddings(prec)]
    big = 0
    for d, z in boxes:
        for _ in range(4):
            den = rng.choice([1, 7 ** rng.randint(1, 20), rng.randint(1, 10 ** 30)])
            coeffs = [Fraction(rng.randint(-10 ** rng.randint(1, prec // 2), 10 ** (prec // 2)), den)
                      for _ in range(d)]
            ends = _endpoints(_horner(coeffs, z, prec))
            assert ends == _oracle_horner(coeffs, z, prec)
            big += max(abs(e) for e in ends) >= 2 ** (prec + 16)
    assert big > 0  # the shift <= 0 branch ran

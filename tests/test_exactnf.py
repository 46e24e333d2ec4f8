import cmath
import json
import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiccf.errors import DiscMismatch, DivideByZero, NotIrreducible
from padiccf.exactnf import NumberField, denominator_ideal_norm, new_field, weil_height_pow_d
from padiccf import exactnf, rootfinding
from padiccf.fieldspec import bundled_path, bundled_table1_names, load_bundled
from padiccf.rootfinding import (
    _float_roots,
    certified_roots,
    is_irreducible,
    isolate_real_roots,
    refine_real_root,
)

F = Fraction

small_fractions = st.fractions(min_value=F(-50), max_value=F(50), max_denominator=20)
coords14 = st.lists(small_fractions, min_size=2, max_size=2)
coords4 = st.lists(small_fractions, min_size=4, max_size=4)


def elements14(field):
    return coords14.map(field.element)


# -- construction -------------------------------------------------------------


def test_new_field_examples():
    k = new_field([-14, 0, 1])
    assert k.degree == 2 and k.signature == (2, 0) and k.field_disc == 56
    k3 = new_field([1, -2, -1, 1])
    assert k3.signature == (3, 0) and abs(k3.field_disc) == 49
    kg = new_field([1, 0, 1])
    assert kg.signature == (0, 1) and kg.field_disc == -4


def test_new_field_errors():
    with pytest.raises(NotIrreducible):
        new_field([-4, 0, 1])  # x^2 - 4
    with pytest.raises(NotIrreducible):
        new_field([0, 0, 2])  # not monic
    with pytest.raises(NotIrreducible):
        new_field([1, 0, 2, 0, 1])  # (x^2 + 1)^2, discriminant 0
    with pytest.raises(DiscMismatch):
        new_field([-14, 0, 1], field_disc=14)


def _times(*factors):
    """Product of integer polynomials, constant term first."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _sympy_poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))


def _sympy_irreducible(coeffs):
    return _sympy_poly(coeffs).is_irreducible


@pytest.mark.parametrize("name", ["qq.json", "qsqrt14.json", "qz3.json", *bundled_table1_names()])
def test_bundled_min_poly_discriminant_matches_sympy(name):
    """disc(f) = (-1)^(d(d-1)/2) N(f'(alpha)) agrees with sympy's discriminant."""
    min_poly = json.loads(bundled_path(name).read_text())["min_poly"]
    assert new_field(min_poly).field_disc == _sympy_poly(min_poly).discriminant()


@pytest.mark.parametrize("coeffs, irreducible", [
    ([4, 0, 0, 0, 1], False),  # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2), no rational root
    ([1, 0, -10, 0, 1], True),  # x^4 - 10x^2 + 1, reducible mod every prime
    (_times([1, 1, 0, 1], [-5, 3, -2, 1]), False),  # cubic times cubic
    (_times([-1, 1, 1, -1, 1], [3, 0, -7, 1, 1]), False),  # quartic times quartic
])
def test_is_irreducible_examples(coeffs, irreducible):
    assert is_irreducible(coeffs, certified_roots(coeffs, 128)) is irreducible is _sympy_irreducible(coeffs)


monic = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(-9, 9), min_size=k, max_size=k).map(lambda c: c + [1])
)


@settings(max_examples=60, deadline=None)
@given(st.lists(monic, min_size=1, max_size=3).filter(lambda fs: 2 <= sum(len(f) - 1 for f in fs) <= 8))
def test_is_irreducible_matches_sympy(factors):
    coeffs = _times(*factors)
    assume(_sympy_poly(coeffs).discriminant() != 0)
    assert is_irreducible(coeffs, certified_roots(coeffs, 128)) == _sympy_irreducible(coeffs)


# -- certified roots ---------------------------------------------------------------


def _oracle_roots(coeffs):
    """mpmath.polyroots at 100 digits beyond the largest coefficient's, as
    (Fraction re, Fraction im, tolerance) triples."""
    with mpmath.workdps(100 + max(len(str(abs(c))) for c in coeffs)):
        zs = mpmath.polyroots(list(reversed(coeffs)), maxsteps=500, extraprec=500)
        return [(F(str(z.real)), F(str(z.imag)), F(1, 10 ** 90) * max(1, abs(int(abs(z))))) for z in zs]


def _check_roots(coeffs, prec):
    """Real boxes are refine_real_root's cells, ascending; then each upper
    box of width <= 2^-prec holds an oracle root, is followed by its conjugate,
    and the upper boxes ascend by (re.lo, im.lo)."""
    roots = certified_roots(coeffs, prec)
    f = [F(c) for c in coeffs]
    real = isolate_real_roots(f)
    r1 = len(real)
    assert len(roots) == len(coeffs) - 1
    for box, (a, b) in zip(roots, real):
        cell = refine_real_root(f, a, b, prec + 8)
        assert (box.re.lo, box.re.hi, box.im.lo, box.im.hi) == (cell.lo, cell.hi, 0, 0)
    assert all(x.re.hi <= y.re.lo for x, y in zip(roots[:r1], roots[1:r1]))
    upper, lower = roots[r1::2], roots[r1 + 1::2]
    oracle = _oracle_roots(coeffs)
    for up, low in zip(upper, lower):
        assert up.im.lo > 0 and (low.re.lo, low.re.hi, low.im.lo, low.im.hi) == (
            up.re.lo, up.re.hi, -up.im.hi, -up.im.lo)
        assert up.re.width() <= F(1, 1 << prec) and up.im.width() <= F(1, 1 << prec)
        assert any(up.re.lo - tol <= re <= up.re.hi + tol and up.im.lo - tol <= im <= up.im.hi + tol
                   for re, im, tol in oracle)
    keys = [(b.re.lo, b.im.lo) for b in upper]
    assert keys == sorted(keys)
    return roots


@settings(max_examples=60, deadline=None)
@given(st.lists(monic, min_size=1, max_size=3).filter(lambda fs: 2 <= sum(len(f) - 1 for f in fs) <= 8))
def test_certified_roots_match_mpmath(factors):
    coeffs = _times(*factors)
    assume(_sympy_poly(coeffs).discriminant() != 0)
    assume(len(isolate_real_roots([F(c) for c in coeffs])) < len(coeffs) - 1)  # a complex pair
    for prec in (16, 128, 256):
        _check_roots(coeffs, prec)


@pytest.mark.parametrize("name", ["qz3.json", "table1/row5.json", "table1/row6.json", "table1/row7.json"])
@pytest.mark.parametrize("prec", [16, 128, 256])
def test_bundled_field_roots_match_mpmath(name, prec):
    _check_roots(json.loads(bundled_path(name).read_text())["min_poly"], prec)


@pytest.mark.parametrize("coeffs", [[10 ** 100 + 1, 3, 0, 1], [10 ** 200 + 1, 3, 0, 1], [10 ** 400, 0, 1]])
def test_certified_roots_huge_coefficients(coeffs):
    """The float phase scales f by Fujiwara's bound, so roots near 10^33,
    10^67 and 10^200 certify like roots of order 1."""
    roots = _check_roots(coeffs, 128)
    assert sum(b.im.lo > 0 for b in roots) == 1


def test_certified_roots_close_pair():
    """x^8 + (10^6 x - 1)^2 has a conjugate pair 2*10^-30 apart near 10^-6,
    where the iteration gains only about a bit a step before it converges
    quadratically."""
    _check_roots([1, -2 * 10 ** 6, 10 ** 12, 0, 0, 0, 0, 0, 1], 128)


def test_certified_roots_far_apart_moduli():
    """(x + 10^30)(x^7 + x + 1): seven roots near 1 and one near -10^30, which
    the Newton polygon of f starts each at its own modulus."""
    roots = _check_roots(_times([10 ** 30, 1], [1, 1, 0, 0, 0, 0, 0, 1]), 128)
    assert sum(b.im.lo > 0 for b in roots) == 3


@pytest.mark.parametrize("coeffs", [[10 ** 400, 0, 1], [1, 10 ** 1000, 0, 1], [1, 0, 0, 0, 0, 0, 0, 10 ** 300, 1],
                                    [10 ** 5000, 1, 0, 0, 1], [0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 0, 1]])
def test_float_phase_stays_finite(coeffs):
    ys, k = _float_roots(coeffs, len(coeffs) - 1)
    assert len(ys) == len(coeffs) - 1 and all(cmath.isfinite(y) for y in ys)


@pytest.fixture
def root_calls(monkeypatch):
    """The arguments of every certified_roots call from exactnf or rootfinding."""
    calls = []

    def counting(*args):
        calls.append(args)
        return certified_roots(*args)

    monkeypatch.setattr(exactnf, "certified_roots", counting)
    monkeypatch.setattr(rootfinding, "certified_roots", counting)
    return calls


def test_embeddings_computed_once_across_threads(root_calls):
    field = new_field([1, 1, 0, 1])
    threads = [threading.Thread(target=field.embeddings, args=(256,)) for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [prec for _, prec in root_calls] == [128, 256] and len(field.embeddings(256)) == 3


def test_field_load_computes_roots_once(root_calls):
    field = load_bundled("table1/row5.json").field
    assert len(root_calls) == 1 and field.signature == (2, 1)


def test_integral_basis_field():
    # x^2 - 5 has disc 20 = 5 * 2^2; the maximal order needs (1+sqrt5)/2
    k = new_field([-5, 0, 1], integral_basis=[[1, 0], [F(1, 2), F(1, 2)]], field_disc=5)
    assert k.field_disc == 5 and k.index == 2
    golden = k.from_integral_coords([0, 1])  # (1+sqrt5)/2
    assert golden.coords == (F(1, 2), F(1, 2))
    assert golden.is_integral()
    assert golden.norm() == -1  # it is a unit
    with pytest.raises(DiscMismatch):
        new_field([-5, 0, 1], integral_basis=[[1, 0], [F(1, 2), F(1, 2)]], field_disc=20)


def test_integral_coords_over_unimodular_basis():
    # index 1 and b_0 = 1, yet b_1 = 1 + sqrt14 is not the power basis
    k = new_field([-14, 0, 1], integral_basis=[[1, 0], [1, 1]])
    root = k.generator()
    assert k.integral_nums(root) == ((-1, 1), 1)
    assert k.from_integral_coords(*k.integral_nums(root)) == root


# -- arithmetic ----------------------------------------------------------------


def test_arith_examples(k14):
    a = k14.generator()
    assert (a * a).coords == (F(14), F(0))
    x = k14.element([3, 1])
    inv = x.inverse()
    assert inv.coords == (F(-3, 5), F(1, 5))
    assert (x * inv) == k14.one()
    assert (x + k14.zero()) == x
    with pytest.raises(DivideByZero):
        k14.zero().inverse()


# table1 rows 1 and 5: a cubic and a quartic with a complex pair
CUBIC, QUARTIC = new_field([1, -2, -1, 1]), new_field([-1, 2, 0, -1, 1])


@settings(max_examples=100, deadline=None)
@given(coords14, coords14, coords14, coords4)
def test_field_axioms(c1, c2, c3, c4):
    k = new_field([-14, 0, 1])
    x, y, z = k.element(c1), k.element(c2), k.element(c3)
    assert (x + y) * z == x * z + y * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x
    for w in (x, CUBIC.element(c4[:3]), QUARTIC.element(c4)):
        if not w.is_zero():
            assert w * w.inverse() == w.field.one()


def test_norm_trace_examples(k14):
    assert k14.element([3, 1]).norm() == -5
    assert k14.element([15, 4]).norm() == 1
    assert k14.generator().trace() == 0


@settings(max_examples=100, deadline=None)
@given(coords14, coords14)
def test_norm_multiplicative_trace_linear(c1, c2):
    k = new_field([-14, 0, 1])
    x, y = k.element(c1), k.element(c2)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x + y).trace() == x.trace() + y.trace()


def test_quartic_norm_against_resultant():
    k = new_field([-1, -1, 0, 0, 1])
    x = k.element([2, -1, 3, 1])
    t = sympy.Symbol("t")
    res = sympy.resultant(t ** 4 - t - 1, 2 - t + 3 * t ** 2 + t ** 3)
    assert x.norm() == F(int(res))


# -- embeddings ------------------------------------------------------------------


def test_embed_examples(k14):
    a = k14.generator()
    e = a.embed(1, 128)
    assert e.re.contains(F(37416573867739413, 10 ** 16)) or abs(
        float(e.re.midpoint()) - 3.7416573867739413
    ) < 1e-12
    one = k14.one().embed(0, 64)
    assert one.re.is_exact() and one.re.lo == 1 and one.im.lo == 0
    u = k14.element([15, 4]).embed(1, 128)
    assert abs(float(u.re.midpoint()) - 29.966629547095767) < 1e-10


def test_embedding_precision_nesting(k14):
    x = k14.element([F(7, 3), F(2, 5)])
    coarse = x.embed(0, 64)
    fine = x.embed(0, 256)
    assert coarse.re.lo <= fine.re.lo and fine.re.hi <= coarse.re.hi


def test_embed_rejects_low_precision(k14):
    with pytest.raises(ValueError):
        k14.generator().embed(0, 16)


def test_embedding_order_real_ascending_then_pairs():
    k = new_field([-1, -1, 0, 0, 1])  # signature (2,1)
    boxes = k.embeddings(96)
    assert boxes[0].re.hi < boxes[1].re.lo  # ascending real roots
    assert boxes[2].im.lo > 0  # positive imaginary first
    assert boxes[3].im.hi < 0


# -- heights ---------------------------------------------------------------------


def test_height_rational_exact(kq):
    h = weil_height_pow_d(kq.from_rational(F(3, 2)))
    assert h.is_exact() and h.lo == 3
    assert weil_height_pow_d(kq.zero()).lo == 1
    assert weil_height_pow_d(kq.one()).lo == 1


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6), st.integers(min_value=1, max_value=10 ** 6))
def test_height_rational_formula(a, b):
    kq = new_field([0, 1])
    h = weil_height_pow_d(kq.from_rational(F(a, b)))
    q = F(a, b)
    assert h.lo == max(abs(q.numerator), q.denominator)


def test_height_sqrt14(k14):
    h = weil_height_pow_d(k14.generator())
    assert h.contains(14)
    assert h.width() < F(1, 1 << 64)


def test_denominator_ideal_norm(k14):
    x = k14.element([F(1, 5), F(3, 5)])  # denominator (5) entirely? v at both primes
    n = denominator_ideal_norm(x)
    # (1+3*sqrt14)/5: numerator 1+3*sqrt14 has norm 1-126=-125; v at split primes
    assert n in (5, 25)
    assert denominator_ideal_norm(k14.element([2, 3])) == 1


def _oracle_denominator_norm(x):
    """b^d / N((y) + (b)) with the two principal ideals built and added."""
    from padiccf.ideals import principal_ideal, span

    y, b = x.content_split()
    g = span(principal_ideal(y).basis_elements() + principal_ideal(x.field.from_rational(b)).basis_elements())
    n = F(b) ** x.field.degree / g.norm()
    assert n.denominator == 1
    return int(n)


@pytest.mark.parametrize("name", ["qsqrt14.json", "qz3.json", "table1/row5.json", "k5"])
def test_denominator_ideal_norm_matches_ideal_sum(name):
    """Over Q(sqrt14), qz3, a quartic and x^2 - 5 with the non-identity
    integral basis (1, (1+sqrt5)/2)."""
    k = (new_field([-5, 0, 1], integral_basis=[[1, 0], [F(1, 2), F(1, 2)]])
         if name == "k5" else load_bundled(name).field)
    rng = random.Random(name)
    for _ in range(40):
        dens = [rng.choice([1, 2, 3, 4, 5, 7, 12, 25, 49, 19 ** 3, 720]) for _ in range(k.degree)]
        x = k.element([F(rng.randint(-10 ** 6, 10 ** 6), q) for q in dens])
        if not x.is_zero():
            assert denominator_ideal_norm(x) == _oracle_denominator_norm(x)


def _oracle_product(x, y):
    """Power-basis coordinates of x*y: Fraction convolution, then alpha^k
    for k >= d reduced from the top with the monic minimal polynomial."""
    d = x.field.degree
    prod = [F(0)] * (2 * d - 1)
    for i, a in enumerate(x.coords):
        for j, b in enumerate(y.coords):
            prod[i + j] += a * b
    for k in range(2 * d - 2, d - 1, -1):
        for j in range(d):
            prod[k - d + j] -= prod[k] * x.field.min_poly[j]
    return tuple(prod[:d])


@pytest.mark.parametrize("k", [new_field([-3, 1]), new_field([-14, 0, 1]), new_field([1, -2, -1, 1]),
                               new_field([3, 1, 0, -2, 1])], ids=["d1", "d2", "d3", "d4"])
def test_product_matches_fraction_convolution(k):
    rng = random.Random(k.degree)
    for _ in range(100):
        x, y = (k.element([F(rng.randint(-10 ** 20, 10 ** 20), rng.choice([1, 3, 7 ** 5, rng.randint(1, 10 ** 9)]))
                           for _ in range(k.degree)]) for _ in range(2))
        assert (x * y).coords == _oracle_product(x, y)


def _oracle_det(rows):
    """Fraction Gaussian elimination."""
    m, det = [[F(v) for v in r] for r in rows], F(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv], det = m[piv], m[c], -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _check_lowest_terms(x):
    assert len(x.nums) == x.field.degree and all(type(n) is int for n in x.nums)
    assert type(x.den) is int and x.den > 0 and math.gcd(x.den, *x.nums) == 1
    assert x.coords == tuple(F(n, x.den) for n in x.nums)


K5 = new_field([-5, 0, 1], integral_basis=[[1, 0], [F(1, 2), F(1, 2)]])


@pytest.mark.parametrize("name", ["qq.json", "qsqrt14.json", "qz3.json", "table1/row5.json", "k5"])
def test_elements_match_fraction_oracle(name):
    """Integer numerators over one denominator against Fraction coordinate
    tuples: ring and scalar operations, inverse, norm and trace, lowest
    terms, and one value built two ways is one element with one hash."""
    k = K5 if name == "k5" else load_bundled(name).field
    d = k.degree
    rng = random.Random(name)

    def draw():
        return [F(rng.randint(-10 ** 6, 10 ** 6), rng.choice([1, 2, 9, 49, 720, rng.randint(1, 10 ** 6)]))
                for _ in range(d)]

    powers = [k.element([0] * i + [1]) for i in range(d)]  # alpha^i
    for _ in range(40):
        a, b, q = draw(), draw(), F(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        x, y = k.element(a), k.element(b)
        assert x.coords == tuple(a)
        assert (x + y).coords == tuple(u + v for u, v in zip(a, b))
        assert (x - y).coords == tuple(u - v for u, v in zip(a, b))
        assert (-x).coords == tuple(-u for u in a)
        assert (x * y).coords == _oracle_product(x, y)
        assert (x * q).coords == (q * x).coords == tuple(u * q for u in a)
        assert (x / q).coords == tuple(u / q for u in a)
        assert (x + q).coords == (a[0] + q, *a[1:]) and (x - q).coords == (a[0] - q, *a[1:])
        rows = [_oracle_product(x, p) for p in powers]  # the multiplication matrix of x
        assert x.norm() == _oracle_det(rows)
        assert x.trace() == sum(rows[i][i] for i in range(d))
        inv = x.inverse()
        assert _oracle_product(x, inv) == (1,) + (0,) * (d - 1)
        assert _oracle_product(x / y, y) == tuple(a)
        y_int, den = x.content_split()
        assert y_int.is_integral() and y_int / den == x
        nums, q = k.integral_nums(x)
        assert den == math.lcm(*(Fraction(n, q).denominator for n in nums))
        assert k.from_integral_coords(nums, q) == x
        for r in (x, x + y, x - y, x * y, x * q, x / q, inv, x / y, y_int, k.zero(), k.one()):
            _check_lowest_terms(r)
        # one value, two constructions
        z = (x + y) - y
        assert z == x and hash(z) == hash(x)
    assert k.zero().nums == (0,) * d and k.zero().den == 1
    halves = k.element([F(2, 4)] + [0] * (d - 1)), k.element([F(1, 2)])
    assert halves[0] == halves[1] == F(1, 2) and hash(halves[0]) == hash(halves[1])
    if name == "k5":  # (1 + sqrt5)/2 over the integral basis and over the power basis
        golden = k.from_integral_coords([0, 1])
        assert golden == k.element([F(1, 2), F(1, 2)]) and golden.nums == (1, 1) and golden.den == 2
        assert hash(golden) == hash(k.element([F(3, 6), F(-4, -8)]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_solve_matches_fraction_elimination(n):
    """solve's determinant against Fraction elimination, and A Y = det(A) B,
    on random integer matrices with zero pivots and singular ones."""
    rng = random.Random(n)
    for _ in range(60):
        a = [[rng.choice([0, 0, rng.randint(-9, 9), rng.randint(-10 ** 9, 10 ** 9)]) for _ in range(n)]
             for _ in range(n)]
        if rng.random() < 0.2:
            a[-1] = [2 * v for v in a[0]]  # singular
        b = [[rng.randint(-5, 5) for _ in range(2)] for _ in range(n)]
        det, y = exactnf.solve(a, b)
        assert det == _oracle_det(a)
        if det:
            assert [[sum(a[i][j] * y[j][k] for j in range(n)) for k in range(2)] for i in range(n)] == \
                [[det * v for v in row] for row in b]
        else:
            assert y is None
        assert exactnf.solve(a, [[]] * n)[0] == det


@settings(max_examples=60, deadline=None)
@given(coords14.filter(lambda c: any(x != 0 for x in c)))
def test_product_formula(coords):
    """Finite absolute-value exponents recombine to 1/|N(x)| exactly, and the
    archimedean product encloses |N(x)|: both routes multiply to one."""
    from padiccf.ideals import primes_above, valuation

    k = new_field([-14, 0, 1])
    x = k.element(coords)
    nrm = x.norm()
    finite = F(1)
    support = set(sympy.factorint(abs(nrm.numerator)).keys()) | set(
        sympy.factorint(nrm.denominator).keys()
    )
    for p in support:
        for q in primes_above(k, int(p)):
            v = valuation(x, q)
            finite *= F(q.norm) ** (-v)
    assert finite == 1 / abs(nrm)
    arch = x.embed(0, 128).abs_interval(128) * x.embed(1, 128).abs_interval(128)
    assert arch.lo <= abs(nrm) <= arch.hi


def test_height_inversion_invariance(k14):
    """H(1/x) = H(x); exercises denominator norms at ramified primes."""
    x = k14.generator()  # sqrt14; 1/sqrt14 has denominators at 2 and 7, both ramified
    h_inv = weil_height_pow_d(x.inverse())
    assert h_inv.contains(14) and h_inv.width() < F(1, 1 << 64)


def test_height_root_of_unity_exact(gauss_field):
    i = gauss_field.generator()
    h = weil_height_pow_d(i)
    assert h.is_exact() and h.lo == 1

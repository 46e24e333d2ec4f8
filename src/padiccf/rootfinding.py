"""Certified root isolation only; exact arithmetic in the field is in `exactnf`.

Real roots are isolated with Sturm sequences and refined by rational
bisection, so real-root counts (hence field signatures) are exact.  Complex
conjugate pairs come from the Weierstrass (Durand-Kerner) iteration
z_i <- z_i - f(z_i)/prod_{j!=i}(z_i-z_j) (Kerner, Numer. Math. 8, 1966), in
floats and then in exact dyadic Q(i), and the same correction certifies
them: for approximations z_1..z_d of the roots of a monic f, every root lies
in the union of the disks D(z_i, d*|f(z_i)/prod_{j!=i}(z_i-z_j)|), and when
the disks are pairwise disjoint each contains exactly one root.  A number
field computes its roots once, at the default precision, and its
irreducibility check and signature reuse them.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations

from .intervals import DEFAULT_PREC, ComplexInterval, RealInterval, sqrt_interval

Poly = list[Fraction]  # little-endian coefficients, constant term first


def poly_degree(p: Poly) -> int:
    d = len(p) - 1
    while d > 0 and p[d] == 0:
        d -= 1
    return d


def poly_trim(p: Poly) -> Poly:
    return p[: poly_degree(p) + 1]


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p: Poly) -> Poly:
    if len(p) <= 1:
        return [Fraction(0)]
    return [Fraction(i) * c for i, c in enumerate(p)][1:]


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    if poly_degree(b) == 0 and b[0] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    db, lead = poly_degree(b), b[poly_degree(b)]
    while poly_degree(r) >= db and any(c != 0 for c in r):
        dr = poly_degree(r)
        coef = r[dr] / lead
        q[dr - db] = coef
        for i in range(db + 1):
            r[dr - db + i] -= coef * b[i]
    return poly_trim(q), poly_trim(r)


# ---------------------------------------------------------------------------
# Sturm sequences and real roots


def sturm_chain(p: Poly) -> list[Poly]:
    chain = [poly_trim(list(p)), poly_trim(poly_deriv(p))]
    while poly_degree(chain[-1]) > 0 or chain[-1][0] != 0:
        _, r = poly_divmod(chain[-2], chain[-1])
        if all(c == 0 for c in r):
            break
        chain.append([-c for c in r])
    return chain


def _sign_changes(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for q in chain:
        v = poly_eval(q, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(p: Poly) -> Fraction:
    """Cauchy bound: all complex roots have |z| < bound."""
    p = poly_trim(list(p))
    d = poly_degree(p)
    lead = p[d]
    return 1 + max(abs(c / lead) for c in p[:d]) if d > 0 else Fraction(1)


def isolate_real_roots(p: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals (a, b], each containing exactly one real root."""
    chain = sturm_chain(p)
    bound = root_bound(p)
    out: list[tuple[Fraction, Fraction]] = []

    def recurse(a: Fraction, b: Fraction, va: int, vb: int) -> None:
        n = va - vb
        if n == 0:
            return
        if n == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        vm = _sign_changes(chain, mid)
        recurse(a, mid, va, vm)
        recurse(mid, b, vm, vb)

    recurse(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))
    out.sort()
    return out


def refine_real_root(p: Poly, a: Fraction, b: Fraction, prec: int) -> RealInterval:
    """Bisect (a, b] containing one simple root down to width <= 2^-prec."""
    fa = poly_eval(p, a)
    fb = poly_eval(p, b)
    if fb == 0:
        return RealInterval.exact(b)
    if fa == 0:
        # nudge off the exact root at the open endpoint
        a = (3 * a + b) / 4
        fa = poly_eval(p, a)
        if fa == 0:
            return RealInterval.exact(a)
    target = Fraction(1, 1 << prec)
    while b - a > target:
        mid = (a + b) / 2
        fm = poly_eval(p, mid)
        if fm == 0:
            return RealInterval.exact(mid)
        if (fa > 0) == (fm > 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return RealInterval(a, b)


# ---------------------------------------------------------------------------
# certified complex roots


class _QI:
    """Exact arithmetic in Q(i) for the Weierstrass iteration and certificates."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction = Fraction(0)):
        self.re = re
        self.im = im

    def __add__(self, o: "_QI") -> "_QI":
        return _QI(self.re + o.re, self.im + o.im)

    def __sub__(self, o: "_QI") -> "_QI":
        return _QI(self.re - o.re, self.im - o.im)

    def __mul__(self, o: "_QI") -> "_QI":
        return _QI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def abs_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im


def _corrections(coeffs: list, zs: list) -> list[tuple]:
    """The pairs (f(z_i), prod_{j != i} (z_i - z_j)) whose quotient is the
    Weierstrass correction of z_i, for a monic f given by `coeffs` (constant
    term first) in the same number type as `zs`: complex or _QI."""
    pairs = []
    for i, z in enumerate(zs):
        fz = den = coeffs[-1]
        for c in reversed(coeffs[:-1]):
            fz = fz * z + c
        for w in zs[:i] + zs[i + 1:]:
            den = den * (z - w)
        pairs.append((fz, den))
    return pairs


def _float_roots(int_coeffs: list[int], d: int) -> tuple[list[complex], int]:
    """Approximate roots y of f(2^k y)/2^(kd), and k.

    2^k is the power of two nearest Fujiwara's bound 2 max_i |c_i|^(1/(d-i))
    on the roots of the monic f, so every scaled coefficient converts to a
    float.  The Weierstrass iteration starts each root near its own modulus,
    on the circles that the Newton polygon of f gives (Bini, Numer.
    Algorithms 13, 1996), rotated off the real axis, whose symmetry would
    stall it, and stops once every step is below 2^-48 of its root; a step
    that leaves the finite floats is skipped, so no input overflows.
    """
    logs = {i: math.log2(abs(c)) for i, c in enumerate(int_coeffs[: d + 1]) if c}
    k = round(1 + max((logs[i] / (d - i) for i in logs if i < d), default=0))
    scaled = [float(Fraction(c, 2 ** (k * (d - i)))) for i, c in enumerate(int_coeffs[:d])] + [1.0]
    a = min(logs)
    ys = [0j] * a
    while a < d:  # the edge (a, b) of the upper hull of the (i, log2|c_i|): b - a roots
        b = max((j for j in logs if j > a), key=lambda j: ((logs[j] - logs[a]) / (j - a), j))
        r = 2.0 ** ((logs[a] - logs[b]) / (b - a) - k)
        ys += [r * cmath.exp(1j * (2 * math.pi * j / (b - a) + a + 0.7)) for j in range(b - a)]
        a = b
    for _ in range(200):
        steps = [fy / den if den else 0j for fy, den in _corrections(scaled, ys)]
        ys = [y - s if cmath.isfinite(y - s) else y for y, s in zip(ys, steps)]
        if all(abs(s) <= 2.0 ** -48 * abs(y) for y, s in zip(ys, steps)):
            break
    return ys, k


def certified_roots(int_coeffs: list[int], prec: int) -> list[ComplexInterval]:
    """All d roots of a squarefree monic integer polynomial, certified.

    Ordering: real roots ascending, then one box per conjugate pair (positive
    imaginary part first, pairs by ascending real part), followed immediately
    by its conjugate.  The ordering is stable across precisions.

    The complex boxes come from the Weierstrass iteration, first in floats
    (`_float_roots`), then in Q(i) with every step rounded to 2^-(prec+64),
    until `_weierstrass_boxes` certifies boxes of width <= 2^-prec; after
    prec + 64 exact steps it gives up with RuntimeError.
    """
    coeffs = [Fraction(c) for c in int_coeffs]
    d = poly_degree(coeffs)
    if coeffs[d] != 1:
        raise ValueError("expected a monic polynomial")
    if d == 1:
        return [ComplexInterval.exact(-coeffs[0])]

    real_iso = isolate_real_roots(coeffs)
    r2 = (d - len(real_iso)) // 2
    real_boxes = [ComplexInterval(refine_real_root(coeffs, a, b, prec + 8)) for a, b in real_iso]
    if r2 == 0:
        return real_boxes
    ys, k = _float_roots(int_coeffs, d)
    grid = 1 << (prec + 64)

    def on_grid(x: Fraction) -> Fraction:
        return Fraction(round(x * grid), grid)

    zs = [_QI(on_grid(Fraction(y.real) * 2 ** k), on_grid(Fraction(y.imag) * 2 ** k)) for y in ys]
    qi_coeffs = [_QI(c) for c in coeffs[: d + 1]]
    for _ in range(prec + 64):  # near a cluster of two roots a step gains at least a bit
        pairs = _corrections(qi_coeffs, zs)
        if any(den.abs_sq() == 0 for _, den in pairs):
            break
        boxes = _weierstrass_boxes(zs, pairs, prec)
        upper = sorted((b for b in boxes or () if b.im.lo > 0), key=lambda b: (b.re.lo, b.im.lo))
        if len(upper) == r2:
            return real_boxes + [c for b in upper for c in (b, b.conjugate())]
        for i, (z, (fz, den)) in enumerate(zip(zs, pairs)):
            step, n = fz * _QI(den.re, -den.im), den.abs_sq()
            zs[i] = _QI(z.re - on_grid(step.re / n), z.im - on_grid(step.im / n))
    raise RuntimeError("could not certify complex roots at requested precision")


def _weierstrass_boxes(zs: list[_QI], pairs: list[tuple[_QI, _QI]], prec: int) -> list[ComplexInterval] | None:
    """Boxes of width <= 2^-prec around the disks
    D(z_i, d |f(z_i)/prod_{j != i} (z_i - z_j)|), which hold every root of the
    monic f of degree d; None unless the disks are that small and pairwise
    disjoint, when each holds exactly one root.  Boxes of real roots straddle
    the real axis; the caller counts the boxes with im.lo > 0."""
    d = len(zs)
    radii_sq = [d * d * fz.abs_sq() / den.abs_sq() for fz, den in pairs]
    # (2R)^2 <= 2^-(2 prec + 1) leaves room for rounding R up below, and
    # |z_i - z_j|^2 > 2(R_i^2 + R_j^2) >= (R_i + R_j)^2 makes the disks disjoint
    if 4 * max(radii_sq) > Fraction(1, 1 << (2 * prec + 1)) or any(
            (zs[i] - zs[j]).abs_sq() <= 2 * (radii_sq[i] + radii_sq[j]) for i, j in combinations(range(d), 2)):
        return None
    rs = [sqrt_interval(RealInterval.exact(r_sq), prec + 32).hi for r_sq in radii_sq]
    return [ComplexInterval(RealInterval(z.re - r, z.re + r), RealInterval(z.im - r, z.im + r))
            for z, r in zip(zs, rs)]


# ---------------------------------------------------------------------------
# irreducibility over Q


def is_irreducible(int_coeffs: list[int], roots: list[ComplexInterval]) -> bool:
    """Whether a squarefree monic integer polynomial f of degree d >= 1 is
    irreducible over Q, given its roots from certified_roots(f, DEFAULT_PREC).

    By Gauss's lemma f is reducible exactly when it has a monic integer factor
    of degree k <= d/2, and such a factor is prod(x - r) over k of f's roots.
    Each k-set of certified roots is multiplied out in interval arithmetic and
    dismissed when a coefficient's real part holds no integer or its imaginary
    part excludes 0; when every real part holds exactly one integer, exact
    division decides.  The k-sets left undecided are tried again with the
    roots at twice the precision; once every width is below 1, each k-set is
    decided.
    """
    coeffs = [Fraction(c) for c in int_coeffs]
    d = poly_degree(coeffs)
    undecided = [s for k in range(1, d // 2 + 1) for s in combinations(range(d), k)]
    prec = DEFAULT_PREC
    while undecided:
        subsets, undecided = undecided, []
        for subset in subsets:
            prod = [ComplexInterval.exact(1)]
            for i in subset:
                neg = roots[i] * -1
                prod = [(a + b * neg).rounded(prec + 16) for a, b in zip([0, *prod], [*prod, 0])]
            factor = []
            for c in prod[:-1]:
                lo, hi = math.ceil(c.re.lo), math.floor(c.re.hi)
                if lo > hi or c.im.lo > 0 or c.im.hi < 0:
                    break
                factor.append(Fraction(lo) if lo == hi else None)
            else:
                if None in factor:
                    undecided.append(subset)
                elif not any(poly_divmod(coeffs, factor + [Fraction(1)])[1]):
                    return False
        if undecided:
            prec *= 2
            roots = certified_roots(int_coeffs, prec)
    return True

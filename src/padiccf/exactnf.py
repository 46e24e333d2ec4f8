"""Exact arithmetic in a number field K = Q(alpha).

An element is integer numerators in the power basis 1, alpha, ...,
alpha^(d-1) over one positive denominator, in lowest terms.  Norm, inverse and
the inverse of an integral basis are one fraction-free elimination, ``solve``.
Complex embeddings are certified interval enclosures of the roots of the
minimal polynomial (real roots first, ascending; then each conjugate pair with
the positive-imaginary root first), cached per precision.  An explicit
integral basis may be supplied for non-monogenic fields; ideals and residue
machinery then work in integral-basis coordinates internally.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, lcm

from .errors import DiscMismatch, DivideByZero, NotIrreducible
from .intervals import DEFAULT_PREC, ComplexInterval, RealInterval, eval_poly_interval, sqrt_interval
from .rootfinding import certified_roots, is_irreducible


def solve(rows: list[list[int]], rhs: list[list[int]]) -> tuple[int, list[list[int]] | None]:
    """(det A, Y) with A Y = det(A) B and Y integral, for a square integer
    matrix A (rows) and an integer matrix B (rhs, one row per row of A), by
    fraction-free elimination (Bareiss 1968); (0, None) when A is singular.
    Y = adj(A) B, so with B = I it is the adjugate, and with no columns the
    call gives the determinant alone."""
    n = len(rows)
    m = [list(r) + list(b) for r, b in zip(rows, rhs)]
    width, sign, prev = len(m[0]) if m else 0, 1, 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0, None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        top, p = m[col], m[col][col]
        for row in m[col + 1:]:
            f = row[col]
            for j in range(col + 1, width):
                row[j] = (p * row[j] - f * top[j]) // prev
            row[col] = 0
        prev = p
    # the last pivot is det(PA) for the row permutation P; back substitution
    # on the triangular system gives Y = det(PA) A^-1 B, integral
    y: list[list[int]] = [[] for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = m[i]
        y[i] = [(prev * row[n + k] - sum(row[j] * y[j][k] for j in range(i + 1, n))) // row[i]
                for k in range(width - n)]
    return sign * prev, [[sign * v for v in r] for r in y]


class NumberField:
    """Immutable description of K = Q[x]/(min_poly)."""

    def __init__(self, min_poly: list[int], integral_basis=None, field_disc: int | None = None):
        coeffs = [int(c) for c in min_poly]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        d = len(coeffs) - 1
        if d < 1 or d > 8:
            raise NotIrreducible(f"degree {d} outside supported range 1..8")
        if coeffs[-1] != 1:
            raise NotIrreducible("minimal polynomial must be monic")
        self.min_poly: tuple[int, ...] = tuple(coeffs)
        self.degree = d
        # disc(f) = (-1)^(d(d-1)/2) N(f'(alpha)) for monic f; the norm is the
        # resultant Res(f, f'), so it is 0 exactly when f is not squarefree
        deriv = NFElement(self, [i * c for i, c in enumerate(coeffs) if i])
        self._min_poly_disc = (-1) ** (d * (d - 1) // 2) * int(deriv.norm())
        if self._min_poly_disc == 0 or not is_irreducible(coeffs, roots := certified_roots(coeffs, DEFAULT_PREC)):
            raise NotIrreducible(f"min_poly {coeffs} (constant term first) is reducible over Q")

        eye = [[int(i == j) for j in range(d)] for i in range(d)]
        basis = eye if integral_basis is None else integral_basis
        self.integral_basis = tuple(tuple(Fraction(x) for x in row) for row in basis)
        if len(self.integral_basis) != d or any(len(r) != d for r in self.integral_basis):
            raise DiscMismatch("integral_basis must be a d x d matrix")
        # the basis is B/q for an integer matrix B, so its inverse is q adj(B) / det(B)
        q = lcm(*(x.denominator for row in self.integral_basis for x in row))
        B = [[int(x * q) for x in row] for row in self.integral_basis]
        det, adj = solve(B, eye)
        if det == 0:
            raise DiscMismatch("integral_basis is singular")
        self._basis_over_z, self._basis_inv = (B, q), ([[q * a for a in row] for row in adj], det)
        self._power_integral_basis = q == 1 and B == eye
        self.index, rem = divmod(q ** d, abs(det))  # 1/|det(B/q)|
        if rem:
            raise DiscMismatch("integral_basis determinant must be 1/index")
        self.field_disc, rem = divmod(self._min_poly_disc, self.index ** 2)
        if rem:
            raise DiscMismatch("disc(min_poly) != field_disc * index^2")
        if field_disc is not None and field_disc != self.field_disc:
            raise DiscMismatch(
                f"disc(min_poly)/index^2 = {self.field_disc} != stated field_disc {field_disc}"
            )

        r1 = sum(r.im.lo == r.im.hi == 0 for r in roots)
        self.signature = (r1, (d - r1) // 2)

        self._embedding_cache: dict[int, list[ComplexInterval]] = {DEFAULT_PREC: roots}
        self._cache_lock = threading.Lock()
        self._prime_cache: dict = {}  # primes_above and geometry.log_lattice results

    # -- basic constructors ---------------------------------------------------

    def element(self, coords) -> "NFElement":
        """The element with power-basis coordinates coords (ints or Fractions;
        missing trailing coordinates are 0)."""
        cl = [Fraction(c) for c in coords]
        if len(cl) > self.degree:
            raise ValueError("too many coordinates")
        den = lcm(*(c.denominator for c in cl))
        nums = [c.numerator * (den // c.denominator) for c in cl]
        return NFElement(self, nums + [0] * (self.degree - len(cl)), den)

    def zero(self) -> "NFElement":
        return NFElement(self, (0,) * self.degree)

    def one(self) -> "NFElement":
        return self.from_rational(1)

    def generator(self) -> "NFElement":
        if self.degree == 1:
            return self.from_rational(-self.min_poly[0])
        return self.element([0, 1])

    def from_rational(self, q) -> "NFElement":
        q = Fraction(q)
        return NFElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    # -- embeddings -----------------------------------------------------------

    def embeddings(self, prec: int = DEFAULT_PREC) -> list[ComplexInterval]:
        # under the lock, so that threads asking for one precision compute it once
        with self._cache_lock:
            if prec not in self._embedding_cache:
                self._embedding_cache[prec] = certified_roots(list(self.min_poly), prec)
            return self._embedding_cache[prec]

    def minkowski_places(self) -> list[int]:
        """Indices of the real embeddings, then of the upper-half-plane one of
        each conjugate pair: one per archimedean place, in embedding order."""
        r1, r2 = self.signature
        return [*range(r1), *range(r1, r1 + 2 * r2, 2)]

    # -- coordinate conversions ------------------------------------------------

    def integral_nums(self, x: "NFElement") -> tuple[tuple[int, ...], int]:
        """Coordinates of x over the integral basis, as integer numerators
        over one positive denominator in lowest terms."""
        if self._power_integral_basis:
            return x.nums, x.den
        inv, q = self._basis_inv
        return _lowest([sum(n * row[i] for n, row in zip(x.nums, inv)) for i in range(self.degree)],
                       x.den * q)

    def from_integral_coords(self, coords, den: int = 1) -> "NFElement":
        """The element sum_i coords_i b_i / den over the integral basis b_i;
        the coordinates may be ints or Fractions."""
        x = self.element(coords)
        if not self._power_integral_basis:
            rows, q = self._basis_over_z
            x = NFElement(self, [sum(n * row[j] for n, row in zip(x.nums, rows))
                                 for j in range(self.degree)], x.den * q)
        return x if den == 1 else NFElement(self, x.nums, x.den * den)

    def __repr__(self) -> str:
        return f"NumberField({list(self.min_poly)}, disc={self.field_disc}, sig={self.signature})"

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.min_poly == other.min_poly \
            and self.integral_basis == other.integral_basis

    def __hash__(self) -> int:
        return hash((self.min_poly, self.integral_basis))


def new_field(min_poly, integral_basis=None, field_disc=None) -> NumberField:
    return NumberField(min_poly, integral_basis=integral_basis, field_disc=field_disc)


def _lowest(nums, den: int) -> tuple[tuple[int, ...], int]:
    """nums/den with den > 0 and gcd(den, *nums) = 1."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple(n // g for n in nums), den // g


class NFElement:
    """Element of a NumberField: integer power-basis numerators over one
    positive denominator, in lowest terms (Cohen, GTM 138, sec. 4.2)."""

    __slots__ = ("field", "nums", "den", "_coords")

    def __init__(self, field: NumberField, nums, den: int = 1):
        self.field = field
        self.nums, self.den = _lowest(nums, den)
        self._coords = None

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions, built on first use."""
        if self._coords is None:
            self._coords = tuple(Fraction(n, self.den) for n in self.nums)
        return self._coords

    # -- ring structure --------------------------------------------------------

    def __add__(self, other: "NFElement") -> "NFElement":
        other = self._coerce(other)
        a, b = self.den, other.den
        if a == b:
            return NFElement(self.field, [x + y for x, y in zip(self.nums, other.nums)], a)
        return NFElement(self.field, [x * b + y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __sub__(self, other: "NFElement") -> "NFElement":
        other = self._coerce(other)
        a, b = self.den, other.den
        if a == b:
            return NFElement(self.field, [x - y for x, y in zip(self.nums, other.nums)], a)
        return NFElement(self.field, [x * b - y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __neg__(self) -> "NFElement":
        return NFElement(self.field, [-a for a in self.nums], self.den)

    def __mul__(self, other) -> "NFElement":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return NFElement(self.field, [a * q.numerator for a in self.nums], self.den * q.denominator)
        other = self._coerce(other)
        # convolve the numerators, then reduce alpha^k, k >= d, from the top
        # with the monic min_poly
        d = self.field.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(self.nums):
            if x:
                for j, y in enumerate(other.nums):
                    prod[i + j] += x * y
        mp = self.field.min_poly
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                for j in range(d):
                    prod[k - d + j] -= c * mp[j]
        return NFElement(self.field, prod[:d], self.den * other.den)

    __rmul__ = __mul__

    def _coerce(self, other) -> "NFElement":
        if isinstance(other, NFElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.from_rational(other)

    def inverse(self) -> "NFElement":
        if self.is_zero():
            raise DivideByZero("inverse of zero")
        if self.field.degree == 1:
            return NFElement(self.field, (self.den,), self.nums[0])
        # y = den*x has integer coordinates, and y^-1 = w/det solves w M_y = det e_0
        det, w = solve(list(zip(*self._mult_matrix())), [[1]] + [[0]] * (self.field.degree - 1))
        return NFElement(self.field, [self.den * r[0] for r in w], det)

    def __truediv__(self, other) -> "NFElement":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise DivideByZero("division by zero")
            return NFElement(self.field, [a * q.denominator for a in self.nums], self.den * q.numerator)
        other = self._coerce(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "NFElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return isinstance(other, NFElement) and self.den == other.den and self.nums == other.nums \
            and self.field == other.field

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    # -- invariants -------------------------------------------------------------

    def _mult_matrix(self) -> list[list[int]]:
        """Rows: the integer coordinates of den*x*alpha^i, i < d."""
        mp = self.field.min_poly
        row = list(self.nums)
        rows = [row]
        for _ in range(self.field.degree - 1):
            top = row[-1]
            row = [-top * mp[0]] + [a - top * c for a, c in zip(row, mp[1:-1])]
            rows.append(row)
        return rows

    def norm(self) -> Fraction:
        d = self.field.degree
        if self.is_rational():
            return Fraction(self.nums[0] ** d, self.den ** d)
        return Fraction(solve(self._mult_matrix(), [[]] * d)[0], self.den ** d)

    def trace(self) -> Fraction:
        if self.is_rational():
            return Fraction(self.nums[0] * self.field.degree, self.den)
        rows = self._mult_matrix()
        return Fraction(sum(rows[i][i] for i in range(self.field.degree)), self.den)

    def denominator(self) -> int:
        """Smallest b > 0 with b*x integral (i.e. in O_K)."""
        return self.field.integral_nums(self)[1]

    def is_integral(self) -> bool:
        return self.denominator() == 1

    def content_split(self) -> tuple["NFElement", int]:
        """Return (y, b) with x = y/b, y integral, b minimal positive."""
        b = self.denominator()
        return self * b, b

    # -- embeddings ---------------------------------------------------------------

    def embed(self, sigma_index: int, prec: int = DEFAULT_PREC) -> ComplexInterval:
        if prec < 32:
            raise ValueError("precision must be at least 32 bits")
        root = self.field.embeddings(prec)[sigma_index]
        if self.is_rational():
            return ComplexInterval.exact(Fraction(self.nums[0], self.den))
        return eval_poly_interval(self.nums, self.den, root, prec)

    def float_minkowski(self) -> list[float]:
        """Floats of the Minkowski vector of x: the midpoint of sigma(x) for each
        real embedding, then sqrt(2) Re and sqrt(2) Im of sigma(x) for each
        upper-half-plane embedding (the first of each conjugate pair)."""
        r1 = self.field.signature[0]
        vec: list[float] = []
        for i in self.field.minkowski_places():
            e = self.embed(i)
            if i < r1:
                vec.append(float(e.re.midpoint()))
            else:
                vec.extend((float(e.re.midpoint()) * 2 ** 0.5, float(e.im.midpoint()) * 2 ** 0.5))
        return vec

    def __repr__(self) -> str:
        return f"NFElement({[str(c) for c in self.coords]})"


# -------------------------------------------------------------------------------
# heights


def embedding_product(x: NFElement, g) -> RealInterval:
    """prod_sigma g(|sigma(x)|^2) over the d complex embeddings, for g mapping
    an interval to an interval, rounded outward to DEFAULT_PREC + 16 bits
    after each factor."""
    out = RealInterval.exact(1)
    for i in range(x.field.degree):
        out = (out * g(x.embed(i).abs_sq())).rounded(DEFAULT_PREC + 16)
    return out


def weil_height_pow_d(x: NFElement) -> RealInterval:
    """Certified enclosure of H(x)^d.

    Factored as N(denominator ideal) times the product over all d complex
    embeddings of max(1, |sigma(x)|); the finite part is exact, Kronecker's
    characterization (H = 1 iff 0 or root of unity) follows.
    """
    if x.is_zero():
        return RealInterval.exact(1)
    if x.field.degree == 1:
        return RealInterval.exact(max(abs(x.nums[0]), x.den))
    arch = embedding_product(x, lambda mag_sq: sqrt_interval(mag_sq).max_with(1))
    return (arch * denominator_ideal_norm(x)).rounded(DEFAULT_PREC + 16)


def denominator_ideal_norm(x: NFElement) -> int:
    """Exact norm of the denominator ideal of x.

    Equals 1 / N(x O_K + O_K), as v_P(x O_K + O_K) = min(v_P(x), 0): the
    product over primes with v_P(x) < 0 of N(P)^(-v_P(x)).
    """
    if x.is_integral():
        return 1
    from .ideals import span  # local import: ideals builds on exactnf

    basis = [x.field.element(w) for w in x.field.integral_basis]
    return int(1 / span([x * w for w in basis] + basis).norm())

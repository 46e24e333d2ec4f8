"""Exact arithmetic in a number field K = Q(alpha).

Elements carry exact rational coordinates in the power basis 1, alpha, ...,
alpha^(d-1).  Complex embeddings are certified interval enclosures of the
roots of the minimal polynomial (real roots first, ascending; then each
conjugate pair with the positive-imaginary root first), cached per precision.
An explicit integral basis may be supplied for non-monogenic fields; ideals
and residue machinery then work in integral-basis coordinates internally.
"""
from __future__ import annotations

import threading
from fractions import Fraction
from math import lcm

from .errors import DiscMismatch, DivideByZero, NotIrreducible
from .intervals import DEFAULT_PREC, ComplexInterval, RealInterval, eval_poly_interval
from .rootfinding import certified_roots, is_irreducible


def mat_det(rows) -> Fraction:
    """Exact determinant of a square matrix of rationals, by Gaussian elimination."""
    n = len(rows)
    m = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def _mat_inverse(rows: tuple[tuple[Fraction, ...], ...]) -> tuple[tuple[Fraction, ...], ...]:
    n = len(rows)
    aug = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


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
        deriv = NFElement(self, tuple(Fraction(i * c) for i, c in enumerate(coeffs) if i))
        self._min_poly_disc = (-1) ** (d * (d - 1) // 2) * int(deriv.norm())
        if self._min_poly_disc == 0 or not is_irreducible(coeffs, roots := certified_roots(coeffs, DEFAULT_PREC)):
            raise NotIrreducible(f"min_poly {coeffs} (constant term first) is reducible over Q")

        identity = tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))
        if integral_basis is None:
            self.integral_basis = identity
            self._basis_inv = self.integral_basis
            self.index = 1
            if field_disc is not None and field_disc != self._min_poly_disc:
                raise DiscMismatch(
                    f"disc(min_poly) = {self._min_poly_disc} != stated field_disc {field_disc}"
                )
            self.field_disc = self._min_poly_disc
        else:
            self.integral_basis = tuple(tuple(Fraction(x) for x in row) for row in integral_basis)
            if len(self.integral_basis) != d or any(len(r) != d for r in self.integral_basis):
                raise DiscMismatch("integral_basis must be a d x d matrix")
            self._basis_inv = _mat_inverse(self.integral_basis)
            det = mat_det(self.integral_basis)
            if det == 0:
                raise DiscMismatch("integral_basis is singular")
            index_fr = 1 / abs(det)
            if index_fr.denominator != 1:
                raise DiscMismatch("integral_basis determinant must be 1/index")
            self.index = int(index_fr)
            expected = self._min_poly_disc // (self.index ** 2)
            if expected * self.index ** 2 != self._min_poly_disc:
                raise DiscMismatch("disc(min_poly) != field_disc * index^2")
            if field_disc is not None and field_disc != expected:
                raise DiscMismatch(
                    f"disc(min_poly)/index^2 = {expected} != stated field_disc {field_disc}"
                )
            self.field_disc = expected
        self._power_integral_basis = self.integral_basis == identity

        r1 = sum(r.im.lo == r.im.hi == 0 for r in roots)
        self.signature = (r1, (d - r1) // 2)

        self._embedding_cache: dict[int, list[ComplexInterval]] = {DEFAULT_PREC: roots}
        self._cache_lock = threading.Lock()
        self._prime_cache: dict = {}  # primes_above and geometry.log_lattice results

    # -- basic constructors ---------------------------------------------------

    def element(self, coords) -> "NFElement":
        cl = [Fraction(c) for c in coords]
        if len(cl) > self.degree:
            raise ValueError("too many coordinates")
        cl += [Fraction(0)] * (self.degree - len(cl))
        return NFElement(self, tuple(cl))

    def zero(self) -> "NFElement":
        return self.element([])

    def one(self) -> "NFElement":
        return self.element([1])

    def generator(self) -> "NFElement":
        if self.degree == 1:
            return self.element([Fraction(-self.min_poly[0], 1)])
        return self.element([0, 1])

    def from_rational(self, q) -> "NFElement":
        return self.element([Fraction(q)])

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

    def to_integral_coords(self, x: "NFElement") -> tuple[Fraction, ...]:
        """Coordinates of x over the integral basis."""
        if self._power_integral_basis:
            return x.coords
        inv = self._basis_inv
        return tuple(
            sum(x.coords[j] * inv[j][i] for j in range(self.degree))
            for i in range(self.degree)
        )

    def from_integral_coords(self, coords) -> "NFElement":
        cl = [Fraction(c) for c in coords]
        rows = self.integral_basis
        power = [
            sum(cl[i] * rows[i][j] for i in range(self.degree))
            for j in range(self.degree)
        ]
        return NFElement(self, tuple(power))

    def __repr__(self) -> str:
        return f"NumberField({list(self.min_poly)}, disc={self.field_disc}, sig={self.signature})"

    def __eq__(self, other) -> bool:
        return isinstance(other, NumberField) and self.min_poly == other.min_poly \
            and self.integral_basis == other.integral_basis

    def __hash__(self) -> int:
        return hash((self.min_poly, self.integral_basis))


def new_field(min_poly, integral_basis=None, field_disc=None) -> NumberField:
    return NumberField(min_poly, integral_basis=integral_basis, field_disc=field_disc)


def _over_lcm(coords: tuple[Fraction, ...]) -> tuple[list[int], int]:
    den = lcm(*(c.denominator for c in coords))
    return [c.numerator * (den // c.denominator) for c in coords], den


class NFElement:
    """Element of a NumberField with exact rational power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple[Fraction, ...]):
        self.field = field
        self.coords = coords

    # -- ring structure --------------------------------------------------------

    def __add__(self, other: "NFElement") -> "NFElement":
        other = self._coerce(other)
        return NFElement(self.field, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "NFElement") -> "NFElement":
        other = self._coerce(other)
        return NFElement(self.field, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "NFElement":
        return NFElement(self.field, tuple(-a for a in self.coords))

    def __mul__(self, other) -> "NFElement":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return NFElement(self.field, tuple(a * q for a in self.coords))
        other = self._coerce(other)
        # integer numerators over one denominator each; reduce alpha^k, k >= d,
        # from the top with the monic min_poly
        (a, da), (b, db) = _over_lcm(self.coords), _over_lcm(other.coords)
        d = self.field.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        mp = self.field.min_poly
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                for j in range(d):
                    prod[k - d + j] -= c * mp[j]
        den = da * db
        return NFElement(self.field, tuple(Fraction(x, den) for x in prod[:d]))

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
            return NFElement(self.field, (1 / self.coords[0],))
        # x^-1 * x = 1: the coordinates of x^-1 solve v M_x = (1, 0, ..., 0)
        return NFElement(self.field, _mat_inverse(self._mult_matrix())[0])

    def __truediv__(self, other) -> "NFElement":
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise DivideByZero("division by zero")
            return NFElement(self.field, tuple(a / q for a in self.coords))
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
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        return isinstance(other, NFElement) and self.coords == other.coords \
            and self.field == other.field

    def __hash__(self) -> int:
        return hash(self.coords)

    # -- invariants -------------------------------------------------------------

    def _mult_matrix(self) -> list[list[Fraction]]:
        """Rows: coordinates of x * alpha^i."""
        d = self.field.degree
        rows = []
        current = self
        alpha = self.field.generator()
        for _ in range(d):
            rows.append(list(current.coords))
            current = current * alpha
        return rows

    def norm(self) -> Fraction:
        if self.is_rational():
            return self.coords[0] ** self.field.degree
        return mat_det(self._mult_matrix())

    def trace(self) -> Fraction:
        if self.is_rational():
            return self.coords[0] * self.field.degree
        rows = self._mult_matrix()
        return sum(rows[i][i] for i in range(self.field.degree))

    def denominator(self) -> int:
        """Smallest b > 0 with b*x integral (i.e. in O_K)."""
        ic = self.field.to_integral_coords(self)
        return lcm(*(c.denominator for c in ic)) if ic else 1

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
            return ComplexInterval.exact(self.coords[0])
        return eval_poly_interval(list(self.coords), root, prec)

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


def weil_height_pow_d(x: NFElement) -> RealInterval:
    """Certified enclosure of H(x)^d.

    Factored as N(denominator ideal) times the product over all d complex
    embeddings of max(1, |sigma(x)|); the finite part is exact, Kronecker's
    characterization (H = 1 iff 0 or root of unity) follows.
    """
    if x.is_zero():
        return RealInterval.exact(1)
    field = x.field
    if field.degree == 1:
        q = x.coords[0]
        return RealInterval.exact(max(abs(q.numerator), q.denominator))
    den_norm = denominator_ideal_norm(x)
    arch = RealInterval.exact(1)
    for i in range(field.degree):
        emb = x.embed(i)
        arch = (arch * emb.abs_interval().max_with(1)).rounded(DEFAULT_PREC + 16)
    return (arch * den_norm).rounded(DEFAULT_PREC + 16)


def denominator_ideal_norm(x: NFElement) -> int:
    """Exact norm of the denominator ideal of x.

    Equals b^d / N((y) + (b)) for x = y/b in lowest integral terms, which is
    prod over primes with v_P(x) < 0 of N(P)^(-v_P(x)).
    """
    if x.is_zero():
        return 1
    y, b = x.content_split()
    if b == 1:
        return 1
    from .ideals import hnf_rows  # local import: ideals builds on exactnf

    # (y) + (b) is spanned by y w_i (mod b) and b e_i over the integral basis w_i
    field = x.field
    d = field.degree
    rows = [[int(c) % b for c in field.to_integral_coords(y * NFElement(field, w))]
            for w in field.integral_basis]
    rows += [[b * (i == j) for j in range(d)] for i in range(d)]
    h = hnf_rows(rows, d)
    det = 1
    for i in range(d):
        det *= h[i][i]
    return b ** d // det

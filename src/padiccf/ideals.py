"""Ideal arithmetic in O_K: HNF lattices, prime factorization, valuations,
residue fields, canonical residues and lifts.

Fractional ideals are integer row lattices over the integral basis (upper
triangular HNF, positive diagonal, entries above a pivot reduced into
[0, pivot)) together with a positive integer denominator; each is built by
span, from elements of K that span its lattice.  All operations are exact.
Primes above p are produced by Dedekind-Kummer factorization of the minimal
polynomial mod p, valid because primes dividing the index [O_K : Z[alpha]]
are rejected; the factorization mod p is computed here (squarefree,
distinct-degree, then Cantor-Zassenhaus equal-degree splitting).
The same factorization clears p from a denominator on the general path of
residues and lifts: the Dedekind-Kummer cofactor h(alpha) of P = (p, g(alpha)),
h = (min_poly mod p) / g^e, lies in every other prime above p but not in P.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm

from . import geometry
from .errors import (
    IndexDivisor,
    NotIntegralAtI,
    NotPrincipal,
    SearchExhausted,
    ZeroValuation,
)
from .exactnf import NFElement, NumberField

# ---------------------------------------------------------------------------
# rational primes

# Miller-Rabin to the first 13 prime bases is deterministic below psi_13
# (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin to the bases _MR_BASES, exact below psi_13.
    At or above psi_13 a strong Lucas test follows, which makes it the
    Baillie-PSW test (no composite is known to pass it)."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1
    odd = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _PSI_13 or _strong_lucas(n)


def next_prime(n: int) -> int:
    """The least prime above n."""
    n = max(n + 1, 2)
    while not is_prime(n):
        n += 1
    return n


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                t = -t
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 1 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4 (Baillie & Wagstaff, Math. Comp. 35, 1980)."""
    if isqrt(n) ** 2 == n:  # no such D exists
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    half = (n + 1) // 2  # the inverse of 2 mod n
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_k, V_k and Q^k mod n from k = 1 to k = (n + 1) / 2^s, bit by bit
    U, V, Qk = 1, 1, Q % n
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


# ---------------------------------------------------------------------------
# integer HNF machinery (rows = lattice basis vectors)


def hnf_rows(rows: list[list[int]], d: int) -> tuple[tuple[int, ...], ...]:
    """Lower-triangular row HNF of a full-rank integer row lattice.

    Row i carries the pivot for coordinate i (H[i][j] = 0 for j > i, positive
    diagonal, entries below a pivot normalized into [0, pivot)).  Residue
    boxes therefore reduce the highest power-basis coordinate first.
    """
    work = [list(r) for r in rows if any(r)]
    pivots: list[list[int]] = [[] for _ in range(d)]
    for col in range(d - 1, -1, -1):
        while True:
            active = [r for r in work if r[col] != 0]
            if len(active) <= 1:
                break
            active.sort(key=lambda r: abs(r[col]))
            base = active[0]
            for r in active[1:]:
                q = r[col] // base[col]
                if q:
                    for j in range(d):
                        r[j] -= q * base[j]
        active = [r for r in work if r[col] != 0]
        if not active:
            raise ValueError("lattice not of full rank")
        piv = active[0]
        work = [r for r in work if r is not piv and any(r)]
        if piv[col] < 0:
            piv = [-x for x in piv]
        pivots[col] = piv
    # normalize entries below each pivot into [0, pivot); descending column
    # order so later (lower-column) normalizations cannot disturb earlier ones
    for i in range(d - 1, -1, -1):
        for k in range(i + 1, d):
            q = pivots[k][i] // pivots[i][i]
            if q:
                for j in range(i + 1):
                    pivots[k][j] -= q * pivots[i][j]
    return tuple(tuple(r) for r in pivots)


class FractionalIdeal:
    """hnf/denom lattice over the integral basis of a NumberField."""

    __slots__ = ("field", "hnf", "denom")

    def __init__(self, field: NumberField, hnf, denom: int = 1):
        if denom <= 0:
            raise ValueError("denominator must be positive")
        mat = tuple(tuple(int(x) for x in row) for row in hnf)
        content = 0
        for row in mat:
            for x in row:
                content = gcd(content, x)
        g = gcd(content, denom)
        if g > 1:
            mat = tuple(tuple(x // g for x in row) for row in mat)
            denom //= g
        self.field = field
        self.hnf = mat
        self.denom = denom

    # -- basic data -----------------------------------------------------------

    def norm(self) -> Fraction:
        det = 1
        for i in range(self.field.degree):
            det *= self.hnf[i][i]
        return Fraction(det, self.denom ** self.field.degree)

    def basis_elements(self) -> list[NFElement]:
        return [
            self.field.from_integral_coords(row, self.denom) for row in self.hnf
        ]

    def is_integral(self) -> bool:
        return self.denom == 1

    def contains(self, x: NFElement) -> bool:
        """denom * x has integral coordinates r = c H, c integral, for the
        lower triangular H = hnf."""
        nums, den = self.field.integral_nums(x)
        if self.denom % den:
            return False
        r = [n * (self.denom // den) for n in nums]
        for i in range(len(r) - 1, -1, -1):
            c, rem = divmod(r[i], self.hnf[i][i])
            if rem:
                return False
            for j in range(i):
                r[j] -= c * self.hnf[i][j]
        return True

    # -- arithmetic -------------------------------------------------------------

    def mul(self, other: "FractionalIdeal") -> "FractionalIdeal":
        return span([a * b for a in self.basis_elements() for b in other.basis_elements()])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FractionalIdeal)
            and self.field == other.field
            and self.hnf == other.hnf
            and self.denom == other.denom
        )

    def __hash__(self) -> int:
        return hash((self.hnf, self.denom))

    def __repr__(self) -> str:
        return f"FractionalIdeal(norm={self.norm()}, denom={self.denom})"


def whole_ring(field: NumberField) -> FractionalIdeal:
    d = field.degree
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    return FractionalIdeal(field, eye, 1)


def span(elements: list[NFElement]) -> FractionalIdeal:
    """The fractional ideal whose lattice is the Z-span of the given elements
    of K: their integral-basis numerators over their lcm, in HNF.  The caller
    supplies a spanning set of an ideal, such as x*b_i over the integral basis
    b_i; a lattice has one HNF, so the result does not depend on the set."""
    field = elements[0].field
    rows = [field.integral_nums(x) for x in elements]
    den = lcm(*(q for _, q in rows))
    return FractionalIdeal(field, hnf_rows([[n * (den // q) for n in nums] for nums, q in rows],
                                           field.degree), den)


def principal_ideal(x: NFElement) -> FractionalIdeal:
    if x.is_zero():
        raise ValueError("zero ideal not supported")
    return span([x * b for b in whole_ring(x.field).basis_elements()])


# ---------------------------------------------------------------------------
# polynomials over F_p: coefficient lists, lowest degree first, entries in
# [0, p), no trailing zeros (the zero polynomial is [])


def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _fp_trim([(x - y) % p for x, y in zip(a, b)])


def _fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _fp_trim([c % p for c in out])


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b != 0."""
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv % p
        q[k] = c
        if c:
            for j in range(db + 1):
                r[k + j] = (r[k + j] - c * b[j]) % p
    return _fp_trim(q), _fp_trim(r[:db])


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of a and b, not both zero."""
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m, for m of degree >= 1."""
    result, a = [1], _fp_divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = _fp_divmod(_fp_mul(result, a, p), m, p)[1]
        e >>= 1
        if e:
            a = _fp_divmod(_fp_mul(a, a, p), m, p)[1]
    return result


def _fp_squarefree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """(g, m) with f = prod g^m for monic f, each g monic, squarefree and
    coprime to the others (Cohen, GTM 138, section 3.4)."""
    out = []
    c = _fp_gcd(f, _fp_trim([i * x % p for i, x in enumerate(f)][1:]), p)
    w = _fp_divmod(f, c, p)[0]
    i = 1
    while len(w) > 1:
        y = _fp_gcd(w, c, p)
        fac = _fp_divmod(w, y, p)[0]
        if len(fac) > 1:
            out.append((fac, i))
        w, c = y, _fp_divmod(c, y, p)[0]
        i += 1
    if len(c) > 1:  # c = r^p with r = sum c_{kp} x^k, as a^p = a in F_p
        out += [(g, m * p) for g, m in _fp_squarefree(c[::p], p)]
    return out


def _fp_distinct_degree(g: list[int], p: int) -> list[tuple[list[int], int]]:
    """(h, k): h the product of the irreducible factors of degree k of the
    squarefree monic g."""
    out = []
    x = [0, 1]
    h = x
    k = 0
    while len(g) - 1 >= 2 * (k + 1):
        k += 1
        h = _fp_powmod(h, p, g, p)  # x^(p^k) mod g
        d = _fp_gcd(g, _fp_sub(h, x, p), p)
        if len(d) > 1:
            out.append((d, k))
            g = _fp_divmod(g, d, p)[0]
            h = _fp_divmod(h, g, p)[1]
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _fp_equal_degree(g: list[int], k: int, p: int, rng: random.Random) -> list[list[int]]:
    """The irreducible factors of g, a product of distinct monic irreducibles
    of degree k (Cantor-Zassenhaus; the trace map to F_2 for p = 2)."""
    n = len(g) - 1
    if n == k:
        return [g]
    while True:
        a = _fp_trim([rng.randrange(p) for _ in range(n)])
        if p == 2:  # a + a^2 + ... + a^(2^(k-1)) is 0 or 1 modulo each factor
            b = t = a
            for _ in range(k - 1):
                t = _fp_divmod(_fp_mul(t, t, p), g, p)[1]
                b = _fp_sub(b, t, p)  # = b + t in characteristic 2
        else:
            b = _fp_sub(_fp_powmod(a, (p ** k - 1) // 2, g, p), [1], p)
        d = _fp_gcd(g, b, p)
        if 0 < len(d) - 1 < n:
            rest = _fp_divmod(g, d, p)[0]
            return _fp_equal_degree(d, k, p, rng) + _fp_equal_degree(rest, k, p, rng)


def factor_mod_p(coeffs, p: int) -> list[tuple[int, tuple[int, ...], int]]:
    """The monic irreducible factors of a monic integer polynomial (lowest
    degree first) over F_p, as sorted (degree, coefficients in [0, p),
    multiplicity) triples.  The factorization is unique, so the fixed-seed
    random choices of the splitting step do not show in the result."""
    rng = random.Random(0)
    entries = []
    for g, m in _fp_squarefree([int(c) % p for c in coeffs], p):
        for h, k in _fp_distinct_degree(g, p):
            entries += [(k, tuple(q), m) for q in _fp_equal_degree(h, k, p, rng)]
    return sorted(entries)


# ---------------------------------------------------------------------------
# primes above p


@dataclass
class PrimeIdealData:
    """Prime P = (p, g(alpha)) with ramification e, residue degree f."""

    field: NumberField
    p: int
    gen2: NFElement
    e: int
    f: int
    factor_poly: tuple[int, ...]  # monic irreducible factor of min_poly mod p
    as_ideal: FractionalIdeal
    _power_cache: dict = dc_field(default_factory=dict, repr=False)

    @property
    def norm(self) -> int:
        return self.p ** self.f

    def power(self, k: int) -> FractionalIdeal:
        if k == 0:
            return whole_ring(self.field)
        if k == 1:
            return self.as_ideal
        cached = self._power_cache.get(k)
        if cached is None:
            cached = self.power(k - 1).mul(self.as_ideal)
            self._power_cache[k] = cached
        return cached

    def residue_field(self) -> "ResidueField":
        return ResidueField(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PrimeIdealData)
            and self.field == other.field
            and self.p == other.p
            and self.factor_poly == other.factor_poly
        )

    def __hash__(self) -> int:
        return hash((self.p, self.factor_poly))

    def __repr__(self) -> str:
        return f"PrimeIdealData(p={self.p}, e={self.e}, f={self.f})"


def primes_above(field: NumberField, p: int) -> list[PrimeIdealData]:
    """Dedekind-Kummer factorization of (p); requires p coprime to the index."""
    cache_key = ("primes", p)
    cached = field._prime_cache.get(cache_key)
    if cached is not None:
        return cached
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if field.index % p == 0:
        raise IndexDivisor(f"prime {p} divides the index [O_K : Z[alpha]] = {field.index}")
    d = field.degree
    entries = factor_mod_p(field.min_poly, p)
    basis = whole_ring(field).basis_elements()
    out = []
    for deg, coeffs, mult in entries:
        gen2 = field.zero()
        alpha_pow = field.one()
        for c in coeffs:
            gen2 = gen2 + alpha_pow * c
            alpha_pow = alpha_pow * field.generator()
        ideal = span([b * p for b in basis] + [gen2 * b for b in basis])
        out.append(
            PrimeIdealData(field=field, p=p, gen2=gen2, e=mult, f=deg,
                           factor_poly=coeffs, as_ideal=ideal)
        )
    assert sum(q.e * q.f for q in out) == d
    for q in out:
        assert q.as_ideal.norm() == q.norm
    field._prime_cache[cache_key] = out
    return out


# ---------------------------------------------------------------------------
# valuations


def _v_p(n: int, p: int) -> int:
    """v_p(n) for an integer n != 0."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _zp_root(P: PrimeIdealData, n: int) -> tuple[int, int] | None:
    """(r, N) with N >= n and r the root of min_poly mod p^N above P's root
    mod p, when e = f = 1 and b_0 = 1; else None.  Then alpha -> r is the ring
    map O_K -> O_K/P^N = Z/p^N (p does not divide the index, and the root is
    simple as e = 1), P^N's HNF has diagonal (p^N, 1, ..., 1), and row i >= 1
    is (h_i0, 0, ..., 1, ...), so b_i = -h_i0 mod P^N.  Newton's iteration,
    cached per P at the largest precision reached."""
    cached = P._power_cache.get("root")
    if cached is None:
        if P.e != 1 or P.f != 1 or P.field.integral_basis[0] != P.field.one().coords:
            return None
        cached = (-P.factor_poly[0] % P.p, 1)
    r, N = cached
    while N < n:
        N *= 2
        mod = P.p ** N
        fr = dfr = 0
        for c in reversed(P.field.min_poly):
            fr, dfr = (fr * r + c) % mod, (dfr * r + fr) % mod
        r = (r - fr * pow(dfr, -1, mod)) % mod
    P._power_cache["root"] = (r, N)
    return r, N


def _zp_image(x: NFElement, r: int, mod: int) -> int:
    """The image of x.den * x in Z/mod under alpha -> r (_zp_root)."""
    t = 0
    for n in reversed(x.nums):
        t = (t * r + n) % mod
    return t


def valuation(x: NFElement, P: PrimeIdealData) -> int:
    """Exact v_P(x), extended to K by v(y/b) = v(y) - v(b).  Where _zp_root
    applies, v_P(x) = v_p(t) - v_p(q) for the image t != 0 of q*x in Z/p^N,
    q = x.den, and N doubled as needed."""
    if x.is_zero():
        raise ZeroValuation("v_P(0) = +infinity")
    n = 2
    while (root := _zp_root(P, n)) is not None:
        t = _zp_image(x, root[0], P.p ** root[1])
        if t:
            return _v_p(t, P.p) - _v_p(x.den, P.p)
        n = 2 * root[1]
    return _valuation_hnf(x, P)


def _valuation_hnf(x: NFElement, P: PrimeIdealData) -> int:
    """valuation by membership in P, P^2, ...: the only path where e*f > 1."""
    y, b = x.content_split()
    k = 0
    while P.power(k + 1).contains(y):
        k += 1
    return k - P.e * _v_p(b, P.p)


# ---------------------------------------------------------------------------
# residue fields F_{p^f} = F_p[t]/(factor_poly)


class ResidueField:
    """Arithmetic in O_K/P as F_p[t]/(gbar), alpha mapsto t, for the unit
    match of division chains (divchain._match_unit); the floor computes mod P
    with the _fp_* helpers instead.

    Known defect: for f > 1, inv runs Euclid modulo factor_poly + [1], a
    polynomial one degree too high, so its inverses are wrong; the strict
    xfail test_residue_field_inverse_at_inert_prime pins it."""

    def __init__(self, P: PrimeIdealData):
        self.P = P
        self.p = P.p
        self.f = P.f
        self.modulus = list(P.factor_poly)

    def _poly_mod(self, coeffs: list[int]) -> tuple[int, ...]:
        p = self.p
        coeffs = [c % p for c in coeffs]
        deg_mod = self.f
        while len(coeffs) > deg_mod:
            lead = coeffs.pop()
            if lead:
                for i in range(deg_mod):
                    coeffs[len(coeffs) - deg_mod + i] = (
                        coeffs[len(coeffs) - deg_mod + i] - lead * self.modulus[i]
                    ) % p
        coeffs += [0] * (deg_mod - len(coeffs))
        return tuple(c % p for c in coeffs)

    def reduce(self, x: NFElement) -> tuple[int, ...]:
        """Image of x in O_K/P; requires v_P(x) >= 0."""
        a, b = make_coprime_denominator(x, self.P)
        ra = self._reduce_integral(a)
        rb = self._reduce_integral(b)
        return self.mul(ra, self.inv(rb))

    def _reduce_integral(self, x: NFElement) -> tuple[int, ...]:
        den = 1
        for c in x.coords:
            den = lcm(den, c.denominator)
        if den % self.p == 0:
            raise NotIntegralAtI("power-basis denominator not invertible mod p")
        dinv = pow(den, -1, self.p)
        coeffs = [int(c * den) * dinv % self.p for c in x.coords]
        return self._poly_mod(coeffs)

    def one(self) -> tuple[int, ...]:
        return tuple([1 % self.p] + [0] * (self.f - 1))

    def mul(self, a, b) -> tuple[int, ...]:
        out = [0] * (2 * self.f - 1) if self.f > 1 else [0]
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % self.p
        return self._poly_mod(out)

    def pow(self, a, n: int) -> tuple[int, ...]:
        if n < 0:
            return self.pow(self.inv(a), -n)
        result = self.one()
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a) -> tuple[int, ...]:
        if all(c == 0 for c in a):
            raise ZeroDivisionError("inverse of zero in residue field")
        if self.f == 1:
            return (pow(a[0], -1, self.p),)
        # extended Euclid in F_p[t]
        p = self.p
        r0 = list(self.modulus) + [1]
        r1 = list(a)
        s0, s1 = [0], [1]

        def deg(poly):
            d = len(poly) - 1
            while d > 0 and poly[d] % p == 0:
                d -= 1
            return d if any(c % p for c in poly) else -1

        while deg(r1) >= 0:
            d0, d1 = deg(r0), deg(r1)
            if d0 < d1:
                r0, r1, s0, s1 = r1, r0, s1, s0
                continue
            inv_lead = pow(r1[d1], -1, p)
            coef = r0[d0] * inv_lead % p
            shift = d0 - d1
            for i in range(d1 + 1):
                r0[shift + i] = (r0[shift + i] - coef * r1[i]) % p
            s1_shifted = [0] * shift + list(s1)
            ln = max(len(s0), len(s1_shifted))
            s0 = [(s0[i] if i < len(s0) else 0) - coef * (s1_shifted[i] if i < len(s1_shifted) else 0)
                  for i in range(ln)]
            s0 = [c % p for c in s0]
            if deg(r0) < deg(r1):
                r0, r1, s0, s1 = r1, r0, s1, s0
        d0 = deg(r0)
        if d0 != 0:
            raise ZeroDivisionError("element not invertible in residue field")
        c = pow(r0[0], -1, p)
        return self._poly_mod([x * c % p for x in s0])


# ---------------------------------------------------------------------------
# canonical residues and lifts


def canonical_residue(x: NFElement, ideal: FractionalIdeal) -> NFElement:
    """Unique coset representative in the HNF box of the ideal.

    The coefficient of basis row i ends in [-h_ii/2, h_ii/2); depends only on
    the coset of x, and is idempotent.  x must be integral at the primes of
    the ideal; a denominator coprime to N(ideal) is folded in by modular
    inversion, anything else raises NotIntegralAtI.
    """
    field = x.field
    if not ideal.is_integral():
        raise NotIntegralAtI("canonical residue needs an integral ideal")
    y, b = x.content_split()
    if b > 1:
        m = int(ideal.norm())
        if gcd(b, m) != 1:
            raise NotIntegralAtI(f"denominator {b} shares a factor with N(ideal) = {m}")
        binv = pow(b, -1, m)
        y = y * binv
    nums, den = field.integral_nums(y)
    assert den == 1
    coords = list(nums)
    h = ideal.hnf
    d = field.degree
    for i in range(d - 1, -1, -1):
        q = (2 * coords[i] + h[i][i]) // (2 * h[i][i])  # floor(c_i / h_ii + 1/2)
        if q:
            for j in range(i + 1):
                coords[j] -= q * h[i][j]
    return field.from_integral_coords(coords)


def make_coprime_denominator(x: NFElement, P: PrimeIdealData) -> tuple[NFElement, NFElement]:
    """Write x = a/b with a, b in O_K and v_P(b) = 0.

    Requires v_P(x) >= 0.  The p-part p^m of the integer denominator is
    traded for beta^m, beta = h(alpha) the cofactor of the module docstring:
    as p does not divide the index, beta is integral, lies in Q^{e_Q} for
    every other Q above p and is not in P.
    """
    y, b0 = x.content_split()
    m0 = _v_p(b0, P.p)
    field = x.field
    if m0 == 0:
        return y, field.from_rational(b0)
    h = [c % P.p for c in field.min_poly]
    for _ in range(P.e):
        h = _fp_divmod(h, P.factor_poly, P.p)[0]
    beta = field.element(h)
    a = (y * beta ** m0) / (P.p ** m0)
    if not a.is_integral():
        raise NotIntegralAtI("v_P(x) < 0: cannot clear the p-part of the denominator")
    b = field.from_rational(b0 // P.p ** m0) * beta ** m0
    return a, b


def invert_mod_prime_power(b: NFElement, P: PrimeIdealData, k: int) -> NFElement:
    """x in O_K with b*x = 1 mod P^k, for b in O_K with v_P(b) = 0.  The
    inverse mod P is Fermat's in O_K/P = F_p[t]/(g), alpha -> t, g = factor_poly:
    den*b lies in Z[alpha] for its power-basis denominator den, which is prime
    to p as p does not divide the index, so b^-1 = den * (den*b)^(N(P)-2) mod P.
    Hensel's iteration then doubles the precision."""
    p = P.p
    inv = _fp_powmod([n % p for n in b.nums], P.norm - 2, P.factor_poly, p)
    x = P.field.element([c * b.den for c in inv])
    reached = 1
    one = P.field.one()
    while reached < k:
        reached = min(2 * reached, k)
        ideal = P.power(reached)
        x = canonical_residue(x * (one * 2 - b * x), ideal)
    return x


def canonical_lift(eta: NFElement, P: PrimeIdealData, gamma: NFElement | None) -> NFElement:
    """Representative alpha' of eta mod P*O_P that is integral outside P.

    Postconditions: v_P(eta - alpha') >= 1; v_Q(alpha') >= 0 for all finite
    Q != P; the output depends only on the coset of eta.  gamma must generate
    P (supply it from principal_generator or config for class number 1).
    """
    if eta.is_zero():
        return eta.field.zero()
    if gamma is None:
        raise NotPrincipal("canonical_lift needs a generator of P")
    v = valuation(eta, P)
    if v >= 1:
        return eta.field.zero()
    k = max(0, -v)
    mu = eta * gamma ** k if k else eta
    c = _residue_zp(mu, P, k + 1)
    if c is None:
        c = _residue_hnf(mu, P, k + 1)
    if k == 0:
        return c
    key = ("inverse", gamma)
    if key not in P._power_cache:
        P._power_cache[key] = gamma.inverse()
    return c * P._power_cache[key] ** k


def _residue_zp(mu: NFElement, P: PrimeIdealData, n: int) -> NFElement | None:
    """_residue_hnf(mu, P, n) where _zp_root applies, else None: P^n's HNF box
    holds r*b_0 for r in [-p^n/2, p^n/2), and r is the image of mu in Z/p^n,
    (image of q*mu mod p^(n+m)) / p^m / q' for q = p^m q' the common
    denominator of mu's coordinates."""
    q, m = mu.den, _v_p(mu.den, P.p)
    root = _zp_root(P, n + m)
    if root is None:
        return None
    h, pm = P.p ** n, P.p ** m
    r = _zp_image(mu, root[0], h * pm) // pm * pow(q // pm, -1, h) % h
    return mu.field.from_rational(r - h if 2 * r >= h else r)


def _residue_hnf(mu: NFElement, P: PrimeIdealData, n: int) -> NFElement:
    """The representative of mu, v_P(mu) >= 0, mod P^n in P^n's HNF box
    (canonical_residue): the only path where e*f > 1."""
    a, b = make_coprime_denominator(mu, P)
    return canonical_residue(a * invert_mod_prime_power(b, P, n), P.power(n))


# ---------------------------------------------------------------------------
# principal generators


def _lll_reduce_rows(rows: list[list[int]], embed_rows: list[list[float]]) -> list[list[int]]:
    """Textbook float LLL (delta = 0.99) on the lattice spanned by rows; exact
    integer ops on the coordinate rows, float Gram-Schmidt on the embedding
    image, recomputed after every change."""
    coords = [list(r) for r in rows]
    n = len(coords)
    if n <= 1:
        return coords
    basis = [[float(x) for x in r] for r in embed_rows]

    def dot(x, y):
        return sum(a * b for a, b in zip(x, y))

    def gso():
        bstar, mu = [], [[0.0] * n for _ in range(n)]
        for i in range(n):
            v = basis[i]
            for j in range(i):
                denom = dot(bstar[j], bstar[j])
                mu[i][j] = dot(basis[i], bstar[j]) / denom if denom else 0.0
                v = [x - mu[i][j] * y for x, y in zip(v, bstar[j])]
            bstar.append(v)
        return bstar, mu

    delta = 0.99
    k = 1
    guard = 0
    while k < n and guard < 10000:
        guard += 1
        bstar, mu = gso()
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
                coords[k] = [a - q * b for a, b in zip(coords[k], coords[j])]
                bstar, mu = gso()
        if dot(bstar[k], bstar[k]) >= (delta - mu[k][k - 1] ** 2) * dot(bstar[k - 1], bstar[k - 1]):
            k += 1
        else:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            coords[k - 1], coords[k] = coords[k], coords[k - 1]
            k = max(k - 1, 1)
    return coords


GENERATOR_SEARCH_RADIUS = 6  # coefficient radius of principal_generator's search


def principal_generator(P: PrimeIdealData, units=None) -> NFElement:
    """Search a generator gamma of a principal prime P.

    Short vectors of the ideal lattice are enumerated after LLL reduction of
    its embedded basis; the first element (radius-then-lex order) with
    |N| = N(P) generates.  The result is unit-reduced so that every
    |sigma(gamma)| <= T0 * |N(gamma)|^(1/d), then sign-normalized.
    """
    field = P.field
    d = field.degree
    key = ("generator", units)
    if key in P._power_cache:
        return P._power_cache[key]
    rows = [list(r) for r in P.as_ideal.hnf]
    embed_rows = [b.float_minkowski() for b in P.as_ideal.basis_elements()]
    reduced = _lll_reduce_rows(rows, embed_rows)

    target = Fraction(P.norm)
    for radius in range(1, GENERATOR_SEARCH_RADIUS + 1):
        for combo in product(range(-radius, radius + 1), repeat=d):
            if max(abs(c) for c in combo) != radius:
                continue
            coords = [sum(c * reduced[i][j] for i, c in enumerate(combo)) for j in range(d)]
            if not any(coords):
                continue
            g = field.from_integral_coords(coords)
            if abs(g.norm()) == target:
                if units is not None:
                    g = geometry.unit_reduce(g, units)
                for c in g.nums:
                    if c != 0:
                        if c < 0:
                            g = -g
                        break
                P._power_cache[key] = g
                return g
    raise SearchExhausted(
        f"no generator of norm {P.norm} within coefficient radius {GENERATOR_SEARCH_RADIUS}; "
        "supply one with --prime-gen or as the gamma argument of make_representative_type"
    )


def degree_one_primes_above(
    field: NumberField, lower_bound: int, count: int
) -> list[PrimeIdealData]:
    """Scan rational primes p > lower_bound for degree-one unramified primes
    (min_poly has a simple root mod p); one prime per rational p."""
    out: list[PrimeIdealData] = []
    p = lower_bound
    while len(out) < count:
        p = next_prime(p)
        if field.index % p == 0 or field.field_disc % p == 0:
            continue
        for q in primes_above(field, p):
            if q.e == 1 and q.f == 1:
                out.append(q)
                break
    return out


# ---------------------------------------------------------------------------
# S-integers


@dataclass(frozen=True)
class SIntegerRing:
    """Ring O_S: elements of K integral outside the finite places in S.

    contains asks whether a prime outside S divides a denominator, and
    coprime whether one divides the norm of the ideal a O_K + b O_K.  A
    rational prime not under S that divides it already answers, so nothing is
    factored: the rational primes under S are divided out, and only the
    primes Q not in S above them need a valuation.  Every such Q is valued,
    whether or not p divides the norm: v_Q can be nonzero while v_p of the
    norm cancels against a prime of S above p.  is_unit asks membership of x
    and of 1/x.
    """

    field: NumberField
    S: tuple[PrimeIdealData, ...]

    def _outside_s(self, n: int) -> list[PrimeIdealData] | None:
        """None if a rational prime not under S divides n != 0; otherwise the
        primes Q not in S above the rational primes under S."""
        n = abs(n)
        under = sorted({q.p for q in self.S})
        for p in under:
            while n % p == 0:
                n //= p
        if n != 1:
            return None
        return [q for p in under for q in primes_above(self.field, p) if q not in self.S]

    def contains(self, x: NFElement) -> bool:
        """v_Q(x) >= 0 for every Q not in S.  Each prime dividing x's minimal
        denominator b lies under some Q with v_Q(x) < 0."""
        if x.is_zero():
            return True
        others = self._outside_s(x.denominator())
        return others is not None and all(valuation(x, q) >= 0 for q in others)

    def is_unit(self, x: NFElement) -> bool:
        """x and 1/x both lie in O_S.  1/x is asked first: the candidates of
        clw_expand's stage 2 lie in O_S, and most of them are not units."""
        return not x.is_zero() and self.contains(x.inverse()) and self.contains(x)

    def coprime(self, a: NFElement, b: NFElement) -> bool:
        """No prime outside S divides both a and b, for a and b in O_S.  Then
        v_Q(a O_K + b O_K) >= 0 for every Q not in S, so a prime not under S
        that divides the norm of that ideal lies under some Q dividing it."""
        if a.is_zero() and b.is_zero():
            return False
        basis = whole_ring(self.field).basis_elements()
        g = span([a * w for w in basis] + [b * w for w in basis])
        nrm = g.norm()
        others = self._outside_s(nrm.numerator * nrm.denominator)
        return others is not None and all(
            min(valuation(y, q) for y in g.basis_elements()) <= 0
            for q in others
        )

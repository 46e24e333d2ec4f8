"""The benchmark's own arithmetic for checking padiccf's outputs.

Field elements are polynomials in x reduced modulo the minimal polynomial,
computed with sympy; nothing here calls back into padiccf (in particular not
``cfengine.evaluate_cf``).  Only fields whose integral basis is the power
basis are checked for S-integrality, which holds for Q and Q(sqrt 14).
"""
from __future__ import annotations

import hashlib
from fractions import Fraction

import sympy

X = sympy.Symbol("x")


class CheckFailed(Exception):
    """An output did not pass one of the benchmark's checks."""


def digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def coords_key(el) -> tuple[str, ...]:
    return tuple(str(c) for c in el.coords)


class PowerBasisField:
    """Q[x]/(f) with f the field's minimal polynomial (coefficients low to high)."""

    def __init__(self, min_poly):
        self.f = sympy.Poly(list(reversed([int(c) for c in min_poly])), X, domain="QQ")

    def el(self, coords) -> sympy.Poly:
        coeffs = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in coords]
        return sympy.Poly(list(reversed(coeffs)) or [0], X, domain="QQ")

    def of(self, element) -> sympy.Poly:
        return self.el(element.coords)

    def mul(self, a: sympy.Poly, b: sympy.Poly) -> sympy.Poly:
        return (a * b).rem(self.f)

    def cf_value_is(self, quotients: list[sympy.Poly], num: sympy.Poly, den: sympy.Poly) -> bool:
        """True iff [q_0; q_1, ..., q_k] = num/den, via the continuants
        A_n = q_n A_{n-1} + A_{n-2}, B_n = q_n B_{n-1} + B_{n-2}."""
        one, zero = self.el([1]), self.el([0])
        a_prev, a_cur, b_prev, b_cur = one, quotients[0], zero, one
        for q in quotients[1:]:
            a_prev, a_cur = a_cur, self.mul(q, a_cur) + a_prev
            b_prev, b_cur = b_cur, self.mul(q, b_cur) + b_prev
        return not b_cur.is_zero and (self.mul(a_cur, den) - self.mul(num, b_cur)).is_zero

    def in_o_s(self, x: sympy.Poly, gamma: sympy.Poly, p: int) -> bool:
        """x lies in O_S for S = {P}, P = (gamma) above p: gamma^j x is
        integral for j = v_p(denominator of x)."""
        den = 1
        for c in x.all_coeffs():
            den = sympy.ilcm(den, sympy.Rational(c).q)
        j = 0
        while den % p == 0:
            den //= p
            j += 1
        y = x
        for _ in range(j):
            y = self.mul(y, gamma)
        return all(sympy.Rational(c).q == 1 for c in y.all_coeffs())


def check_expansion(pb: PowerBasisField, exp, alpha, epsilon_prime_hi, chain_ok: bool) -> None:
    """Raise CheckFailed unless the expansion reproduces alpha exactly, every
    nu upper endpoint is at most eps'(N(P)) < 1, and the height chain holds."""
    partial = [pb.of(q) for q in exp.partial_quotients]
    last = pb.of(exp.complete_quotients[-1])
    if exp.status[0] == "finite" and last != partial[-1]:
        raise CheckFailed("finite expansion whose last complete quotient is not its floor")
    # alpha = [a_0; ..., a_{n-1}, alpha_n] holds for every stop reason
    if not pb.cf_value_is(partial[:-1] + [last], pb.of(alpha), pb.el([1])):
        raise CheckFailed("continued fraction does not evaluate to alpha")
    if not epsilon_prime_hi < 1:
        raise CheckFailed("eps'(N(P)) is not below 1")
    for step in exp.steps:
        if step.nu is not None and step.nu.hi > epsilon_prime_hi:
            raise CheckFailed(f"nu at step {step.index} exceeds eps'(N(P))")
    if not chain_ok:
        raise CheckFailed("height chain H(alpha_n+1)^d <= C nubar^n fails")


def check_chain(pb: PowerBasisField, chain, gamma, p: int) -> None:
    """Raise CheckFailed unless the chain is terminating, every step identity
    holds, every q_i and r_i is an S-integer, and the quotients evaluate to a/b."""
    if not chain.steps or not chain.steps[-1][1].is_zero():
        raise CheckFailed("chain does not terminate")
    g = pb.of(gamma)
    r_prev2, r_prev = pb.of(chain.a), pb.of(chain.b)
    quotients = []
    for i, (q_el, r_el) in enumerate(chain.steps, start=1):
        q, r = pb.of(q_el), pb.of(r_el)
        if r_prev2 != pb.mul(q, r_prev) + r:
            raise CheckFailed(f"step {i}: r_(i-2) != q_i r_(i-1) + r_i")
        for label, val in (("q", q), ("r", r)):
            if not pb.in_o_s(val, g, p):
                raise CheckFailed(f"step {i}: {label}_{i} is not an S-integer")
        quotients.append(q)
        r_prev2, r_prev = r_prev, r
    if not pb.cf_value_is(quotients, pb.of(chain.a), pb.of(chain.b)):
        raise CheckFailed("quotients do not evaluate to a/b")

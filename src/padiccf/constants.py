"""Explicit constants controlling the finiteness machinery.

Everything is certified: rational inputs give exact values where possible
(theta of a rational with square x^2+4, c(K) for totally real fields), and
interval enclosures otherwise.  Downstream consumers use upper endpoints, so
reported thresholds are conservative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import geometry
from .errors import EpsilonNotLessThanOne
from .exactnf import NFElement, NumberField, denominator_ideal_norm, embedding_product
from .ideals import FractionalIdeal, PrimeIdealData, valuation, whole_ring
from .intervals import DEFAULT_PREC, RealInterval, nth_root_interval, pi_interval, sqrt_interval


def theta(x_sq) -> RealInterval:
    """theta(x) = (|x| + sqrt(|x|^2 + 4)) / 2 from x_sq = |x|^2 >= 0, an
    interval or a rational; satisfies |x| <= theta(x) <= |x| + 1."""
    return (sqrt_interval(x_sq) + sqrt_interval(x_sq + 4)) * Fraction(1, 2)


def _factorial_over_dd(d: int) -> Fraction:
    return Fraction(math.factorial(d), d ** d)


def minkowski_bound(field: NumberField) -> RealInterval:
    """(d!/d^d) (4/pi)^r2 sqrt|disc|: every ideal class has an integral ideal
    of norm below this."""
    d = field.degree
    _, r2 = field.signature
    base = sqrt_interval(abs(field.field_disc)) * _factorial_over_dd(d)
    if r2:
        base = base * (RealInterval.exact(4) / pi_interval()).pow_int(r2)
    return base.rounded(DEFAULT_PREC)


def c_ideal(ideal: FractionalIdeal, field: NumberField) -> RealInterval:
    """max((2/pi)^r2 sqrt|disc| N(ideal), 1)."""
    if not ideal.is_integral():
        raise ValueError("c_ideal needs an integral ideal")
    _, r2 = field.signature
    val = sqrt_interval(abs(field.field_disc)) * ideal.norm()
    if r2:
        val = val * (RealInterval.exact(2) / pi_interval()).pow_int(r2)
    return val.max_with(1).rounded(DEFAULT_PREC)


def c_field(field: NumberField, prec: int = DEFAULT_PREC) -> RealInterval:
    """max(|disc| (8/pi^2)^r2 d!/d^d, 1); exact for totally real fields."""
    d = field.degree
    _, r2 = field.signature
    if r2 == 0:
        exact = max(abs(field.field_disc) * _factorial_over_dd(d), Fraction(1))
        return RealInterval.exact(exact)
    val = RealInterval.exact(abs(field.field_disc) * _factorial_over_dd(d))
    val = val * (RealInterval.exact(8) / pi_interval(prec).square()).pow_int(r2)
    return val.max_with(1).rounded(prec)


def choose_M(field: NumberField) -> int:
    """Smallest integer >= c(K); equality with c(K) is allowed."""
    working = DEFAULT_PREC
    for _ in range(8):
        c = c_field(field, working)
        lo_ceil = -((-c.lo.numerator) // c.lo.denominator)
        hi_ceil = -((-c.hi.numerator) // c.hi.denominator)
        if lo_ceil == hi_ceil:
            return int(lo_ceil)
        working *= 2
    raise ArithmeticError("choose_M: ceiling undecidable; c(K) suspiciously close to an integer")


def epsilon_for(ideal: FractionalIdeal, field: NumberField, M: int) -> RealInterval:
    """epsilon with volume equality M = Vol(D)/Vol(U_eps):
    epsilon = (sqrt|disc| N(ideal) (2/pi)^r2 / M)^(1/d).  Raises if not < 1."""
    d = field.degree
    _, r2 = field.signature
    working = DEFAULT_PREC
    for _ in range(8):
        val = sqrt_interval(abs(field.field_disc), working) * ideal.norm() / M
        if r2:
            val = val * (RealInterval.exact(2) / pi_interval(working)).pow_int(r2)
        eps = nth_root_interval(val, d, working).rounded(working)
        if eps.hi < 1:
            return eps
        if eps.lo >= 1:
            raise EpsilonNotLessThanOne(
                f"M = {M} yields epsilon >= 1 (needs M > c(ideal,K) = {float(c_ideal(ideal, field).hi):.3f})"
            )
        working *= 2
    raise EpsilonNotLessThanOne(f"M = {M}: epsilon not certifiably below 1")


def c_MK(M: int, d: int, epsilon: RealInterval, t0: RealInterval) -> RealInterval:
    """The prime-norm threshold
    (M / (eps T0 ((( (1-eps^d)/(eps^d T0^d) + 1 ))^(1/d) - 1)))^d;
    always strictly larger than M^d."""
    eps_d = epsilon.pow_int(d)
    inner = (RealInterval.exact(1) - eps_d) / (eps_d * t0.pow_int(d)) + 1
    working = DEFAULT_PREC
    for _ in range(8):
        denom = epsilon * t0 * (nth_root_interval(inner, d, working) - 1)
        if denom.certainly_positive():
            return ((RealInterval.exact(M) / denom).pow_int(d)).rounded(working)
        working *= 2
    raise ArithmeticError("c(M,K) denominator not certifiably positive")


def epsilon_prime(q: int, M: int, d: int, epsilon: RealInterval, t0: RealInterval) -> RealInterval:
    """eps^d (1 + T0^d ((1 + M/(eps T0 q^(1/d)))^d - 1)); decreasing in q,
    below 1 exactly when q clears the c(M,K) threshold."""
    if q < 2:
        raise ValueError("q must be at least 2")
    qroot = nth_root_interval(Fraction(q), d)
    inner = (RealInterval.exact(1) + RealInterval.exact(M) / (epsilon * t0 * qroot)).pow_int(d) - 1
    return (epsilon.pow_int(d) * (RealInterval.exact(1) + t0.pow_int(d) * inner)).rounded(DEFAULT_PREC)


def height_constant(diff: NFElement, P: PrimeIdealData) -> RealInterval:
    """The height constant C for diff = a0 - alpha != 0: the product of the
    per-embedding sqrt(|sigma(diff)|^2+1) and of sup(|diff|_w,1) over the finite
    places w away from P, which is the denominator norm of diff away from P."""
    c_inf = embedding_product(diff, lambda mag_sq: sqrt_interval(mag_sq + 1))
    den_norm = denominator_ideal_norm(diff)
    v = valuation(diff, P)
    if v < 0:
        den_norm = Fraction(den_norm, P.norm ** (-v))
        assert den_norm.denominator == 1
    return c_inf * den_norm


def c_alpha(alpha: NFElement, a0: NFElement, P: PrimeIdealData,
            c: RealInterval | None = None) -> int:
    """Iteration cap d*(2^(d+1)*ceil(C)+1)^(d+1), C = height_constant(a0 - alpha)
    (1 when a0 = alpha); a caller that already holds C passes it as c."""
    d = alpha.field.degree
    if c is None and a0 != alpha:
        c = height_constant(a0 - alpha, P)
    c_hi = Fraction(1) if c is None else c.hi
    c_ceil = -((-c_hi.numerator) // c_hi.denominator)
    return d * (2 ** (d + 1) * int(c_ceil) + 1) ** (d + 1)


# ---------------------------------------------------------------------------
# assembled report


@dataclass
class ConstantsReport:
    field_label: str
    abs_disc: int
    signature: tuple[int, int]
    minkowski_bound: RealInterval
    c_field: RealInterval
    M: int
    epsilon: RealInterval
    rho_upper: RealInterval
    t0: RealInterval
    c_MK: RealInterval
    epsilon_prime_at: list[tuple[int, RealInterval]] = dc_field(default_factory=list)
    warnings: list[str] = dc_field(default_factory=list)


def compute_constants(
    field: NumberField,
    units,
    label: str = "",
    M_override: int | None = None,
    epsilon_override: Fraction | None = None,
    epsilon_prime_samples: list[int] | None = None,
) -> ConstantsReport:
    """Full constants pipeline for the trivial-class representative O_K."""
    warnings: list[str] = []
    d = field.degree
    lat = geometry.log_lattice(field, units)
    cf = c_field(field)
    if M_override is None:
        M = choose_M(field)
    else:
        M = M_override
        if RealInterval.exact(M).certainly_lt(cf):
            warnings.append(f"M = {M} is below c(K) (upper endpoint {float(cf.hi):.6g})")
    ok = whole_ring(field)
    if epsilon_override is not None:
        eps = RealInterval.exact(Fraction(epsilon_override))
        if not eps.certainly_lt(RealInterval.exact(1)) or not eps.certainly_positive():
            raise EpsilonNotLessThanOne(f"supplied epsilon {epsilon_override} outside (0,1)")
    else:
        eps = epsilon_for(ok, field, M)
    cmk = c_MK(M, d, eps, lat.t0)
    if not cmk.certainly_gt(RealInterval.exact(Fraction(M) ** d)):
        warnings.append("c(M,K) not certifiably above M^d")
    report = ConstantsReport(
        field_label=label,
        abs_disc=abs(field.field_disc),
        signature=field.signature,
        minkowski_bound=minkowski_bound(field),
        c_field=cf,
        M=M,
        epsilon=eps,
        rho_upper=lat.covering_radius_upper,
        t0=lat.t0,
        c_MK=cmk,
        warnings=warnings,
    )
    for q in epsilon_prime_samples or []:
        report.epsilon_prime_at.append((q, epsilon_prime(q, M, d, eps, lat.t0)))
    return report

"""Unit-lattice geometry: logarithmic embedding, covering-radius bound, T0,
and unit reduction of field elements.

The covering radius of the log-unit lattice is bounded by half the sum of the
sup-norms of the basis vectors (exact in rank 1).  T0 = exp(rho_hat + slack)
with a fixed 2^-40 slack added to the certified upper endpoint: reduction of
an element whose log vector sits exactly on a half-lattice point (it happens:
a^2 = N(a) * u_fund has solutions, e.g. 4+sqrt(14)) could otherwise never be
certified by a strict endpoint comparison.  The slack only ever enlarges the
reported constants, keeping them valid upper bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import CertificationFailed, DependentBasis, ZeroElement
from .exactnf import NFElement, NumberField
from .intervals import DEFAULT_PREC, RealInterval, exp_interval, log_interval

CERT_SLACK = Fraction(1, 1 << 40)
LADDER_START = 32  # first precision of unit_reduce's ladder
ROUNDING_MARGIN = Fraction(1, 1 << 64)  # clearance from n_k +- 1/2 below DEFAULT_PREC


@dataclass(frozen=True)
class UnitSystem:
    """Fundamental units (as supplied; validated for |N| = 1, independence)."""

    units: tuple[NFElement, ...]


@dataclass(frozen=True)
class LogLattice:
    basis: tuple[tuple[RealInterval, ...], ...]
    covering_radius_upper: RealInterval
    t0: RealInterval


def log_embedding(u: NFElement, prec: int = DEFAULT_PREC) -> list[RealInterval]:
    """(log|sigma_1(u)|, ..., 2 log|tau_1(u)|, ...) in R^(r1+r2)."""
    if u.is_zero():
        raise ZeroElement("log embedding of zero")
    field = u.field
    r1 = field.signature[0]
    working = prec
    for attempt in range(6):
        try:
            out = []
            # below DEFAULT_PREC, |sigma(u)| from the cached roots, rounded outward
            at = max(working, DEFAULT_PREC)
            for i in field.minkowski_places():
                e = u.embed(i, at)
                # 2 log|tau| = log|tau|^2 at a complex place
                mag = e.abs_interval(at) if i < r1 else e.abs_sq()
                out.append(log_interval(mag.rounded(working) if working < at else mag, working))
            return out
        except ValueError:
            # a magnitude touching zero at DEFAULT_PREC needs finer roots
            working = 2 * max(working, DEFAULT_PREC)
    raise CertificationFailed("could not separate |sigma(u)| from zero")


def _max_abs(vals: list[RealInterval]) -> RealInterval:
    acc = vals[0].abs()
    for v in vals[1:]:
        acc = acc.max_with(v.abs())
    return acc


def covering_radius_upper(basis: list[list[RealInterval]], prec: int = DEFAULT_PREC) -> RealInterval:
    """(1/2) * sum of sup-norms of the basis vectors.

    Valid upper bound for the sup-norm covering radius of the lattice; exact
    for rank-1 lattices.
    """
    if not basis:
        return RealInterval.exact(0)
    _check_independent(basis)
    total = RealInterval.exact(0)
    for vec in basis:
        total = total + _max_abs(list(vec))
    return (total * Fraction(1, 2)).rounded(prec + 16)


def _check_independent(basis: list[list[RealInterval]]) -> None:
    """A nonzero pivot at every step proves the Gram determinant nonzero, and
    so positive, as a Gram matrix is positive semidefinite."""
    if _solve_lattice_coeffs(basis, [RealInterval.exact(0)] * len(basis[0])) is None:
        raise DependentBasis("Gram determinant not certifiably positive")


def log_lattice(field: NumberField, units: UnitSystem) -> LogLattice:
    """Validated log-unit lattice with covering-radius bound and T0, computed
    once per units and kept in the field's per-field cache."""
    cache_key = ("log_lattice", units)
    cached = field._prime_cache.get(cache_key)
    if cached is not None:
        return cached
    r1, r2 = field.signature
    if len(units.units) != r1 + r2 - 1:
        raise ValueError(
            f"{len(units.units)} units supplied for a unit lattice of rank {r1 + r2 - 1}"
        )
    for u in units.units:
        if abs(u.norm()) != 1:
            raise ValueError(f"unit candidate {u} has |N| = {abs(u.norm())} != 1")
    basis = [log_embedding(u) for u in units.units]
    tol = Fraction(1, 1 << (DEFAULT_PREC // 2))
    for vec in basis:
        s = sum(vec, RealInterval.exact(0))  # complex coordinates already carry the 2
        if not (abs(s.lo) <= tol and abs(s.hi) <= tol):
            raise ValueError("unit log vector is not in the trace-zero hyperplane")
    rho = covering_radius_upper(basis) if basis else RealInterval.exact(0)
    t0_iv = t0_from_rho(rho)
    lattice = LogLattice(
        basis=tuple(tuple(v) for v in basis),
        covering_radius_upper=rho,
        t0=t0_iv,
    )
    field._prime_cache[cache_key] = lattice
    return lattice


def t0_from_rho(rho: RealInterval) -> RealInterval:
    """T0 = exp(rho_hat); the certification slack is folded into rho_hat."""
    rho_cert = RealInterval(rho.lo, rho.hi + CERT_SLACK)
    return exp_interval(rho_cert)


def unit_reduce(a: NFElement, units: UnitSystem) -> NFElement:
    """Multiply a by a unit so every |sigma(u*a)| <= T0 * |N(a)|^(1/d).

    The balanced log vector b of a lies in the trace-zero hyperplane, which
    the unit log vectors ell(u_k) span: b = sum c_k ell(u_k).  Rounding each
    c_k to the nearest integer n_k (Babai, Combinatorica 6, 1986) leaves
    b - sum n_k ell(u_k) = sum (c_k - n_k) ell(u_k), whose sup-norm is at most
    (1/2) sum |ell(u_k)|_inf, the covering-radius bound.  That vector is the
    balanced log of a * prod u_k^(-n_k), so it is certified from b and the
    lattice with no further logarithm; when the enclosures are too wide to
    certify it, the precision doubles, from LADDER_START bits; rungs up to
    DEFAULT_PREC use the field's cached log lattice, later ones recompute it.
    Below DEFAULT_PREC every enclosure of c_k must also stay ROUNDING_MARGIN
    = 2^-64 clear of n_k +- 1/2.  The true c_k is then that far inside n_k's
    rounding cell, so the midpoint of any enclosure narrower than 2^-63, the
    DEFAULT_PREC one included, rounds to n_k too: a low rung cannot change n.
    Exact ties (4+sqrt14, c_k a half-integer) are decided at DEFAULT_PREC.
    """
    if a.is_zero():
        raise ZeroElement("unit_reduce of zero")
    field = a.field
    if not units.units:
        return a

    working = LADDER_START
    while working <= 8 * DEFAULT_PREC:
        if working <= DEFAULT_PREC:
            lattice = log_lattice(field, units)
            basis, rho = lattice.basis, lattice.covering_radius_upper
        else:
            basis = [log_embedding(u, working) for u in units.units]
            rho = covering_radius_upper(basis, working)
        b = _balanced_log(a, working)
        coeffs = _solve_lattice_coeffs(basis, b)
        if coeffs is not None:
            n = [int((c.midpoint() + Fraction(1, 2)).__floor__()) for c in coeffs]
            if working < DEFAULT_PREC and any(
                max(nk - c.lo, c.hi - nk) > Fraction(1, 2) - ROUNDING_MARGIN
                for nk, c in zip(n, coeffs)
            ):
                working *= 2
                continue
            w = list(b)
            for nk, vec in zip(n, basis):
                if nk:
                    w = [wi - vi * nk for wi, vi in zip(w, vec)]
            if _max_abs(w).hi <= rho.hi + CERT_SLACK:
                for u, nk in zip(units.units, n):
                    if nk:
                        a = a * u ** (-nk)
                return a
        working *= 2
    raise CertificationFailed(
        "unit reduction failed to certify the covering-radius bound; check the supplied units"
    )


def _balanced_log(a: NFElement, prec: int) -> list[RealInterval]:
    """ell(a) - (log|N(a)|/d) * (1,..,1,2,..,2), one coordinate per place."""
    r1 = a.field.signature[0]
    d = a.field.degree
    log_norm = log_interval(abs(a.norm()), prec)
    out = []
    for i, v in enumerate(log_embedding(a, prec)):
        weight = Fraction(1 if i < r1 else 2, d)
        out.append((v - log_norm * weight).rounded(prec + 16))
    return out


def _solve_lattice_coeffs(
    basis: list[list[RealInterval]], target: list[RealInterval]
) -> list[RealInterval] | None:
    """Least-squares coefficients of target in span(basis), via the Gram system."""
    r = len(basis)
    gram = [[sum((x * y for x, y in zip(u, v)), RealInterval.exact(0)) for v in basis] for u in basis]
    rhs = [sum((x * y for x, y in zip(u, target)), RealInterval.exact(0)) for u in basis]
    m = [row[:] + [rhs[i]] for i, row in enumerate(gram)]
    for col in range(r):
        piv = next((k for k in range(col, r) if not m[k][col].straddles_zero()), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col].inverse()
        m[col] = [x * inv for x in m[col]]
        for k in range(r):
            if k != col:
                f = m[k][col]
                m[k] = [x - f * y for x, y in zip(m[k], m[col])]
    return [m[i][r] for i in range(r)]


# ---------------------------------------------------------------------------
# Pell fallback for real quadratic fields with O_K = Z[sqrt(D)]


def fundamental_unit_real_quadratic(field: NumberField) -> NFElement:
    """x + y*sqrt(D) from the continued fraction of sqrt(D).

    Applies to fields x^2 - D whose power basis is the maximal order (D
    square-free and not 1 mod 4, so disc = 4D), as this package assumes of a
    field given without an explicit integral basis.
    """
    if field.degree != 2 or field.signature != (2, 0):
        raise ValueError("Pell fallback needs a real quadratic field")
    if field.min_poly[1] != 0:
        raise ValueError("Pell fallback needs the form x^2 - D")
    D = -field.min_poly[0]
    a0 = isqrt(D)
    if a0 * a0 == D:
        raise ValueError("D is a perfect square")
    # continued fraction of sqrt(D); convergents until a period closes
    m, dd, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while p * p - D * q * q not in (1, -1):
        m = dd * a - m
        dd = (D - m * m) // dd
        a = (a0 + m) // dd
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return field.element([p, q])

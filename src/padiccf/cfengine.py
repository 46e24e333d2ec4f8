"""Floor functions, the expansion algorithm, and the finiteness criteria.

A type bundles a field, a finite place, a denominator set and a floor
function.  The expansion iterates alpha_{n+1} = 1/(alpha_n - s(alpha_n)) with
exact complete quotients, recording a certified ledger (heights, nu terms,
valuations) and detecting termination or exact periodicity.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from . import geometry
from .constants import c_alpha, c_MK, choose_M, epsilon_for, height_constant, theta
from .errors import (
    EvenPrime,
    FloorFailure,
    NotAdmissible,
    SearchExhausted,
    ZeroDenominator,
)
from .exactnf import NFElement, NumberField, denominator_ideal_norm, embedding_product, solve, weil_height_pow_d
from .ideals import (
    PrimeIdealData,
    SIntegerRing,
    canonical_lift,
    is_prime,
    primes_above,
    principal_generator,
    valuation,
    whole_ring,
)
from .intervals import DEFAULT_PREC, RealInterval, sqrt_interval

HARD_CAP = 10_000


# ---------------------------------------------------------------------------
# floor functions


class BrowkinFloor:
    """Classical centered-digit floor on Q: digits in (-p/2, p/2), p odd."""

    def __init__(self, p: int):
        if p == 2:
            raise EvenPrime("the centered digit set needs an odd prime")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def apply(self, eta: NFElement, prec: int = DEFAULT_PREC) -> NFElement:
        field = eta.field
        if field.degree != 1:
            raise FloorFailure("Browkin floor is defined over Q only")
        # P = (p) has the HNF box [-p^n/2, p^n/2) of P^n: the digits are the
        # centred ones, with no ties as p is odd
        return canonical_lift(eta, primes_above(field, self.p)[0], field.from_rational(self.p))

    def describe(self) -> str:
        return f"browkin(p={self.p})"


def _horner_width(coeffs, z) -> Fraction:
    """Bound on the width of either part of eval_poly_interval(coeffs, z, DEFAULT_PREC),
    linear in |coeffs|: each step widens a size-m, width-w value by at most
    2(w|z| + m w_z), and rounding moves each endpoint by 2^-(DEFAULT_PREC+16) of its size."""
    zm = max(abs(a) for a in (z.re.lo, z.re.hi, z.im.lo, z.im.hi))
    zw, ulp = max(z.re.width(), z.im.width()), Fraction(1, 2 ** (DEFAULT_PREC + 16))
    m = w = Fraction(0)
    for c in reversed(coeffs):
        m, w = 2 * m * zm + abs(c), 2 * (w * zm + m * zw)
        m, w = m * (1 + ulp), w + 2 * ulp * m
    return w


class RepresentativeFloor:
    """Floor built from a principal generator gamma of P and the
    short-representative search: s(eta) = gamma*(xi - tau/j) where
    xi = lift(eta)/gamma and (j, tau) is the first certified pair with
    every |sigma(j*xi - tau)| < epsilon, j = 1..M-1."""

    def __init__(
        self,
        prime: PrimeIdealData,
        gamma: NFElement,
        M: int,
        epsilon: RealInterval,
    ):
        if M < 2:
            raise ValueError("representative floor needs M >= 2")
        self.prime = prime
        self.gamma = gamma
        self.M = M
        self.epsilon = epsilon
        self._basis = whole_ring(prime.field).basis_elements()
        self._gamma_inv = gamma.inverse()
        self._places = None  # float embedding data, built lazily

    def _babai_data(self):
        """From the certified sigma(b_k) of the integral basis: per real or
        upper-half-plane embedding the float midpoints of Re, Im and |Re|+|Im|;
        one radius covering half-widths and float conversion; the inverse N of
        the Babai matrix B (rows _float_vector(b_k)); and K, which puts the
        float centre _float_vector(x) @ N within K * sum|c_k| of
        x's integral-basis coordinates c up to underflow (Higham 2002, secs. 3.1,
        4.2): the largest entry of the residual B @ N - I, exact over the
        floats, plus N's largest column sum times D + gamma_d (G + D),
        where D = 3/2 (H + radius + 4u(G + H)) covers the Horner half-width H,
        the float midpoints and the sqrt(2) scaling; G >= |sigma(b_k)|, u = 2^-53.
        And the reach R_k * 2^32 = ceil(2^32 epsilon.hi sum_sigma |sigma(b_k^v)|.hi), b^v
        the trace-dual basis: u has coordinates x_k = Tr(u b_k^v) = sum_sigma sigma(u)
        sigma(b_k^v), so every |sigma(u)| < epsilon gives |x_k| < R_k."""
        if self._places is None:
            import numpy as np

            field = self.prime.field
            boxes = field.embeddings()
            places = []
            radius = half = Fraction(0)
            for i in field.minkowski_places():
                box, re, im = boxes[i], [], []
                for b in self._basis:
                    e = b.embed(i)
                    half = max(half, _horner_width(b.coords, box) / 2)
                    for part, mids in ((e.re, re), (e.im, im)):
                        mid = part.midpoint()
                        mids.append(float(mid))
                        radius = max(radius, part.width() / 2 + abs(Fraction(mids[-1]) - mid))
                places.append((re, im, [abs(a) + abs(b) for a, b in zip(re, im)]))
            self._places = places
            self._radius = float(radius)
            mat = np.array([self._float_vector(b) for b in self._basis])
            self._mat_inv = np.linalg.inv(mat)
            B, N = ([[Fraction(a) for a in r] for r in m.tolist()] for m in (mat, self._mat_inv))
            d, u = len(B), Fraction(1, 2 ** 53)
            resid = max(abs(sum(B[r][i] * N[i][k] for i in range(d)) - (r == k))
                        for r in range(d) for k in range(d))
            g = max(abs(a) for row in B for a in row) + radius
            dv = Fraction(3, 2) * (half + radius + 4 * u * (g + half))
            col = max(sum(abs(row[k]) for row in N) for k in range(d))
            self._center_k = resid + col * (dv + d * u / (1 - d * u) * (g + dv))
            basis = self._basis  # Tr(b_i b_k) is symmetric, so the rows of its inverse give b^v
            det, adj = solve([[int((a * b).trace()) for b in basis] for a in basis],
                             [[int(i == k) for k in range(d)] for i in range(d)])
            self._reach = [math.ceil(self.epsilon.hi * 2 ** 32 * sum(
                sqrt_interval(y.embed(i).abs_sq()).hi for i in range(d)))
                for y in (sum((b * t for b, t in zip(basis, row)), field.zero()) / det for row in adj)]

    def _float_vector(self, x: NFElement) -> "np.ndarray":
        import numpy as np

        return np.array(x.float_minkowski(), dtype=float)

    def _center(self, x: NFElement, nums: tuple[int, ...], q: int) -> list[int]:
        """round(c), c = nums / q = integral_nums(x), when every c_k is farther
        from Z + 1/2, |2(n_k mod q) - q| / 2q, than the float centre can be from c
        (K * sum|c_k| + 2^-1000, see _babai_data); else the float centre itself."""
        bound = self._center_k * Fraction(sum(map(abs, nums)), q) + Fraction(1, 2 ** 1000)
        if all(abs(2 * (n % q) - q) > 2 * q * bound for n in nums):
            return [(2 * n + q) // (2 * q) for n in nums]
        # numpy < 2 rounds to floats
        return [int(round(c)) for c in self._float_vector(x) @ self._mat_inv]

    def apply(self, eta: NFElement, prec: int = DEFAULT_PREC) -> NFElement:
        field = self.prime.field
        alpha_prime = canonical_lift(eta, self.prime, self.gamma)
        if alpha_prime.is_zero():  # eta = 0 or v_P(eta) >= 1
            return field.zero()
        xi = alpha_prime * self._gamma_inv
        eps_sq = self.epsilon.square()
        eps_lo = float(eps_sq.lo) * (1 - 2.0 ** -40)
        eps_hi = float(eps_sq.hi) * (1 + 2.0 ** -40)
        self._babai_data()
        margins, reached = [], False
        for j in range(1, self.M):
            if j % self.prime.p == 0:
                continue  # j in P would break the coset condition
            jxi = xi * j
            # u = j*xi - tau has integral-basis coordinates (nums_k - tau_k * q) / q,
            # and an accepted tau lies in the window |tau_k - c_k| <= R_k (_babai_data)
            nums, q = field.integral_nums(jxi)
            windows = [range(-((r * q - (n << 32)) // (q << 32)),
                             ((n << 32) + r * q) // (q << 32) + 1)
                       for n, r in zip(nums, self._reach)]
            survivors = []
            for tau in itertools.product(*windows):
                x = [n - t * q for n, t in zip(nums, tau)]
                verdict, margin = self._float_verdict(x, q, eps_lo, eps_hi)
                if verdict is False:
                    margins.append(margin)
                else:
                    survivors.append((tau, x, verdict))
            if not survivors:
                continue
            reached = True
            # the first accepted by ring 0, 1, 2 around the centre, lexicographic
            # within a ring (README); floats decide, or else _certify
            center = self._center(jxi, nums, q)
            offsets = ((tuple(t - m for t, m in zip(tau, center)), x, v) for tau, x, v in survivors)
            for ring, _, x, verdict in sorted((max(map(abs, o)), o, x, v) for o, x, v in offsets):
                if ring > 2:
                    break
                u = field.from_integral_coords(x, q)
                if verdict is None:
                    verdict, margin = self._certify(u, eps_sq, prec)
                if verdict:
                    return self.gamma * (u / j)
                if margin is not None:
                    margins.append(margin)
        raise SearchExhausted(
            "no (j, tau) pair certified below epsilon ("
            + (f"best squared margin {min(margins, default=None)}" if margins or reached
               else "no tau within the certified reach for any j")
            + "); the prime may be too small for this M"
        )

    def _float_verdict(self, nums: list[int], q: int, eps_lo: float,
                       eps_hi: float) -> tuple[bool | None, float | None]:
        """Certified float comparison of every |sigma(u)|^2 with epsilon^2, for
        u with integral-basis coordinates nums_k / q: (False, a lower
        bound of the excess) when some |sigma(u)|^2 exceeds eps_hi, (True, None)
        when every one is below eps_lo, else (None, None).  The float sum S of
        x_k * sigma(b_k) is within sum|x_k| * radius + (d+2) 2^-53
        sum|x_k|(|Re|+|Im|) of sigma(u) (Higham 2002, secs. 3.1, 4.2); err
        doubles the coefficient and the whole, covering its own rounding and
        underflow, the 2^-40 factors cover the final comparisons, and 2^-1000
        the underflow of the upper bound.  Non-finite values compare false and
        decide nothing."""
        try:
            xf = [n / q for n in nums]  # correctly rounded
        except OverflowError:
            return None, None
        size = sum(abs(a) for a in xf)
        rel = (2 * len(xf) + 4) * 2.0 ** -53
        accept = True
        for re, im, mag in self._places:
            s_re = s_im = scale = 0.0
            for a, r, i, m in zip(xf, re, im, mag):
                s_re += a * r
                s_im += a * i
                scale += abs(a) * m
            err = 2 * (size * self._radius + rel * scale)
            lo_re = max(abs(s_re) - err, 0.0)
            lo_im = max(abs(s_im) - err, 0.0)
            lower = (lo_re * lo_re + lo_im * lo_im) * (1 - 2.0 ** -40)
            if lower > eps_hi:
                return False, lower - eps_hi
            hi_re, hi_im = abs(s_re) + err, abs(s_im) + err
            upper = (hi_re * hi_re + hi_im * hi_im) * (1 + 2.0 ** -40) + 2.0 ** -1000
            accept = accept and upper < eps_lo
        return (True, None) if accept else (None, None)

    def _certify(self, u: NFElement, eps_sq: RealInterval, prec: int):
        """Certified check max_sigma |sigma(u)|^2 < epsilon^2; returns
        (accepted, float margin of the worst embedding)."""
        field = self.prime.field
        working = prec
        for _ in range(4):
            worst_hi = Fraction(0)
            undecided = False
            for i in range(field.degree):
                mag_sq = u.embed(i, working).abs_sq()
                if mag_sq.lo > eps_sq.hi:
                    return False, float(mag_sq.lo - eps_sq.hi)
                if not mag_sq.certainly_lt(eps_sq):
                    undecided = True
                worst_hi = max(worst_hi, mag_sq.hi)
            if not undecided:
                return True, float(eps_sq.lo - worst_hi)
            working *= 2
        return False, None

    def describe(self) -> str:
        return f"representative(p={self.prime.p}, M={self.M})"


class ShiftedFloor:
    """Negative-control wrapper: returns base floor + shift (breaks axiom i)."""

    def __init__(self, base, shift: int = 1):
        self.base = base
        self.shift = shift

    def apply(self, eta: NFElement, prec: int = DEFAULT_PREC) -> NFElement:
        s = self.base.apply(eta, prec)
        return s + s.field.from_rational(self.shift)

    def describe(self) -> str:
        return f"corrupted({self.base.describe()}, +{self.shift})"


# ---------------------------------------------------------------------------
# types


@dataclass
class TypeSpec:
    """A type: field, finite place, denominator set, floor function.

    Membership alpha - s(alpha) in P is read as v_P(alpha - s(alpha)) >= 1 in
    the local ring, which covers inputs of negative valuation.
    """

    field: NumberField
    prime: PrimeIdealData
    denom_set: tuple[NFElement, ...]
    floor: object
    warnings: list[str] = dc_field(default_factory=list)

    def floor_apply(self, eta: NFElement) -> NFElement:
        return self.floor.apply(eta)


def make_browkin_type(field: NumberField, p: int) -> TypeSpec:
    if field.degree != 1:
        raise ValueError("Browkin floor types require K = Q")
    prime = primes_above(field, p)[0]
    return TypeSpec(
        field=field,
        prime=prime,
        denom_set=(field.one(),),
        floor=BrowkinFloor(p),
    )


def make_representative_type(
    field: NumberField,
    prime: PrimeIdealData,
    units,
    M: int | None = None,
    epsilon: RealInterval | None = None,
    gamma: NFElement | None = None,
) -> TypeSpec:
    """Assemble the explicit floor from the constants pipeline; warns when
    the prime norm is at or below the c(M,K) threshold."""
    warnings: list[str] = []
    if M is None:
        M = choose_M(field)
    if epsilon is None:
        epsilon = epsilon_for(whole_ring(field), field, M)
    if gamma is None:
        gamma = principal_generator(prime, units)
    lat = geometry.log_lattice(field, units)
    threshold = c_MK(M, field.degree, epsilon, lat.t0)
    if not RealInterval.exact(prime.norm).certainly_gt(threshold):
        warnings.append(
            f"N(P) = {prime.norm} is not above c(M,K) "
            f"(upper endpoint {float(threshold.hi):.6g}); finiteness is not guaranteed"
        )
    denoms = tuple(field.from_rational(t) for t in range(1, M + 1))
    for t in range(1, M + 1):
        if t % prime.p == 0 and valuation(field.from_rational(t), prime) > 0:
            warnings.append(f"denominator {t} lies in P")
            break
    spec = TypeSpec(
        field=field,
        prime=prime,
        denom_set=denoms,
        floor=RepresentativeFloor(prime, gamma, M, epsilon),
        warnings=warnings,
    )
    return spec


# ---------------------------------------------------------------------------
# expansion


@dataclass
class StepRecord:
    index: int
    complete_quotient: NFElement
    partial_quotient: NFElement
    v_complete: int
    height_pow_d: RealInterval
    nu: RealInterval | None


@dataclass
class CFExpansion:
    spec: TypeSpec
    alpha: NFElement
    partial_quotients: list[NFElement]
    complete_quotients: list[NFElement]
    v_sequence: list[NFElement]  # V_{-1}, V_0, V_1, ...
    steps: list[StepRecord]
    status: tuple
    cap: int
    height_c: RealInterval | None = None  # height_constant(a_0 - alpha), when expand computed it

    @property
    def is_finite(self) -> bool:
        return self.status[0] == "finite"

    def nu_max(self) -> Fraction | None:
        vals = [s.nu.hi for s in self.steps if s.nu is not None]
        return max(vals) if vals else None


def expand(
    alpha: NFElement,
    spec: TypeSpec,
    cap: int | None = None,
) -> CFExpansion:
    """Run the expansion with exact complete quotients.

    Stops Finite when alpha_n = s(alpha_n), Periodic on an exact repeat of a
    complete quotient, else Truncated at the cap (default: the explicit
    iteration bound from the height criterion, clipped to a hard cap).
    """
    field = spec.field
    prime = spec.prime
    a0 = spec.floor_apply(alpha)
    height_c = None
    if cap is None:
        if a0 != alpha:
            height_c = height_constant(a0 - alpha, prime)
        cap = min(c_alpha(alpha, a0, prime, height_c), HARD_CAP)
    cap = max(cap, 1)

    partial: list[NFElement] = []
    complete: list[NFElement] = []
    vseq: list[NFElement] = [field.one()]  # V_{-1}
    steps: list[StepRecord] = []
    seen: dict[NFElement, int] = {}
    status: tuple | None = None

    current = alpha
    seen[current] = 0
    n = 0
    while True:
        a_n = a0 if n == 0 else spec.floor_apply(current)
        diff = current - a_n
        if not diff.is_zero() and valuation(diff, prime) < 1:
            raise FloorFailure(
                f"floor output at step {n} violates v_P(alpha - s(alpha)) >= 1"
            )
        partial.append(a_n)
        complete.append(current)
        if n == 0:
            vseq.append(a_n - alpha)  # V_0
        else:
            if a_n.is_zero() or valuation(a_n, prime) >= 0:
                raise FloorFailure(f"partial quotient at step {n} has v_P >= 0")
            vseq.append(a_n * vseq[-1] + vseq[-2])
        v_complete = valuation(current, prime) if not current.is_zero() else 0
        nu_iv = None
        if n >= 1 or (not a_n.is_zero() and valuation(a_n, prime) < 0):
            nu_iv = nu_term(a_n, spec)
        steps.append(
            StepRecord(
                index=n,
                complete_quotient=current,
                partial_quotient=a_n,
                v_complete=v_complete,
                height_pow_d=weil_height_pow_d(current),
                nu=nu_iv,
            )
        )
        if diff.is_zero():
            status = ("finite", n + 1)
            break
        if n + 1 >= cap:
            status = ("truncated", cap)
            break
        current = diff.inverse()
        if current in seen:
            status = ("periodic", seen[current], n + 1 - seen[current])
            break
        seen[current] = n + 1
        n += 1

    return CFExpansion(
        spec=spec,
        alpha=alpha,
        partial_quotients=partial,
        complete_quotients=complete,
        v_sequence=vseq,
        steps=steps,
        status=status,
        cap=cap,
        height_c=height_c,
    )


def continuants(quotients: list[NFElement]) -> tuple[list[NFElement], list[NFElement]]:
    """A_n, B_n with A_{-1}=1, A_0=a_0, B_{-1}=0, B_0=1; returned including
    the index -1 entries.  |A_n B_{n-1} - A_{n-1} B_n| = 1 along any chain."""
    field = quotients[0].field
    a_list = [field.one(), quotients[0]]
    b_list = [field.zero(), field.one()]
    for q in quotients[1:]:
        a_list.append(q * a_list[-1] + a_list[-2])
        b_list.append(q * b_list[-1] + b_list[-2])
    return a_list, b_list


def evaluate_cf(quotients: list[NFElement]) -> NFElement:
    """Exact value of [a_0, a_1, ..., a_k] by nested evaluation.

    Raises ZeroDenominator when any tail [a_j, ..., a_k], j >= 1, evaluates
    to zero (an intermediate division by zero).  Otherwise the continuant
    B_k, the product of those tails, is nonzero too."""
    if not quotients:
        raise ValueError("empty quotient list")
    tail = quotients[-1]
    for q in reversed(quotients[:-1]):
        if tail.is_zero():
            raise ZeroDenominator("intermediate zero denominator in nested evaluation")
        tail = q + tail.inverse()
    return tail


def nu_term(a: NFElement, spec: TypeSpec) -> RealInterval:
    """Certified value of
    |a|_{w0}^{-d_{w0}} * prod_sigma theta(sigma(a)) * prod_{w != w0} max(|a|_w, 1)^{d_w}.

    The two non-archimedean factors combine into the exact rational
    N(P)^{2 v_P(a)} * N(denominator ideal of a)."""
    if a.is_zero():
        raise NotAdmissible("nu term needs |a|_{w0} > 1")
    v = valuation(a, spec.prime)
    if v >= 0:
        raise NotAdmissible(f"v_P(a) = {v} >= 0")
    finite_part = Fraction(denominator_ideal_norm(a), spec.prime.norm ** (-2 * v))
    return (embedding_product(a, theta) * finite_part).rounded(DEFAULT_PREC)


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class AxiomCheck:
    sample: NFElement
    coset_shift_ok: bool
    membership_ok: bool
    denominator_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.coset_shift_ok and self.membership_ok and self.denominator_ok


@dataclass
class FloorAxiomReport:
    checks: list[AxiomCheck]
    zero_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.zero_ok and all(c.all_ok for c in self.checks)

    def failures(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.all_ok]


def verify_floor_axioms(spec: TypeSpec, samples: list[NFElement]) -> FloorAxiomReport:
    """Check the floor-function axioms on each sample:
    (i) v_P(eta - s(eta)) >= 1; (ii) some t in the denominator set makes
    t*s(eta) integral outside P; (iii) s(0) = 0; (iv) same-coset inputs give
    the same output."""
    field = spec.field
    prime = spec.prime
    zero_ok = spec.floor_apply(field.zero()).is_zero()
    checks = []
    shift_elements = [field.from_integral_coords(row) for row in prime.as_ideal.hnf]
    for idx, eta in enumerate(samples):
        s = spec.floor_apply(eta)
        diff = eta - s
        membership_ok = diff.is_zero() or valuation(diff, prime) >= 1
        denominator_ok = _some_denominator_clears(s, spec)
        shift = shift_elements[idx % len(shift_elements)] * (1 + idx % 3)
        s_shifted = spec.floor_apply(eta + shift)
        coset_ok = s_shifted == s
        checks.append(
            AxiomCheck(
                sample=eta,
                coset_shift_ok=coset_ok,
                membership_ok=membership_ok,
                denominator_ok=denominator_ok,
            )
        )
    return FloorAxiomReport(checks=checks, zero_ok=zero_ok)


def _some_denominator_clears(s: NFElement, spec: TypeSpec) -> bool:
    ring = SIntegerRing(spec.field, (spec.prime,))
    return any(ring.contains(t * s) for t in spec.denom_set)


@dataclass
class TypeCriterionReport:
    nu_values: list[RealInterval]
    empirical_sup: Fraction | None
    flagged: list[int]  # indices with nu upper endpoint >= 1
    chain_ok: bool
    expansions: list[CFExpansion]

    @property
    def all_below_one(self) -> bool:
        return not self.flagged


def verify_type_criterion(
    spec: TypeSpec, samples: list[NFElement], cap: int | None = None
) -> TypeCriterionReport:
    """Empirical criterion run: nu of every floor output, plus the certified
    height chain H(alpha_{n+1})^d <= C * nubar^n along each expansion."""
    nu_values: list[RealInterval] = []
    flagged: list[int] = []
    expansions: list[CFExpansion] = []
    chain_ok = True
    for eta in samples:
        exp = expand(eta, spec, cap=cap)
        expansions.append(exp)
        for s in exp.steps:
            if s.nu is not None:
                nu_values.append(s.nu)
                if s.nu.hi >= 1:
                    flagged.append(len(nu_values) - 1)
        if not check_height_chain(exp)[0]:
            chain_ok = False
    sup = max((v.hi for v in nu_values), default=None)
    return TypeCriterionReport(
        nu_values=nu_values,
        empirical_sup=sup,
        flagged=flagged,
        chain_ok=chain_ok,
        expansions=expansions,
    )


def check_height_chain(exp: CFExpansion) -> tuple[bool, list[Fraction]]:
    """Certified H(alpha_{n+1})^d <= C * nubar^n along the expansion ledger,
    with C = height_constant(a_0 - alpha)."""
    if len(exp.steps) <= 1:
        return True, []
    diff = exp.partial_quotients[0] - exp.alpha
    if diff.is_zero():
        return True, []
    c_iv = exp.height_c if exp.height_c is not None else height_constant(diff, exp.spec.prime)
    nubar = exp.nu_max()
    if nubar is None:
        return True, []
    margins: list[Fraction] = []
    ok = True
    bound = c_iv.hi
    for step in exp.steps[1:]:
        # step.index = n+1; bound currently C * nubar^n
        if step.height_pow_d.hi > bound:
            ok = False
        margins.append(bound - step.height_pow_d.hi)
        bound = bound * nubar
    return ok, margins

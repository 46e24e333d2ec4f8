"""Division chains over rings of S-integers and the 5-stage search.

A chain for (a, b) is the quotient/remainder ledger a = q_1 b + r_1,
b = q_2 r_1 + r_2, ..., checked exactly.  Terminating chains and continued
fractions are interconvertible through the continuant recurrences.  The
staged search produces chains of length <= 5 by finding an auxiliary
principal prime p' = b + k r_1 with r_1 congruent to an S-unit mod p'.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cfengine import continuants, evaluate_cf  # continuants: re-exported
from .errors import NotCoprime, SearchExhausted, ZeroDenominator
from .exactnf import NFElement
from .ideals import PrimeIdealData, SIntegerRing, is_prime, primes_above, principal_generator, valuation
from .intervals import _int_nth_root_floor

# ---------------------------------------------------------------------------
# chains


@dataclass
class DivisionChain:
    ring: SIntegerRing
    a: NFElement
    b: NFElement
    steps: list[tuple[NFElement, NFElement]]  # (q_i, r_i)

    @property
    def terminating(self) -> bool:
        return bool(self.steps) and self.steps[-1][1].is_zero()

    @property
    def length(self) -> int:
        return len(self.steps)

    def quotients(self) -> list[NFElement]:
        return [q for q, _ in self.steps]


@dataclass
class ChainReport:
    valid: bool
    first_bad_index: int | None
    issues: list[str]
    evaluates_correctly: bool | None

    @property
    def all_ok(self) -> bool:
        return self.valid and self.evaluates_correctly is not False


def verify_chain(chain: DivisionChain) -> ChainReport:
    """Exact check of every step identity, S-integrality, and (for a
    terminating chain) that the quotient CF evaluates to a/b."""
    issues: list[str] = []
    first_bad = None
    r_prev2, r_prev = chain.a, chain.b
    for i, (q, r) in enumerate(chain.steps, start=1):
        if r_prev2 != q * r_prev + r:
            issues.append(f"step {i}: identity r_{i-2} = q_{i} r_{i-1} + r_{i} fails")
            if first_bad is None:
                first_bad = i
        for label, val in (("q", q), ("r", r)):
            if not chain.ring.contains(val):
                issues.append(f"step {i}: {label}_{i} is not an S-integer")
                if first_bad is None:
                    first_bad = i
        r_prev2, r_prev = r_prev, r
    evaluates = None
    if chain.terminating and not chain.b.is_zero():
        try:
            evaluates = evaluate_cf(chain.quotients()) == chain.a / chain.b
        except ZeroDenominator:
            evaluates = False
        if not evaluates:
            issues.append("terminating chain does not evaluate to a/b")
    return ChainReport(
        valid=first_bad is None,
        first_bad_index=first_bad,
        issues=issues,
        evaluates_correctly=evaluates,
    )


def cf_to_chain(
    a: NFElement, b: NFElement, quotients: list[NFElement], ring: SIntegerRing
) -> DivisionChain:
    """Rebuild the remainder ledger from quotients; inverse of
    DivisionChain.quotients on terminating chains."""
    if b.is_zero():
        raise ZeroDenominator("b must be nonzero")
    steps = []
    r_prev2, r_prev = a, b
    for q in quotients:
        r = r_prev2 - q * r_prev
        steps.append((q, r))
        r_prev2, r_prev = r_prev, r
    return DivisionChain(ring=ring, a=a, b=b, steps=steps)


# ---------------------------------------------------------------------------
# staged search (length <= 5)


@dataclass
class CLWCaps:
    k_range: int = 25
    unit_exponent_bound: int = 12
    candidate_bound: int = 400


def _babai_round(x: NFElement) -> NFElement:
    """Nearest O_K element to x: each integral-basis coordinate rounded, halves up."""
    nums, q = x.field.integral_nums(x)
    return x.field.from_integral_coords([(2 * n + q) // (2 * q) for n in nums])


def _zigzag(bound: int):
    """0, 1, -1, 2, -2, ..., bound, -bound."""
    yield 0
    for t in range(1, bound + 1):
        yield t
        yield -t


def _prime_ideal_of(x: NFElement) -> PrimeIdealData | None:
    """The prime Q with (x) = Q, if (x) is a prime ideal of O_K: then x is
    integral and |N(x)| = p^f with p prime and f <= d.  For integral x,
    |N(x)| = N(Q) and v_Q(x) = 1 leave no room for another prime factor."""
    if not x.is_integral():
        return None
    nrm = int(abs(x.norm()))
    for f in range(1, x.field.degree + 1):
        p = _int_nth_root_floor(nrm, f)
        if p ** f == nrm and is_prime(p):
            break
    else:
        return None
    if x.field.index % p == 0:
        return None  # primes_above needs p prime to the index
    for q in primes_above(x.field, p):
        if q.norm == nrm and valuation(x, q) == 1:
            return q
    return None


def clw_expand(
    a: NFElement,
    b: NFElement,
    ring: SIntegerRing,
    units,
    caps: CLWCaps | None = None,
) -> DivisionChain:
    """Terminating division chain of length <= 5 for coprime a, b in O_S.

    S must consist of a single principal finite place P = (gamma), with
    gamma = principal_generator(P, units).  Stage 1 picks q_1 with
    v_P(r_1) = 0; stage 2 scans p' = b + k r_1 (k ascending by |k|, positive
    first) for a principal prime, accepting when r_1 is congruent to an
    S-unit u mod p'; the closing stages are then forced.
    Semi-decidable: raises SearchExhausted at the caps.
    """
    caps = caps or CLWCaps()
    field = ring.field
    if b.is_zero():
        raise ZeroDenominator("b must be nonzero")
    if len(ring.S) != 1:
        raise ValueError("the staged search needs S = {one principal finite place}")
    P = ring.S[0]
    gamma = principal_generator(P, units)
    if not (ring.contains(a) and ring.contains(b)):
        raise ValueError("a and b must be S-integers")
    if not ring.coprime(a, b):
        raise NotCoprime("a and b share a prime outside S")

    # immediate termination: b | a in O_S
    q_direct = a / b
    if ring.contains(q_direct):
        return DivisionChain(ring=ring, a=a, b=b, steps=[(q_direct, field.zero())])

    # stage 1: r_1 = a - q_1 b with v_P(r_1) = 0
    m = valuation(b, P)
    gamma_pow = gamma ** m if m > 0 else field.one()
    b2 = b / gamma_pow if m > 0 else b
    c0 = _babai_round(a / b2)
    for t in _zigzag(caps.k_range):
        c = c0 + field.from_rational(t)
        r1 = a - c * b2
        if r1.is_zero():
            return DivisionChain(
                ring=ring, a=a, b=b, steps=[(c / gamma_pow, field.zero())]
            )
        if valuation(r1, P) == 0:
            break
    else:
        raise SearchExhausted("stage 1: no shift made v_P(r_1) = 0")
    steps = [(c / gamma_pow, r1)]

    if ring.is_unit(r1):
        # r_1 is an S-unit: divide exactly and stop at length 2
        steps.append((b / r1, field.zero()))
        return DivisionChain(ring=ring, a=a, b=b, steps=steps)

    # stage 2: scan p' = b + k r_1
    unit_gens = list(units.units) if units is not None else []
    for k in _zigzag(caps.candidate_bound):
        p_prime = b + r1 * k
        if p_prime.is_zero():
            continue
        v = valuation(p_prime, P)
        pn = p_prime / gamma ** v if v else p_prime
        if not pn.is_integral():
            continue
        if ring.is_unit(p_prime):
            # p' itself is an S-unit: close at length 3
            steps_unit = steps + [
                (field.from_rational(-k), p_prime),
                (r1 / p_prime, field.zero()),
            ]
            return DivisionChain(ring=ring, a=a, b=b, steps=steps_unit)
        q_ideal = _prime_ideal_of(pn)
        if q_ideal is None:
            continue
        u = _match_unit(r1, q_ideal, unit_gens, gamma, caps.unit_exponent_bound)
        if u is None:
            continue
        q2 = field.from_rational(-k)
        q3 = (r1 - u) / p_prime
        q4 = u.inverse() * p_prime
        return DivisionChain(
            ring=ring, a=a, b=b, steps=steps + [(q2, p_prime), (q3, u), (q4, field.zero())]
        )
    raise SearchExhausted(
        f"stage 2: no auxiliary principal prime within |k| <= {caps.candidate_bound} "
        f"and unit exponents <= {caps.unit_exponent_bound}"
    )


def _match_unit(
    r1: NFElement,
    Q: PrimeIdealData,
    unit_gens: list[NFElement],
    gamma: NFElement,
    exp_bound: int,
) -> NFElement | None:
    """S-unit u = +/- prod units^e * gamma^e_g with r1 = u mod Q, or None."""
    rf = Q.residue_field()
    target = rf.reduce(r1)
    if all(c == 0 for c in target):
        return None
    gens = unit_gens + [gamma]
    gen_res = [rf.reduce(g) for g in gens]
    ranges = [range(-exp_bound, exp_bound + 1)] * len(gens)
    for exps in product(*ranges):
        acc = rf.one()
        for e, gr in zip(exps, gen_res):
            if e:
                acc = rf.mul(acc, rf.pow(gr, e))
        for sign in (1, -1):
            val = acc if sign == 1 else tuple((-c) % rf.p for c in acc)
            if val == target:
                u = r1.field.one() * sign
                for e, g in zip(exps, gens):
                    if e:
                        u = u * g ** e
                return u
    return None

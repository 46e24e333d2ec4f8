"""Division chains over rings of S-integers and the 5-stage search.

A chain for (a, b) is the quotient/remainder ledger a = q_1 b + r_1,
b = q_2 r_1 + r_2, ..., checked exactly.  Terminating chains and continued
fractions are interconvertible through the continuant recurrences.  The
staged search produces chains of length <= 5 by finding an auxiliary
principal prime p' = b + k r_1 with r_1 congruent to an S-unit mod p'.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .cfengine import continuants, evaluate_cf  # continuants: re-exported
from .errors import MissingClassData, NotCoprime, SearchExhausted, ZeroDenominator
from .exactnf import NFElement
from .ideals import PrimeIdealData, SIntegerRing, is_prime, primes_above, principal_ideal, valuation
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


def chain_to_cf(chain: DivisionChain) -> list[NFElement]:
    if not chain.terminating:
        raise ValueError("only terminating chains convert to continued fractions")
    return chain.quotients()


def cf_to_chain(
    a: NFElement, b: NFElement, quotients: list[NFElement], ring: SIntegerRing
) -> DivisionChain:
    """Rebuild the remainder ledger from quotients; inverse of chain_to_cf."""
    if b.is_zero():
        raise ZeroDenominator("b must be nonzero")
    steps = []
    r_prev2, r_prev = a, b
    for q in quotients:
        r = r_prev2 - q * r_prev
        steps.append((q, r))
        r_prev2, r_prev = r_prev, r
    return DivisionChain(ring=ring, a=a, b=b, steps=steps)


def euclid_chain(a: int, b: int, ring: SIntegerRing) -> DivisionChain:
    """Classical Euclidean algorithm over Z (floor quotients); test oracle."""
    field = ring.field
    steps = []
    x, y = a, b
    while y != 0:
        q, r = divmod(x, y)
        steps.append((field.from_rational(q), field.from_rational(r)))
        x, y = y, r
    return DivisionChain(ring=ring, a=field.from_rational(a), b=field.from_rational(b), steps=steps)


# ---------------------------------------------------------------------------
# ideal-class obstruction


def class_obstruction(
    a: NFElement,
    b: NFElement,
    ring: SIntegerRing,
    class_number: int = 1,
    class_data: dict | None = None,
) -> bool:
    """True iff the class of (a, b) lies in the subgroup generated by the
    classes of the primes in S.  With class number 1 this is always true;
    otherwise explicit class data must be supplied:
    {"structure": [d_1, ...], "s_classes": [[...], ...], "ab_class": [...]}."""
    if class_number == 1:
        return True
    if not class_data:
        raise MissingClassData("class group structure required for h > 1")
    structure = [int(d) for d in class_data["structure"]]
    s_classes = [tuple(int(x) % m for x, m in zip(vec, structure))
                 for vec in class_data["s_classes"]]
    target = tuple(int(x) % m for x, m in zip(class_data["ab_class"], structure))
    generated = {tuple([0] * len(structure))}
    frontier = [tuple([0] * len(structure))]
    while frontier:
        cur = frontier.pop()
        for g in s_classes:
            nxt = tuple((c + x) % m for c, x, m in zip(cur, g, structure))
            if nxt not in generated:
                generated.add(nxt)
                frontier.append(nxt)
    return target in generated


# ---------------------------------------------------------------------------
# staged search (length <= 5)


@dataclass
class CLWCaps:
    k_range: int = 25
    unit_exponent_bound: int = 12
    candidate_bound: int = 400


def _babai_round(x: NFElement) -> NFElement:
    """Nearest O_K element to x: each integral-basis coordinate rounded, halves up."""
    field = x.field
    return field.from_integral_coords(
        [(c + Fraction(1, 2)).__floor__() for c in field.to_integral_coords(x)]
    )


def _prime_ideal_of(x: NFElement) -> PrimeIdealData | None:
    """The prime Q with (x) = Q, if (x) is a prime ideal of O_K: then
    |N(x)| = p^f with p prime and f <= d."""
    nrm = int(abs(x.norm()))
    for f in range(1, x.field.degree + 1):
        p = _int_nth_root_floor(nrm, f)
        if p ** f == nrm and is_prime(p):
            break
    else:
        return None
    for q in primes_above(x.field, p):
        if q.norm == nrm and valuation(x, q) == 1 and principal_ideal(x) == q.as_ideal:
            return q
    return None


def clw_expand(
    a: NFElement,
    b: NFElement,
    ring: SIntegerRing,
    units,
    gamma: NFElement | None = None,
    caps: CLWCaps | None = None,
) -> DivisionChain:
    """Terminating division chain of length <= 5 for coprime a, b in O_S.

    S must consist of a single principal finite place (p) = (gamma).  Stage 1
    picks q_1 with v_P(r_1) = 0; stage 2 scans p' = b + k r_1 (k ascending by
    |k|, positive first) for a principal prime, accepting when r_1 is
    congruent to an S-unit u mod p'; the closing stages are then forced.
    Semi-decidable: raises SearchExhausted at the caps.
    """
    caps = caps or CLWCaps()
    field = ring.field
    if b.is_zero():
        raise ZeroDenominator("b must be nonzero")
    if len(ring.S) != 1:
        raise ValueError("the staged search needs S = {one principal finite place}")
    P = ring.S[0]
    if gamma is None:
        from .ideals import principal_generator

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
    m = valuation(b, P) if not b.is_zero() else 0
    gamma_pow = gamma ** m if m > 0 else field.one()
    b2 = b / gamma_pow if m > 0 else b
    c0 = _babai_round(a / b2)
    q1 = None
    r1 = None
    for t_abs in range(caps.k_range + 1):
        for t in ((t_abs, -t_abs) if t_abs else (0,)):
            c = c0 + field.from_rational(t)
            cand = a - c * b2
            if cand.is_zero():
                return DivisionChain(
                    ring=ring, a=a, b=b, steps=[(c / gamma_pow, field.zero())]
                )
            if valuation(cand, P) == 0:
                q1, r1 = c / gamma_pow, cand
                break
        if q1 is not None:
            break
    if q1 is None:
        raise SearchExhausted("stage 1: no shift made v_P(r_1) = 0")
    steps = [(q1, r1)]

    if ring.is_unit(r1):
        # r_1 is an S-unit: divide exactly and stop at length 2
        steps.append((b / r1, field.zero()))
        return DivisionChain(ring=ring, a=a, b=b, steps=steps)

    # stage 2: scan p' = b + k r_1
    unit_gens = list(units.units) if units is not None else []
    for k_abs in range(caps.candidate_bound + 1):
        for k in ((k_abs, -k_abs) if k_abs else (0,)):
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
            chain = DivisionChain(
                ring=ring,
                a=a,
                b=b,
                steps=steps
                + [(q2, p_prime), (q3, u), (q4, field.zero())],
            )
            return chain
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

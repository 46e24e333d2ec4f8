import hashlib
import random
from fractions import Fraction

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiccf import divchain as DC
from padiccf import ideals as I
from padiccf.errors import IndexDivisor, NotIntegralAtI, SearchExhausted, ZeroValuation
from padiccf.exactnf import new_field
from padiccf.fieldspec import bundled_table1_names, load_bundled
from padiccf.geometry import UnitSystem, fundamental_unit_real_quadratic

F = Fraction


@pytest.fixture(scope="module")
def k14():
    return new_field([-14, 0, 1])


@pytest.fixture(scope="module")
def p5_split(k14):
    # (5, sqrt14 - 2) is the factor with gen2 = 3 + sqrt14
    return I.primes_above(k14, 5)[1]


# -- primes above ---------------------------------------------------------------


def test_primes_above_examples(k14):
    ps = I.primes_above(k14, 5)
    assert len(ps) == 2
    assert all(q.e == 1 and q.f == 1 and q.norm == 5 for q in ps)
    p3 = I.primes_above(k14, 3)
    assert len(p3) == 1 and p3[0].e == 1 and p3[0].f == 2 and p3[0].norm == 9
    p2 = I.primes_above(k14, 2)
    assert len(p2) == 1 and p2[0].e == 2 and p2[0].f == 1
    assert p2[0].gen2 == k14.generator()


def test_primes_above_linear_min_poly():
    # a linear min_poly is its own factorization mod p
    x = sympy.Symbol("x")
    for min_poly, p in (([0, 1], 5), ([3, 1], 7), ([-10, 1], 7), ([7, 1], 7)):
        k = new_field(min_poly)
        (q,) = I.primes_above(k, p)
        (fac, mult), = sympy.Poly(list(reversed(min_poly)), x, modulus=p, symmetric=False).factor_list()[1]
        assert (q.e, q.f, q.factor_poly) == (mult, 1, tuple(int(c) % p for c in reversed(fac.all_coeffs())))
        assert q.norm == p and I.valuation(k.from_rational(p), q) == 1


def _sympy_factors(coeffs, p):
    """factor_mod_p's triples computed by sympy, the test oracle."""
    poly = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"), modulus=p, symmetric=False)
    out = []
    for fac, mult in poly.factor_list()[1]:
        c = tuple(int(x) % p for x in reversed(fac.all_coeffs()))
        out.append((len(c) - 1, c, mult))
    return sorted(out)


_rng = random.Random(29)
LARGE_PRIMES = [sympy.nextprime(_rng.randrange(2000, 10 ** _rng.randint(4, 13))) for _ in range(200)]


@pytest.mark.parametrize("name", ["qsqrt14.json", "qz3.json"]
                         + [f"table1/row{i}.json" for i in range(1, 8)])
def test_primes_above_matches_sympy_factorization(name):
    k = load_bundled(name).field
    for p in list(sympy.primerange(2000)) + LARGE_PRIMES:
        if k.index % p == 0:
            continue
        found = [(q.f, q.factor_poly, q.e) for q in I.primes_above(k, p)]
        assert found == _sympy_factors(k.min_poly, p), p


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13, 10007, 4294967311, 2626003081987]),
    st.lists(st.tuples(st.lists(st.integers(0, 10 ** 13), min_size=1, max_size=4),
                       st.integers(1, 3)), min_size=1, max_size=3),
    st.lists(st.integers(-3, 3), min_size=8, max_size=8),
)
def test_factor_mod_p_matches_sympy(p, parts, lifts):
    """Monic products of small factors raised to powers (repeated factors mod
    p, and p <= d), with coefficients shifted by multiples of p."""
    f = [1]
    for low, mult in parts:
        for _ in range(mult):
            f = _poly_mul(f, [c % p for c in low] + [1])
    assume(2 <= len(f) - 1 <= 8)
    f = [c + p * s for c, s in zip(f[:-1], lifts)] + [1]
    assert I.factor_mod_p(f, p) == _sympy_factors(f, p)


# the least strong pseudoprimes to the first 9 (also 10 and 11), 12 and 13
# prime bases, so 13 Miller-Rabin bases are exact below the last
PSEUDOPRIMES = (3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
PSI_13 = PSEUDOPRIMES[-1]
# strong Lucas pseudoprimes with Selfridge's parameters above psi_13: p*q for
# primes p, q whose Fibonacci rank of apparition is the same odd m, with
# (5/p) = -1 and (5/q) = 1, so that D = 5 and m | (n + 1)/2^s
LUCAS_PSEUDOPRIMES = (
    5568053048227732210073 * 27941,  # m = 127
    85526722937689093 * 2114537501,  # m = 139
    10424204306491346737 * 7636481,  # m = 157
    227150265697 * 717185107125886549,  # m = 197
)


def test_strong_lucas_matches_sympy():
    rng = random.Random(19)
    odd = list(range(3, 20001, 2)) + [rng.getrandbits(rng.randint(2, 200)) | 1 for _ in range(3000)]
    odd += [*LUCAS_PSEUDOPRIMES, PSI_13]
    for n in odd:
        assert I._strong_lucas(n) == is_strong_lucas_prp(n), n
    assert [n for n in range(3, 20001, 2) if I._strong_lucas(n) and not sympy.isprime(n)] \
        == [5459, 5777, 10877, 16109, 18971]
    for n in LUCAS_PSEUDOPRIMES:
        assert n > PSI_13 and I._strong_lucas(n) and not I.is_prime(n)
    # psi_13 passes Miller-Rabin to all 13 bases; the Lucas test rejects it
    assert not I._strong_lucas(PSI_13) and not I.is_prime(PSI_13)


def test_is_prime_matches_sympy():
    assert [n for n in range(20001) if I.is_prime(n)] == list(sympy.primerange(20001))
    rng = random.Random(13)
    others = [rng.getrandbits(rng.randint(2, 100)) for _ in range(3000)]
    others += [sympy.nextprime(rng.getrandbits(rng.randint(40, 100))) for _ in range(100)]
    others += [*PSEUDOPRIMES, PSEUDOPRIMES[-1] - 2, 2 ** 89 - 1, 2 ** 127 - 1]
    # above psi_13: primes, composites and strong Lucas pseudoprimes
    others += [sympy.nextprime(rng.randrange(PSI_13, 1 << 200)) for _ in range(100)]
    others += [sympy.nextprime(rng.getrandbits(50)) * sympy.nextprime(rng.getrandbits(50))
               for _ in range(100)]
    others += [rng.randrange(PSI_13, 1 << 200) | 1 for _ in range(300)]
    others += [*LUCAS_PSEUDOPRIMES, PSI_13 + 142, 2 ** 521 - 1]
    for n in others:
        assert I.is_prime(n) == sympy.isprime(n), n
    assert [I.next_prime(n) for n in range(-2, 3000)] == [sympy.nextprime(n) for n in range(-2, 3000)]


def test_primes_above_sum_ef(k14):
    for p in (7, 11, 13, 127):
        assert sum(q.e * q.f for q in I.primes_above(k14, p)) == 2


def test_index_divisor_rejected():
    k5 = new_field([-5, 0, 1], integral_basis=[[1, 0], [F(1, 2), F(1, 2)]], field_disc=5)
    with pytest.raises(IndexDivisor):
        I.primes_above(k5, 2)
    # odd primes are fine with the supplied basis
    ps = I.primes_above(k5, 11)
    assert sum(q.e * q.f for q in ps) == 2


# -- valuations -------------------------------------------------------------------


def test_valuation_examples(k14, p5_split):
    a = k14.generator()
    assert I.valuation(a - 2, p5_split) == 1
    assert I.valuation(k14.one(), p5_split) == 0
    p2 = I.primes_above(k14, 2)[0]
    assert I.valuation(k14.from_rational(2), p2) == 2
    with pytest.raises(ZeroValuation):
        I.valuation(k14.zero(), p5_split)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=F(-40), max_value=F(40), max_denominator=12),
             min_size=2, max_size=2).filter(lambda c: any(x != 0 for x in c)),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
)
def test_norm_valuation_compatibility(coords, p):
    """Sum of f-weighted valuations above p equals v_p(N(x))."""
    k = new_field([-14, 0, 1])
    x = k.element(coords)
    nrm = x.norm()
    vp_norm = 0
    num, den = abs(nrm.numerator), nrm.denominator
    while num % p == 0:
        num //= p
        vp_norm += 1
    while den % p == 0:
        den //= p
        vp_norm -= 1
    total = sum(q.f * I.valuation(x, q) for q in I.primes_above(k, p))
    assert total == vp_norm


# -- ideal arithmetic --------------------------------------------------------------


def test_ideal_ops_examples(k14):
    ps = I.primes_above(k14, 5)
    prod = ps[0].as_ideal.mul(ps[1].as_ideal)
    assert prod == I.principal_ideal(k14.from_rational(5))
    assert I.whole_ring(k14).norm() == 1
    assert I.principal_ideal(k14.element([3, 1])).norm() == 5


def test_ideal_norm_multiplicative(k14):
    rng = random.Random(7)
    primes = [q for p in (2, 3, 5, 7, 11) for q in I.primes_above(k14, p)]
    for _ in range(20):
        a, b = rng.choice(primes), rng.choice(primes)
        assert a.as_ideal.mul(b.as_ideal).norm() == F(a.norm) * b.norm


def test_ideal_mul_commutes_and_canonical(k14):
    ps = I.primes_above(k14, 5) + I.primes_above(k14, 3)
    for a in ps:
        for b in ps:
            ab = a.as_ideal.mul(b.as_ideal)
            ba = b.as_ideal.mul(a.as_ideal)
            assert ab == ba and ab.hnf == ba.hnf


def test_ideal_products_over_non_power_basis():
    """Over Q(sqrt5) with O_K = Z[(1+sqrt5)/2], whose basis has denominators:
    the two primes above 11 multiply to (11) and add up to O_K, and the unit
    (1+sqrt5)/2 generates O_K."""
    k5 = new_field([-5, 0, 1], integral_basis=[[1, 0], [F(1, 2), F(1, 2)]], field_disc=5)
    q1, q2 = (q.as_ideal for q in I.primes_above(k5, 11))
    assert q1.mul(q2) == I.principal_ideal(k5.from_rational(11))
    assert I.span(q1.basis_elements() + q2.basis_elements()) == I.whole_ring(k5)
    assert I.principal_ideal(k5.element([F(1, 2), F(1, 2)])) == I.whole_ring(k5)


def test_ideal_contains(k14, p5_split):
    assert p5_split.as_ideal.contains(k14.element([3, 1]))
    assert p5_split.as_ideal.contains(k14.from_rational(5))
    assert not p5_split.as_ideal.contains(k14.one())


# -- canonical residues --------------------------------------------------------------


def test_canonical_residue_examples(k14, p5_split, kq):
    p5q = I.primes_above(kq, 5)[0]
    assert I.canonical_residue(kq.from_rational(14), p5q.as_ideal) == kq.from_rational(-1)
    x = k14.element([7, 3])
    assert I.canonical_residue(x, I.whole_ring(k14)).is_zero()
    res = I.canonical_residue(k14.generator(), p5_split.as_ideal)
    assert res == k14.from_rational(2)


def test_canonical_residue_idempotent_and_coset(k14, p5_split):
    rng = random.Random(3)
    ideal = p5_split.power(2)
    for _ in range(25):
        x = k14.element([rng.randint(-100, 100), rng.randint(-100, 100)])
        r = I.canonical_residue(x, ideal)
        assert I.canonical_residue(r, ideal) == r
        shift = k14.from_integral_coords(ideal.hnf[rng.randint(0, 1)])
        assert I.canonical_residue(x + shift, ideal) == r
        assert ideal.contains(x - r)


def test_canonical_residue_rejects_bad_denominator(k14, p5_split):
    with pytest.raises(NotIntegralAtI):
        I.canonical_residue(k14.element([F(1, 5), 0]), p5_split.as_ideal)


# -- residue fields ------------------------------------------------------------------


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ResidueField.inv runs Euclid modulo factor_poly + [1], a polynomial "
                          "one degree too high, so inverses in O_K/P are wrong for f > 1")
def test_residue_field_inverse_at_inert_prime(k14):
    # 37 is inert in Q(sqrt14): O_K/(37) = F_37[t]/(t^2 + 23), and sqrt14 maps to t
    rf = I.ResidueField(I.primes_above(k14, 37)[0])
    if rf.f != 2:
        pytest.fail("37 should be inert in Q(sqrt14)")  # not an AssertionError: never xfails
    a = rf.reduce(k14.generator())
    assert rf.mul(a, rf.inv(a)) == rf.one()


# -- canonical lifts -----------------------------------------------------------------


def test_canonical_lift_at_primes_with_ef_above_one():
    """Lift postconditions at every prime with e*f > 1 above p < 50 (p prime
    to the index) of the bundled fields, where the lift inverts mod P in
    F_p[t]/(g); eta has p^0 to p^2 in its denominators."""
    names = ["qsqrt14.json", "qz3.json"] + bundled_table1_names()
    primes = 0
    for name in names:
        field = load_bundled(name).field
        for p in filter(I.is_prime, range(2, 50)):
            if field.index % p == 0:
                continue
            for P in I.primes_above(field, p):
                if P.e * P.f == 1:
                    continue
                primes += 1
                gamma = I.principal_generator(P)
                ring = I.SIntegerRing(field, (P,))
                rng = random.Random(1000 * p + primes)
                for _ in range(10):
                    eta = field.element([F(rng.randint(-50, 50), rng.randint(1, 9) * p ** rng.randint(0, 2))
                                         for _ in range(field.degree)])
                    lifted = I.canonical_lift(eta, P, gamma)
                    assert eta == lifted or I.valuation(eta - lifted, P) >= 1
                    assert ring.contains(lifted)
    assert primes == 125


def test_canonical_lift_examples(kq):
    p5q = I.primes_above(kq, 5)[0]
    g = kq.from_rational(5)
    assert I.canonical_lift(kq.from_rational(F(7, 3)), p5q, g) == kq.from_rational(-1)
    assert I.canonical_lift(kq.from_rational(F(1, 5)), p5q, g) == kq.from_rational(F(1, 5))
    assert I.canonical_lift(kq.from_rational(10), p5q, g).is_zero()


def _lift_postconditions(eta, P, gamma, field):
    lifted = I.canonical_lift(eta, P, gamma)
    diff = eta - lifted
    if not diff.is_zero():
        assert I.valuation(diff, P) >= 1
    # integral outside P: denominator support must be P only
    _, b = lifted.content_split()
    for p in sympy.factorint(b):
        for q in I.primes_above(field, int(p)):
            if q != P:
                assert I.valuation(lifted, q) >= 0
    # coset determinism
    gen = field.from_integral_coords(P.as_ideal.hnf[0])
    again = I.canonical_lift(eta + gen, P, gamma)
    assert again == lifted


def test_canonical_lift_properties_on_q(kq):
    p5q = I.primes_above(kq, 5)[0]
    g = kq.from_rational(5)
    rng = random.Random(11)
    for _ in range(100):
        eta = kq.from_rational(F(rng.randint(-500, 500), rng.randint(1, 500)))
        _lift_postconditions(eta, p5q, g, kq)


def test_canonical_lift_properties_on_k14(k14, p5_split):
    gamma = k14.element([3, 1])
    assert I.principal_ideal(gamma) == p5_split.as_ideal
    rng = random.Random(13)
    for _ in range(100):
        eta = k14.element([
            F(rng.randint(-60, 60), rng.randint(1, 30)),
            F(rng.randint(-60, 60), rng.randint(1, 30)),
        ])
        _lift_postconditions(eta, p5_split, gamma, k14)


def test_canonical_lift_cross_prime_denominator(k14):
    """Denominator divisible by p through the other prime above it."""
    ps = I.primes_above(k14, 5)
    gamma = k14.element([3, 1])
    P = ps[1]
    eta = k14.one() / k14.element([3, -1])  # 1/(3 - sqrt14), v_P = 0, v_conj = -1
    lifted = I.canonical_lift(eta, P, gamma)
    assert lifted.is_integral()
    assert I.valuation(eta - lifted, P) >= 1


@pytest.mark.parametrize("p, gamma", [(2, (4, 1)), (7, (7, 2))])
def test_canonical_lift_at_ramified_primes(k14, p, gamma):
    """e = 2 above 2 and 7: the HNF path, the only one there, with p in the
    denominators and v_P(eta) < 0 and >= 1."""
    (P,) = I.primes_above(k14, p)
    gamma = k14.element(gamma)
    assert P.e == 2 and I._zp_root(P, 1) is None
    assert I.principal_ideal(gamma) == P.as_ideal
    rng = random.Random(p)
    for _ in range(40):
        eta = k14.element([F(rng.randint(-60, 60), rng.randint(1, 30) * rng.choice((1, p, p * p)))
                           for _ in range(2)]) * gamma ** rng.randint(-2, 2)
        if not eta.is_zero():
            _lift_postconditions(eta, P, gamma, k14)


@pytest.fixture(scope="module")
def zp_primes(k14):
    """(P, gamma) at degree-one primes: both above 48953 and the prime
    (3 + sqrt14) above 5 in Q(sqrt14), one above 1009 in Q(z), z^3 + z + 1 = 0,
    both above 19 in table1 row 5, and both above 2 in Q(w), w^2 - w - 4 = 0,
    where the centred residue mod 2^n has its one tie."""
    units14 = UnitSystem(units=(fundamental_unit_real_quadratic(k14),))
    cases = [(P, units14) for P in I.primes_above(k14, 48953)]
    cases.append((I.primes_above(k14, 5)[1], None))
    qz3 = load_bundled("qz3.json")
    cases.append((I.primes_above(qz3.field, 1009)[0], qz3.units))
    row5 = load_bundled("table1/row5.json")
    cases += [(P, row5.units) for P in I.primes_above(row5.field, 19) if P.f == 1]
    cases += [(P, None) for P in I.primes_above(new_field([-4, -1, 1]), 2)]
    out = [(P, I.principal_generator(P, units)) for P, units in cases]
    assert len(out) == 8 and all(I._zp_root(P, 1) is not None for P, _ in out)
    return out


@settings(max_examples=300, deadline=None)
@given(
    which=st.integers(0, 7),
    nums=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=4, max_size=4),
    den=st.integers(1, 10 ** 4),
    p_exp=st.integers(0, 3),
    g_exp=st.integers(-3, 3),
)
def test_zp_path_equals_hnf_path(zp_primes, which, nums, den, p_exp, g_exp):
    """At e = f = 1 valuation and the residue under canonical_lift on
    Z/p^N equal the HNF path, with p in the coordinate denominators and
    v_P(eta) < 0 and >= 1."""
    P, gamma = zp_primes[which]
    field = P.field
    eta = field.element([F(n, den * P.p ** p_exp) for n in nums[:field.degree]]) * gamma ** g_exp
    assume(not eta.is_zero())
    v = I.valuation(eta, P)
    assert v == I._valuation_hnf(eta, P)
    lifted = I.canonical_lift(eta, P, gamma)
    if v >= 1:
        assert lifted.is_zero()
        return
    k = max(0, -v)
    mu = eta * gamma ** k
    assert I._residue_zp(mu, P, k + 1) == I._residue_hnf(mu, P, k + 1)
    assert lifted == I._residue_hnf(mu, P, k + 1) / gamma ** k
    assert lifted == eta or I.valuation(eta - lifted, P) >= 1


@pytest.fixture(scope="module")
def cofactor_primes(k14):
    """Every prime above 2, 3, 5 and 7 in Q(sqrt14) (ramified, inert, split,
    ramified) and the residue-degree-2 prime above 19 in table1 row 5: the
    primes where the residue takes the HNF path or p has several primes."""
    out = [P for p in (2, 3, 5, 7) for P in I.primes_above(k14, p)]
    out += [P for P in I.primes_above(load_bundled("table1/row5.json").field, 19) if P.f == 2]
    assert [(P.p, P.e, P.f) for P in out] == [(2, 2, 1), (3, 1, 2), (5, 1, 1), (5, 1, 1), (7, 2, 1), (19, 1, 2)]
    return out


def _p_element(P, nums, den, m, k):
    """y * g(alpha)^k / (den * p^m) for P = (p, g(alpha)), y in Z[alpha]:
    v_P is at least k - e*m, and the other primes above p can carry p^m."""
    field = P.field
    return field.element(nums[:field.degree]) * P.gen2 ** k / (den * P.p ** m)


P_ELEMENTS = dict(
    which=st.integers(0, 5),
    nums=st.lists(st.integers(-10 ** 4, 10 ** 4), min_size=4, max_size=4),
    den=st.sampled_from((1, 11, 13, 23)),
    m=st.integers(1, 3),
    k=st.integers(0, 7),
)


@settings(max_examples=200, deadline=None)
@given(**P_ELEMENTS)
def test_make_coprime_denominator(cofactor_primes, which, nums, den, m, k):
    """x = a/b with a, b in O_K and v_P(b) = 0 whenever v_P(x) >= 0, for x
    whose denominator carries p; NotIntegralAtI when v_P(x) < 0."""
    P = cofactor_primes[which]
    x = _p_element(P, nums, den, m, k)
    assume(not x.is_zero() and x.content_split()[1] % P.p == 0)
    if I.valuation(x, P) < 0:
        with pytest.raises(NotIntegralAtI):
            I.make_coprime_denominator(x, P)
        return
    a, b = I.make_coprime_denominator(x, P)
    assert a.is_integral() and b.is_integral() and a / b == x
    assert I.valuation(b, P) == 0


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 3), **P_ELEMENTS)
def test_residue_hnf_is_the_box_representative(cofactor_primes, which, nums, den, m, k, n):
    """_residue_hnf(mu, P, n) is congruent to mu mod P^n and is its own
    canonical residue mod P^n: the unique representative in P^n's HNF box."""
    P = cofactor_primes[which]
    mu = _p_element(P, nums, den, m, k)
    assume(not mu.is_zero() and I.valuation(mu, P) >= 0)
    r = I._residue_hnf(mu, P, n)
    assert I.canonical_residue(r, P.power(n)) == r
    assert r == mu or I.valuation(mu - r, P) >= n


# -- principal generators ---------------------------------------------------------------


def test_principal_generator_examples(k14, p5_split):
    units = UnitSystem(units=(fundamental_unit_real_quadratic(k14),))
    g = I.principal_generator(p5_split, units)
    assert abs(g.norm()) == 5
    assert I.principal_ideal(g) == p5_split.as_ideal
    g2 = I.principal_generator(I.primes_above(k14, 2)[0], units)
    assert abs(g2.norm()) == 2
    assert g2 == k14.element([4, 1])
    g3 = I.principal_generator(I.primes_above(k14, 3)[0], units)
    assert g3 == k14.from_rational(3)
    # (2, 1 + sqrt-5) is not principal: the error names the ways to supply gamma
    p2 = I.primes_above(new_field([5, 0, 1]), 2)[0]
    with pytest.raises(SearchExhausted, match="--prime-gen or as the gamma argument"):
        I.principal_generator(p2)


# gamma = principal_generator(P, units) at the first degree-one prime above p;
# gamma fixes the representative floor at P, so a changed value moves reports
GENERATORS = {
    ("qsqrt14.json", 48953): "263,38",
    ("qsqrt14.json", 48989): "369,115",
    ("qsqrt14.json", 48991): "347,110",
    ("table1/row1.json", 40926439): "361,-208,-109",
    ("table1/row2.json", 187030603): "787,267,-477",
    ("table1/row3.json", 2446455061): "1449,1318,-784",
    ("table1/row4.json", 2626003081987): "39261,3362,-8092",
    ("table1/row5.json", 208540588079): "870,-13,-2,151",
    ("table1/row6.json", 1063633253941): "725,-203,409,236",
    ("table1/row7.json", 424088764133): "780,-55,222,564",
}


@pytest.mark.parametrize("name,p", list(GENERATORS))
def test_principal_generator_pinned(name, p):
    lf = load_bundled(name)
    q = next(q for q in I.primes_above(lf.field, p) if q.e == 1 and q.f == 1)
    gamma = I.principal_generator(q, lf.units)
    assert ",".join(str(c) for c in gamma.coords) == GENERATORS[name, p]


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


@pytest.mark.parametrize("name,p", list(GENERATORS))
def test_lll_reduce_rows_is_reduced_basis_of_the_ideal(name, p):
    """The reduced rows span the ideal (same HNF), and their embedding images
    are size-reduced and meet the Lovasz condition with delta = 0.99."""
    lf = load_bundled(name)
    q = next(q for q in I.primes_above(lf.field, p) if q.e == 1 and q.f == 1)
    ideal = q.as_ideal
    reduced = I._lll_reduce_rows([list(r) for r in ideal.hnf],
                                 [b.float_minkowski() for b in ideal.basis_elements()])
    assert I.hnf_rows(reduced, lf.field.degree) == ideal.hnf
    bstar = []
    for k, row in enumerate(reduced):
        v = lf.field.from_integral_coords(row).float_minkowski()
        mu = [_dot(v, w) / _dot(w, w) for w in bstar]
        assert all(abs(m) <= 0.5 + 2 ** -20 for m in mu)
        for m, w in zip(mu, bstar):
            v = [x - m * y for x, y in zip(v, w)]
        if k:
            assert _dot(v, v) >= (0.99 - mu[-1] ** 2) * _dot(bstar[-1], bstar[-1])
        bstar.append(v)


# sha256 of the lines "<field> <p> <i> <coords of gamma>" for every prime ideal
# above p < 30 of the bundled fields of degree > 1, as the ring search of unit
# exponents and a numpy LLL gave them
GENERATOR_SWEEP_SHA256 = "7ba4a29977a449dffd29fa12bb189a44c15d22e04e2c1772bd9a0bd2d4105b86"


def test_principal_generator_sweep():
    lines = []
    for name in ["qsqrt14.json", "qz3.json"] + bundled_table1_names():
        lf = load_bundled(name)
        for p in filter(I.is_prime, range(2, 30)):
            for i, q in enumerate(I.primes_above(lf.field, p)):
                gamma = I.principal_generator(q, lf.units)
                lines.append(f"{name} {p} {i} " + ",".join(str(c) for c in gamma.coords))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GENERATOR_SWEEP_SHA256


def test_degree_one_prime_scan(k14):
    primes = I.degree_one_primes_above(k14, 48896, 3)
    assert len(primes) == 3
    for q in primes:
        assert q.e == 1 and q.f == 1 and q.norm > 48896
        assert pow(14, (q.p - 1) // 2, q.p) == 1  # 14 is a QR mod p


# -- S-integers ---------------------------------------------------------------------------


def test_s_integer_membership(kq, k14):
    p5q = I.primes_above(kq, 5)[0]
    ring = I.SIntegerRing(field=kq, S=(p5q,))
    assert ring.contains(kq.from_rational(F(7, 25)))
    assert not ring.contains(kq.from_rational(F(1, 3)))
    assert ring.contains(kq.from_rational(10))
    ps = I.primes_above(k14, 5)
    ring14 = I.SIntegerRing(field=k14, S=(ps[1],))
    assert ring14.contains(k14.one() / k14.element([3, 1]))
    assert not ring14.contains(k14.one() / k14.element([3, -1]))


def test_s_integer_predicates_when_norm_valuations_cancel(k14, p5_split):
    """In Q(sqrt14), x = (3 - sqrt14)/(3 + sqrt14) has norm 1 but valuation 1
    at the prime (3 - sqrt14) above 5, which is outside S = {(3 + sqrt14)}."""
    ring = I.SIntegerRing(field=k14, S=(p5_split,))
    other = k14.element([3, -1])
    x = other / k14.element([3, 1])
    assert x.norm() == 1 and ring.contains(x)
    assert not ring.is_unit(x)
    assert not ring.coprime(x, other)


def test_s_unit_needs_membership():
    """In qz3 with S = {(2), (5)}, both inert, x = 20/3 - (20/3)alpha + 10alpha^2
    has N(x) = 1000 and valuations 2 and -1 at the two primes above 3: the
    norm hides the pole, so x is neither in O_S nor an S-unit."""
    k = load_bundled("qz3.json").field
    ring = I.SIntegerRing(field=k, S=(*I.primes_above(k, 2), *I.primes_above(k, 5)))
    x = k.element([F(20, 3), F(-20, 3), 10])
    assert x.norm() == 1000
    assert not ring.contains(x)
    assert not ring.is_unit(x)


def test_s_integer_predicates_at_index_divisors():
    """Over Q(sqrt5) with O_K = Z[(1+sqrt5)/2], 2 divides the index
    [O_K : Z[sqrt5]] and primes_above(2) is refused.  The predicates still
    answer: 2 lies under no prime of S, so it is outside S."""
    k5 = new_field([-5, 0, 1], integral_basis=[[1, 0], [F(1, 2), F(1, 2)]], field_disc=5)
    ring = I.SIntegerRing(field=k5, S=tuple(I.primes_above(k5, 5)))
    half, two, sqrt5 = k5.from_rational(F(1, 2)), k5.from_rational(2), k5.generator()
    assert not ring.contains(half)
    assert ring.contains((k5.one() + sqrt5) * half) and ring.contains(sqrt5.inverse())
    assert not ring.is_unit(two) and ring.is_unit(sqrt5)
    assert not ring.coprime(two, two * sqrt5) and ring.coprime(two, sqrt5)


# The predicates defined by factoring and asking every prime above each rational
# prime factor.  For x = y/b with y integral, v_Q(x) != 0 only where Q divides
# y or b, so it is N(y)*b that is factored, not N(x), in which the valuations
# at two primes above one p can cancel.


def _over_factors(ring, n, ok):
    return all(q in ring.S or ok(q) for p in sympy.factorint(abs(n))
               for q in I.primes_above(ring.field, int(p)))


def _contains_by_factoring(ring, x):
    return x.is_zero() or _over_factors(ring, x.denominator(), lambda q: I.valuation(x, q) >= 0)


def _is_unit_by_factoring(ring, x):
    y, b = x.content_split()
    return _over_factors(ring, int(y.norm()) * b, lambda q: I.valuation(x, q) == 0)


def _coprime_by_factoring(ring, a, b):
    # v_Q(aO_K + bO_K) > 0 only where Q divides a's integral numerator
    g = I.span(I.principal_ideal(a).basis_elements() + I.principal_ideal(b).basis_elements())
    y = (a if not a.is_zero() else b).content_split()[0]
    return _over_factors(ring, int(y.norm()), lambda q: min(
        I.valuation(e, q) for e in g.basis_elements() if not e.is_zero()) <= 0)


def _prime_ideal_by_factoring(x):
    nrm = int(abs(x.norm()))
    primes = list(sympy.factorint(nrm)) if nrm > 1 else []
    if len(primes) != 1:
        return None
    for q in I.primes_above(x.field, int(primes[0])):
        if q.norm == nrm and I.valuation(x, q) == 1 and I.principal_ideal(x) == q.as_ideal:
            return q
    return None


S_FIELDS = ("qsqrt14.json", "table1/row1.json", "qz3.json")


@pytest.fixture(scope="module")
def s_fields():
    return {name: load_bundled(name) for name in S_FIELDS}


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(S_FIELDS),
    under_s=st.sets(st.sampled_from((2, 3, 5, 7)), min_size=1),
    all_above=st.booleans(),
    unit_exps=st.lists(st.integers(-2, 2), min_size=2, max_size=2),
    s_exps=st.lists(st.integers(-2, 2), min_size=4, max_size=4),
    coords=st.lists(st.lists(st.integers(-40, 40), min_size=3, max_size=3), min_size=3, max_size=3),
    dens=st.lists(st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 14, 25, 39)), min_size=3, max_size=3),
    outside=st.sampled_from((1, 11, 13)),
)
def test_s_integer_predicates_match_factoring(s_fields, name, under_s, all_above, unit_exps,
                                              s_exps, coords, dens, outside):
    """contains, is_unit, coprime and the prime-ideal test give the answers of
    their factoring definitions, on S-units units * gamma^k (True branches),
    on multiples of them by small elements and on elements with small
    denominators."""
    lf = s_fields[name]
    k = lf.field
    d = k.degree
    S = tuple(q for p in sorted(under_s) for q in I.primes_above(k, p)[:None if all_above else 1])
    ring = I.SIntegerRing(field=k, S=S)
    unit = k.one()
    for u, e in zip(lf.units.units, unit_exps):
        unit = unit * u ** e
    s_unit = unit
    for q, e in zip(S, s_exps):
        s_unit = s_unit * I.principal_generator(q, lf.units) ** e
    y, z, c = (k.from_integral_coords(v[:d]) for v in coords)
    assume(not y.is_zero() and not z.is_zero())
    pi = I.principal_generator(I.primes_above(k, outside)[0], lf.units) if outside > 1 else k.one()
    x = y * k.from_rational(F(1, dens[0]))
    for elt in (x, s_unit, s_unit * x, y * k.from_rational(F(1, dens[1] * dens[2]))):
        assert ring.contains(elt) == _contains_by_factoring(ring, elt)
    for elt in (s_unit, -s_unit * pi, s_unit * y, y * k.from_rational(F(1, dens[1]))):
        assert ring.is_unit(elt) == _is_unit_by_factoring(ring, elt)
    a, b = s_unit * y, z * unit
    pairs = [(a, b), (s_unit, b)] + ([(a * c * pi, b * c * pi)] if not c.is_zero() else [])
    for a, b in pairs:
        assert ring.coprime(a, b) == _coprime_by_factoring(ring, a, b)
    # in Q(sqrt14), pi * g1 / g2 with (g1), (g2) the primes above 5 is not
    # integral, yet |N| = N((pi)) and its valuation at (pi) is 1
    fives = [I.principal_generator(q, lf.units) for q in I.primes_above(k, 5)]
    for elt in (pi * unit, pi * pi, y, y * z, I.principal_generator(S[0], lf.units) * unit,
                pi * fives[0] / fives[-1]):
        assert DC._prime_ideal_of(elt) == _prime_ideal_by_factoring(elt)


def _solve_coeffs(h, target):
    """The c with c * H = target, for H lower triangular."""
    c, r = [F(0)] * len(h), list(target)
    for i in range(len(h) - 1, -1, -1):
        c[i] = r[i] / h[i][i]
        for j in range(i + 1):
            r[j] -= c[i] * h[i][j]
    return c


def test_hnf_rows_properties():
    """HNF is canonical, spans the same lattice, preserves the volume."""
    rng = random.Random(101)

    for _ in range(50):
        d = rng.randint(1, 4)
        while True:
            rows = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d + rng.randint(0, 2))]
            try:
                h = I.hnf_rows(rows, d)
                break
            except ValueError:
                continue
        # lower triangular, positive diagonal, normalized below-pivot entries
        for i in range(d):
            assert h[i][i] > 0
            for j in range(i + 1, d):
                assert h[i][j] == 0
            for k in range(i + 1, d):
                assert 0 <= h[k][i] < h[i][i]
        # canonical: HNF of its own rows is itself
        assert I.hnf_rows([list(r) for r in h], d) == h
        # same lattice: every input row solves integrally against h
        for row in rows:
            coeffs = _solve_coeffs(h, [F(x) for x in row])
            assert all(c.denominator == 1 for c in coeffs)


def test_canonical_residue_coprime_denominator(kq):
    p5q = I.primes_above(kq, 5)[0]
    r = I.canonical_residue(kq.from_rational(F(7, 3)), p5q.as_ideal)
    assert r == kq.from_rational(-1)  # 7 * 3^(-1) = 14 = -1 mod 5

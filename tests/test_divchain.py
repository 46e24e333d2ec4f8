import random
from fractions import Fraction
from math import gcd

import pytest

from padiccf import divchain as DC
from padiccf import geometry as G
from padiccf.cfengine import evaluate_cf
from padiccf.errors import NotCoprime, SearchExhausted
from padiccf.exactnf import new_field
from padiccf.fieldspec import load_bundled
from padiccf.ideals import SIntegerRing, primes_above

F = Fraction


def euclid_chain(a: int, b: int, ring: SIntegerRing) -> DC.DivisionChain:
    """Classical Euclidean algorithm over Z (floor quotients): the oracle."""
    field = ring.field
    steps = []
    x, y = a, b
    while y != 0:
        q, r = divmod(x, y)
        steps.append((field.from_rational(q), field.from_rational(r)))
        x, y = y, r
    return DC.DivisionChain(ring=ring, a=field.from_rational(a), b=field.from_rational(b),
                            steps=steps)


@pytest.fixture(scope="module")
def ring_q():
    kq = new_field([0, 1])
    p5 = primes_above(kq, 5)[0]
    return SIntegerRing(field=kq, S=(p5,))


@pytest.fixture(scope="module")
def qz_setup():
    lf = load_bundled("qz3.json")
    p5 = primes_above(lf.field, 5)[0]
    return lf, SIntegerRing(field=lf.field, S=(p5,))


def paper_chain(qz):
    """The bundled golden chain for 7/3 in Q(z), z^3 + z + 1 = 0."""
    lf, ring = qz
    kz = lf.field
    quotients = [
        kz.from_rational(-1),
        kz.element([F(1, 5), F(-1, 5)]),
        kz.element([-15, 6, -12]),
        kz.element([1, 2]),
    ]
    return DC.cf_to_chain(kz.from_rational(7), kz.from_rational(3), quotients, ring)


def test_golden_chain_verifies(qz_setup):
    chain = paper_chain(qz_setup)
    assert chain.terminating and chain.length == 4
    rep = DC.verify_chain(chain)
    assert rep.all_ok, rep.issues
    lf, _ = qz_setup
    assert evaluate_cf(chain.quotients()) == lf.field.from_rational(F(7, 3))


def test_verify_trivial_chain(ring_q):
    kq = ring_q.field
    chain = DC.DivisionChain(
        ring=ring_q, a=kq.from_rational(6), b=kq.from_rational(3),
        steps=[(kq.from_rational(2), kq.zero())],
    )
    rep = DC.verify_chain(chain)
    assert rep.all_ok and chain.terminating


def test_corrupted_chain_pinpointed(qz_setup):
    chain = paper_chain(qz_setup)
    q2, r2 = chain.steps[1]
    chain.steps[1] = (q2, r2 + qz_setup[0].field.one())
    rep = DC.verify_chain(chain)
    assert not rep.valid
    assert rep.first_bad_index == 2  # the next identity consumes the bad remainder


def test_non_s_integer_flagged(ring_q):
    kq = ring_q.field
    chain = DC.DivisionChain(
        ring=ring_q, a=kq.from_rational(1), b=kq.from_rational(3),
        steps=[(kq.from_rational(F(1, 3)), kq.zero())],
    )
    rep = DC.verify_chain(chain)
    assert not rep.valid and any("S-integer" in s for s in rep.issues)


def test_roundtrip_paper_chain(qz_setup):
    chain = paper_chain(qz_setup)
    assert chain.terminating
    quotients = chain.quotients()
    back = DC.cf_to_chain(chain.a, chain.b, quotients, chain.ring)
    assert back.steps == chain.steps


def test_roundtrip_random_euclid(ring_q):
    rng = random.Random(79)
    for _ in range(40):
        a, b = rng.randint(-2000, 2000), rng.randint(1, 2000)
        chain = euclid_chain(a, b, ring_q)
        assert chain.length <= 2 + b.bit_length() * 2
        assert DC.verify_chain(chain).all_ok and chain.terminating
        qs = chain.quotients()
        assert DC.cf_to_chain(chain.a, chain.b, qs, ring_q).steps == chain.steps
        # classical gcd shows up as the last nonzero remainder
        nonzero = [r for _, r in chain.steps if not r.is_zero()]
        if nonzero:
            assert abs(nonzero[-1].coords[0]) == gcd(a, b)


def test_continuant_determinant(ring_q):
    rng = random.Random(83)
    for _ in range(40):
        a, b = rng.randint(1, 5000), rng.randint(1, 5000)
        chain = euclid_chain(a, b, ring_q)
        if not chain.steps:
            continue
        A, B = DC.continuants(chain.quotients())
        for n in range(1, len(A)):
            det = A[n] * B[n - 1] - A[n - 1] * B[n]
            assert det.coords[0] in (1, -1)


def test_babai_round_ties_round_up(ring_q, qz_setup):
    """Every integral-basis coordinate is rounded exactly, an exact half up,
    as over Q; float rounding of the embedding gave float noise at ties."""
    kq, kz, k14 = ring_q.field, qz_setup[0].field, new_field([-14, 0, 1])
    cases = [
        (kq, (F(-7, 2),), (-3,)),
        (k14, (F(1, 2), F(1, 2)), (1, 1)),
        (k14, (F(5, 2), F(-7, 2)), (3, -3)),
        (k14, (F(7, 3), F(-8, 3)), (2, -3)),
        (kz, (F(1, 2), F(1, 2), F(1, 2)), (1, 1, 1)),
    ]
    for field, coords, expected in cases:
        rounded = DC._babai_round(field.from_integral_coords(coords))
        assert field.integral_nums(rounded) == (expected, 1)


def test_prime_ideal_of_index_divisor():
    """Over Q(sqrt5) with O_K = Z[(1+sqrt5)/2], 2 divides the index
    [O_K : Z[sqrt5]]: primes_above(2) is refused, so (2) is not recognised as
    a prime and the stage-2 candidate is skipped instead of raising."""
    k5 = new_field([-5, 0, 1], integral_basis=[[1, 0], [F(1, 2), F(1, 2)]])
    assert DC._prime_ideal_of(k5.from_rational(2)) is None
    assert DC._prime_ideal_of(k5.from_rational(3)) is not None


def test_clw_trivial(ring_q):
    kq = ring_q.field
    units = G.UnitSystem(units=())
    chain = DC.clw_expand(kq.one(), kq.one(), ring_q, units)
    assert chain.length == 1
    assert chain.steps[0][0] == kq.one() and chain.steps[0][1].is_zero()


def test_clw_not_coprime(ring_q):
    kq = ring_q.field
    units = G.UnitSystem(units=())
    with pytest.raises(NotCoprime):
        DC.clw_expand(kq.from_rational(6), kq.from_rational(3), ring_q, units)


def test_clw_seven_three(ring_q):
    units = G.UnitSystem(units=())
    kq = ring_q.field
    chain = DC.clw_expand(kq.from_rational(7), kq.from_rational(3), ring_q, units)
    assert chain.terminating and chain.length <= 5
    assert DC.verify_chain(chain).all_ok


def test_clw_random_pairs(ring_q):
    rng = random.Random(89)
    units = G.UnitSystem(units=())
    kq = ring_q.field
    done = 0
    exhausted = 0
    for _ in range(25):
        a = rng.randint(-500, 500)
        b = rng.randint(1, 500)
        if b == 0 or gcd(a, b) not in (1, 5, 25, 125):
            continue
        g = gcd(a, b)
        if g != 1 and any(g % p == 0 for p in (2, 3, 7, 11, 13) if g % p == 0):
            continue
        try:
            chain = DC.clw_expand(kq.from_rational(a), kq.from_rational(b), ring_q, units)
        except NotCoprime:
            continue
        except SearchExhausted:
            exhausted += 1
            continue
        assert chain.terminating and chain.length <= 5
        assert DC.verify_chain(chain).all_ok
        done += 1
    assert done >= 10
    assert exhausted <= done // 10


def test_clw_in_cubic_field(qz_setup):
    lf, ring = qz_setup
    kz = lf.field
    chain = DC.clw_expand(kz.from_rational(7), kz.from_rational(3), ring, lf.units)
    assert chain.terminating and chain.length <= 5
    assert DC.verify_chain(chain).all_ok
    assert evaluate_cf(chain.quotients()) == kz.from_rational(F(7, 3))


def test_clw_nontrivial_cubic_pair(qz_setup):
    lf, ring = qz_setup
    kz = lf.field
    z = kz.generator()
    a = kz.from_rational(10) + z
    b = kz.from_rational(3)
    chain = DC.clw_expand(a, b, ring, lf.units)
    assert chain.terminating and chain.length <= 5
    assert DC.verify_chain(chain).all_ok


def test_clw_search_exhausted_with_tiny_caps(ring_q):
    kq = ring_q.field
    units = G.UnitSystem(units=())
    caps = DC.CLWCaps(k_range=0, unit_exponent_bound=0, candidate_bound=0)
    with pytest.raises(SearchExhausted):
        DC.clw_expand(kq.from_rational(100), kq.from_rational(47), ring_q, units, caps=caps)


def test_euclid_gcd_with_empty_s():
    """Classical Euclid over Z viewed as S = {} chains: the last nonzero
    remainder is +-gcd(a, b)."""
    kq = new_field([0, 1])
    ring = SIntegerRing(field=kq, S=())
    rng = random.Random(97)
    for _ in range(25):
        a, b = rng.randint(-3000, 3000), rng.randint(1, 3000)
        chain = euclid_chain(a, b, ring)
        assert DC.verify_chain(chain).all_ok
        nonzero = [r for _, r in chain.steps if not r.is_zero()]
        if nonzero:
            assert abs(nonzero[-1].coords[0]) == gcd(a, b)

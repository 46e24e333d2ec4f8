import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiccf import cfengine as CF
from padiccf import geometry as G
from padiccf.constants import compute_constants
from padiccf.errors import EvenPrime, FloorFailure, NotAdmissible, SearchExhausted, ZeroDenominator
from padiccf.exactnf import new_field
from padiccf.fieldspec import load_bundled
from padiccf.ideals import canonical_lift, degree_one_primes_above, primes_above, valuation
from padiccf.intervals import DEFAULT_PREC, RealInterval

F = Fraction


@pytest.fixture(scope="module")
def kq():
    return new_field([0, 1])


@pytest.fixture(scope="module")
def browkin5(kq):
    return CF.make_browkin_type(kq, 5)


@pytest.fixture(scope="module")
def k14():
    return new_field([-14, 0, 1])


@pytest.fixture(scope="module")
def units14(k14):
    return G.UnitSystem(units=(G.fundamental_unit_real_quadratic(k14),))


@pytest.fixture(scope="module")
def rep_type_14(k14, units14):
    prime = degree_one_primes_above(k14, 48896, 1)[0]
    return CF.make_representative_type(k14, prime, units14)


# -- floors ---------------------------------------------------------------------


def test_browkin_examples(kq, browkin5):
    fl = browkin5.floor
    assert fl.apply(kq.from_rational(F(7, 3))) == kq.from_rational(-1)
    assert fl.apply(kq.from_rational(F(3, 10))) == kq.from_rational(F(-11, 5))
    assert fl.apply(kq.zero()).is_zero()


def test_browkin_rejects_two():
    with pytest.raises(EvenPrime):
        CF.BrowkinFloor(2)


def test_browkin_digit_structure(kq, browkin5):
    """s(x) = sum c_i p^i with centered digits and v_p(x - s(x)) >= 1."""
    rng = random.Random(41)
    fl = browkin5.floor
    for _ in range(100):
        x = F(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 10 ** 4))
        s = fl.apply(kq.from_rational(x)).coords[0]
        diff = x - s
        if diff != 0:
            num, den = diff.numerator, diff.denominator
            assert num % 5 == 0 and den % 5 != 0
        # digits: numerator of s over p^k stays below p^(k+1)/2 in magnitude
        k = 0
        den = s.denominator
        while den % 5 == 0:
            den //= 5
            k += 1
        assert den == 1  # only p-power denominators
        assert abs(s.numerator) * 2 < 5 ** (k + 1) or s == 0


def _browkin_digit(x: Fraction, p: int) -> Fraction:
    """The centred-digit floor computed directly: u/p^k with u = x*p^k mod
    p^(k+1) in (-p^(k+1)/2, p^(k+1)/2), p^k the p-part of x's denominator."""
    if x == 0:
        return F(0)
    num, den = x.numerator, x.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    mod = p ** (k + 1)
    u = num * pow(den, -1, mod) % mod
    if 2 * u > mod:
        u -= mod
    return F(u, p ** k)


BROWKIN_PRIMES = (3, 5, 7, 11, 13, 101, 3317044064679887385962123)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(BROWKIN_PRIMES), st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 12),
       st.integers(0, 3))
def test_browkin_floor_matches_digit_oracle(kq, p, num, den, k):
    x = F(num, den * p ** k)
    assert CF.BrowkinFloor(p).apply(kq.from_rational(x)).coords[0] == _browkin_digit(x, p)


def test_representative_floor_q_examples(kq):
    p5 = primes_above(kq, 5)[0]
    fl = CF.RepresentativeFloor(p5, kq.from_rational(5), 2, RealInterval.exact(F(1, 2)))
    assert fl.apply(kq.from_rational(F(1, 3))) == kq.from_rational(2)
    assert fl.apply(kq.from_rational(F(1, 2))) == kq.from_rational(-2)
    assert fl.apply(kq.from_rational(10)).is_zero()


def test_representative_floor_axiom_i(rep_type_14, k14):
    eta = k14.element([F(7, 3), F(2, 5)])
    s = rep_type_14.floor_apply(eta)
    assert valuation(eta - s, rep_type_14.prime) >= 1


# -- nu terms ----------------------------------------------------------------------


def test_nu_examples(kq, browkin5):
    nu1 = CF.nu_term(kq.from_rational(F(7, 5)), browkin5)
    assert abs(float(nu1.lo) - 0.3841311123146740) < 1e-12
    nu2 = CF.nu_term(kq.from_rational(F(-11, 5)), browkin5)
    assert abs(float(nu2.lo) - 0.5173213749463701) < 1e-12
    nu3 = CF.nu_term(kq.from_rational(F(1, 25)), browkin5)
    assert abs(float(nu3.lo) - 0.0408079992001599) < 1e-12


def test_nu_rejects_integral(kq, browkin5):
    with pytest.raises(NotAdmissible):
        CF.nu_term(kq.from_rational(7), browkin5)
    with pytest.raises(NotAdmissible):
        CF.nu_term(kq.zero(), browkin5)


def test_browkin_nu_below_half_plus(kq, browkin5):
    """Browkin outputs have nu <= 1/2 + 1/p (digit bound)."""
    rng = random.Random(43)
    fl = browkin5.floor
    for _ in range(100):
        x = F(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 10 ** 4))
        s = fl.apply(kq.from_rational(x))
        if s.is_zero() or valuation(s, browkin5.prime) >= 0:
            continue
        nu = CF.nu_term(s, browkin5)
        assert nu.hi < F(1, 2) + F(1, 5) + F(1, 100)


# -- expansion ------------------------------------------------------------------------


def test_expand_examples(kq, browkin5):
    exp = CF.expand(kq.from_rational(F(7, 3)), browkin5)
    assert [q.coords[0] for q in exp.partial_quotients] == [F(-1), F(-11, 5), F(2, 5)]
    assert exp.status == ("finite", 3)
    assert CF.evaluate_cf(exp.partial_quotients) == kq.from_rational(F(7, 3))
    assert CF.expand(kq.from_rational(2), browkin5).status == ("finite", 1)
    assert CF.expand(kq.zero(), browkin5).status == ("finite", 1)


def test_evaluate_cf_examples(kq):
    vals = [kq.from_rational(i) for i in (1, 2, 3)]
    assert CF.evaluate_cf(vals) == kq.from_rational(F(10, 7))
    assert CF.evaluate_cf([kq.from_rational(9)]) == kq.from_rational(9)
    with pytest.raises(ZeroDenominator):
        CF.evaluate_cf([kq.one(), kq.zero(), kq.from_rational(-1), kq.one()])
    with pytest.raises(ZeroDenominator):  # the outermost tail [1, -1] is zero
        CF.evaluate_cf([kq.one(), kq.one(), kq.from_rational(-1)])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-10 ** 4, max_value=10 ** 4),
    st.integers(min_value=1, max_value=10 ** 4),
    st.sampled_from([3, 5, 7]),
)
def test_expand_roundtrip_random(num, den, p):
    kq = new_field([0, 1])
    spec = CF.make_browkin_type(kq, p)
    alpha = kq.from_rational(F(num, den))
    exp = CF.expand(alpha, spec, cap=1000)
    assert exp.status[0] == "finite"
    assert CF.evaluate_cf(exp.partial_quotients) == alpha
    for s in exp.steps:
        if s.nu is not None:
            assert s.nu.hi < 1


def test_v_sequence_invariants(kq, browkin5):
    rng = random.Random(47)
    prime = browkin5.prime
    for _ in range(40):
        alpha = kq.from_rational(F(rng.randint(-5000, 5000), rng.randint(1, 5000)))
        exp = CF.expand(alpha, browkin5, cap=1000)
        vs = exp.v_sequence  # [V_{-1}, V_0, ...]
        qs = exp.partial_quotients
        assert vs[0] == kq.one()
        assert vs[1] == qs[0] - alpha
        for n in range(1, len(qs)):
            assert vs[n + 1] == qs[n] * vs[n] + vs[n - 1]
            # alpha_{n+1} = -V_{n-1}/V_n when the expansion continues
            if n + 1 < len(exp.complete_quotients):
                assert exp.complete_quotients[n + 1] == -(vs[n] / vs[n + 1])
            # v_P(a_n) < 0 for n >= 1
            assert valuation(qs[n], prime) < 0
            # |V_{n-1}|_{w0} = prod_{j<=n} |a_j|^{-1}: in valuation form
            if not vs[n].is_zero():
                assert valuation(vs[n], prime) == -sum(
                    valuation(qs[j], prime) for j in range(1, n + 1)
                )


def test_expand_truncation(kq, browkin5):
    alpha = kq.from_rational(F(123456, 77777))
    exp = CF.expand(alpha, browkin5, cap=2)
    assert exp.status == ("truncated", 2)
    assert len(exp.partial_quotients) == 2


class _ConstantShiftFloor:
    """Synthetic floor s(x) = x - c: forces alpha_{n+1} = 1/c forever."""

    def __init__(self, c):
        self.c = c

    def apply(self, eta, prec=128):
        return eta - self.c

    def describe(self):
        return "synthetic-periodic"


def test_periodicity_detection_and_replay(kq, browkin5):
    c = kq.from_rational(F(5, 1))
    spec = CF.TypeSpec(field=kq, prime=browkin5.prime, denom_set=(kq.one(),),
                       floor=_ConstantShiftFloor(c))
    exp = CF.expand(kq.from_rational(F(7, 3)), spec, cap=50)
    assert exp.status[0] == "periodic"
    pre, period = exp.status[1], exp.status[2]
    assert period >= 1
    # soundness: the next complete quotient really equals the stored one
    cq, qs = exp.complete_quotients, exp.partial_quotients
    succ = (cq[-1] - qs[-1]).inverse()
    assert succ == cq[pre]
    # replay from the repeat point reproduces the period quotients
    replay = CF.expand(cq[pre], spec, cap=2 * period + 2)
    assert replay.partial_quotients[:period] == qs[pre:pre + period]


def test_floor_failure_on_bad_floor(kq, browkin5):
    spec = CF.TypeSpec(field=kq, prime=browkin5.prime, denom_set=(kq.one(),),
                       floor=CF.ShiftedFloor(CF.BrowkinFloor(5)))
    with pytest.raises(FloorFailure):
        CF.expand(kq.from_rational(F(7, 3)), spec)


# -- verification reports -----------------------------------------------------------


def test_verify_floor_axioms_clean(kq, browkin5):
    rng = random.Random(53)
    samples = [kq.from_rational(F(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 10 ** 4)))
               for _ in range(100)]
    rep = CF.verify_floor_axioms(browkin5, samples)
    assert rep.all_ok and rep.zero_ok


def test_verify_floor_axioms_corrupted(kq, browkin5):
    spec = CF.TypeSpec(field=kq, prime=browkin5.prime, denom_set=(kq.one(),),
                       floor=CF.ShiftedFloor(CF.BrowkinFloor(5)))
    rng = random.Random(59)
    samples = [kq.from_rational(F(rng.randint(-100, 100), rng.randint(1, 100)))
               for _ in range(20)]
    rep = CF.verify_floor_axioms(spec, samples)
    assert not rep.all_ok
    assert any(not c.membership_ok for c in rep.checks)  # axiom (i) broken


def test_verify_floor_axioms_representative(rep_type_14, k14):
    rng = random.Random(61)
    samples = [k14.element([F(rng.randint(-30, 30), rng.randint(1, 20)),
                            F(rng.randint(-30, 30), rng.randint(1, 20))])
               for _ in range(20)]
    rep = CF.verify_floor_axioms(rep_type_14, samples)
    assert rep.all_ok


def test_verify_type_criterion_browkin(kq, browkin5):
    rng = random.Random(67)
    samples = [kq.from_rational(F(rng.randint(-10 ** 3, 10 ** 3), rng.randint(1, 10 ** 3)))
               for _ in range(50)]
    rep = CF.verify_type_criterion(browkin5, samples)
    assert rep.empirical_sup is not None and rep.empirical_sup < 1
    assert rep.all_below_one and rep.chain_ok
    assert all(e.status[0] == "finite" for e in rep.expansions)


def test_verify_type_vacuous(kq, browkin5):
    rep = CF.verify_type_criterion(browkin5, [kq.from_rational(2)])
    assert rep.empirical_sup is None and rep.all_below_one and rep.chain_ok


def test_representative_type_warning_for_small_prime(k14, units14):
    small = primes_above(k14, 5)[1]
    spec = CF.make_representative_type(k14, small, units14)
    assert any("c(M,K)" in w for w in spec.warnings)


def test_representative_expansion_and_nu_bound(rep_type_14, k14, units14):
    """Expansion at a prime above the threshold: finite, every nu <= eps'."""
    from padiccf.constants import epsilon_prime

    prime = rep_type_14.prime
    floor = rep_type_14.floor
    epsp = epsilon_prime(prime.norm, floor.M, 2, floor.epsilon,
                         G.log_lattice(k14, units14).t0)
    assert epsp.hi < 1
    rng = random.Random(71)
    for _ in range(5):
        alpha = k14.element([F(rng.randint(-40, 40), rng.randint(1, 20)),
                             F(rng.randint(-40, 40), rng.randint(1, 20))])
        exp = CF.expand(alpha, rep_type_14)
        assert exp.status[0] == "finite"
        assert CF.evaluate_cf(exp.partial_quotients) == alpha
        for s in exp.steps:
            if s.nu is not None:
                assert s.nu.hi <= epsp.hi
        ok, _ = CF.check_height_chain(exp)
        assert ok


def test_finite_factor_bounded_by_denominator_set(rep_type_14, k14):
    """Finite-place part of nu for representative outputs stays below M^d."""
    from padiccf.exactnf import denominator_ideal_norm

    rng = random.Random(73)
    prime = rep_type_14.prime
    M = rep_type_14.floor.M
    for _ in range(10):
        eta = k14.element([F(rng.randint(-50, 50), rng.randint(1, 25)),
                           F(rng.randint(-50, 50), rng.randint(1, 25))])
        s = rep_type_14.floor_apply(eta)
        if s.is_zero():
            continue
        v = valuation(s, prime)
        finite = F(denominator_ideal_norm(s), prime.norm ** max(0, -v))
        assert finite <= F(M - 1) ** 2


def test_representative_floor_negative_valuation_input(rep_type_14, k14):
    """Inputs with v_P < 0 go through the lift's k > 0 branch."""
    gamma = rep_type_14.floor.gamma
    prime = rep_type_14.prime
    eta = k14.one() / gamma + k14.element([F(1, 3), F(2, 7)])
    assert valuation(eta, prime) == -1
    s = rep_type_14.floor_apply(eta)
    assert valuation(eta - s, prime) >= 1
    assert valuation(s, prime) == -1
    exp = CF.expand(eta, rep_type_14)
    assert exp.status[0] == "finite"
    assert CF.evaluate_cf(exp.partial_quotients) == eta


# -- float pre-filter of the representative floor -------------------------------


def _floor_outputs(spec, samples):
    out = []
    for x in samples:
        try:
            out.append(spec.floor.apply(x))
        except SearchExhausted:
            out.append("exhausted")
    return out


def test_float_filter_keeps_floor_outputs(monkeypatch, k14, units14):
    """The float verdicts drop only candidates that exact certification
    rejects and accept only candidates it accepts, so every floor value (and
    every exhausted search) matches the search that certifies every
    candidate: at both primes above 48953, at P = (3+sqrt14) over 5 where no
    pair exists, and at table1 row 3 including step-1 complete quotients."""
    rng = random.Random(2718)
    cases = []
    for prime in primes_above(k14, 48953):
        spec = CF.make_representative_type(k14, prime, units14)
        cases.append((spec, [k14.element([F(rng.randint(-60, 60), rng.randint(1, 30))
                                          for _ in range(2)]) for _ in range(5)]))
    small = primes_above(k14, 5)[1]
    spec = CF.make_representative_type(k14, small, units14, gamma=k14.element([3, 1]))
    cases.append((spec, [k14.from_rational(2)]))
    row = load_bundled("table1/row3.json")
    c_mk = compute_constants(row.field, row.units).c_MK.hi
    prime = degree_one_primes_above(row.field, math.ceil(c_mk), 1)[0]
    spec = CF.make_representative_type(row.field, prime, row.units)
    samples = []
    for _ in range(3):
        x = row.field.element([F(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(3)])
        diff = x - spec.floor.apply(x)
        samples += [x] if diff.is_zero() else [x, diff.inverse()]
    cases.append((spec, samples))

    filtered = [_floor_outputs(spec, samples) for spec, samples in cases]
    assert filtered[2] == ["exhausted"]
    monkeypatch.setattr(CF.RepresentativeFloor, "_float_verdict", lambda self, *args: (None, None))
    assert [_floor_outputs(spec, samples) for spec, samples in cases] == filtered


def test_floats_decide_every_accept(monkeypatch, k14, units14):
    """On criterion-5 draws and their step-1 complete quotients at the split
    primes above 48953, floats accept the first pair every time: exact
    certification never runs."""
    rng = random.Random(1618)
    monkeypatch.setattr(CF.RepresentativeFloor, "_certify", lambda self, *args: pytest.fail())
    for prime in primes_above(k14, 48953):
        spec = CF.make_representative_type(k14, prime, units14)
        for _ in range(10):
            x = k14.element([F(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(2)])
            diff = x - spec.floor.apply(x)
            if not diff.is_zero():
                spec.floor.apply(diff.inverse())


def _places_floor(field, p, inverse=None):
    floor = CF.RepresentativeFloor(primes_above(field, p)[0], field.one(), 2, RealInterval.exact(1))
    with pytest.MonkeyPatch.context() as mp:
        if inverse is not None:
            mp.setattr(np.linalg, "inv", inverse)
        floor._babai_data()
    return floor


@pytest.fixture(scope="module")
def place_floors(k14):
    # a totally real field, one with a complex place (z^3 + z + 1), table1
    # row 5 (quartic, signature (2, 1)), and Q(sqrt14) with the Babai inverse
    # rounded to multiples of 2^-16, whose residual B @ N - I dominates the
    # float centre's error
    inv = np.linalg.inv
    coarse = lambda m: np.round(inv(m) * 2 ** 16) / 2 ** 16  # noqa: E731
    return [_places_floor(k14, 48953), _places_floor(new_field([1, 1, 0, 1]), 47),
            _places_floor(load_bundled("table1/row5.json").field, 47),
            _places_floor(k14, 48953, inverse=coarse)]


@settings(max_examples=200, deadline=None)
@given(
    which=st.integers(0, 1),
    den=st.integers(1, 10 ** 12),
    nums=st.lists(st.integers(-3 * 10 ** 12, 3 * 10 ** 12), min_size=3, max_size=3),
    slack=st.integers(1, 60),
)
def test_float_filter_never_rejects_certified_candidates(place_floors, which, den, nums, slack):
    """Floats reject only what _certify rejects and accept only what it
    accepts, and they decide both ways where sigma(u) is not tiny."""
    floor = place_floors[which]
    field = floor.prime.field
    d = field.degree
    nums = nums[:d]
    assume(any(nums))
    u = field.from_integral_coords([F(n, den) for n in nums])
    mags = [u.embed(i).abs_sq() for i in range(d)]

    def verdict(eps_sq):
        return floor._float_verdict(nums, den, float(eps_sq.lo) * (1 - 2.0 ** -40),
                                    float(eps_sq.hi) * (1 + 2.0 ** -40))

    # epsilon^2 just above every certified |sigma(u)|^2: exact certification accepts u
    eps_sq = RealInterval.exact(max(m.hi for m in mags) * (1 + F(1, 2 ** slack)))
    assert max(m.hi for m in mags) < eps_sq.lo
    accepted, margin = verdict(eps_sq)
    assert accepted is not False and margin is None
    if accepted:
        assert floor._certify(u, eps_sq, DEFAULT_PREC)[0]
    # epsilon^2 a little below some certified |sigma(u)|^2: floats reject u
    low = max(m.lo for m in mags) * (1 - F(1, 2 ** 20))
    if low > 0:
        assert verdict(RealInterval.exact(low))[0] is False
        assert not floor._certify(u, RealInterval.exact(low), DEFAULT_PREC)[0]
    # epsilon^2 a quarter above, and no cancellation beyond 2^-30 of the
    # coordinates' size in any sigma(u): floats accept u
    if min(m.lo for m in mags) > (sum(abs(F(n, den)) for n in nums) / 2 ** 30) ** 2:
        assert verdict(RealInterval.exact(max(m.hi for m in mags) * F(5, 4))) == (True, None)


# -- exact Babai centre of the representative floor ----------------------------------


_coordinate = st.one_of(
    st.builds(F, st.integers(-10 ** 15, 10 ** 15), st.integers(1, 10 ** 6)),
    st.builds(F, st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 5)),
    st.builds(F, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 6)),
    # within 2^-40 of a half-integer, where the float centre may round the other way
    st.builds(lambda m, t: F(2 * m + 1, 2) + F(t, 2 ** 60),
              st.integers(-300, 300), st.integers(-2 ** 20, 2 ** 20)),
)


@settings(max_examples=300, deadline=None)
@given(which=st.integers(0, 3), coords=st.lists(_coordinate, min_size=4, max_size=4))
def test_exact_centre_equals_float_centre(place_floors, which, coords):
    """The float centre is within K * sum|c| (+ 2^-1000) of the exact
    coordinates c, and _center, exact where every c_k is farther than that
    from Z + 1/2, equals the float centre on every input."""
    floor = place_floors[which]
    field = floor.prime.field
    coords = coords[: field.degree]
    assume(any(coords))
    x = field.from_integral_coords(coords)
    floats = floor._float_vector(x) @ floor._mat_inv
    bound = floor._center_k * sum(abs(c) for c in coords) + F(1, 2 ** 1000)
    assert all(abs(F(a) - c) <= bound for a, c in zip(floats, coords))
    assert floor._center(x, *field.integral_nums(x)) == [int(round(a)) for a in floats]


def _window(floor, coords):
    """The integer points tau with every |tau_k - c_k| <= R_k, from Fractions."""
    reach = [F(r, 2 ** 32) for r in floor._reach]
    return itertools.product(*(range(math.ceil(c - r), math.floor(c + r) + 1)
                               for c, r in zip(coords, reach)))


def _row6_fallback():
    """Table1 row 6 at the first prime above c(M,K), and the sweep's row-6
    step-1 complete quotient there."""
    row = load_bundled("table1/row6.json")
    prime = degree_one_primes_above(row.field, 1063633253940, 1)[0]
    x = row.field.element([F(n, 663293397123400951) for n in (
        2535978778998770, -967544141386200, 833487107294800, -911104628567350)])
    return CF.make_representative_type(row.field, prime, row.units), x


def test_centre_falls_back_on_huge_coordinates(monkeypatch):
    """Table1 row 6's step-1 complete quotient (the sweep's row-6 input at
    the first prime above c(M,K)): xi's coordinates are about 1.2e17, beyond
    the proof, so every j whose certified window holds a float-filter
    survivor (11 of the 21) takes the float centre, and the search ends
    exhausted.  The survivor at the first of them is a pair that exact
    certification accepts, 15 from the float centre: the exhaustion comes
    from the float centre, not from the window."""
    spec, x = _row6_fallback()
    assert spec.prime.p == 1063633253941
    field, floor = spec.field, spec.floor
    floor._babai_data()
    float_centres = []
    float_vector = CF.RepresentativeFloor._float_vector
    monkeypatch.setattr(CF.RepresentativeFloor, "_float_vector",
                        lambda self, y: float_centres.append(y) or float_vector(self, y))
    with pytest.raises(SearchExhausted, match=r"best squared margin 0\.0016936075338438439\)"):
        floor.apply(x)
    assert floor.M == 22 and len(float_centres) == 11
    monkeypatch.undo()
    eps_sq = floor.epsilon.square()
    survivors = []
    for jxi in float_centres:
        nums, q = field.integral_nums(jxi)
        survivors.append([tau for tau in _window(floor, [F(n, q) for n in nums]) if floor._float_verdict(
            [n - t * q for n, t in zip(nums, tau)], q,
            float(eps_sq.lo) * (1 - 2.0 ** -40), float(eps_sq.hi) * (1 + 2.0 ** -40))[0]
            is not False])
    assert all(survivors)
    jxi, (tau,) = float_centres[0], survivors[0]
    u = jxi - field.from_integral_coords(tau)
    assert floor._certify(u, eps_sq, DEFAULT_PREC)[0]
    centre = floor._center(jxi, *field.integral_nums(jxi))
    assert max(abs(t - m) for t, m in zip(tau, centre)) == 15


# -- certified reach of the representative floor -------------------------------------


def _ring_walk(floor, eta):
    """The search without the window: rings of radius 0, 1, 2 around
    _center, every candidate certified, no float filter."""
    field = floor.prime.field
    alpha = canonical_lift(eta, floor.prime, floor.gamma)
    if alpha.is_zero():
        return field.zero()
    xi = alpha * floor._gamma_inv
    eps_sq = floor.epsilon.square()
    floor._babai_data()
    for j in range(1, floor.M):
        if j % floor.prime.p == 0:
            continue
        jxi = xi * j
        centre = floor._center(jxi, *field.integral_nums(jxi))
        for radius in (0, 1, 2):
            for offset in itertools.product(range(-radius, radius + 1), repeat=field.degree):
                if radius and max(map(abs, offset)) != radius:
                    continue
                u = jxi - field.from_integral_coords([m + o for m, o in zip(centre, offset)])
                if floor._certify(u, eps_sq, DEFAULT_PREC)[0]:
                    return floor.gamma * (u / j)
    return "exhausted"


def test_window_search_equals_ring_walk(k14, units14, qz3):
    """The window holds every tau that certification accepts, so the floor
    returns what the ring walk returns, or is exhausted where it is: on
    criterion-5 draws at 48953 and 48989, qz3 at 1009 with step-1 complete
    quotients, the step-1 quotients of table1 rows 3 and 5, the row-6 input
    whose centres fall back to floats, and P = (3+sqrt14) over 5."""
    rng = random.Random(1985)

    def draw(field):
        return field.element([F(rng.randint(-60, 60), rng.randint(1, 30))
                              for _ in range(field.degree)])

    def step1(spec, xs):
        out = []
        for x in xs:
            diff = x - spec.floor.apply(x)
            out += [x] if diff.is_zero() else [x, diff.inverse()]
        return out

    cases = []
    for p in (48953, 48989):
        spec = CF.make_representative_type(k14, primes_above(k14, p)[0], units14)
        cases.append((spec, [draw(k14) for _ in range(10)]))
    spec = CF.make_representative_type(qz3.field, primes_above(qz3.field, 1009)[0], qz3.units)
    cases.append((spec, step1(spec, [draw(qz3.field) for _ in range(3)])))
    for i, coords in ((3, None), (5, (F(19, 10), F(-38, 21), F(-58, 7), F(-14, 3)))):
        row = load_bundled(f"table1/row{i}.json")
        c_mk = compute_constants(row.field, row.units).c_MK.hi
        spec = CF.make_representative_type(
            row.field, degree_one_primes_above(row.field, math.ceil(c_mk), 1)[0], row.units)
        x = row.field.element(coords) if coords else draw(row.field)
        cases.append((spec, step1(spec, [x])[1:]))
    spec, x = _row6_fallback()
    cases.append((spec, [x]))
    spec = CF.make_representative_type(k14, primes_above(k14, 5)[1], units14,
                                       gamma=k14.element([3, 1]))
    cases.append((spec, [k14.from_rational(2)]))

    for spec, samples in cases:
        assert samples and _floor_outputs(spec, samples) == [_ring_walk(spec.floor, x)
                                                             for x in samples]
    assert [len(samples) for _, samples in cases[3:5]] == [1, 1]
    assert _floor_outputs(*cases[-2]) == _floor_outputs(*cases[-1]) == ["exhausted"]


@settings(max_examples=200, deadline=None)
@given(
    which=st.integers(0, 4),
    k=st.integers(0, 3),
    den=st.one_of(st.integers(1, 10 ** 12), st.just(2 ** 32)),
    beyond=st.integers(0, 3 * 10 ** 12),
    sign=st.sampled_from((1, -1)),
    others=st.lists(st.integers(-3 * 10 ** 12, 3 * 10 ** 12), min_size=4, max_size=4),
)
def test_certify_rejects_beyond_reach(place_floors, rep_type_14, which, k, den, beyond, sign,
                                      others):
    """No u with some integral-basis coordinate |x_k| >= R_k is accepted."""
    floor = (place_floors + [rep_type_14.floor])[which]
    floor._babai_data()
    field = floor.prime.field
    k %= field.degree
    coords = [F(max(-3 * den, min(3 * den, n)), den) for n in others[:field.degree]]
    coords[k] = sign * (F(-(-floor._reach[k] * den // 2 ** 32), den) + F(beyond, den))
    assert abs(coords[k]) >= F(floor._reach[k], 2 ** 32)
    u = field.from_integral_coords(coords)
    assert not floor._certify(u, floor.epsilon.square(), DEFAULT_PREC)[0]

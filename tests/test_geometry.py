import random
from fractions import Fraction
from itertools import product
from math import floor

import pytest

from padiccf import geometry as G
from padiccf.errors import DependentBasis, ZeroElement
from padiccf.exactnf import new_field
from padiccf.fieldspec import load_bundled
from padiccf.ideals import degree_one_primes_above, principal_generator
from padiccf.intervals import DEFAULT_PREC, RealInterval, log_interval, nth_root_interval

F = Fraction


@pytest.fixture(scope="module")
def k14():
    return new_field([-14, 0, 1])


@pytest.fixture(scope="module")
def units14(k14):
    return G.UnitSystem(units=(G.fundamental_unit_real_quadratic(k14),))


def test_pell_fundamental_units():
    assert G.fundamental_unit_real_quadratic(new_field([-14, 0, 1])).coords == (F(15), F(4))
    assert G.fundamental_unit_real_quadratic(new_field([-2, 0, 1])).coords == (F(1), F(1))
    u7 = G.fundamental_unit_real_quadratic(new_field([-7, 0, 1]))
    assert u7.coords == (F(8), F(3))


def test_log_embedding_examples(k14, units14):
    u = k14.element([15, 4])
    vec = G.log_embedding(u, 128)
    assert len(vec) == 2
    vals = sorted(float(v.midpoint()) for v in vec)
    assert abs(vals[1] - 3.4000844) < 1e-6
    assert abs(vals[0] + vals[1]) < 1e-20  # norm 1: coordinates sum to zero
    one = G.log_embedding(k14.one(), 64)
    assert all(v.contains(0) for v in one)
    with pytest.raises(ZeroElement):
        G.log_embedding(k14.zero())


def test_log_embedding_homomorphism(k14):
    rng = random.Random(5)
    fu = k14.element([15, 4])
    for _ in range(10):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        u, v = fu ** a, fu ** b
        lu = G.log_embedding(u, 128)
        lv = G.log_embedding(v, 128)
        luv = G.log_embedding(u * v, 128)
        for x, y, z in zip(lu, lv, luv):
            s = x + y
            assert s.lo <= z.hi and z.lo <= s.hi  # overlapping enclosures


def test_covering_radius_examples(k14, units14):
    lat = G.log_lattice(k14, units14)
    rho = lat.covering_radius_upper
    assert F(16999, 10000) <= rho.lo and rho.hi <= F(17001, 10000)
    rk1 = G.covering_radius_upper([[RealInterval.exact(2), RealInterval.exact(-2)]])
    assert rk1.lo == 1 and rk1.hi == 1
    z2 = G.covering_radius_upper(
        [[RealInterval.exact(1), RealInterval.exact(0)],
         [RealInterval.exact(0), RealInterval.exact(1)]]
    )
    assert z2.lo == 1


def test_covering_radius_rank1_exact():
    for vec in ([F(3), F(-1)], [F(7, 2), F(2)]):
        iv = G.covering_radius_upper([[RealInterval.exact(v) for v in vec]])
        assert iv.lo == iv.hi == max(abs(v) for v in vec) / 2


def test_dependent_basis_rejected(k14):
    fu = k14.element([15, 4])
    v1 = G.log_embedding(fu, 128)
    v2 = G.log_embedding(fu ** 2, 128)
    with pytest.raises(DependentBasis):
        G.covering_radius_upper([v1, v2], 128)


def test_t0_examples(k14, units14):
    lat = G.log_lattice(k14, units14)
    assert F(547, 100) <= lat.t0.lo and lat.t0.hi <= F(548, 100)
    empty = G.t0_from_rho(RealInterval.exact(0))
    assert empty.lo >= 1 and float(empty.hi) < 1.0001
    bigger = G.t0_from_rho(RealInterval.exact(2))
    assert bigger.lo > lat.t0.hi  # monotone in rho


def test_unit_reduce_examples(k14, units14):
    fu = k14.element([15, 4])
    assert G.unit_reduce(fu ** 3, units14) == k14.one()
    a = k14.generator()
    assert G.unit_reduce(a, units14) == a
    assert G.unit_reduce(k14.one(), units14) == k14.one()
    # boundary case: log vector lands exactly on a half-lattice point
    assert not G.unit_reduce(k14.element([4, 1]), units14).is_zero()


def test_unit_reduce_lemma_bound(k14, units14):
    """Certified |sigma(u a)| <= T0 |N(a)|^(1/d) and unit invariance of N."""
    rng = random.Random(17)
    lat = G.log_lattice(k14, units14)
    fu = k14.element([15, 4])
    for _ in range(30):
        a = k14.element([
            F(rng.randint(-50, 50), rng.randint(1, 10)),
            F(rng.randint(-50, 50), rng.randint(1, 10)),
        ])
        if a.is_zero():
            continue
        a = a * fu ** rng.randint(-3, 3)
        red = G.unit_reduce(a, units14)
        assert abs(red.norm()) == abs(a.norm())
        ratio = red / a
        assert abs(ratio.norm()) == 1
        bound = lat.t0 * nth_root_interval(abs(a.norm()), 2, 128)
        for i in range(2):
            mag = red.embed(i, 128).abs_interval(128)
            assert mag.lo <= bound.hi


def _ring_search(a, units):
    """unit_reduce by search: the rounded lattice point, then rings 1 and 2
    of exponents around it, each candidate certified from its own logs."""
    lat = G.log_lattice(a.field, units)
    limit = lat.covering_radius_upper.hi + G.CERT_SLACK
    coeffs = G._solve_lattice_coeffs(lat.basis, G._balanced_log(a, DEFAULT_PREC))
    center = [floor(c.midpoint() + F(1, 2)) for c in coeffs]
    for radius in (0, 1, 2):
        for offset in product(range(-radius, radius + 1), repeat=len(center)):
            if radius and max(map(abs, offset)) != radius:
                continue
            cand = a
            for u, c, o in zip(units.units, center, offset):
                cand = cand * u ** -(c + o)
            if G._max_abs(G._balanced_log(cand, DEFAULT_PREC)).hi <= limit:
                return cand
    raise AssertionError(f"no reduced element near {a}")


def _reduction_battery():
    """(a, units, is_tie): seeded elements of five fields, and 4+sqrt14 times
    powers of the fundamental unit, whose log coefficient is a half-integer."""
    rng = random.Random(29)
    cases = []
    for name in ("qsqrt14.json", "qz3.json", "table1/row5.json",
                 "table1/row1.json", "table1/row6.json", "table1/row7.json"):
        lf = load_bundled(name)
        d = lf.field.degree
        for _ in range(18):
            a = lf.field.element([F(rng.randint(-30, 30), rng.randint(1, 6)) for _ in range(d)])
            if not a.is_zero():
                for u in lf.units.units:
                    a = a * u ** rng.randint(-2, 2)
                cases.append((a, lf.units, False))
        if name == "qsqrt14.json":
            cases += [(lf.field.element([4, 1]) * lf.units.units[0] ** k, lf.units, True)
                      for k in range(-3, 4)]
    return cases


def test_unit_reduce_equals_ring_search():
    """The one rounding picks the element that the ring search accepts first,
    also where the log coefficient of 4+sqrt14 sits on a half-integer."""
    cases = _reduction_battery()
    assert len(cases) >= 109
    for a, units, _ in cases:
        assert G.unit_reduce(a, units) == _ring_search(a, units), a


def test_unit_reduce_decides_below_default_prec(monkeypatch):
    """The ladder reaches DEFAULT_PREC only for the exact ties: every other
    element of the battery is reduced from enclosures coarser than 128 bits.
    The DEFAULT_PREC coefficient enclosures are narrower than twice the
    rounding margin, which is what lets a low rung fix n."""
    precs = []
    original = G._balanced_log

    def counting(a, prec):
        precs.append(prec)
        return original(a, prec)

    monkeypatch.setattr(G, "_balanced_log", counting)
    for a, units, is_tie in _reduction_battery():
        precs.clear()
        G.unit_reduce(a, units)
        assert precs[0] == G.LADDER_START
        assert (DEFAULT_PREC in precs) == is_tie, a
        basis = G.log_lattice(a.field, units).basis
        coeffs = G._solve_lattice_coeffs(basis, original(a, DEFAULT_PREC))
        assert all(c.width() < 2 * G.ROUNDING_MARGIN for c in coeffs), a


def test_unit_reduce_embeds_no_unit(monkeypatch):
    """At the working precision unit_reduce takes the units' log vectors from
    the log lattice that loading the field cached, and embeds no unit."""
    calls = []
    original = G.log_embedding

    def counting(u, prec=DEFAULT_PREC):
        calls.append(u)
        return original(u, prec)

    monkeypatch.setattr(G, "log_embedding", counting)
    rng = random.Random(3)
    for name in ("qsqrt14.json", "qz3.json", "table1/row1.json", "table1/row5.json"):
        lf = load_bundled(name)
        calls.clear()
        for _ in range(6):
            a = lf.field.element([rng.randint(-20, 20) for _ in range(lf.field.degree)])
            if not a.is_zero():
                G.unit_reduce(a, lf.units)
        assert calls and not any(u in lf.units.units for u in calls), name


def test_trace_zero_validation(k14):
    bad = G.UnitSystem(units=(k14.element([3, 1]),))  # norm -5, not a unit
    with pytest.raises(ValueError):
        G.log_lattice(k14, bad)


def test_rank_zero_fields():
    kq = new_field([0, 1])
    lat = G.log_lattice(kq, G.UnitSystem(units=()))
    assert lat.covering_radius_upper.lo == 0
    assert lat.t0.lo >= 1
    x = kq.from_rational(F(7, 2))
    assert G.unit_reduce(x, G.UnitSystem(units=())) == x


def test_unit_reduce_in_generator_pipeline(k14, units14):
    for q in degree_one_primes_above(k14, 48896, 2):
        g = principal_generator(q, units14)
        lat = G.log_lattice(k14, units14)
        bound = lat.t0 * nth_root_interval(abs(g.norm()), 2, 128)
        for i in range(2):
            assert g.embed(i, 128).abs_interval(128).lo <= bound.hi

import random
from fractions import Fraction

import pytest

from padiccf import constants as C
from padiccf import geometry as G
from padiccf.errors import EpsilonNotLessThanOne
from padiccf.exactnf import new_field
from padiccf.ideals import primes_above, whole_ring
from padiccf.intervals import RealInterval

F = Fraction


@pytest.fixture(scope="module")
def k14():
    return new_field([-14, 0, 1])


@pytest.fixture(scope="module")
def lat14(k14):
    units = G.UnitSystem(units=(G.fundamental_unit_real_quadratic(k14),))
    return G.log_lattice(k14, units)


def test_theta_examples():
    assert C.theta(0).lo == 1 and C.theta(0).hi == 1
    t = C.theta(F(3, 2) ** 2)
    assert t.is_exact() and t.lo == 2
    t75 = C.theta(F(7, 5) ** 2)
    assert t75.contains(F(19206555615733703, 10 ** 16)) or abs(float(t75.lo) - 1.9206555615733703) < 1e-12


def test_theta_bounds_1000_randoms():
    rng = random.Random(23)
    for _ in range(1000):
        x = F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 4))
        t = C.theta(x * x)
        assert t.hi >= abs(x) and t.lo <= abs(x) + 1
        assert t.lo >= abs(x) - F(1, 1 << 48)
        assert t.hi <= abs(x) + 1 + F(1, 1 << 48)


def test_minkowski_examples(k14):
    mb = C.minkowski_bound(k14)
    assert abs(float(mb.lo) - 3.7416573867739413) < 1e-12
    assert C.minkowski_bound(new_field([0, 1])).lo == 1
    mb3 = C.minkowski_bound(new_field([1, -2, -1, 1]))
    assert abs(float(mb3.lo) - 14 / 9) < 1e-12


def test_c_ideal_examples(k14):
    ci = C.c_ideal(whole_ring(k14), k14)
    assert abs(float(ci.lo) - 7.483314773547883) < 1e-12
    kq = new_field([0, 1])
    assert C.c_ideal(whole_ring(kq), kq).lo == 1  # max with 1
    # scales linearly in the ideal norm
    p5 = primes_above(k14, 5)[0]
    big = C.c_ideal(p5.as_ideal, k14)
    assert abs(float(big.lo) / float(ci.lo) - 5) < 1e-10


def test_c_field_and_choose_m(k14):
    assert C.c_field(k14).lo == 28
    assert C.choose_M(k14) == 28
    assert C.c_field(new_field([-1, -3, 0, 1])).lo == 18  # exact for totally real
    assert C.choose_M(new_field([-1, -3, 0, 1])) == 18
    cf = C.c_field(new_field([-1, -1, 0, 0, 1]))
    assert 21 < float(cf.lo) < 22  # ~21.5
    assert C.choose_M(new_field([-1, -1, 0, 0, 1])) == 22


TABLE1 = [
    ([1, -2, -1, 1], 11),
    ([-1, -3, 0, 1], 18),
    ([1, -3, -1, 1], 33),
    ([1, -6, -1, 1], 219),
    ([-1, 2, 0, -1, 1], 21),
    ([-1, -1, 0, 0, 1], 22),
    ([-1, 1, 1, -1, 1], 26),
]


@pytest.mark.parametrize("min_poly,expected_m", TABLE1)
def test_choose_m_reference_column(min_poly, expected_m):
    assert C.choose_M(new_field(min_poly)) == expected_m


def test_epsilon_examples(k14):
    eps = C.epsilon_for(whole_ring(k14), k14, 28)
    assert abs(float(eps.lo) - 0.516973) < 5e-7  # 6 decimals
    kq = new_field([0, 1])
    eq = C.epsilon_for(whole_ring(kq), kq, 2)
    assert eq.lo == F(1, 2) and eq.hi == F(1, 2)
    with pytest.raises(EpsilonNotLessThanOne):
        C.epsilon_for(whole_ring(k14), k14, 2)
    with pytest.raises(EpsilonNotLessThanOne):
        C.epsilon_for(whole_ring(kq), kq, 1)  # boundary epsilon = 1 exactly


def test_c_mk_golden_values(k14, lat14):
    eps = C.epsilon_for(whole_ring(k14), k14, 28)
    cmk = C.c_MK(28, 2, eps, lat14.t0)
    assert abs(float(cmk.hi) / 48896 - 1) < 0.005
    bed = C.c_MK(2, 2, RealInterval.exact(F(31, 32)), lat14.t0)
    assert abs(float(bed.hi) / 119008 - 1) < 0.005


def test_c_mk_exceeds_m_pow_d():
    rng = random.Random(31)
    for _ in range(50):
        d = rng.randint(1, 5)
        M = rng.randint(2, 60)
        eps = RealInterval.exact(F(rng.randint(1, 99), 100))
        t0 = RealInterval.exact(F(rng.randint(100, 900), 100))
        cmk = C.c_MK(M, d, eps, t0)
        assert cmk.lo > F(M) ** d


def test_c_mk_escalates_precision():
    """With eps = 1 - 2^-200 the root in c(M,K) is 1 + ~2^-200/T0^2, which
    128 bits cannot separate from 1; c_MK retries at doubled precision."""
    eps = RealInterval.exact(1 - F(1, 2 ** 200))
    cmk = C.c_MK(2, 2, eps, RealInterval.exact(F(11, 2)))
    assert abs(cmk.hi / (121 * F(2) ** 400) - 1) < F(1, 10 ** 9)
    assert cmk.lo > 4


def test_epsilon_prime_behavior(k14, lat14):
    eps = C.epsilon_for(whole_ring(k14), k14, 28)
    cmk = C.c_MK(28, 2, eps, lat14.t0)
    q_above = int(cmk.hi) + 1
    ep = C.epsilon_prime(q_above, 28, 2, eps, lat14.t0)
    assert ep.hi < 1
    # strictly decreasing in q
    prev = None
    for q in (q_above, 2 * q_above, 10 * q_above, 1000 * q_above):
        val = C.epsilon_prime(q, 28, 2, eps, lat14.t0)
        if prev is not None:
            assert val.hi < prev.lo
        prev = val
    # limit: epsilon^d from above
    far = C.epsilon_prime(10 ** 18, 28, 2, eps, lat14.t0)
    eps_d = eps.square()
    assert far.lo > eps_d.lo and float(far.hi) - float(eps_d.hi) < 1e-5
    # below the threshold the bound is useless: epsilon' >= 1
    below = C.epsilon_prime(int(cmk.lo) - 1000, 28, 2, eps, lat14.t0)
    assert below.hi >= 1


def test_epsilon_prime_threshold_grid(k14, lat14):
    """epsilon'(q) < 1 exactly on the q > c(M,K) side of a grid around it."""
    eps = C.epsilon_for(whole_ring(k14), k14, 28)
    cmk = C.c_MK(28, 2, eps, lat14.t0)
    center = int(cmk.hi)
    for q in range(center - 3, center + 4):
        val = C.epsilon_prime(q, 28, 2, eps, lat14.t0)
        if RealInterval.exact(q).certainly_gt(cmk):
            assert val.hi < 1
        elif RealInterval.exact(q).certainly_lt(cmk):
            assert val.lo > 1


def test_c_alpha_examples():
    kq = new_field([0, 1])
    p5 = primes_above(kq, 5)[0]
    x = kq.from_rational(2)
    assert C.c_alpha(x, x, p5) == 25
    # monotone in the archimedean size of a0 - alpha
    small = C.c_alpha(kq.from_rational(F(1, 3)), kq.zero(), p5)
    large = C.c_alpha(kq.from_rational(F(1000, 3)), kq.zero(), p5)
    assert small < large
    k14 = new_field([-14, 0, 1])
    p = primes_above(k14, 5)[1]
    val = C.c_alpha(k14.element([F(7, 3), F(2, 5)]), k14.zero(), p)
    assert isinstance(val, int) and val > 0


def test_compute_constants_report(k14):
    units = G.UnitSystem(units=(G.fundamental_unit_real_quadratic(k14),))
    rep = C.compute_constants(k14, units, label="Q(sqrt14)", epsilon_prime_samples=[48900])
    assert rep.M == 28
    assert rep.abs_disc == 56 and rep.signature == (2, 0)
    assert rep.c_MK.lo > 28 ** 2
    assert 0 < float(rep.epsilon.lo) < 1
    assert not rep.warnings
    q, val = rep.epsilon_prime_at[0]
    assert q == 48900 and val.hi < 1
    low_m = C.compute_constants(k14, units, M_override=2, epsilon_override=F(31, 32))
    assert any("below c(K)" in w for w in low_m.warnings)

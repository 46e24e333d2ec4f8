"""Acceptance suite: one test per criterion, one PASS line each (run with -s).

Tolerances are pinned here, not deferred: golden constants carry the stated
absolute/relative windows, exact-arithmetic invariants are asserted with ==.
"""
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from padiccf import cfengine as CF
from padiccf import constants as C
from padiccf import divchain as DC
from padiccf import geometry as G
from padiccf.errors import EpsilonNotLessThanOne, SearchExhausted
from padiccf.exactnf import new_field
from padiccf.fieldspec import load_bundled
from padiccf.ideals import (
    SIntegerRing,
    degree_one_primes_above,
    primes_above,
    whole_ring,
)
from padiccf.intervals import RealInterval
from test_divchain import euclid_chain

F = Fraction


def _report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def lf14():
    return load_bundled("qsqrt14.json")


@pytest.fixture(scope="module")
def lat14(lf14):
    return G.log_lattice(lf14.field, lf14.units)


@pytest.fixture(scope="module")
def big_prime_types(lf14):
    """Three representative-floor types at split primes of norm > c(M,K)."""
    primes = degree_one_primes_above(lf14.field, 48896, 3)
    return [CF.make_representative_type(lf14.field, q, lf14.units) for q in primes]


def test_criterion_1_qsqrt14_constants(lf14):
    start = time.monotonic()
    rep = C.compute_constants(lf14.field, lf14.units, label=lf14.label)
    elapsed = time.monotonic() - start
    assert rep.M == 28
    assert abs(float(rep.epsilon.lo) - 0.516973) < 5e-7
    assert abs(float(rep.epsilon.hi) - 0.516973) < 5e-7
    assert F(16999, 10000) <= rep.rho_upper.lo and rep.rho_upper.hi <= F(17001, 10000)
    assert F(547, 100) <= rep.t0.lo and rep.t0.hi <= F(548, 100)
    assert abs(float(rep.c_MK.lo) / 48896 - 1) < 0.005
    assert abs(float(rep.c_MK.hi) / 48896 - 1) < 0.005
    assert elapsed < 1.0
    _report(1, f"M=28, eps~0.516973, rho~{float(rep.rho_upper.hi):.5f}, "
               f"T0~{float(rep.t0.hi):.4f}, c(M,K)~{float(rep.c_MK.hi):.1f} "
               f"({elapsed:.2f}s)")


def test_criterion_2_bedocchi_refinement(lf14):
    start = time.monotonic()
    rep = C.compute_constants(
        lf14.field, lf14.units,
        M_override=lf14.bedocchi["M"],
        epsilon_override=lf14.bedocchi["epsilon"],
    )
    elapsed = time.monotonic() - start
    assert rep.M == 2 and rep.epsilon.lo == F(31, 32)
    assert abs(float(rep.c_MK.lo) / 119008 - 1) < 0.005
    assert abs(float(rep.c_MK.hi) / 119008 - 1) < 0.005
    assert elapsed < 1.0
    _report(2, f"M=2, eps=31/32, c(M,K)~{float(rep.c_MK.hi):.1f} ({elapsed:.2f}s)")


TABLE1_M = {
    (49, (3, 0)): ([1, -2, -1, 1], 11),
    (81, (3, 0)): ([-1, -3, 0, 1], 18),
    (148, (3, 0)): ([1, -3, -1, 1], 33),
    (985, (3, 0)): ([1, -6, -1, 1], 219),
    (275, (2, 1)): ([-1, 2, 0, -1, 1], 21),
    (283, (2, 1)): ([-1, -1, 0, 0, 1], 22),
    (331, (2, 1)): ([-1, 1, 1, -1, 1], 26),
}


def test_criterion_3_table1_m_column():
    start = time.monotonic()
    deviations = []
    for (abs_disc, signature), (min_poly, expected_m) in TABLE1_M.items():
        field = new_field(min_poly)
        assert abs(field.field_disc) == abs_disc and field.signature == signature
        assert C.choose_M(field) == expected_m
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    # c(M,K) deviations are reported, not asserted (covering-radius method
    # for rank-2 lattices is not pinned by the source material)
    for i in range(1, 8):
        lf = load_bundled(f"table1/row{i}.json")
        rep = C.compute_constants(lf.field, lf.units)
        dev = float(rep.c_MK.hi) / lf.c_mk_reference - 1
        deviations.append(f"row{i}: {dev:+.2%}")
    _report(3, f"all 7 M values match ({elapsed:.2f}s); c(M,K) deviations: "
               + ", ".join(deviations))


def test_criterion_4_browkin_oracle():
    start = time.monotonic()
    kq = new_field([0, 1])
    spec5 = CF.make_browkin_type(kq, 5)
    exp = CF.expand(kq.from_rational(F(7, 3)), spec5)
    assert [q.coords[0] for q in exp.partial_quotients] == [F(-1), F(-11, 5), F(2, 5)]
    assert exp.status == ("finite", 3)
    assert CF.evaluate_cf(exp.partial_quotients) == kq.from_rational(F(7, 3))
    rng = random.Random(2024)
    specs = {p: CF.make_browkin_type(kq, p) for p in (3, 5, 7)}
    for i in range(100):
        p = (3, 5, 7)[i % 3]
        alpha = kq.from_rational(F(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 10 ** 4)))
        e = CF.expand(alpha, specs[p], cap=1000)
        assert e.status[0] == "finite"
        assert CF.evaluate_cf(e.partial_quotients) == alpha
        for s in e.steps:
            if s.nu is not None:
                assert s.nu.hi < 1
    elapsed = time.monotonic() - start
    assert elapsed < 30
    _report(4, f"7/3 oracle + 100 random expansions finite, nu < 1 ({elapsed:.1f}s)")


def test_criterion_5_floor_axioms_and_finiteness(lf14, big_prime_types, lat14):
    start = time.monotonic()
    kq = new_field([0, 1])
    rng = random.Random(31415)
    browkin = CF.make_browkin_type(kq, 5)
    samples_q = [
        kq.from_rational(F(rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 10 ** 4)))
        for _ in range(200)
    ]
    rep_q = CF.verify_floor_axioms(browkin, samples_q)
    assert rep_q.all_ok and rep_q.zero_ok

    k14 = lf14.field
    for spec in big_prime_types:
        assert spec.prime.norm > 48896
        assert not spec.warnings
        samples = [
            k14.element([F(rng.randint(-60, 60), rng.randint(1, 30)),
                         F(rng.randint(-60, 60), rng.randint(1, 30))])
            for _ in range(67)
        ]
        rep = CF.verify_floor_axioms(spec, samples)
        assert rep.all_ok and rep.zero_ok, rep.failures()

    # 50 expansions across the three primes: Finite, nu <= eps'(N(P)) < 1
    global _criterion5_expansions
    _criterion5_expansions = []
    for i in range(50):
        spec = big_prime_types[i % 3]
        floor = spec.floor
        epsp = C.epsilon_prime(spec.prime.norm, floor.M, 2, floor.epsilon, lat14.t0)
        assert epsp.hi < 1
        alpha = k14.element([F(rng.randint(-60, 60), rng.randint(1, 30)),
                             F(rng.randint(-60, 60), rng.randint(1, 30))])
        exp = CF.expand(alpha, spec)
        assert exp.status[0] == "finite"
        assert CF.evaluate_cf(exp.partial_quotients) == alpha
        for s in exp.steps:
            if s.nu is not None:
                assert s.nu.hi <= epsp.hi
        _criterion5_expansions.append(exp)
    elapsed = time.monotonic() - start
    assert elapsed < 300
    _report(5, f"axioms pass on 200(Q)+201(Q(sqrt14), 3 primes) samples; "
               f"50 expansions finite with nu <= eps' < 1 ({elapsed:.1f}s)")


def test_criterion_6_height_ledger(big_prime_types):
    assert _criterion5_expansions, "criterion 5 must run first"
    checked = 0
    for exp in _criterion5_expansions:
        ok, margins = CF.check_height_chain(exp)
        assert ok
        checked += len(margins)
    _report(6, f"H(alpha_n+1)^d <= C*nubar^n certified on {checked} ledger steps "
               f"of {len(_criterion5_expansions)} expansions")


def test_criterion_7_exact_invariants():
    start = time.monotonic()
    kq = new_field([0, 1])
    rng = random.Random(2718)
    specs = {p: CF.make_browkin_type(kq, p) for p in (3, 5, 7)}
    cases = 0
    for _ in range(600):
        p = rng.choice((3, 5, 7))
        spec = specs[p]
        prime = spec.prime
        alpha = kq.from_rational(F(rng.randint(-5000, 5000), rng.randint(1, 5000)))
        exp = CF.expand(alpha, spec, cap=1000)
        vs, qs, cq = exp.v_sequence, exp.partial_quotients, exp.complete_quotients
        assert vs[0] == kq.one() and vs[1] == qs[0] - alpha
        from padiccf.ideals import valuation

        for n in range(1, len(qs)):
            assert vs[n + 1] == qs[n] * vs[n] + vs[n - 1]
            if n + 1 < len(cq):
                assert cq[n + 1] == -(vs[n] / vs[n + 1])
            assert valuation(qs[n], prime) < 0
            if not vs[n].is_zero():
                assert valuation(vs[n], prime) == -sum(
                    valuation(qs[j], prime) for j in range(1, n + 1)
                )
        cases += 1
    ring = SIntegerRing(field=kq, S=(primes_above(kq, 5)[0],))
    for _ in range(400):
        a, b = rng.randint(-10 ** 4, 10 ** 4), rng.randint(1, 10 ** 4)
        chain = euclid_chain(a, b, ring)
        if not chain.steps:
            continue
        A, B = DC.continuants(chain.quotients())
        for n in range(1, len(A)):
            det = (A[n] * B[n - 1] - A[n - 1] * B[n]).coords[0]
            assert det in (1, -1)
        cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _report(7, f"exact V/continuant invariants on {cases} randomized cases ({elapsed:.1f}s)")


def test_criterion_8_division_chains():
    start = time.monotonic()
    lf = load_bundled("qz3.json")
    kz = lf.field
    ring_z = SIntegerRing(field=kz, S=(primes_above(kz, 5)[0],))
    quotients = [
        kz.from_rational(-1),
        kz.element([F(1, 5), F(-1, 5)]),
        kz.element([-15, 6, -12]),
        kz.element([1, 2]),
    ]
    chain = DC.cf_to_chain(kz.from_rational(7), kz.from_rational(3), quotients, ring_z)
    assert DC.verify_chain(chain).all_ok
    assert CF.evaluate_cf(quotients) == kz.from_rational(F(7, 3))

    kq = new_field([0, 1])
    ring = SIntegerRing(field=kq, S=(primes_above(kq, 5)[0],))
    units = G.UnitSystem(units=())
    rng = random.Random(1618)
    done = 0
    exhausted = 0
    while done + exhausted < 50:
        a = rng.randint(-500, 500)
        b = rng.randint(1, 500)
        g = gcd(a, b)
        while g % 5 == 0:
            g //= 5
        if g != 1:
            continue
        try:
            ch = DC.clw_expand(kq.from_rational(a), kq.from_rational(b), ring, units)
        except SearchExhausted:
            exhausted += 1
            continue
        assert ch.terminating and ch.length <= 5
        assert DC.verify_chain(ch).all_ok
        done += 1
    elapsed = time.monotonic() - start
    assert exhausted <= 2  # <= 5% of 50 pairs (caps: |k| <= 400, exponents <= 12)
    assert elapsed < 300
    _report(8, f"golden 7/3 chain ok; {done} staged chains length <= 5 verified, "
               f"{exhausted} exhausted at caps |k|<=400, |exponents|<=12 ({elapsed:.1f}s)")


def test_criterion_9_negative_controls(lf14):
    kq = new_field([0, 1])
    browkin = CF.make_browkin_type(kq, 5)
    corrupted = CF.TypeSpec(field=kq, prime=browkin.prime, denom_set=(kq.one(),),
                            floor=CF.ShiftedFloor(CF.BrowkinFloor(5)))
    rng = random.Random(999)
    samples = [kq.from_rational(F(rng.randint(-100, 100), rng.randint(1, 100)))
               for _ in range(20)]
    rep = CF.verify_floor_axioms(corrupted, samples)
    assert any(not c.membership_ok for c in rep.checks)  # axiom (i) fails

    ring = SIntegerRing(field=kq, S=(primes_above(kq, 5)[0],))
    good = euclid_chain(240, 46, ring)
    bad_steps = list(good.steps)
    q3, r3 = bad_steps[2]
    bad_steps[2] = (q3, r3 + kq.one())
    bad = DC.DivisionChain(ring=ring, a=good.a, b=good.b, steps=bad_steps)
    ver = DC.verify_chain(bad)
    assert not ver.valid and ver.first_bad_index == 3

    k14 = lf14.field
    with pytest.raises(EpsilonNotLessThanOne):
        C.epsilon_for(whole_ring(k14), k14, 2)
    rep_low = C.compute_constants(k14, lf14.units, M_override=2,
                                  epsilon_override=F(31, 32))
    assert any("below c(K)" in w for w in rep_low.warnings)
    _report(9, "corrupted floor fails axiom (i); corrupted chain pinpointed at "
               "index 3; M below c(K) raises/warns")

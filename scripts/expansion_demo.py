#!/usr/bin/env python3
"""End-to-end demo: build the representative floor at a large split prime of
Q(sqrt14) and expand a batch of random elements, printing the ledger summary.

Usage: python scripts/expansion_demo.py [count] [seed]
"""
from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from padiccf import cfengine as CF  # noqa: E402
from padiccf import constants as C  # noqa: E402
from padiccf import geometry as G  # noqa: E402
from padiccf.fieldspec import load_bundled  # noqa: E402
from padiccf.ideals import degree_one_primes_above  # noqa: E402


def main() -> None:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    lf = load_bundled("qsqrt14.json")
    rep = C.compute_constants(lf.field, lf.units, label=lf.label)
    print(f"{lf.label}: M = {rep.M}, eps ~ {float(rep.epsilon.hi):.6f}, "
          f"T0 ~ {float(rep.t0.hi):.4f}, c(M,K) ~ {float(rep.c_MK.hi):.1f}")
    prime = degree_one_primes_above(lf.field, int(rep.c_MK.hi) + 1, 1)[0]
    spec = CF.make_representative_type(lf.field, prime, lf.units)
    lat = G.log_lattice(lf.field, lf.units)
    epsp = C.epsilon_prime(prime.norm, rep.M, 2, spec.floor.epsilon, lat.t0)
    print(f"prime: p = {prime.p}, N = {prime.norm}, eps'(N) ~ {float(epsp.hi):.6f}")
    rng = random.Random(seed)
    for _ in range(count):
        alpha = lf.field.element([
            Fraction(rng.randint(-60, 60), rng.randint(1, 30)),
            Fraction(rng.randint(-60, 60), rng.randint(1, 30)),
        ])
        exp = CF.expand(alpha, spec)
        nus = [float(s.nu.hi) for s in exp.steps if s.nu is not None]
        ok = CF.evaluate_cf(exp.partial_quotients) == alpha if exp.is_finite else False
        nu = f"max nu ~ {max(nus):.3e}" if nus else "no admissible quotients"
        print(f"alpha = ({','.join(str(c) for c in alpha.coords)}): "
              f"{exp.status}, roundtrip = {ok}, {nu}")


if __name__ == "__main__":
    main()

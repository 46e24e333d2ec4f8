#!/usr/bin/env python3
"""Search small-coefficient units and pick an independent pair.

Used once to produce the `fundamental_units` entries of the bundled field
files for the rank-2 cubic/quartic fields.  Candidates x = sum c_i alpha^i
with |c_i| <= BOUND and |N(x)| = 1 are collected, sorted by the sup norm of
their log vector, and a greedy independent pair is chosen; the second unit is
then locally improved by multiples of the first.  If the resulting pair is
not fundamental, the covering-radius bound (hence c(M,K)) merely comes out
larger; nothing downstream asserts equality with external tables.

Usage: python scripts/find_units.py "[1,-2,-1,1]" [bound]
"""
from __future__ import annotations

import json
import sys
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from padiccf.exactnf import new_field  # noqa: E402
from padiccf.geometry import covering_radius_upper, log_embedding  # noqa: E402


def sup_norm(vec) -> float:
    return max(abs(float(v.midpoint())) for v in vec)


def find_unit_pair(min_poly: list[int], bound: int = 8, prec: int = 96):
    field = new_field(min_poly)
    d = field.degree
    r1, r2 = field.signature
    rank = r1 + r2 - 1
    candidates = []
    for coeffs in product(range(-bound, bound + 1), repeat=d):
        if all(c == 0 for c in coeffs[1:]):
            continue  # rational: only torsion
        x = field.element(list(coeffs))
        if abs(x.norm()) == 1:
            vec = log_embedding(x, prec)
            candidates.append((sup_norm(vec), coeffs, x, vec))
    candidates.sort(key=lambda t: (t[0], t[1]))
    if rank == 1:
        chosen = [(c[1], c[2], c[3]) for c in candidates[:1]]  # none found: the rank check below stops
    else:
        # minimize the covolume over all pairs of short candidates: the pair
        # of smallest covolume among many small units is fundamental
        pool = candidates[: min(len(candidates), 60)]

        def covol_sq(v1, v2) -> float:
            g11 = sum(float(a.midpoint()) ** 2 for a in v1)
            g22 = sum(float(a.midpoint()) ** 2 for a in v2)
            g12 = sum(float(a.midpoint()) * float(b.midpoint()) for a, b in zip(v1, v2))
            return g11 * g22 - g12 * g12

        best = None
        for i in range(len(pool)):
            for j in range(i + 1, len(pool)):
                cv = covol_sq(pool[i][3], pool[j][3])
                if cv < 1e-12:
                    continue  # dependent
                key = (round(cv, 9), pool[i][0] + pool[j][0])
                if best is None or key < best[0]:
                    best = (key, i, j)
        if best is None:
            raise SystemExit("no independent pair found; raise the bound")
        _, i, j = best
        chosen = [
            (pool[i][1], pool[i][2], pool[i][3]),
            (pool[j][1], pool[j][2], pool[j][3]),
        ]
    if len(chosen) < rank:
        raise SystemExit(f"only {len(chosen)} independent units found; raise the bound")
    # local improvement: replace u2 by u2 * u1^k minimizing the covering bound
    if rank == 2:
        u1 = chosen[0][1]
        best = None
        for k in range(-4, 5):
            for sign in (1, -1):
                cand = (chosen[1][1] * u1 ** k) * sign
                vecs = [log_embedding(u1, prec), log_embedding(cand, prec)]
                try:
                    rho = covering_radius_upper(vecs, prec)
                except Exception:
                    continue
                score = float(rho.hi)
                if best is None or score < best[0]:
                    best = (score, cand)
        chosen[1] = (tuple(best[1].coords), best[1], log_embedding(best[1], prec))
    units = [[str(c) for c in u[1].coords] for u in chosen]
    vecs = [u[2] for u in chosen]
    rho = covering_radius_upper(vecs, prec)
    return field, units, float(rho.hi)


def main() -> None:
    min_poly = json.loads(sys.argv[1])
    bound = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    field, units, rho = find_unit_pair(min_poly, bound)
    print(json.dumps({
        "min_poly": min_poly,
        "field_disc": field.field_disc,
        "signature": list(field.signature),
        "fundamental_units": units,
        "rho_upper_bound": rho,
    }, indent=2))


if __name__ == "__main__":
    main()

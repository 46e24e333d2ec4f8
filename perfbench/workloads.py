"""The four workloads: input pools, set-up, and one operation per input.

Each workload draws a fixed pool of rounds from its own constant pool seed,
and every input in it has the outcome and output digest recorded in
``baseline.json``.  A run sends the whole pool (a pass), one operation at a
time, and starts another pass from a fresh set-up until ``--seconds`` of
operation time are measured.  The run seed chooses the order of the rounds
and of the operations inside each round; padiccf never sees it.

Why every run sends the same inputs: the cost of one operation depends
heavily on its input.  A floor-axiom sample on Q(sqrt 14) takes 6 to 600 ms
(the search stops at the first j that certifies), a Q(sqrt 14) division
chain takes ~30 ms when it closes and ~2.2 s when the stage-2 search is
exhausted, and a table1 expansion takes 0.03 s or 13-17 s.  With a seeded
draw of a run's worth of inputs, the draw and not the program would set the
numbers.

An operation is one expansion, one floor-axiom sample, one division chain or
one CLI call.  ``Op.run`` is the timed call into padiccf; ``Op.check`` runs
afterwards, untimed, and returns the output digest or raises CheckFailed.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from checks import CheckFailed, PowerBasisField, check_chain, check_expansion, coords_key, digest
from padiccf import cfengine as CF
from padiccf import constants as C
from padiccf import divchain as DC
from padiccf.fieldspec import load_bundled
from padiccf.ideals import SIntegerRing, degree_one_primes_above, primes_above, principal_generator


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    check: Callable[[object], str]
    clock: Callable[[], float] = time.perf_counter  # what the operation's time is read from


def children_cpu_seconds() -> float:
    """User plus system CPU seconds of all finished child processes."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class RecordingFloor:
    """Passes every call on to a floor and keeps its outputs, so that the
    floor values behind a floor-axiom sample can be digested without
    computing them again."""

    def __init__(self, floor):
        self.floor = floor
        self.outputs = []

    def apply(self, eta, prec: int = 128):
        out = self.floor.apply(eta, prec)
        self.outputs.append(out)
        return out

    def describe(self) -> str:
        return self.floor.describe()


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _draw(rng: random.Random, degree: int) -> tuple[Fraction, ...]:
    """Coordinates as acceptance criterion 5 draws them: numerators in
    [-60, 60], denominators in [1, 30]."""
    return tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 30)) for _ in range(degree))


def _fmt(coords) -> str:
    return ",".join(str(c) for c in coords)


def _expand_op(key, row, alpha, cap) -> Op:
    """Expansion plus the certified height-ledger check a user of the
    finiteness criterion runs on it."""
    x = row.field.element(alpha)

    def run():
        exp = CF.expand(x, row.spec, cap=cap)
        return exp, CF.check_height_chain(exp)[0]

    def check(result):
        exp, chain_ok = result
        if cap is None and exp.status[0] != "finite":
            raise CheckFailed(f"expansion stopped with status {exp.status}")
        check_expansion(row.pb, exp, x, row.epsilon_prime_hi, chain_ok)
        return digest(exp.status, [coords_key(q) for q in exp.partial_quotients])

    return Op(key, run, check)


def _representative_row(lf, count: int):
    """Representative-floor type at the degree-one primes just above c(M,K)."""
    rep = C.compute_constants(lf.field, lf.units, label=lf.label)
    primes = degree_one_primes_above(lf.field, _ceil(rep.c_MK.hi), count)
    rows = []
    for q in primes:
        spec = CF.make_representative_type(lf.field, q, lf.units)
        eps_prime = C.epsilon_prime(q.norm, spec.floor.M, lf.field.degree, spec.floor.epsilon, rep.t0)
        rows.append(SimpleNamespace(field=lf.field, spec=spec, epsilon_prime_hi=eps_prime.hi,
                                    pb=PowerBasisField(lf.field.min_poly)))
    return rows


class Q14Criterion5:
    name = "q14-criterion5"
    runs_subprocesses = False
    setup_repeats = 7
    POOL_SEED = 31415  # acceptance criterion 5's seed
    POOL_ROUNDS = 6

    def setup(self):
        return _representative_row(load_bundled("qsqrt14.json"), 3)

    def pool(self):
        """Rounds of 15: per prime, four floor-axiom samples and one expansion
        (criterion 5 draws 201 samples to 50 expansions)."""
        rng = random.Random(self.POOL_SEED)
        return [
            [(kind, i, _draw(rng, 2)) for i in range(3) for kind in ("floor",) * 4 + ("expand",)]
            for _ in range(self.POOL_ROUNDS)
        ]

    def make_op(self, state, item, in_process=False) -> Op:
        kind, i, coords = item
        row = state[i]
        key = f"{kind}/{i}/{_fmt(coords)}"
        if kind == "expand":
            return _expand_op(key, row, coords, None)
        x = row.field.element(coords)
        floor = RecordingFloor(row.spec.floor)
        spec = dataclasses.replace(row.spec, floor=floor)

        def run():
            return CF.verify_floor_axioms(spec, [x])

        def check(rep):
            if not rep.all_ok:
                raise CheckFailed(f"floor axioms fail: {rep.failures()}")
            return digest([coords_key(s) for s in floor.outputs])

        return Op(key, run, check)


class Table1Sweep:
    name = "table1-sweep"
    runs_subprocesses = False
    setup_repeats = 3
    POOL_SEED = 2023
    ROWS = 7
    CAP = 2  # step 0 succeeds on every row; the step-1 floor shows the defect

    def setup(self):
        return [_representative_row(load_bundled(f"table1/row{i}.json"), 1)[0]
                for i in range(1, self.ROWS + 1)]

    def pool(self):
        """One round: one expansion per row."""
        rng = random.Random(self.POOL_SEED)
        degrees = (3, 3, 3, 3, 4, 4, 4)  # rows 1-4 are cubic, rows 5-7 quartic
        return [[("expand", i, _draw(rng, d)) for i, d in enumerate(degrees)]]

    def make_op(self, state, item, in_process=False) -> Op:
        _, i, coords = item
        return _expand_op(f"row{i + 1}/{_fmt(coords)}", state[i], coords, self.CAP)


class DivchainMix:
    name = "divchain-mix"
    runs_subprocesses = False
    setup_repeats = 7
    POOL_SEED = 1618  # acceptance criterion 8's seed
    POOL_ROUNDS = 8
    # clw_expand returns a chain whose q_3 has denominator 37 (through the
    # inert auxiliary prime p' = 37) and verify_chain rejects it
    FIXED = ("q14", (19, -6), (-20, 18))

    def setup(self):
        rings = {}
        for label, name in (("q", "qq.json"), ("q14", "qsqrt14.json")):
            lf = load_bundled(name)
            P = primes_above(lf.field, 5)[0]
            rings[label] = SimpleNamespace(
                field=lf.field, units=lf.units, ring=SIntegerRing(field=lf.field, S=(P,)),
                gamma=principal_generator(P, lf.units), pb=PowerBasisField(lf.field.min_poly),
            )
        return rings

    def pool(self):
        """Rounds of 9: four pairs over Q with S = {5} (criterion 8's gcd
        filter), four coprime pairs over Q(sqrt 14) with S = the first prime
        above 5 (gcd(N(a), N(b)) = 1), and the fixed pair."""
        rng = random.Random(self.POOL_SEED)
        rounds = []
        for _ in range(self.POOL_ROUNDS):
            items = []
            while len(items) < 4:
                a, b = rng.randint(-500, 500), rng.randint(1, 500)
                g = gcd(a, b)
                while g % 5 == 0:
                    g //= 5
                if g == 1:
                    items.append(("q", (a,), (b,)))
            while len(items) < 8:
                a = (rng.randint(-30, 30), rng.randint(-30, 30))
                b = (rng.randint(-30, 30), rng.randint(-30, 30))
                na, nb = a[0] ** 2 - 14 * a[1] ** 2, b[0] ** 2 - 14 * b[1] ** 2
                if na and nb and gcd(na, nb) == 1:
                    items.append(("q14", a, b))
            rounds.append(items + [self.FIXED])
        return rounds

    def make_op(self, state, item, in_process=False) -> Op:
        label, a_coords, b_coords = item
        ctx = state[label]
        a, b = ctx.field.element(a_coords), ctx.field.element(b_coords)

        def run():
            chain = DC.clw_expand(a, b, ctx.ring, ctx.units)
            return chain, DC.verify_chain(chain)

        def check(result):
            chain, report = result
            if not report.all_ok:
                raise CheckFailed("verify_chain rejects: " + "; ".join(report.issues))
            check_chain(ctx.pb, chain, ctx.gamma, 5)
            return digest([(coords_key(q), coords_key(r)) for q, r in chain.steps])

        return Op(f"{label}/{_fmt(a_coords)}/{_fmt(b_coords)}", run, check)


CLI_ENTRY = "import sys; from padiccf.cli import main; sys.exit(main())"


class CliCold:
    name = "cli-cold"
    runs_subprocesses = True  # the timed operations; peak RSS is theirs
    setup_repeats = 3
    COMMANDS = (
        ("field-info", "qsqrt14"),
        ("constants", "qsqrt14", "--json"),
        ("table1", "--json"),
        ("expand", "qq", "--prime", "5", "--alpha", "7/3", "--json"),
        ("divchain", "qq", "--a", "7", "--b", "3", "--S", "5", "--json"),
        ("evaluate", "qq", None, "--json"),  # --quotients=<those of 7/3>, from set-up
    )

    def __init__(self, root: Path):
        self.root = root
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], capture_output=True, cwd=self.root,
                              env=self.env, timeout=150)

    def setup(self):
        """A fresh interpreter importing padiccf.cli (so every timed call
        finds its bytecode cached), then the `evaluate` input: the quotients
        of the Browkin expansion of 7/3 at p = 5."""
        done = self.python("-c", "import padiccf.cli")
        if done.returncode != 0:
            raise RuntimeError(done.stderr.decode())
        kq = load_bundled("qq.json").field
        exp = CF.expand(kq.from_rational(Fraction(7, 3)), CF.make_browkin_type(kq, 5))
        return ";".join(str(q.coords[0]) for q in exp.partial_quotients)

    def pool(self):
        """Four rounds of the six commands, so that one pass (about 12 s)
        outlasts the run length and every run sends the same 24 calls."""
        return [list(self.COMMANDS)] * 4

    def make_op(self, quotients, item, in_process=False) -> Op:
        argv = [f"--quotients={quotients}" if a is None else a for a in item]

        def run_subprocess():
            done = self.python("-c", CLI_ENTRY, *argv)
            return done.returncode, done.stdout

        def run_in_process():
            from padiccf import cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue().encode()

        def check(result):
            code, stdout = result
            if code != 0:
                raise CheckFailed(f"exit code {code}")
            return hashlib.sha256(stdout).hexdigest()

        if in_process:
            return Op(" ".join(argv), run_in_process, check)
        # the CLI process's own CPU time: its wall time also holds the waits
        # for the CPU that the shared machine and the speed probe impose
        return Op(" ".join(argv), run_subprocess, check, children_cpu_seconds)

    def import_times(self) -> tuple[float, float]:
        """Median wall ms of three fresh `import padiccf.cli`, and the
        cumulative ms sympy takes inside it according to -X importtime."""
        walls = []
        for _ in range(3):
            t0 = time.perf_counter()
            done = self.python("-c", "import padiccf.cli")
            walls.append((time.perf_counter() - t0) * 1e3)
            if done.returncode != 0:
                raise RuntimeError(done.stderr.decode())
        sympy_us = 0
        for line in self.python("-X", "importtime", "-c", "import padiccf.cli").stderr.decode().splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "sympy":
                sympy_us = int(fields[1])
        return statistics.median(walls), sympy_us / 1e3


def all_workloads(root: Path) -> dict:
    return {w.name: w for w in (Q14Criterion5(), Table1Sweep(), DivchainMix(), CliCold(root))}

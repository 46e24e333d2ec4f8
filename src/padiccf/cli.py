"""Command-line front end.

Subcommands: field-info, constants, table1, expand, verify-floor,
verify-type, divchain, evaluate.  Reports are deterministic: JSON output is
sorted, numbers are emitted as outward-rounded decimal strings with explicit
interval endpoints, and no timestamps or machine state enter the report.

Exit codes: 0 success, 1 assertion failure, 2 input error, 3 search
exhausted.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from . import cfengine, constants, divchain
from .errors import EpsilonNotLessThanOne, FieldSpecError, PadicCFError, SearchExhausted
from .exactnf import NFElement, NumberField
from .fieldspec import LoadedField, bundled_path, bundled_table1_names, load_bundled, load_field_file
from .ideals import SIntegerRing, primes_above
from .intervals import DEFAULT_PREC, RealInterval

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2
EXIT_SEARCH = 3

DECIMAL_SIG = 24


# ---------------------------------------------------------------------------
# formatting


def _dec_str(q: Fraction, up: bool, sig: int = DECIMAL_SIG) -> str:
    """Decimal string of q rounded toward -inf (down) or +inf (up)."""
    if q == 0:
        return "0"
    aq = abs(q)
    e = len(str(aq.numerator)) - len(str(aq.denominator))
    while Fraction(10) ** e > aq:
        e -= 1
    while Fraction(10) ** (e + 1) <= aq:
        e += 1
    k = sig - 1 - e
    scaled = q * Fraction(10) ** k
    if up:
        n = -((-scaled.numerator) // scaled.denominator)  # ceil
    else:
        n = scaled.numerator // scaled.denominator  # floor
    sign = "-" if n < 0 else ""
    digits = str(abs(n))
    if k <= 0:
        return sign + digits + "0" * (-k)
    if len(digits) <= k:
        digits = "0" * (k - len(digits) + 1) + digits
    intpart, fracpart = digits[:-k], digits[-k:]
    fracpart = fracpart.rstrip("0")
    return sign + intpart + ("." + fracpart if fracpart else "")


def interval_json(iv: RealInterval) -> dict:
    return {"lo": _dec_str(iv.lo, up=False), "hi": _dec_str(iv.hi, up=True)}


def coords_str(x: NFElement) -> str:
    return ",".join(str(c) for c in x.coords)


def parse_coords(field: NumberField, text: str) -> NFElement:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        return field.element([Fraction(p) for p in parts])
    except (ValueError, ZeroDivisionError) as exc:
        raise FieldSpecError(f"cannot parse coordinates {text!r}: {exc}") from exc


def _resolve_field(arg: str) -> LoadedField:
    path = Path(arg)
    if path.exists():
        return load_field_file(path)
    name = arg if arg.endswith(".json") else arg + ".json"
    if not bundled_path(name).is_file():
        raise FieldSpecError(f"field file {arg!r} not found (not a path or bundled name)")
    return load_bundled(name)


def _emit(report: dict, args, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
        for w in report.get("warnings", []):
            print(f"warning: {w}")


def _base_report(command: str, inputs: dict) -> dict:
    return {
        "command": command,
        "version": __version__,
        "inputs": inputs,
        "certification": {"precision_bits": DEFAULT_PREC},
        "warnings": [],
        "outputs": {},
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_field_info(args) -> int:
    lf = _resolve_field(args.field)
    field = lf.field
    report = _base_report("field-info", {"field": lf.label})
    units = [
        {"coords": coords_str(u), "norm": str(u.norm())} for u in lf.units.units
    ]
    report["outputs"] = {
        "label": lf.label,
        "min_poly": list(field.min_poly),
        "degree": field.degree,
        "signature": list(field.signature),
        "field_disc": field.field_disc,
        "index": field.index,
        "class_number": lf.class_number,
        "fundamental_units": units,
        "minkowski_bound": interval_json(constants.minkowski_bound(field)),
    }
    lines = [
        f"{lf.label}: degree {field.degree}, signature {field.signature}, disc {field.field_disc}",
        f"class number {lf.class_number}, units: {[coords_str(u) for u in lf.units.units]}",
    ]
    _emit(report, args, lines)
    return EXIT_OK


def _constants_report_json(rep: constants.ConstantsReport) -> dict:
    return {
        "field": rep.field_label,
        "abs_disc": rep.abs_disc,
        "signature": list(rep.signature),
        "minkowski_bound": interval_json(rep.minkowski_bound),
        "c_field": interval_json(rep.c_field),
        "M": rep.M,
        "epsilon": interval_json(rep.epsilon),
        "rho_upper": interval_json(rep.rho_upper),
        "T0": interval_json(rep.t0),
        "c_MK": interval_json(rep.c_MK),
        "epsilon_prime_at": [
            {"q": q, "value": interval_json(v)} for q, v in rep.epsilon_prime_at
        ],
    }


def cmd_constants(args) -> int:
    lf = _resolve_field(args.field)
    m_override = args.M
    eps_override = Fraction(args.epsilon) if args.epsilon else None
    if args.bedocchi:
        if not lf.bedocchi:
            raise FieldSpecError("field file has no refinement block")
        m_override = lf.bedocchi["M"]
        eps_override = lf.bedocchi["epsilon"]
    samples = [int(s) for s in args.eps_prime_at.split(",")] if args.eps_prime_at else None
    rep = constants.compute_constants(
        lf.field,
        lf.units,
        label=lf.label,
        M_override=m_override,
        epsilon_override=eps_override,
        epsilon_prime_samples=samples,
    )
    report = _base_report(
        "constants",
        {"field": lf.label, "M_override": m_override, "epsilon_override": str(eps_override) if eps_override else None},
    )
    report["outputs"] = _constants_report_json(rep)
    report["warnings"] = list(rep.warnings)
    lines = [
        f"{rep.field_label}: |disc| = {rep.abs_disc}, signature {rep.signature}",
        f"minkowski bound ~ {float(rep.minkowski_bound.hi):.6g}",
        f"c(K) ~ {float(rep.c_field.hi):.8g}  ->  M = {rep.M}",
        f"epsilon ~ {float(rep.epsilon.lo):.8g}",
        f"rho_upper ~ {float(rep.rho_upper.hi):.8g}, T0 ~ {float(rep.t0.hi):.8g}",
        f"c(M,K) in [{float(rep.c_MK.lo):.10g}, {float(rep.c_MK.hi):.10g}]",
    ]
    for q, v in rep.epsilon_prime_at:
        lines.append(f"epsilon'({q}) ~ {float(v.hi):.8g}")
    _emit(report, args, lines)
    return EXIT_OK


def cmd_table1(args) -> int:
    names = bundled_table1_names()
    if args.fields_dir:
        paths = sorted(Path(args.fields_dir).glob("*.json"))
        if not paths:
            raise FieldSpecError(f"no field files (*.json) in {args.fields_dir}")
    else:
        paths = [bundled_path(n) for n in names]
    rows = []
    lines = [
        "poly | h | signature | |disc| | M | c(M,K) computed | c(M,K) reference | deviation"
    ]
    all_m_ok = True
    for path in paths:
        try:
            lf = load_field_file(path)
            rep = constants.compute_constants(lf.field, lf.units, label=lf.label)
        except PadicCFError as exc:
            rows.append({"file": path.name, "flagged": str(exc)})
            lines.append(f"{path.name}: FLAGGED ({exc})")
            continue
        ref = lf.c_mk_reference
        dev = None
        if ref:
            dev = float(rep.c_MK.hi / ref - 1)
        m_ref = lf.m_reference
        m_ok = m_ref is None or rep.M == m_ref
        if not m_ok:
            all_m_ok = False
        rows.append(
            {
                "file": path.name,
                "min_poly": list(lf.field.min_poly),
                "class_number": lf.class_number,
                "signature": list(lf.field.signature),
                "abs_disc": rep.abs_disc,
                "M": rep.M,
                "M_reference": m_ref,
                "M_matches": m_ok,
                "c_MK": interval_json(rep.c_MK),
                "c_MK_reference": ref,
                "c_MK_deviation": f"{dev:+.4%}" if dev is not None else None,
            }
        )
        lines.append(
            f"{list(lf.field.min_poly)} | {lf.class_number} | {lf.field.signature} | {rep.abs_disc} | "
            f"{rep.M}{'' if m_ok else ' (MISMATCH, expected ' + str(m_ref) + ')'} | "
            f"{float(rep.c_MK.hi):.10g} | {ref} | "
            + (f"{dev:+.4%}" if dev is not None else "-")
        )
    report = _base_report("table1", {"fields_dir": args.fields_dir})
    report["outputs"] = {"rows": rows, "m_column_checked": all_m_ok}
    _emit(report, args, lines)
    return EXIT_OK if all_m_ok else EXIT_ASSERTION


def _select_prime(lf: LoadedField, args):
    """Return (index, P, generator) for the prime above --prime.

    With --prime-gen the prime is the one the element generates: it must lie
    in P and have |N| = N(P).  The generator is returned so that it can serve
    as the gamma of the representative floor; it is None otherwise.
    """
    if args.prime is None:
        raise FieldSpecError("--prime is required")
    ps = primes_above(lf.field, args.prime)
    if args.prime_gen:
        gen = parse_coords(lf.field, args.prime_gen)
        for idx, q in enumerate(ps):
            if q.as_ideal.contains(gen):
                norm = abs(gen.norm())
                if norm != q.norm:
                    raise FieldSpecError(
                        f"--prime-gen {args.prime_gen} does not generate a prime above "
                        f"{args.prime}: |N| = {norm}, N(P) = {q.norm}"
                    )
                return idx, q, gen
        raise FieldSpecError("no prime above p contains the supplied generator")
    idx = args.prime_index
    if not 0 <= idx < len(ps):
        raise FieldSpecError(f"prime index {idx} out of range ({len(ps)} primes above {args.prime})")
    return idx, ps[idx], None


def _build_type(lf: LoadedField, args):
    """Return (spec, prime index, generator) for the type the flags describe."""
    idx, prime, gen = _select_prime(lf, args)
    if args.floor == "browkin":
        spec = cfengine.make_browkin_type(lf.field, args.prime)
    else:
        eps = None
        if args.epsilon:
            eps = RealInterval.exact(Fraction(args.epsilon))
        spec = cfengine.make_representative_type(
            lf.field, prime, lf.units, M=args.M, epsilon=eps, gamma=gen
        )
    if args.corrupt:
        spec.floor = cfengine.ShiftedFloor(spec.floor)
        spec.warnings.append("floor corrupted (+1) for negative-control run")
    return spec, idx, gen


def _type_inputs(lf: LoadedField, args, spec, prime_index: int, gen, **extra) -> dict:
    """The inputs block shared by the reports of the type commands."""
    inputs = {"field": lf.label, "prime": args.prime, "prime_index": prime_index,
              "floor": spec.floor.describe(), **extra}
    if gen is not None:
        inputs["prime_gen"] = args.prime_gen
        inputs["gamma"] = coords_str(gen) if args.floor == "representative" else None
    return inputs


def cmd_expand(args) -> int:
    lf = _resolve_field(args.field)
    spec, prime_index, gen = _build_type(lf, args)
    alpha = parse_coords(lf.field, args.alpha)
    inputs = _type_inputs(lf, args, spec, prime_index, gen, alpha=args.alpha, cap=args.cap)
    report = _base_report("expand", inputs)
    report["warnings"] = list(spec.warnings)
    try:
        exp = cfengine.expand(alpha, spec, cap=args.cap)
    except SearchExhausted as exc:
        # keep the inputs and the type's warnings, which often explain why
        report["error"] = f"search exhausted: {exc}"
        _emit(report, args, [])
        raise
    inputs["cap"] = exp.cap
    steps = []
    for s in exp.steps:
        steps.append(
            {
                "n": s.index,
                "partial_quotient": coords_str(s.partial_quotient),
                "complete_quotient": coords_str(s.complete_quotient),
                "v_P_complete": s.v_complete,
                "height_pow_d": interval_json(s.height_pow_d),
                "nu": interval_json(s.nu) if s.nu is not None else None,
            }
        )
    report["outputs"] = {
        "status": list(exp.status),
        "partial_quotients": [coords_str(q) for q in exp.partial_quotients],
        "steps": steps,
    }
    lines = [
        f"expansion of [{args.alpha}] over {lf.label}, {spec.floor.describe()}: status {exp.status}",
        "quotients: " + "; ".join(coords_str(q) for q in exp.partial_quotients),
    ]
    if exp.is_finite:
        value = cfengine.evaluate_cf(exp.partial_quotients)
        ok = value == alpha
        report["outputs"]["roundtrip_exact"] = ok
        lines.append(f"roundtrip exact: {ok}")
        if not ok:
            _emit(report, args, lines)
            return EXIT_ASSERTION
    _emit(report, args, lines)
    return EXIT_OK


def _sample_elements(field: NumberField, count: int, rng: random.Random,
                     num_bound: int = 100, den_bound: int = 60) -> list[NFElement]:
    if count < 1:
        raise FieldSpecError(f"--samples must be positive, got {count}")
    out = []
    for _ in range(count):
        coords = [
            Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))
            for _ in range(field.degree)
        ]
        out.append(field.element(coords))
    return out


def cmd_verify_floor(args) -> int:
    lf = _resolve_field(args.field)
    spec, prime_index, gen = _build_type(lf, args)
    rng = random.Random(args.seed)
    samples = _sample_elements(lf.field, args.samples, rng)
    rep = cfengine.verify_floor_axioms(spec, samples)
    report = _base_report(
        "verify-floor",
        _type_inputs(lf, args, spec, prime_index, gen, samples=args.samples, seed=args.seed),
    )
    fails = rep.failures()
    report["outputs"] = {
        "samples": len(rep.checks),
        "zero_ok": rep.zero_ok,
        "failures": len(fails),
        "failed_samples": [coords_str(c.sample) for c in fails[:10]],
        "all_ok": rep.all_ok,
    }
    report["warnings"] = list(spec.warnings)
    lines = [
        f"floor axioms on {len(rep.checks)} samples: "
        f"{'all pass' if rep.all_ok else f'{len(fails)} failures'} (s(0)=0: {rep.zero_ok})"
    ]
    _emit(report, args, lines)
    return EXIT_OK if rep.all_ok else EXIT_ASSERTION


def cmd_verify_type(args) -> int:
    lf = _resolve_field(args.field)
    spec, prime_index, gen = _build_type(lf, args)
    rng = random.Random(args.seed)
    samples = _sample_elements(lf.field, args.samples, rng)
    rep = cfengine.verify_type_criterion(spec, samples, cap=args.cap)
    report = _base_report(
        "verify-type",
        _type_inputs(lf, args, spec, prime_index, gen, samples=args.samples, seed=args.seed),
    )
    statuses = [e.status[0] for e in rep.expansions]
    report["outputs"] = {
        "nu_count": len(rep.nu_values),
        "empirical_sup": _dec_str(rep.empirical_sup, up=True) if rep.empirical_sup is not None else None,
        "flagged_nu_at_least_one": len(rep.flagged),
        "height_chain_ok": rep.chain_ok,
        "statuses": {s: statuses.count(s) for s in sorted(set(statuses))},
    }
    report["warnings"] = list(spec.warnings)
    sup = float(rep.empirical_sup) if rep.empirical_sup is not None else None
    lines = [
        f"type criterion on {len(samples)} samples: empirical sup nu = {sup}, "
        f"flagged >= 1: {len(rep.flagged)}, height chain ok: {rep.chain_ok}",
    ]
    _emit(report, args, lines)
    ok = rep.all_below_one and rep.chain_ok
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_divchain(args) -> int:
    lf = _resolve_field(args.field)
    a = parse_coords(lf.field, args.a)
    b = parse_coords(lf.field, args.b)
    if b.is_zero():
        raise FieldSpecError("--b must be nonzero")
    ps = primes_above(lf.field, args.S)
    if not 0 <= args.s_index < len(ps):
        raise FieldSpecError(f"S index {args.s_index} out of range ({len(ps)} primes above {args.S})")
    prime = ps[args.s_index]
    ring = SIntegerRing(field=lf.field, S=(prime,))
    caps = divchain.CLWCaps(
        k_range=args.k_range,
        unit_exponent_bound=args.unit_exp_bound,
        candidate_bound=args.candidate_bound,
    )
    chain = divchain.clw_expand(a, b, ring, lf.units, caps=caps)
    ver = divchain.verify_chain(chain)
    quotients = chain.quotients()
    a_seq, b_seq = divchain.continuants(quotients)
    report = _base_report(
        "divchain",
        {"field": lf.label, "a": args.a, "b": args.b, "S": args.S,
         "caps": {"k_range": caps.k_range, "unit_exponent_bound": caps.unit_exponent_bound,
                  "candidate_bound": caps.candidate_bound}},
    )
    report["outputs"] = {
        "length": chain.length,
        "terminating": chain.terminating,
        "steps": [
            {"q": coords_str(q), "r": coords_str(r)} for q, r in chain.steps
        ],
        "verification": {
            "valid": ver.valid,
            "evaluates_correctly": ver.evaluates_correctly,
            "issues": ver.issues,
        },
        "continuants_A": [coords_str(x) for x in a_seq],
        "continuants_B": [coords_str(x) for x in b_seq],
    }
    lines = [
        f"division chain for ({args.a})/({args.b}) over {lf.label}, S = (p={args.S}): "
        f"length {chain.length}, terminating {chain.terminating}",
    ] + [f"  q_{i+1} = {coords_str(q)}, r_{i+1} = {coords_str(r)}" for i, (q, r) in enumerate(chain.steps)] + [
        f"verify: {'ok' if ver.all_ok else 'FAILED ' + '; '.join(ver.issues)}"
    ]
    _emit(report, args, lines)
    return EXIT_OK if ver.all_ok else EXIT_ASSERTION


def cmd_evaluate(args) -> int:
    lf = _resolve_field(args.field)
    quotients = [parse_coords(lf.field, part) for part in args.quotients.split(";") if part.strip()]
    value = cfengine.evaluate_cf(quotients)
    report = _base_report("evaluate", {"field": lf.label, "quotients": args.quotients})
    report["outputs"] = {"value": coords_str(value)}
    _emit(report, args, [f"value: {coords_str(value)}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padiccf",
        description="P-adic continued fractions with extraneous denominators over number fields",
    )
    parser.add_argument("--cap", type=int, default=None, help="iteration cap for expansions")
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed for sampling commands")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # top-level defaults from being overwritten when they are absent there
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=argparse.SUPPRESS)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    p = sub.add_parser("field-info", help="parse and validate a field file")
    p.add_argument("field")
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("constants", help="compute the explicit constants")
    p.add_argument("field")
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--epsilon", type=str, default=None)
    p.add_argument("--bedocchi", action="store_true",
                   help="use the refinement block (M, epsilon) from the field file")
    p.add_argument("--eps-prime-at", type=str, default=None,
                   help="comma-separated q values for epsilon' samples")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("table1", help="constants for the bundled example fields")
    p.add_argument("fields_dir", nargs="?", default=None)
    p.set_defaults(func=cmd_table1)

    def add_type_args(p):
        p.add_argument("field")
        p.add_argument("--prime", type=int, required=True)
        p.add_argument("--prime-index", type=int, default=0)
        p.add_argument("--prime-gen", type=str, default=None,
                       help="select P by a generator of norm +-N(P), used as gamma; "
                            "write --prime-gen=-3,1 when the first coordinate is negative")
        p.add_argument("--floor", choices=["browkin", "representative"], default="browkin")
        p.add_argument("--M", type=int, default=None)
        p.add_argument("--epsilon", type=str, default=None)
        p.add_argument("--corrupt", action="store_true",
                       help="corrupt the floor (+1) as a negative control")

    p = sub.add_parser("expand", help="continued fraction expansion of a field element")
    add_type_args(p)
    p.add_argument("--alpha", type=str, required=True,
                   help="rational coordinate vector, e.g. '7/3' or '7/3,1/2'")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify-floor", help="check the floor-function axioms on random samples")
    add_type_args(p)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=cmd_verify_floor)

    p = sub.add_parser("verify-type", help="empirical finiteness-criterion run")
    add_type_args(p)
    p.add_argument("--samples", type=int, default=25)
    p.set_defaults(func=cmd_verify_type)

    p = sub.add_parser("divchain", help="staged division-chain search")
    p.add_argument("field")
    p.add_argument("--a", type=str, required=True)
    p.add_argument("--b", type=str, required=True)
    p.add_argument("--S", type=int, required=True, help="rational prime under the S-place")
    p.add_argument("--s-index", type=int, default=0)
    p.add_argument("--k-range", type=int, default=25)
    p.add_argument("--unit-exp-bound", type=int, default=12)
    p.add_argument("--candidate-bound", type=int, default=400)
    p.set_defaults(func=cmd_divchain)

    p = sub.add_parser("evaluate", help="evaluate a finite continued fraction exactly")
    p.add_argument("field")
    p.add_argument("--quotients", type=str, required=True,
                   help="semicolon-separated coordinate vectors, e.g. '1;2;3'")
    p.set_defaults(func=cmd_evaluate)

    return parser


def _check_numeric_options(args) -> None:
    """Reject an --epsilon outside (0, 1), an --M below 1 (2 for the representative
    floor), and --M, --epsilon or --prime 2 with the Browkin floor, before any
    computation."""
    eps = getattr(args, "epsilon", None)
    if eps is not None and not 0 < Fraction(eps) < 1:
        raise FieldSpecError(f"--epsilon must lie strictly between 0 and 1, got {eps}")
    M = getattr(args, "M", None)
    if getattr(args, "floor", None) == "browkin":
        for option, value in (("--M", M), ("--epsilon", eps)):
            if value is not None:
                raise FieldSpecError(f"{option} needs --floor representative; the browkin floor has no M or epsilon")
        if args.prime == 2:
            raise FieldSpecError("the browkin floor's centered digit set needs an odd prime, got --prime 2")
    least = 2 if getattr(args, "floor", None) == "representative" else 1
    if M is not None and M < least:
        raise FieldSpecError(f"--M must be at least {least}, got {M}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numeric_options(args)
        return args.func(args)
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except (FieldSpecError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PadicCFError as exc:
        # epsilon >= 1 from an --M the user gave is an input error, from an M the program chose it is not
        if isinstance(exc, EpsilonNotLessThanOne) and getattr(args, "M", None) is not None:
            print(f"input error: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())

"""Span recorder that wraps padiccf's public functions from outside.

Nothing under src/ is edited.  A function imported by name into another
module (``from .ideals import valuation``) has one binding per importing
module, so every binding that is the same object as the original is
replaced; patching only ``ideals.valuation`` would let the calls made from
``cfengine`` or ``divchain`` skip the wrapper.  Methods are wrapped on their
class.

A span is ``[name, parent, op, start_ns, end_ns, error, note, folded_ns]``:
the parent is an index into the span list (-1 for none) and the op is the
id of the benchmark operation that was running (-1 during set-up).  A
"folded" target is too hot to keep one span per call (``ResidueField.pow``
runs about a million times in one divchain-mix pass): its calls are only
counted and timed, and their time is added to the enclosing span's
``folded_ns`` so that the enclosing self time still excludes them.
"""
from __future__ import annotations

import functools
import sys
import time

FOLDED = {"ideals.residue_pow"}

# (module, attribute or Class.method, span name, note taken from the call's arguments)
TARGETS = [
    ("padiccf.cfengine", "RepresentativeFloor.apply", "cfengine.floor",
     lambda args: args[0].prime.field.degree),
    ("padiccf.cfengine", "expand", "cfengine.expand", None),
    ("padiccf.cfengine", "nu_term", "cfengine.nu_term", None),
    ("padiccf.cfengine", "check_height_chain", "cfengine.check_height_chain", None),
    ("padiccf.exactnf", "NFElement.embed", "exactnf.embed", None),
    ("padiccf.exactnf", "NFElement.inverse", "exactnf.inverse", None),
    ("padiccf.exactnf", "weil_height_pow_d", "exactnf.weil_height", None),
    ("padiccf.ideals", "valuation", "ideals.valuation", None),
    ("padiccf.ideals", "canonical_lift", "ideals.canonical_lift", None),
    ("padiccf.ideals", "primes_above", "ideals.primes_above", None),
    ("padiccf.ideals", "ResidueField.pow", "ideals.residue_pow", None),
    ("padiccf.ideals", "principal_generator", "ideals.principal_generator", None),
    ("padiccf.divchain", "clw_expand", "divchain.clw_expand", None),
    ("padiccf.divchain", "verify_chain", "divchain.verify_chain", None),
    ("padiccf.geometry", "log_lattice", "geometry.log_lattice", None),
    ("padiccf.constants", "compute_constants", "constants.compute_constants", None),
    ("padiccf.constants", "c_alpha", "constants.c_alpha", None),
    ("padiccf.fieldspec", "load_field_file", "fieldspec.load", None),
    ("padiccf.cli", "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.folded: dict[str, list[int]] = {}  # name -> [calls, total ns]
        self.op = -1
        self.enabled = False
        self._stack: list[int] = []
        self._in_folded = False
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, stack[-1] if stack else -1, self.op, clock(), 0, None,
                   note(args) if note else None, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[4] = clock()
                stack.pop()

        @functools.wraps(fn)
        def folded(*args, **kwargs):
            if not self.enabled or self._in_folded:  # time only the outermost call
                return fn(*args, **kwargs)
            self._in_folded = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - start
                self._in_folded = False
                total = self.folded.setdefault(name, [0, 0])
                total[0] += 1
                total[1] += took
                if stack:
                    spans[stack[-1]][7] += took

        return folded if name in FOLDED else wrapper

    def install(self) -> None:
        """Replace every binding of each target with a recording wrapper."""
        import padiccf.cli  # noqa: F401  (loads every module that holds a binding)

        modules = [m for n, m in sys.modules.items() if n.startswith("padiccf") and m]
        for mod_name, attr, name, note in TARGETS:
            owner = sys.modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original, note))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, note)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
        self.enabled = False

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\top\tstart_ns\tend_ns\terror\tfolded_ns\n")
            for i, (name, parent, op, start, end, err, _, fold) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{parent}\t{op}\t{start}\t{end}\t{err or ''}\t{fold}\n")
            for name, (calls, total) in self.folded.items():
                fh.write(f"#\t{name}\tfolded\t{calls} calls\t0\t{total}\t\t\n")


def layer_metrics(tracer: Tracer, op_ms_total: float) -> dict[str, float]:
    """Per-layer counts and times from the recorded spans.

    Self time is a span's duration minus the durations of its direct
    children and folded calls (spans of one thread nest, so children never
    overlap).  ``*_ms`` names without ``self`` are inclusive durations.
    """
    spans = tracer.spans
    n = len(spans)
    child_ns = [s[7] for s in spans]
    floor_of = [-1] * n  # nearest enclosing floor span
    for i, (name, parent, _, start, end, _, _, _) in enumerate(spans):
        if parent >= 0:
            child_ns[parent] += end - start
            floor_of[i] = parent if spans[parent][0] == "cfengine.floor" else floor_of[parent]
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    incl_ms: dict[str, float] = {}
    errors: dict[tuple[str, str], int] = {}
    floor_embeds: dict[int, int] = {}
    weil_in_expand = 0
    embed_floor_calls = 0
    embed_floor_self = 0.0
    for i, (name, parent, _, start, end, err, _, _) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + (dur - child_ns[i]) / 1e6
        incl_ms[name] = incl_ms.get(name, 0.0) + dur / 1e6
        if err:
            errors[(name, err)] = errors.get((name, err), 0) + 1
        if name == "exactnf.embed" and floor_of[i] >= 0:
            embed_floor_calls += 1
            embed_floor_self += (dur - child_ns[i]) / 1e6
            floor_embeds[floor_of[i]] = floor_embeds.get(floor_of[i], 0) + 1
        if name == "exactnf.weil_height" and parent >= 0 and spans[parent][0] == "cfengine.expand":
            weil_in_expand += 1  # expand computes one height per step

    pow_calls, pow_ns = tracer.folded.get("ideals.residue_pow", (0, 0))
    floor_calls = calls.get("cfengine.floor", 0)
    floor_ok = sum(1 for s in spans if s[0] == "cfengine.floor" and not s[5])
    candidates = sum(count / spans[i][6] for i, count in floor_embeds.items())

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "cfengine.floor.calls": floor_calls,
        "cfengine.floor.self_ms": self_ms.get("cfengine.floor", 0.0),
        "cfengine.floor.ms_per_call": ratio(incl_ms.get("cfengine.floor", 0.0), floor_calls),
        "cfengine.floor.exhausted": errors.get(("cfengine.floor", "SearchExhausted"), 0),
        "cfengine.floor.embeds_per_call": ratio(embed_floor_calls, floor_calls),
        "cfengine.floor.accept_ratio": ratio(floor_ok, candidates),
        "cfengine.floor.share_of_ops": ratio(incl_ms.get("cfengine.floor", 0.0), op_ms_total),
        "cfengine.expand.steps": weil_in_expand,
        "cfengine.expand.self_ms": self_ms.get("cfengine.expand", 0.0),
        "cfengine.nu_term.self_ms": self_ms.get("cfengine.nu_term", 0.0),
        "cfengine.check_height_chain.self_ms": self_ms.get("cfengine.check_height_chain", 0.0),
        "exactnf.embed.calls": calls.get("exactnf.embed", 0),
        "exactnf.embed.self_ms": self_ms.get("exactnf.embed", 0.0),
        "exactnf.embed.in_floor.calls": embed_floor_calls,
        "exactnf.embed.in_floor.self_ms": embed_floor_self,
        "exactnf.inverse.self_ms": self_ms.get("exactnf.inverse", 0.0),
        "exactnf.weil_height.self_ms": self_ms.get("exactnf.weil_height", 0.0),
        "ideals.valuation.calls": calls.get("ideals.valuation", 0),
        "ideals.valuation.self_ms": self_ms.get("ideals.valuation", 0.0),
        "ideals.canonical_lift.self_ms": self_ms.get("ideals.canonical_lift", 0.0),
        "ideals.primes_above.calls": calls.get("ideals.primes_above", 0),
        "ideals.primes_above.self_ms": self_ms.get("ideals.primes_above", 0.0),
        "ideals.residue_pow.calls": pow_calls,
        "ideals.residue_pow.self_ms": pow_ns / 1e6,
        "ideals.principal_generator_ms": incl_ms.get("ideals.principal_generator", 0.0),
        "divchain.clw_expand.self_ms": self_ms.get("divchain.clw_expand", 0.0),
        "divchain.clw_expand.exhausted": errors.get(("divchain.clw_expand", "SearchExhausted"), 0),
        "divchain.verify_chain.self_ms": self_ms.get("divchain.verify_chain", 0.0),
        "geometry.log_lattice_ms": incl_ms.get("geometry.log_lattice", 0.0),
        "constants.compute_constants_ms": incl_ms.get("constants.compute_constants", 0.0),
        "constants.c_alpha_ms": incl_ms.get("constants.c_alpha", 0.0),
        "fieldspec.load_ms": incl_ms.get("fieldspec.load", 0.0),
        "cli.main_ms": incl_ms.get("cli.main", 0.0),
    }

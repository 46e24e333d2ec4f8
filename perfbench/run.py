"""padiccf benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload q14-criterion5 --seed 1 --seconds 8 --trace 0

Run from a checkout of the repository: the package is imported from its
``src/`` directory, and the run stops with an error when there is none.
With ``--trace 0`` the run sets the workload up several times (``setup_s`` is
the median), then sends passes over the workload's inputs, one operation at
a time, until ``--seconds`` of operation time (at the reference CPU speed
of ``Speed``) have been measured, and prints the end-to-end metrics
(``wall_s`` is the mean time of a pass).
With ``--trace 1`` it sets up once and sends one pass with the public layer
functions wrapped in spans, prints the per-layer metrics, then replays
those operations untraced on a fresh set-up (for up to ``--seconds``) to
measure the tracing overhead.

Every operation's output is checked.  An input that succeeded when
``baseline.json`` was recorded must give the recorded digest again, or the
run reports ``"correct": false``.  The last line of standard output is the
JSON result; the metric names and units are those of ``BENCHMARK.json``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"


def probe() -> float:
    """Seconds that a fixed task of Fraction arithmetic takes right now (the
    faster of two tries, so that one interruption does not count)."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        x = Fraction(0)
        for i in range(1, 200):
            x = x * Fraction(i, i + 1) + Fraction(1, i)
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Scales measured seconds to a reference CPU speed.

    The CPU speed a run gets on a shared machine drifts by up to a factor of
    two within seconds.  The probe runs right before and right after each
    timed piece of work, and every PERIOD_S during it on a sampler thread;
    the work's seconds are multiplied by PROBE_REF_S over the mean probe
    time, so the drift cancels while the program's own cost stays.
    """

    PROBE_REF_S = 0.001  # the probe's time at the reference speed
    PERIOD_S = 0.05

    def __init__(self):
        self.samples: list[float] = []
        self._mark = 0
        self._before = 0.0
        self._stop = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()

    def _sample(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            self.samples.append(probe())

    def start(self) -> None:
        self._before = probe()
        self._mark = len(self.samples)

    def scale(self, seconds: float) -> float:
        probes = [self._before, probe(), *self.samples[self._mark:]]
        return seconds * self.PROBE_REF_S * len(probes) / sum(probes)

    def close(self) -> None:
        self._stop.set()
        self._sampler.join()


def attempt(op, speed: Speed | None = None, tracer=None) -> tuple[float, float, str, str | None]:
    """Run one operation (timed), then check it (untimed).  Returns the
    seconds taken, the same scaled by ``speed`` (when given), the outcome
    ("ok", the exception's name, or the failed check) and the output digest."""
    from checks import CheckFailed

    gc.collect()  # garbage left by earlier operations is not this one's cost
    if speed:
        speed.start()
    if tracer:
        tracer.enabled = True
    t0 = op.clock()
    try:
        result, outcome = op.run(), "ok"
    except Exception as exc:  # any exception is a failed operation
        result, outcome = None, type(exc).__name__
    elapsed = op.clock() - t0
    if tracer:
        tracer.enabled = False
    scaled = speed.scale(elapsed) if speed else elapsed
    found = None
    if outcome == "ok":
        try:
            found = op.check(result)
        except CheckFailed as exc:
            outcome = f"check failed: {exc}"
    return elapsed, scaled, outcome, found


class Tally:
    """Outcome counts, and the correctness gate against the recorded baseline."""

    def __init__(self, baseline: dict):
        self.baseline = baseline
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}
        self.mismatches: list[str] = []

    def execute(self, op, speed: Speed | None = None, tracer=None) -> tuple[float, float]:
        """Attempt one operation and count it; return its raw and scaled seconds."""
        elapsed, scaled, outcome, found = attempt(op, speed, tracer)
        self.attempted += 1
        if outcome != "ok":
            self.failed += 1
            self.failures[outcome] = self.failures.get(outcome, 0) + 1
        recorded = self.baseline.get(op.key)
        if recorded and recorded[0] == "ok" and (outcome != "ok" or found != recorded[1]):
            self.mismatches.append(f"{op.key}: recorded ok {recorded[1]}, now {outcome} {found}")
        return elapsed, scaled


def time_only(op, speed: Speed) -> float:
    gc.collect()
    speed.start()
    t0 = time.perf_counter()
    try:
        op.run()
    except Exception:  # the traced pass has already counted this outcome
        pass
    return speed.scale(time.perf_counter() - t0)


def import_package() -> str | None:
    """Put the checkout's src/ first on sys.path and import padiccf from it;
    return an error message when that is not possible."""
    if not (SRC / "padiccf" / "__init__.py").is_file():
        return f"no padiccf package under {SRC}; run from a repository checkout"
    sys.path.insert(0, str(SRC))
    import padiccf

    if Path(padiccf.__file__).resolve().parent != (SRC / "padiccf").resolve():
        return f"padiccf imported from {padiccf.__file__}, not {SRC}"
    return None


def seeded_pass(pool: list[list], rng: random.Random) -> list[list]:
    """Every round of the pool once, in an order drawn from the run seed."""
    rounds = [list(items) for items in pool]
    rng.shuffle(rounds)
    for items in rounds:
        rng.shuffle(items)
    return rounds


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (the 11th
    largest value) and that percentile; the maximum when there are fewer
    than 11 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timed_setup(wl, speed: Speed, times: list[float]):
    speed.start()
    t0 = time.perf_counter()
    state = wl.setup()
    times.append(speed.scale(time.perf_counter() - t0))
    return state


def run_end_to_end(wl, seed: int, seconds: float, tally: Tally, speed: Speed, say) -> dict:
    setups: list[float] = []
    for _ in range(wl.setup_repeats):
        state = timed_setup(wl, speed, setups)
    rng = random.Random(seed)
    pool = wl.pool()
    op_times: list[float] = []
    pass_times: list[float] = []
    while True:
        times = [tally.execute(wl.make_op(state, item), speed)[1]
                 for items in seeded_pass(pool, rng) for item in items]
        op_times += times
        pass_times.append(sum(times))
        if sum(op_times) >= seconds:
            break
        state = timed_setup(wl, speed, setups)  # caches filled in one pass never reach the next
    measured = sum(op_times)
    passed = tally.attempted - tally.failed
    tail_ms, tail_pct = tail([t * 1e3 for t in op_times])
    usage = resource.RUSAGE_CHILDREN if wl.runs_subprocesses else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": measured / len(pass_times),
        "ops_per_s": passed / measured,
        "op_ms_p50": statistics.median(op_times) * 1e3,
        "op_ms_tail": tail_ms,
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    n = len(op_times)
    say(f"setup_s      {metrics['setup_s']:.4f} s    median of {len(setups)} set-ups")
    say(f"wall_s       {metrics['wall_s']:.4f} s    mean of {len(pass_times)} passes "
        f"over the {len(times)} inputs")
    say(f"ops_per_s    {metrics['ops_per_s']:.4f} 1/s  {passed} passed in {measured:.2f} s")
    say(f"op_ms_p50    {metrics['op_ms_p50']:.2f} ms   {n} operations")
    say(f"op_ms_tail   {tail_ms:.2f} ms   "
        + (f"p{tail_pct:.1f} of {n} operations (10 beyond)" if n > 10
           else f"maximum of {n} operations (fewer than 11)"))
    say(f"failed_share {tally.failed / tally.attempted:.4f}        "
        f"{tally.failed} failed of {tally.attempted} attempted")
    say(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB   "
        + ("largest CLI process" if usage == resource.RUSAGE_CHILDREN else "this process"))
    return metrics


def run_traced(wl, seed: int, seconds: float, tally: Tally, speed: Speed, say,
               span_path: Path) -> dict:
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        state = wl.setup()
        tracer.enabled = False
        items = [item for items in seeded_pass(wl.pool(), random.Random(seed)) for item in items]
        raw, traced = [], []
        for k, item in enumerate(items):
            op = wl.make_op(state, item, in_process=True)
            tracer.op = k
            seconds_raw, seconds_scaled = tally.execute(op, speed, tracer)
            raw.append(seconds_raw)
            traced.append(seconds_scaled)
    finally:
        tracer.uninstall()
    # the same operations untraced, on a fresh set-up, up to --seconds
    state = wl.setup()
    plain = []
    for item in items:
        plain.append(time_only(wl.make_op(state, item, in_process=True), speed))
        if sum(plain) >= seconds:
            break
    metrics = layer_metrics(tracer, sum(raw) * 1e3)
    metrics["trace.overhead_ratio"] = sum(traced[:len(plain)]) / sum(plain)
    import_ms = sympy_ms = 0.0
    if wl.runs_subprocesses:
        import_ms, sympy_ms = wl.import_times()
    metrics["cli.import_ms"] = import_ms
    metrics["cli.import_sympy_ms"] = sympy_ms
    tracer.write(span_path)
    say(f"traced one pass of {len(items)} operations ({sum(traced):.2f} s), "
        f"{len(tracer.spans)} spans written to {span_path.relative_to(ROOT)}; "
        f"overhead measured on {len(plain)} replayed operations")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = import_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((HERE / "baseline.json").read_text())

    from workloads import all_workloads

    workloads = all_workloads(ROOT)
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads)}")
    wl = workloads[args.workload]

    def say(text: str) -> None:
        print(text, flush=True)

    import mpmath
    import numpy
    import sympy

    say(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    say(f"python {platform.python_version()}  sympy {sympy.__version__}  "
        f"mpmath {mpmath.__version__}  numpy {numpy.__version__}  "
        f"{platform.platform()}  nproc {len(os.sched_getaffinity(0))}")
    # one CPU for the benchmark and the CLI processes it starts, so that the
    # speed probe measures the CPU the work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # the modules' own objects never become garbage; frozen, they keep the
    # collection before each operation (in attempt) down to a millisecond
    gc.freeze()
    tally = Tally(baseline.get(wl.name, {}))
    speed = Speed()
    try:
        if args.trace:
            span_path = SPAN_DIR / f"spans-{wl.name}-seed{args.seed}.tsv"
            values = run_traced(wl, args.seed, args.seconds, tally, speed, say, span_path)
            wanted = declared["per_layer"]
        else:
            values = run_end_to_end(wl, args.seed, args.seconds, tally, speed, say)
            wanted = declared["end_to_end"]
    finally:
        speed.close()
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 1
    if args.trace:
        for m in wanted:
            say(f"{m['name']:<38} {values[m['name']]:.6g} {m['unit']}")
    for outcome, count in sorted(tally.failures.items()):
        say(f"failed: {count} x {outcome}")
    for line in tally.mismatches:
        say(f"MISMATCH {line}")
    result = {
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

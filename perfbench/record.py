"""Record the outcome and output digest of every pool input into baseline.json.

    python3 perfbench/record.py [workload ...]

Run it from a checkout of the commit whose outputs are the reference (the
baseline in the repository was recorded on the commit that added this
benchmark).  Each input of each named workload (all four by default) is run
once, untraced; its entry becomes ``[outcome, digest]``.  Later benchmark
runs fail their correctness gate when an input recorded as "ok" no longer
gives the same digest.
"""
from __future__ import annotations

import json
import sys

from run import HERE, ROOT, attempt, import_package


def main(names: list[str]) -> int:
    problem = import_package()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from workloads import all_workloads

    workloads = all_workloads(ROOT)
    path = HERE / "baseline.json"
    baseline = json.loads(path.read_text())
    for name in names or list(workloads):
        wl = workloads[name]
        state = wl.setup()
        entries: dict[str, list] = {}
        for items in wl.pool():
            for item in items:
                op = wl.make_op(state, item)
                if op.key not in entries:
                    elapsed, _, outcome, found = attempt(op)
                    entries[op.key] = [outcome, found]
                    print(f"{name}  {elapsed * 1e3:9.1f} ms  {outcome:<40.40}  {op.key}", flush=True)
        baseline[name] = entries
        path.write_text(json.dumps(baseline, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

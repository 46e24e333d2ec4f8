"""The scripts under scripts/ run to completion on small inputs."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["expansion_demo.py", "2", "0"],
    ["scan_split_primes.py", "qsqrt14.json", "48896", "2"],
    ["find_units.py", "[1,-2,-1,1]", "3"],
])
def test_script_exits_zero(argv):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_find_units_without_a_unit_stops_with_its_message():
    """At unit rank 1 with no candidate unit (bound 0 leaves only rationals),
    find_units.py exits 1 with its message, not a traceback."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "find_units.py"), "[1,1,0,1]", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1
    assert "only 0 independent units found; raise the bound" in proc.stderr
    assert "Traceback" not in proc.stderr

"""``tools/linecov.py`` lists, per package module, the lines a pytest run never executes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lists_the_lines_a_run_never_executes():
    result = subprocess.run(
        [sys.executable, "tools/linecov.py", "-q", "-p", "no:cacheprovider",
         "tests/test_numeric.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    missed, total = {}, {}  # per module, from "<path>: <missed> of <total> lines never run"
    for line in result.stdout.splitlines():
        if line.startswith("src/spatialqr/"):
            name, rest = line.split(": ", 1)
            count, _, of = rest.split()[:3]
            missed[name], total[name] = int(count), int(of)
    assert set(missed) == {f"src/spatialqr/{p.name}" for p in (ROOT / "src/spatialqr").glob("*.py")}
    # the numeric tests never import the simulator, and run part of numeric.py
    assert missed["src/spatialqr/simulator.py"] == total["src/spatialqr/simulator.py"] > 0
    assert 0 < missed["src/spatialqr/numeric.py"] < total["src/spatialqr/numeric.py"]

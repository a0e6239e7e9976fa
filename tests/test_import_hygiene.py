"""No command loads scipy: the program needs numpy alone.

The check runs in a fresh interpreter, because the test process has
already imported scipy through other tests."""

import json
import subprocess
import sys
from pathlib import Path

import beambvp

SRC = Path(beambvp.__file__).resolve().parent.parent
EXAMPLE_A = SRC / "beambvp" / "fixtures" / "example_a.problem"

GUARD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = []
import beambvp.cli as cli
steps.append(("import beambvp.cli", None, scipy_modules()))
commands = (["analyze", sys.argv[2]], ["verify-lemmas"], ["solve", sys.argv[2], "--out", sys.argv[3]])
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append((argv[0], code, scipy_modules()))
print(json.dumps(steps))
"""


def test_cli_loads_no_scipy(tmp_path):
    run = subprocess.run(
        [sys.executable, "-c", GUARD, str(SRC), str(EXAMPLE_A), str(tmp_path / "a.csv")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    steps = json.loads(run.stdout)
    assert [(name, code) for name, code, _ in steps] == [
        ("import beambvp.cli", None), ("analyze", 0), ("verify-lemmas", 0), ("solve", 0)
    ]
    assert {name: loaded for name, _, loaded in steps if loaded} == {}

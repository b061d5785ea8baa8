"""What a fresh CLI process loads, and that the deferred imports still run.

Importing cobordlab.cli must not load dataclasses (which brings inspect, ast,
dis and tokenize), fractions (which brings decimal) or the acceptance checks:
a CLI request would pay for them on every start.  rho, bound and selftest
import what they need inside the function, so they run here in fresh
processes too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import cobordlab

DEFERRED = ("dataclasses", "inspect", "fractions", "decimal", "cobordlab.acceptance")
SRC = str(Path(cobordlab.__file__).resolve().parent.parent)


def _python(*args, cache=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    if cache is not None:
        env["COBORDLAB_CACHE"] = str(cache)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def test_importing_the_cli_defers_the_heavy_modules():
    # compare with what the interpreter had loaded before, so that modules a
    # site hook imports at start-up do not count against the package
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import cobordlab.cli\n"
        f"print(json.dumps(sorted(m for m in {DEFERRED!r} if m in sys.modules and m not in before)))\n"
    )
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_deferred_imports_run_in_fresh_processes(tmp_path):
    cache = tmp_path / "cache.json"
    proc = _python("-m", "cobordlab.cli", "rho", "-p", "2", "-q", "2", "--np-minus", "")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "rho_2 = 2/5\n", "")
    proc = _python("-m", "cobordlab.cli", "rho", "-p", "3", "-q", "3", "--members", "6,8", "--json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{\n  "rho": "1/4"\n}\n', "")
    proc = _python("-m", "cobordlab.cli", "bound", "-p", "2", "-q", "2", "P(4)", "--indices", "",
                   "--parts", "0", "--milnor-d", "0", "--json", cache=cache)
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["ratio"]["bound"] == 2 and blob["milnor"] is False
    proc = _python("-m", "cobordlab.cli", "selftest", "--json", cache=cache)
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert (blob["passed"], blob["failed"]) == (12, 0)

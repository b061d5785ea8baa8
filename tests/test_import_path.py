"""What a fresh CLI process loads, and that the deferred imports still run.

Importing cobordlab.cli must not load dataclasses (which brings inspect, ast,
dis and tokenize), fractions (which brings decimal), tempfile (which brings
shutil), argparse (which brings gettext; the CLI builds its argparse parser
only for help and usage errors) or the acceptance checks: a CLI request
would pay for them on every start.  An express request must not load any of
them either.  rho, bound and selftest import what they need inside the
function, so they run here in fresh processes too.
"""

import json
import subprocess
import sys

from reference import subprocess_env

DEFERRED = ("dataclasses", "inspect", "fractions", "decimal", "tempfile", "argparse", "cobordlab.acceptance")


def _python(*args, **env):
    return subprocess.run([sys.executable, *args], env=subprocess_env(**env), capture_output=True, text=True,
                          timeout=120)


# compare with what the interpreter had loaded before, so that modules a
# site hook imports at start-up do not count against the package
IMPORT_CHECK = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import cobordlab.cli\n"
    f"print(json.dumps(sorted(m for m in {DEFERRED!r} if m in sys.modules and m not in before)))\n"
)


def test_importing_the_cli_defers_the_heavy_modules():
    proc = _python("-c", IMPORT_CHECK)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_importing_the_cli_defers_the_heavy_modules_without_site_hooks():
    # a site hook may load tempfile or another deferred module itself (a .pth
    # file can import anything), which hides it from the check above; -S skips
    # the site module, so here every deferred module the package loads shows
    proc = _python("-S", "-c", IMPORT_CHECK)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# an express request that builds generators, run with -S so that no site
# hook loads a deferred module first; the list goes to stderr after the output
EXPRESS_CHECK = (
    "import json, sys\n"
    "from cobordlab.cli import main\n"
    "code = main(['express', '-p', '5', 'P(48)*P(10) + P(58)'])\n"
    f"print(json.dumps([code, sorted(m for m in {DEFERRED!r} if m in sys.modules)]), file=sys.stderr)\n"
)


def test_an_express_request_loads_no_deferred_module(tmp_path):
    # an empty HOME: nothing saved by an earlier run can stand in for the work
    proc = _python("-S", "-c", EXPRESS_CHECK, HOME=str(tmp_path))
    assert proc.stdout == "1*X[58] + 1*X[48]*X[10]\n"
    assert json.loads(proc.stderr) == [0, []]


# the selftest's import, which perfbench times as the selftest set-up, loads
# the package's own modules and nothing heavier; a new module shows up here,
# import-time work inside a module only in that set-up time
ACCEPTANCE_MODULES = [
    "cobordlab", "cobordlab.acceptance", "cobordlab.actions", "cobordlab.bounds", "cobordlab.chow",
    "cobordlab.cobordism", "cobordlab.equivariant", "cobordlab.fpring", "cobordlab.partitions",
]
ACCEPTANCE_CHECK = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import cobordlab.acceptance\n"
    "new = [m for m in sys.modules if m not in before]\n"
    f"print(json.dumps([sorted(m for m in new if m.startswith('cobordlab')), sorted(m for m in {DEFERRED!r} if m in new)]))\n"
)


def test_importing_the_acceptance_checks_loads_only_the_package_modules():
    proc = _python("-S", "-c", ACCEPTANCE_CHECK)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [ACCEPTANCE_MODULES, ["cobordlab.acceptance"]]


def test_deferred_imports_run_in_fresh_processes():
    proc = _python("-m", "cobordlab.cli", "rho", "-p", "2", "-q", "2", "--np-minus", "")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "rho_2 = 2/5\n", "")
    proc = _python("-m", "cobordlab.cli", "rho", "-p", "3", "-q", "3", "--members", "6,8", "--json")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, '{\n  "rho": "1/4"\n}\n', "")
    proc = _python("-m", "cobordlab.cli", "bound", "-p", "2", "-q", "2", "P(4)", "--indices", "",
                   "--parts", "0", "--milnor-d", "0", "--json")
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert blob["ratio"]["bound"] == 2 and blob["milnor"] is False
    proc = _python("-m", "cobordlab.cli", "selftest", "--json")
    assert proc.returncode == 0, proc.stderr
    blob = json.loads(proc.stdout)
    assert (blob["passed"], blob["failed"]) == (12, 0)

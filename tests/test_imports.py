"""Import contract: quadflow never loads scipy, and multiprocessing only
where it is used.

Each check runs in a fresh interpreter, so what this test session already
imported cannot hide a module-level import.  No command loads ``scipy``
(importing ``scipy.integrate`` would be most of a cold start): the oracles
integrate and sum in the package, and scipy is only the tests' reference.
Only a multi-config ``run`` starts a pool, so no other command loads
``multiprocessing``.  Every name an ``__all__`` lists must exist, or
``from quadflow import *`` fails.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import quadflow

SRC = Path(__file__).resolve().parents[1] / "src"

GRID_CFG = """
[hamiltonian]
preset = landau
m = 1.0
omega_c = 1.0
E_x = 0.3
E_y = -0.2

[run]
t_end = 2.5

[outputs]
alphas = alphas.csv
heisenberg = heisenberg.json
green = green.csv

[green]
grid_extent = 3.0
grid_points = 11
source = 0.0, 0.0
"""

WATCHED = ("scipy", "scipy.integrate", "multiprocessing")
LOADED = ("import json, sys\n"
          f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))\n")


def _loaded_after(code, cwd):
    """Run ``code`` in a fresh interpreter; return the watched modules it
    left in sys.modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code + LOADED], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_import_loads_neither_scipy_nor_multiprocessing(tmp_path):
    assert _loaded_after("import quadflow\nimport quadflow.cli\n",
                         tmp_path) == []


def test_run_with_green_grid_loads_neither(tmp_path):
    (tmp_path / "grid.cfg").write_text(GRID_CFG)
    code = ("from quadflow.cli import main\n"
            "assert main(['run', 'grid.cfg', '--outdir', 'out']) == 0\n"
            "assert main(['green', 'grid.cfg', '--outdir', 'g']) == 0\n"
            "assert main(['print-odes', '--t', '0.5']) == 0\n")
    assert _loaded_after(code, tmp_path) == []
    assert (tmp_path / "out" / "green.csv").exists()


def test_verify_loads_no_scipy(tmp_path):
    code = ("from quadflow.cli import main\n"
            "assert main(['verify', '--preset', 'landau']) == 0\n")
    assert "scipy" not in _loaded_after(code, tmp_path)


def test_fundamental_matrix_works_as_first_call(tmp_path):
    # free particle, m = 1: x(1) = x(0) + p(0), p(1) = p(0)
    code = ("import numpy as np\n"
            "import quadflow\n"
            "sched = quadflow.CoefficientSchedule.free(m=1.0)\n"
            "S, d = quadflow.fundamental_matrix(sched, 1.0)\n"
            "expected = np.block([[np.eye(2), np.eye(2)],"
            " [np.zeros((2, 2)), np.eye(2)]])\n"
            "assert np.allclose(S, expected, atol=1e-9), S\n"
            "assert np.allclose(d, 0.0, atol=1e-12), d\n")
    assert "scipy" not in _loaded_after(code, tmp_path)


def test_every_all_entry_resolves():
    modules = [quadflow] + [
        importlib.import_module(f"quadflow.{info.name}")
        for info in pkgutil.iter_modules(quadflow.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], module.__name__

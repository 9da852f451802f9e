"""Import contract: a command loads only the modules it runs.

Each check runs in a fresh interpreter, so what this test session already
imported cannot hide a module-level import.  No command loads ``scipy``
(importing ``scipy.integrate`` would be most of a cold start): the oracles
integrate and sum in the package, and scipy is only the tests' reference.
A multi-config ``run`` runs its configs in turn, so no command loads
``multiprocessing`` or ``concurrent.futures``.  ``import quadflow.schedule``
loads no numpy.  Only ``verify`` loads ``quadflow.oracles``, and with it
the one dataclass (its ``GaussianState``); no command builds the exact
algebra (``fractions``) or draws from ``numpy.random``, and only a config
file loads ``configparser``.
``import quadflow`` loads none of its modules: each public name imports its
module on first use.  ``import quadflow.cli`` compiles the stepper's attempt
for the 15 alphas, loading a config compiles the flow's right-hand side for
its schedule, and a run compiles neither again.  Every name an ``__all__``
lists must exist, or ``from quadflow import *`` fails.
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

WATCHED = ("scipy", "scipy.integrate", "multiprocessing", "concurrent.futures",
           "quadflow.oracles", "dataclasses", "fractions", "numpy.random",
           "configparser")
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
            "assert main(['run', 'grid.cfg', '--outdir', 'out']) == 0\n")
    # reading a config file is what loads configparser
    assert _loaded_after(code, tmp_path) == ["configparser"]
    assert (tmp_path / "out" / "green.csv").exists()


# the quadflow modules of README's start-up table: `run` loads these
RUN_MODULES = ["adjoint", "cli", "config", "digits", "errors", "expressions",
               "flow", "observables", "propagator", "reduction", "rk",
               "schedule"]


def test_run_loads_the_modules_of_the_start_up_table(tmp_path):
    (tmp_path / "grid.cfg").write_text(GRID_CFG)
    code = ("import sys\n"
            "from quadflow.cli import main\n"
            "assert main(['run', 'grid.cfg', '--outdir', 'out']) == 0\n"
            "loaded = sorted(m[9:] for m in sys.modules\n"
            "                if m.startswith('quadflow.'))\n"
            f"assert loaded == {RUN_MODULES!r}, loaded\n")
    _loaded_after(code, tmp_path)


def test_a_batch_run_loads_no_pool(tmp_path):
    (tmp_path / "grid.cfg").write_text(GRID_CFG)
    (tmp_path / "short.cfg").write_text(GRID_CFG.replace("t_end = 2.5",
                                                         "t_end = 1.5"))
    code = ("from quadflow.cli import main\n"
            "assert main(['run', 'grid.cfg', 'short.cfg', '--outdir',"
            " 'out']) == 0\n")
    assert _loaded_after(code, tmp_path) == ["configparser"]
    assert (tmp_path / "out" / "short" / "green.csv").exists()


def test_the_schedule_loads_no_numpy(tmp_path):
    # the generator count lives with the slots a1..a15, and the numeric
    # modules take it from there
    code = ("import sys\n"
            "import quadflow\n"
            "import quadflow.schedule\n"
            "assert quadflow.N_GENERATORS == 15\n"
            "assert 'numpy' not in sys.modules\n"
            "import quadflow.adjoint, quadflow.algebra\n"
            "assert quadflow.adjoint.N_GENERATORS == 15\n"
            "assert quadflow.algebra.N_GENERATORS == 15\n")
    _loaded_after(code, tmp_path)


def test_the_flow_attempt_compiles_on_import_and_no_run_compiles_more(
        tmp_path):
    # the one-time compile of the stepper's 15-float attempt belongs to the
    # set-up a fresh process pays, not to the first run
    (tmp_path / "grid.cfg").write_text(GRID_CFG)
    code = ("import quadflow.cli\n"
            "from quadflow import rk\n"
            "compiled = rk._attempt.cache_info()\n"
            "assert (compiled.misses, compiled.currsize) == (1, 1), compiled\n"
            "rk._attempt(15)\n"
            "assert rk._attempt.cache_info().misses == 1\n"
            "assert quadflow.cli.main(['run', 'grid.cfg', '--outdir',"
            " 'out']) == 0\n"
            "assert rk._attempt.cache_info().misses == 1\n")
    assert _loaded_after(code, tmp_path) == ["configparser"]


def test_the_run_kernel_compiles_in_load_config_and_no_run_compiles_more(
        tmp_path):
    # the flow's right-hand side for the schedule's constants compiles when
    # the config is loaded, inside set-up, and the run reuses it
    (tmp_path / "grid.cfg").write_text(GRID_CFG)
    code = ("from quadflow import reduction\n"
            "from quadflow.config import load_config\n"
            "assert reduction._kernel.cache_info().currsize == 0\n"
            "cfg = load_config('grid.cfg')\n"
            "compiled = reduction._kernel.cache_info()\n"
            "assert (compiled.misses, compiled.currsize) == (1, 1), compiled\n"
            "from quadflow.cli import main\n"
            "assert main(['run', 'grid.cfg', '--outdir', 'out']) == 0\n"
            "assert reduction._kernel.cache_info().misses == 1\n")
    assert _loaded_after(code, tmp_path) == ["configparser"]


def test_verify_loads_only_the_oracles(tmp_path):
    # the GaussianState record of quadflow.oracles is a dataclass
    code = ("from quadflow.cli import main\n"
            "assert main(['verify', '--preset', 'landau']) == 0\n")
    assert _loaded_after(code, tmp_path) == ["quadflow.oracles",
                                             "dataclasses"]


def test_package_import_loads_no_submodule(tmp_path):
    code = ("import sys\n"
            "import quadflow\n"
            "loaded = [m for m in sys.modules if m.startswith('quadflow.')]\n"
            "assert loaded == [], loaded\n"
            "assert set(quadflow.__all__) <= set(dir(quadflow))\n"
            "for name in quadflow.__all__:\n"
            "    getattr(quadflow, name)\n")
    _loaded_after(code, tmp_path)


def test_fundamental_matrix_works_as_first_call(tmp_path):
    # free particle, m = 1: x(1) = x(0) + p(0), p(1) = p(0)
    code = ("import numpy as np\n"
            "import quadflow\n"
            "sched = quadflow.CoefficientSchedule.preset('free', m=1.0)\n"
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

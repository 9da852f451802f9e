"""README's quick tour runs: every fenced python block of README.md, in
order, as one script in a fresh interpreter (the state of this test session
cannot stand in for an import or a definition the tour leaves out)."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run_as_one_script(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```",
                        (ROOT / "README.md").read_text(), re.M | re.S)
    tour = "\n".join(blocks)
    assert "import quadflow" in tour
    (tmp_path / "tour.py").write_text(tour)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "tour.py"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

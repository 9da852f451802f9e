"""One line of sha256 digests per command-line case, for byte checks.

Run it in two checkouts and diff what it prints; identical lines mean the
two give the same exit status, stdout, stderr and output files, byte for
byte::

    python3 ci/output_digests.py --seeds 3 7 11 > digests.txt

Each case runs ``python3 -m quadflow.cli`` from this checkout's ``src/`` in
a fresh interpreter, inside a temporary directory whose path is replaced by
``<tmp>`` before hashing.  A line reads ``<case> rc=<exit status>`` and then
``<part>=<sha256>`` for stdout, stderr and every output file, by name.

The cases:

- every input of the benchmark's three workloads at each seed, as
  ``perfbench/workloads.py`` generates them;
- ``verify`` on each of the five presets;
- ``run`` on the breakdown presets harmonic1d (t_end 3), kanai_caldirola
  (m 1, omega 2, lam 0.3, t_end 2) and landau (t_end 3.5);
- ``run`` on landau with t_end 3.1, before the pole pi but past the stop
  2 acos(sqrt(eps)) = 3.0783 of the chart bound eps = 1e-3: a chart-end;
- ``run`` on the free preset with m 1e-9 and t_end 1, which reaches t_end:
  alpha9 = t / 2m grows to 5e8 but has no pole;
- the nominal driven config under ``run`` and ``verify``;
- the unresolved runs ``a2 = 1e300`` (a9 = a10 = 0.5, t_end 1) and landau
  with t_end 2e-322, each under ``run``;
- ``verify --preset free --m 1e-26``, whose alpha9 reaches 1.25e26.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

OUTPUTS = "[outputs]\nalphas = alphas.csv\nheisenberg = heisenberg.json\n"
PRESET_RUNS = {
    "harmonic1d": "preset = harmonic1d\nm = 1.0\nomega = 1.0\n\n"
                  "[run]\nt_end = 3.0\n",
    "kanai_caldirola": "preset = kanai_caldirola\nm = 1.0\nomega = 2.0\n"
                       "lam = 0.3\n\n[run]\nt_end = 2.0\n",
    "landau": "preset = landau\n\n[run]\nt_end = 3.5\n",
    "landau_band": "preset = landau\n\n[run]\nt_end = 3.1\n",
    "free_light": "preset = free\nm = 1e-9\n\n[run]\nt_end = 1.0\n",
}
DRIVEN = ("a6 = A*sin(w*t)\na9 = 0.5\na10 = 0.5\na11 = B*cos(t)\na14 = C\n"
          "a15 = -C\n\n[constants]\nA = 0.5\nw = 2.0\nB = 0.1\nC = 0.5\n\n"
          "[run]\nt_end = 4.0\n")
UNRESOLVED = {
    "huge_a2": "a2 = 1e300\na9 = 0.5\na10 = 0.5\n\n[run]\nt_end = 1.0\n",
    "tiny_t_end": "preset = landau\n\n[run]\nt_end = 2e-322\n",
}


def outputs(src: Path, write, tmp: Path) -> dict:
    """Run one case with ``src`` on the path, in ``tmp``; {part: bytes} for
    stdout, stderr and every file it wrote, the exit status under ``rc``."""
    argv = write(tmp)
    inputs = set(tmp.rglob("*"))
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "quadflow.cli", *argv],
                          cwd=tmp, env=env, capture_output=True)
    parts = {"rc": str(proc.returncode).encode(), "stdout": proc.stdout,
             "stderr": proc.stderr}
    for path in sorted(set(tmp.rglob("*")) - inputs):
        if path.is_file():
            parts[str(path.relative_to(tmp))] = path.read_bytes()
    for root in (str(tmp.resolve()), str(tmp)):
        parts = {k: v.replace(root.encode(), b"<tmp>")
                 for k, v in parts.items()}
    return parts


def digest(name: str, parts: dict) -> str:
    """A case's line: its exit status, then the sha256 of each other part."""
    return " ".join([f"{name} rc={parts['rc'].decode()}",
                     *(f"{part}={hashlib.sha256(data).hexdigest()}"
                       for part, data in parts.items() if part != "rc")])


def cases(seeds):
    """(name, write) pairs; ``write(tmp)`` lays out a case's inputs in its
    temporary directory and returns the case's argv."""
    for seed in seeds:
        for workload in workloads.WORKLOADS:
            for j in range(workloads.INPUTS[workload]):
                def write(tmp, workload=workload, seed=seed, j=j):
                    return workloads.generate(workload, seed, tmp)[j]["argv"]
                yield f"{workload}:seed{seed}:in{j}", write
    for preset in ("landau", "free", "harmonic1d", "kanai_caldirola", "zero"):
        yield f"verify:{preset}", lambda tmp, p=preset: [
            "verify", "--preset", p]
    for preset, text in PRESET_RUNS.items():
        yield f"run:{preset}", lambda tmp, t=text: _config(tmp, t, "run")
    for command in ("run", "verify"):
        yield f"{command}:driven", lambda tmp, c=command: _config(
            tmp, DRIVEN, c)
    for name, text in UNRESOLVED.items():
        yield f"run:{name}", lambda tmp, t=text: _config(tmp, t, "run")
    yield "verify:free_m1e-26", lambda tmp: [
        "verify", "--preset", "free", "--m", "1e-26"]


def _config(tmp: Path, body: str, command: str) -> list:
    """Write ``[hamiltonian]`` + ``body`` + the outputs as a config; the
    argv of ``command`` on it."""
    path = tmp / "case.cfg"
    path.write_text("[hamiltonian]\n" + body + "\n" + OUTPUTS)
    return ["run", str(path)] if command == "run" \
        else ["verify", "--config", str(path)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[3, 7, 11])
    args = ap.parse_args(argv)
    for name, write in cases(args.seeds):
        with tempfile.TemporaryDirectory() as tmp:
            print(digest(name, outputs(ROOT / "src", write, Path(tmp))),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

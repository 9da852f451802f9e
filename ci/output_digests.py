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
- ``run`` on landau with omega_c 1e13 and t_end 2.5e-13, the phase
  omega_c t = 2.5 of the t_end 2.5 default at a fast time scale: it reaches
  t_end, since the step floor scales with the span below t_end = 1;
- ``run`` on landau with t_end 6.293060839510291e-05, where fifty steps of
  the step cap t_end / 50 sum to a few ulps short of t_end: the last step
  takes the sliver and the run reaches t_end;
- the nominal driven config under ``run`` and ``verify``, and under
  ``run`` with ``a1 = 0.3`` added: alpha1 moves while alpha2..alpha5 stay
  0, and the run ends in a chart-end at t = 1.7446;
- ``run`` on a batch of two configs under one ``--outdir``, the landau
  run above (t_end 3.5) and the nominal driven config: each writes into
  ``out/<stem>``, and stdout holds one info line per config, in turn;
- ``run`` on the nominal driven config writing only green.csv, with one
  point and a 33-point grid at times 0.4, 0.8 and 1.2: generic-branch
  samples of 1,090 rows, which cross a block boundary of the Green writer;
- ``run`` on landau (t_end 2.5) writing all three files, with a 3 x 3 Green
  grid of extent 1 around the source (-0.0, 0.0): the writer keeps the
  sign of a constant -0.0 coordinate;
- ``run`` on landau (t_end 2.5) writing all three files, with two explicit
  points and a 5 x 5 grid at times 1.0 and 2.5: degenerate-branch samples,
  the points written before the grid at each time;
- ``run`` on landau (t_end 2.5) with the grid above at ``grid_points =
  1``: one Green row, at (-1, -1);
- ``run`` on the nominal driven config writing all three files, with a
  Green time 3.0 past its chart end: a config error with exit 1, and no
  file written;
- ``run`` and ``verify`` on a config that sets the slots no other case
  sets, a1, a4, a5, a8, a12 and a13, with a9 = a10 = 0.5 (t_end 2): it
  reaches t_end, and verify skips only the landau closed-form row;
- the unresolved runs ``a2 = 1e300`` (a9 = a10 = 0.5, t_end 1) and landau
  with t_end 2e-322, each under ``run``;
- ``run`` and ``verify`` on a config that sets all fifteen slots (t_end
  2): the right-hand side of no zeros, every term of every equation, up to
  a chart-end at t = 1.5674;
- ``run`` on a config whose expressions use every function and operator
  of the grammar on t (t_end 2, a chart-end at t = 1.4017), and on that
  config with a constant ``t = 9.0`` added, which no expression reads (t
  is the time): a config error with exit 1;
- the three inputs whose verify rows fail on an absolute tolerance while
  the relative error is tiny: ``verify --preset free --m 1e-26`` (alpha9
  reaches 1.25e26), ``verify --preset kanai_caldirola --lam 400`` (a
  breakdown near t = 0.086, with max|S| in the billions before it) and
  ``verify --preset landau --E-x 1e4 --E-y=-2e3`` (alpha1 near 1.35e8);
- ``verify --preset landau --e 1e200``: the closed form squares the charge
  as e * (e * E^2), since e ** 2 overflows a float.
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
    "landau_fast": "preset = landau\nomega_c = 1e13\n\n[run]\n"
                   "t_end = 2.5e-13\n",
    "landau_short": "preset = landau\n\n[run]\n"
                    "t_end = 6.293060839510291e-05\n",
}
DRIVEN = ("a6 = A*sin(w*t)\na9 = 0.5\na10 = 0.5\na11 = B*cos(t)\na14 = C\n"
          "a15 = -C\n\n[constants]\nA = 0.5\nw = 2.0\nB = 0.1\nC = 0.5\n\n"
          "[run]\nt_end = 4.0\n")
# a generic-branch grid of 33 x 33 points and one more: 1,090 rows per
# time, more than one block of the Green writer
DRIVEN_GREEN = (DRIVEN + "\n[green]\npoints = 0.5,-0.5,0.25,0.1\n"
                "grid_extent = 2.0\ngrid_points = 33\nsource = 0.1,0.2\n"
                "times = 0.4,0.8,1.2\n")
# a landau grid around the source (-0, 0): x_prime is -0.0 on every row
NEGZERO_GRID = ("preset = landau\n\n[run]\nt_end = 2.5\n\n[green]\n"
                "grid_extent = 1.0\ngrid_points = 3\nsource = -0.0, 0.0\n")
# a landau run with two points and a 5 x 5 grid at two times
LANDAU_POINTS_GRID = ("preset = landau\n\n[run]\nt_end = 2.5\n\n[green]\n"
                      "points = 0.5,-0.5,0.25,0.1 ; 0,0,0,0\n"
                      "grid_extent = 2.0\ngrid_points = 5\n"
                      "source = 0.3,-0.2\ntimes = 1.0, 2.5\n")
# a grid of one point
ONE_POINT_GRID = NEGZERO_GRID.replace("grid_points = 3", "grid_points = 1")
# a Green time past the driven flow's chart end: no file is written
GREEN_PAST_SPAN = DRIVEN + "\n[green]\npoints = 0.5,-0.5,0.25,0.1\n" \
    "times = 0.4, 3.0\n"
# every slot that no other case sets, plus the kinetic terms
LINEAR_SLOTS = ("a1 = 0.2\na4 = 0.1*cos(t)\na5 = -0.1\na8 = 0.05\na9 = 0.5\n"
                "a10 = 0.5\na12 = 0.1*sin(t)\na13 = -0.05\n\n"
                "[run]\nt_end = 2.0\n")
# all fifteen slots: the flow's right-hand side keeps every term
ALL_SLOTS = ("a1 = 0.2\na2 = 0.3*sin(t)\na3 = -0.1\na4 = 0.1*cos(t)\n"
             "a5 = -0.1\na6 = 0.5\na7 = 0.4*cos(t)\na8 = 0.05\na9 = 0.5\n"
             "a10 = 0.6\na11 = 0.1*cos(t)\na12 = 0.1*sin(t)\na13 = -0.05\n"
             "a14 = 0.3\na15 = -0.25\n\n[run]\nt_end = 2.0\n")
# every function and operator of the expression grammar, on t
EVERY_FUNCTION = ("a6 = 0.5 + 0.1*tan(t/4)\na7 = 0.4*sqrt(1 + t^2)\n"
                  "a9 = 0.5*exp(-t/3)\na10 = 0.5 + 0.1*ln(2 + t)\n"
                  "a11 = neg(B)*cos(w*t)\na14 = C^2*sin(w*t)\na15 = -C\n\n"
                  "[constants]\nB = 0.1\nC = 0.5\nw = 2.0\n\n"
                  "[run]\nt_end = 2.0\n")
# a constant named t, which no expression reads: refused
CONSTANT_T = EVERY_FUNCTION.replace("w = 2.0\n", "w = 2.0\nt = 9.0\n")
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
    yield "run:driven_green", lambda tmp: _config(
        tmp, DRIVEN_GREEN, "run", outputs="[outputs]\ngreen = green.csv\n")
    yield "run:landau_grid_negzero", lambda tmp: _config(
        tmp, NEGZERO_GRID, "run", outputs=OUTPUTS + "green = green.csv\n")
    for name, text in (("landau_points_grid", LANDAU_POINTS_GRID),
                       ("landau_one_point_grid", ONE_POINT_GRID),
                       ("driven_green_past_span", GREEN_PAST_SPAN)):
        yield f"run:{name}", lambda tmp, t=text: _config(
            tmp, t, "run", outputs=OUTPUTS + "green = green.csv\n")
    yield "run:driven_a1", lambda tmp: _config(tmp, "a1 = 0.3\n" + DRIVEN,
                                               "run")
    yield "run:batch", _batch
    for command in ("run", "verify"):
        yield f"{command}:linear_slots", lambda tmp, c=command: _config(
            tmp, LINEAR_SLOTS, c)
    for command in ("run", "verify"):
        yield f"{command}:all_slots", lambda tmp, c=command: _config(
            tmp, ALL_SLOTS, c)
    for name, text in (("every_function", EVERY_FUNCTION),
                       ("constant_t", CONSTANT_T)):
        yield f"run:{name}", lambda tmp, t=text: _config(tmp, t, "run")
    for name, text in UNRESOLVED.items():
        yield f"run:{name}", lambda tmp, t=text: _config(tmp, t, "run")
    yield "verify:free_m1e-26", lambda tmp: [
        "verify", "--preset", "free", "--m", "1e-26"]
    yield "verify:kanai_caldirola_lam400", lambda tmp: [
        "verify", "--preset", "kanai_caldirola", "--lam", "400"]
    yield "verify:landau_E1e4", lambda tmp: [
        "verify", "--preset", "landau", "--E-x", "1e4", "--E-y=-2e3"]
    yield "verify:landau_e1e200", lambda tmp: [
        "verify", "--preset", "landau", "--e", "1e200"]


def _config(tmp: Path, body: str, command: str, stem: str = "case",
            outputs: str = OUTPUTS) -> list:
    """Write ``[hamiltonian]`` + ``body`` + ``outputs`` as ``<stem>.cfg``;
    the argv of ``command`` (run or verify) on it."""
    path = tmp / f"{stem}.cfg"
    path.write_text("[hamiltonian]\n" + body + "\n" + outputs)
    return [command, "--config", str(path)] if command == "verify" \
        else [command, str(path)]


def _batch(tmp: Path) -> list:
    """The argv of ``run`` on the landau and driven configs as one batch."""
    argv = ["run"]
    for stem, body in (("landau", PRESET_RUNS["landau"]), ("driven", DRIVEN)):
        argv += _config(tmp, body, "run", stem)[1:]
    return argv + ["--outdir", str(tmp / "out")]


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

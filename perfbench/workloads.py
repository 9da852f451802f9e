"""Seeded workload generator for the quadflow benchmark.

Each workload is one closed loop: a single caller in a single process runs
the next CLI command as soon as the previous call returns, cycling through
the inputs the seed drew.  The seed only draws the physical parameters
(each within +-5% of its nominal value) and the Green source points; the
program sees nothing but the generated config files or argv.

Why each workload exists
------------------------
landau_grid
    ``run`` on the constant-field (landau) preset with a 101x101 Green grid.
    Green sampling and CSV writing dominate and the flow is a small share,
    so this is the workload a vectorized Green/output layer moves and a
    faster flow right-hand side mostly bypasses.  No breakdown; every Green
    row takes the degenerate branch.
driven_breakdown
    ``run`` on a time-dependent expression schedule that ends in a
    factorization breakdown.  The flow right-hand side, RK stepping and
    expression evaluation dominate and Green sampling is negligible, so it
    moves with the reduction/RK layers and not with the Green layer.  It is
    also the rejection and breakdown path: a faster happy path that slows
    breakdown detection shows here.  Every Green row takes the generic
    branch.
verify_landau
    ``verify --preset landau``: the reduction layer on 200 random states far
    from any flow (needs nu and det(nu), not only mu), both adjoint
    implementations, and the scipy fundamental-matrix oracle.  A change that
    speeds ``assemble`` up only for the flow shows here.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

__all__ = ["WORKLOADS", "INPUTS", "generate", "character_problems",
           "green_branches"]

WORKLOADS = ("landau_grid", "driven_breakdown", "verify_landau")
# Inputs drawn per seed; a run cycles through them in whole passes.  The
# cost of driven_breakdown's approach to the breakdown is chaotic in the
# parameters (the RHS count spreads by about 13% between seeds even with
# +-0.2% draws), so one run averages over four schedules.
INPUTS = {"landau_grid": 1, "driven_breakdown": 4, "verify_landau": 1}

# Green evaluation times of driven_breakdown; every seed must break down
# after the last of them (checked by character_problems).
_DRIVEN_TIMES = (0.4, 0.8, 1.2)
_OUTPUTS = {"alphas": "alphas.csv", "heisenberg": "heisenberg.json",
            "green": "green.csv"}


def _near(rng: random.Random, nominal: float) -> float:
    return nominal * rng.uniform(0.95, 1.05)


def _outputs_section() -> str:
    return "[outputs]\n" + "".join(f"{k} = {v}\n" for k, v in _OUTPUTS.items())


def generate(name: str, seed: int, workdir: Path) -> list:
    """Write the workload's inputs under ``workdir`` and describe them.

    Returns one JSON-serialisable input per ``INPUTS[name]``: the CLI argv,
    the config path (or None), the output files and the drawn parameters.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return [_input(name, random.Random(f"{name}:{seed}:{j}"), workdir / f"in{j}")
            for j in range(INPUTS[name])]


def _input(name: str, rng: random.Random, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    inp = {"dir": str(workdir), "config": None, "outputs": {}}
    if name == "landau_grid":
        p = {"m": _near(rng, 1.0), "omega_c": _near(rng, 1.0),
             "E_x": _near(rng, 0.3), "E_y": _near(rng, -0.2),
             "t_end": 2.5, "grid_extent": 3.0, "grid_points": 101,
             "source": (rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))}
        text = ("[hamiltonian]\npreset = landau\n"
                f"m = {p['m']!r}\nomega_c = {p['omega_c']!r}\n"
                f"E_x = {p['E_x']!r}\nE_y = {p['E_y']!r}\ne = 1.0\nhbar = 1.0\n\n"
                f"[run]\nt_end = {p['t_end']!r}\nsamples = 200\n\n"
                + _outputs_section() +
                f"\n[green]\ngrid_extent = {p['grid_extent']!r}\n"
                f"grid_points = {p['grid_points']}\n"
                f"source = {p['source'][0]!r}, {p['source'][1]!r}\n")
    elif name == "driven_breakdown":
        p = {"A": _near(rng, 0.5), "omega": _near(rng, 2.0),
             "B": _near(rng, 0.1), "C": _near(rng, 0.5), "t_end": 4.0,
             "points": [tuple(rng.uniform(-1.0, 1.0) for _ in range(4))
                        for _ in range(3)],
             "times": _DRIVEN_TIMES}
        points = " ; ".join(",".join(repr(v) for v in pt)
                            for pt in p["points"])
        text = ("[hamiltonian]\n"
                f"a6 = A*sin(w*t)\na9 = 0.5\na10 = 0.5\na11 = B*cos(t)\n"
                f"a14 = C\na15 = -C\n\n"
                f"[constants]\nA = {p['A']!r}\nw = {p['omega']!r}\n"
                f"B = {p['B']!r}\nC = {p['C']!r}\n\n"
                f"[run]\nt_end = {p['t_end']!r}\nsamples = 200\n\n"
                + _outputs_section() +
                f"\n[green]\npoints = {points}\n"
                f"times = {', '.join(repr(t) for t in p['times'])}\n")
    else:
        p = {"m": _near(rng, 1.0), "omega_c": _near(rng, 1.0),
             "E_x": _near(rng, 0.3), "E_y": _near(rng, -0.2), "t_end": 2.5}
        inp["argv"] = ["verify", "--preset", "landau",
                       "--m", repr(p["m"]), "--omega-c", repr(p["omega_c"]),
                       "--E-x", repr(p["E_x"]), "--E-y", repr(p["E_y"]),
                       "--t-end", repr(p["t_end"])]
        inp["params"] = p
        return inp

    cfg = workdir / f"{name}.cfg"
    cfg.write_text(text)
    outdir = workdir / "out"
    inp["config"] = str(cfg)
    inp["argv"] = ["run", str(cfg), "--outdir", str(outdir)]
    inp["outputs"] = {k: str(outdir / v) for k, v in _OUTPUTS.items()}
    inp["params"] = p
    return inp


def green_branches(green_csv: str) -> dict:
    counts: dict = {}
    with open(green_csv) as fh:
        next(fh)
        for line in fh:
            branch = line.rstrip("\n").rsplit(",", 1)[1]
            counts[branch] = counts.get(branch, 0) + 1
    return counts


def character_problems(name: str, inp: dict, rc: int, stdout: str) -> list:
    """Reasons the first run of an input lacks its workload's character.

    landau_grid must run without breakdown with only degenerate Green rows;
    driven_breakdown must break down after the last Green time with only
    generic rows; verify_landau must exit 0.
    """
    if rc != 0:
        return [f"{name}: first run exited {rc}"]
    if name == "verify_landau":
        return []
    info = json.loads(stdout.strip().splitlines()[-1])
    branches = green_branches(inp["outputs"]["green"])
    problems = []
    if name == "landau_grid":
        if "breakdown" in info:
            problems.append(f"landau_grid: unexpected breakdown {info['breakdown']}")
        if set(branches) != {"degenerate"}:
            problems.append(f"landau_grid: Green branches {branches}, "
                            "expected degenerate only")
    else:
        bd = info.get("breakdown")
        if bd is None:
            problems.append("driven_breakdown: the flow did not break down")
        elif bd["t_break"] <= max(inp["params"]["times"]):
            problems.append(f"driven_breakdown: breakdown at {bd['t_break']} "
                            "precedes a Green time")
        if set(branches) != {"generic"}:
            problems.append(f"driven_breakdown: Green branches {branches}, "
                            "expected generic only")
    return problems

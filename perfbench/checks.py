"""Oracle checks of a workload's outputs, run outside the timed region.

Only oracles the project keeps as its correctness backbone are used, at the
``verify`` command's tolerance of 1e-6 or tighter:

* every Heisenberg record (S, d) at t <= t_reg matches the classical
  ``fundamental_matrix``; t_reg is the final time, or 0.8 t_break after a
  breakdown, where ``verify`` also stops comparing;
* every alphas row at t <= t_reg has (alpha4, alpha5, -alpha2, -alpha3)
  equal to the classical shift d, and on the landau preset every row
  matches ``constant_field_closed_form``;
* every Green row's modulus matches the Van Vleck modulus
  1 / (2 pi hbar sqrt|det B(t)|), B = fundamental_matrix(...)[0][:2, 2:];
* the verify table has no [FAIL] or [SKIP] row.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from quadflow.config import load_config
from quadflow.flow import constant_field_closed_form
from quadflow.oracles import fundamental_matrix

__all__ = ["TOL", "VERIFY_MIN_PASS", "problems"]

TOL = 1e-6
# rows of the verify table for a landau preset without breakdown
VERIFY_MIN_PASS = 7


def _verify_problems(stdout: str) -> list:
    lines = stdout.splitlines()
    bad = [ln for ln in lines if ln.startswith(("[FAIL]", "[SKIP]"))]
    n_pass = sum(ln.startswith("[PASS]") for ln in lines)
    if n_pass < VERIFY_MIN_PASS:
        bad.append(f"verify printed {n_pass} [PASS] rows, "
                   f"expected at least {VERIFY_MIN_PASS}")
    return bad


def _exceeds(err: float, what: str, out: list) -> None:
    if not err < TOL:          # also catches NaN
        out.append(f"{what}: error {err:.3e} >= {TOL:.0e}")


def problems(inp: dict, ref_dir: Path) -> list:
    """Oracle misses of one input's reference outputs in ``ref_dir``."""
    stdout = (ref_dir / "stdout.txt").read_text()
    if inp["config"] is None:
        return _verify_problems(stdout)

    cfg = load_config(inp["config"])
    schedule = cfg.schedule
    info = json.loads(stdout.strip().splitlines()[-1])
    bd = info.get("breakdown")
    t_reg = info["t_final"] if bd is None else 0.8 * bd["t_break"]
    out: list = []
    oracle: dict = {}

    def classical(t):
        if t not in oracle:
            oracle[t] = fundamental_matrix(schedule, t)
        return oracle[t]

    records = json.loads((ref_dir / "heisenberg.json").read_text())
    alphas = np.loadtxt(ref_dir / "alphas.csv", delimiter=",", skiprows=1,
                        ndmin=2)
    if len(records) != cfg.samples + 1 or alphas.shape != (cfg.samples + 1, 16):
        out.append(f"expected {cfg.samples + 1} rows, got {len(records)} "
                   f"Heisenberg records and {alphas.shape[0]} alphas rows")
    for rec, row in zip(records, alphas):
        t = rec["t"]
        if row[0] != t:
            out.append(f"alphas row t = {row[0]!r} but Heisenberg t = {t!r}")
        if t > t_reg:
            continue
        S, d = classical(t)
        _exceeds(float(max(np.max(np.abs(np.array(rec["S"]) - S)),
                           np.max(np.abs(np.array(rec["d"]) - d)))),
                 f"Heisenberg (S, d) at t = {t!r} vs fundamental_matrix", out)
        shift = np.array([row[4], row[5], -row[2], -row[3]])
        _exceeds(float(np.max(np.abs(shift - d))),
                 f"alphas shift at t = {t!r} vs fundamental_matrix", out)
    if schedule.kind == "landau":
        p = schedule.params
        closed = constant_field_closed_form(p["m"], p["omega_c"], p["E_x"],
                                            p["E_y"], p["e"], t=alphas[:, 0])
        _exceeds(float(np.max(np.abs(alphas[:, 1:] - closed))),
                 "alphas vs constant_field_closed_form", out)

    green = np.loadtxt(ref_dir / "green.csv", delimiter=",", skiprows=1,
                       usecols=range(7), ndmin=2)
    req = cfg.green
    n_times = len(req.times) or 1
    n_points = len(req.points) + (req.grid_points or 0) ** 2
    if green.shape[0] != n_times * n_points:
        out.append(f"expected {n_times * n_points} Green rows, "
                   f"got {green.shape[0]}")
    modulus = np.hypot(green[:, 5], green[:, 6])
    for t in np.unique(green[:, 2]):
        B = classical(float(t))[0][:2, 2:]
        van_vleck = 1.0 / (2 * math.pi * schedule.hbar
                           * math.sqrt(abs(np.linalg.det(B))))
        rel = np.abs(modulus[green[:, 2] == t] / van_vleck - 1.0)
        _exceeds(float(np.max(rel)),
                 f"|G| at t = {t!r} vs Van Vleck modulus (relative)", out)
    return out

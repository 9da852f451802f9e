"""Run-configuration files: INI-style sections, parsed with configparser.

Minimal example::

    [hamiltonian]
    preset = landau
    m = 1.0
    omega_c = 1.0
    E_x = 0.3
    E_y = -0.2
    e = 1.0
    hbar = 1.0

    [run]
    t_end = 2.5
    rtol = 1e-10
    atol = 1e-10
    samples = 200

    [outputs]
    alphas = alphas.csv
    heisenberg = heisenberg.json

A preset parameter not given takes its default (``schedule._PRESETS``):
landau m = 1, omega_c = 1, E_x = 0, E_y = 0, e = 1; free m = 1; harmonic1d
m = 1, omega = 1; kanai_caldirola m = 1, omega = 1, lam = 0.1; zero none.

Instead of a preset, the [hamiltonian] section may list coefficient
expressions a1 .. a15 over the variable t (omitted slots default to 0),
optionally using names from a [constants] section.  A preset refuses that
section, and a constant that no expression reads is refused, ``t`` among
them (t is the time)::

    [hamiltonian]
    a6 = 0.5*m0*sin(2*t)
    a9 = 1/(2*m0)

    [constants]
    m0 = 1.0

Green-function evaluation points go in a [green] section, either an explicit
list ``points = x,y,xp,yp; x,y,xp,yp; ...`` (evaluated at t_end, or at each
time in ``times = t1, t2, ...``) or a square grid over the output coordinates
with a fixed source point: ``grid_extent``, ``grid_points``, ``source = xp,yp``.

Any name a run would ignore is refused; the flow's chart bound is no [run]
key.  Identical files produce bit-identical outputs: there is no randomness.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, InvalidSchedule, ParseError
from .reduction import flow_rhs
from .schedule import CoefficientSchedule

__all__ = ["GreenRequest", "RunConfig", "load_config"]


class GreenRequest(NamedTuple):
    points: tuple = ()          # tuples (x, y, x_prime, y_prime)
    times: tuple = ()           # evaluation times; empty -> t_end only
    grid_extent: float | None = None
    grid_points: int | None = None
    source: tuple | None = None


class RunConfig(NamedTuple):
    schedule: CoefficientSchedule
    t_end: float
    rtol: float = 1e-10
    atol: float = 1e-10
    samples: int = 200
    # name -> filename; every default RunConfig shares one empty dict, so
    # callers read ``outputs`` and never change it
    outputs: dict = {}
    green: GreenRequest | None = None


# (predicate, requirement) pairs for _float's ``check``
_POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "positive and finite")
_EXTENT = (lambda v: 0 < v <= 8.98e307, "positive and at most 8.98e307")
# numpy holds at most 2**60 floats: samples + 1 rows, and an N x N grid
_COUNT = (lambda v: v.is_integer() and 1 <= v < 2 ** 59,
          "an integer from 1 to 2**59 - 1")
_GRID = (lambda v: v.is_integer() and 1 <= v < 2 ** 30,
         "an integer from 1 to 2**30 - 1")

# [run] key -> requirement; a key not given takes RunConfig's default
_RUN_KEYS = {"t_end": _POSITIVE_FINITE, "rtol": _POSITIVE_FINITE,
             "atol": _POSITIVE_FINITE, "samples": _COUNT}
_SECTIONS = ("hamiltonian", "constants", "run", "outputs", "green")
_HAMILTONIAN_KEYS = ("preset", "hbar", *(f"a{k}" for k in range(1, 16)))


def _float(section, key, *, where, check=None):
    """``section[key]`` as a float (an int for a count) meeting ``check``."""
    raw = section[key]
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {key} = {raw!r} is not a number") from exc
    if check is not None and not check[0](value):
        raise ConfigError(f"{where}: {key} = {raw.strip()!r} must be "
                          f"{check[1]}")
    return int(value) if check in (_COUNT, _GRID) else value


def _refuse_unknown(where, kind, names, known):
    """Refuse names a run would ignore, such as a misspelled key."""
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ConfigError(f"{where}: unknown {kind} {unknown} (known: "
                          f"{', '.join(known)})")


def _parse_tuple(raw, n, where):
    """Finite numbers separated by commas or spaces; exactly ``n`` of them
    unless ``n`` is None."""
    parts = [p for p in raw.replace(",", " ").split() if p]
    if n is not None and len(parts) != n:
        raise ConfigError(f"{where}: expected {n} numbers, got {raw!r}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad number in {raw!r}") from exc
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{where}: non-finite number in {raw!r}")
    return values


def load_config(path) -> RunConfig:
    """Parse and validate a run configuration file; refuse unknown names."""
    import configparser  # here: verify on a preset reads no file

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep case of constant names
    try:
        parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    _refuse_unknown(path, "sections", parser.sections(), _SECTIONS)

    if "hamiltonian" not in parser:
        raise ConfigError(f"{path}: missing [hamiltonian] section")
    ham = parser["hamiltonian"]
    hbar = {"hbar": _float(ham, "hbar", where="[hamiltonian]",
                           check=_POSITIVE_FINITE)} if "hbar" in ham else {}

    if "preset" in ham:
        if "constants" in parser:
            raise ConfigError("[constants]: a preset reads no constants; its "
                              "parameters go in [hamiltonian]")
        params = {key: _float(ham, key, where="[hamiltonian]")
                  for key in ham if key not in ("preset", "hbar")}
        try:
            schedule = CoefficientSchedule.preset(ham["preset"].strip(),
                                                  **hbar, **params)
        except (ConfigError, InvalidSchedule) as exc:
            raise ConfigError(f"[hamiltonian]: {exc}") from exc
    else:
        section = parser["constants"] if "constants" in parser else {}
        constants = {name: _float(section, name, where="[constants]")
                     for name in section}
        _refuse_unknown("[hamiltonian]", "keys", ham, _HAMILTONIAN_KEYS)
        sources = {int(key[1:]): ham[key] for key in ham if key != "hbar"}
        if not sources:
            raise ConfigError("[hamiltonian]: needs a preset or at least one "
                              "coefficient expression")
        try:
            schedule = CoefficientSchedule.from_expressions(
                sources, constants=constants, **hbar)
        except (ParseError, InvalidSchedule) as exc:
            raise ConfigError(f"[hamiltonian]: {exc}") from exc
        unread = sorted(set(constants) - set(schedule.params))
        if unread:
            raise ConfigError(f"[constants]: no expression reads {unread}"
                              + ("; t is the time, not a constant"
                                 if "t" in unread else ""))

    run = parser["run"] if "run" in parser else {}
    _refuse_unknown("[run]", "keys", run, _RUN_KEYS)
    if "t_end" not in run:
        raise ConfigError("missing key 't_end' in [run]")
    settings = {key: _float(run, key, where="[run]", check=check)
                for key, check in _RUN_KEYS.items() if key in run}

    outputs = {}
    if "outputs" in parser:
        section = parser["outputs"]
        _refuse_unknown("[outputs]", "outputs", section,
                        ("alphas", "heisenberg", "green"))
        outputs = {key: raw.strip() for key, raw in section.items()}
        unnamed = sorted(key for key, name in outputs.items() if not name)
        if unnamed:
            raise ConfigError(f"[outputs]: {', '.join(unnamed)} needs a "
                              "file name")

    green = None
    if "green" in parser:
        g = parser["green"]
        _refuse_unknown("[green]", "keys", g, GreenRequest._fields)
        points = [_parse_tuple(chunk.strip(), 4, "[green] points")
                  for chunk in g.get("points", "").split(";") if chunk.strip()]
        times = _parse_tuple(g["times"], None, "[green] times") \
            if "times" in g else ()
        grid_extent = _float(g, "grid_extent", where="[green]",
                             check=_EXTENT) \
            if "grid_extent" in g else None
        grid_points = _float(g, "grid_points", where="[green]",
                             check=_GRID) if "grid_points" in g else None
        source = _parse_tuple(g["source"], 2, "[green] source") \
            if "source" in g else None
        if (grid_extent is None) != (grid_points is None):
            raise ConfigError("[green]: grid_extent and grid_points go together")
        if grid_extent is not None and source is None:
            raise ConfigError("[green]: grid mode needs a source = xp,yp")
        if not points and grid_extent is None:
            raise ConfigError("[green]: needs points or a grid spec")
        green = GreenRequest(points=tuple(points), times=times,
                             grid_extent=grid_extent,
                             grid_points=grid_points, source=source)
    # the flow's right-hand side for the schedule's zeros compiles here, in
    # set-up, not inside the first run
    flow_rhs(schedule.zeros)
    return RunConfig(schedule, **settings, outputs=outputs, green=green)

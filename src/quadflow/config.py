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

Instead of a preset, the [hamiltonian] section may list coefficient
expressions a1 .. a15 over the variable t (omitted slots default to 0),
optionally using names from a [constants] section::

    [hamiltonian]
    a6 = 0.5*m0*sin(2*t)
    a9 = 1/(2*m0)

    [constants]
    m0 = 1.0

Green-function evaluation points go in a [green] section, either an explicit
list ``points = x,y,xp,yp; x,y,xp,yp; ...`` (evaluated at t_end, or at each
time in ``times = t1, t2, ...``) or a square grid over the output coordinates
with a fixed source point: ``grid_extent``, ``grid_points``, ``source = xp,yp``.

Identical files produce bit-identical outputs: there is no randomness in a
run.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, InvalidSchedule, ParseError
from .schedule import PRESETS, CoefficientSchedule

__all__ = ["GreenRequest", "RunConfig", "load_config"]


@dataclass(frozen=True)
class GreenRequest:
    points: tuple = ()          # tuples (x, y, x_prime, y_prime)
    times: tuple = ()           # evaluation times; empty -> t_end only
    grid_extent: float | None = None
    grid_points: int | None = None
    source: tuple | None = None


@dataclass
class RunConfig:
    schedule: CoefficientSchedule
    t_end: float
    rtol: float = 1e-10
    atol: float = 1e-10
    samples: int = 200
    max_step: float | None = None
    magnitude_cap: float = 1e8
    outputs: dict = field(default_factory=dict)   # name -> filename
    green: GreenRequest | None = None


# (predicate, requirement) pairs for _float's ``check``
_POSITIVE_FINITE = (lambda v: 0 < v < math.inf, "positive and finite")
_POSITIVE = (lambda v: v > 0, "positive")
_COUNT = (lambda v: v.is_integer() and v >= 1, "an integer >= 1")


def _float(section, key, default=None, *, where="", check=None):
    raw = section.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing key {key!r} in {where}")
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {key} = {raw!r} is not a number") from exc
    if check is not None and not check[0](value):
        raise ConfigError(f"{where}: {key} = {raw.strip()!r} must be "
                          f"{check[1]}")
    return value


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
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep case of constant names
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    if "hamiltonian" not in parser:
        raise ConfigError(f"{path}: missing [hamiltonian] section")
    ham = parser["hamiltonian"]
    hbar = _float(ham, "hbar", 1.0, where="[hamiltonian]",
                  check=_POSITIVE_FINITE)

    constants = {}
    if "constants" in parser:
        for name, raw in parser["constants"].items():
            constants[name] = _float(parser["constants"], name,
                                     where="[constants]")

    if "preset" in ham:
        name = ham["preset"].strip()
        if name not in PRESETS:
            raise ConfigError(f"[hamiltonian]: unknown preset {name!r}")
        params = {}
        for key in PRESETS[name]:
            if key in ham:
                params[key] = _float(ham, key, where="[hamiltonian]")
        extra = set(ham) - set(PRESETS[name]) - {"preset", "hbar"}
        if extra:
            raise ConfigError(
                f"[hamiltonian]: keys {sorted(extra)} not valid for preset "
                f"{name!r}")
        try:
            schedule = CoefficientSchedule.preset(name, hbar=hbar, **params)
        except InvalidSchedule as exc:
            raise ConfigError(f"[hamiltonian]: {exc}") from exc
    else:
        sources = {}
        for key in ham:
            if key == "hbar":
                continue
            if not (key.startswith("a") and key[1:].isdigit()
                    and 1 <= int(key[1:]) <= 15):
                raise ConfigError(f"[hamiltonian]: unknown key {key!r} "
                                  "(expected preset or a1..a15)")
            sources[int(key[1:])] = ham[key]
        if not sources:
            raise ConfigError("[hamiltonian]: needs a preset or at least one "
                              "coefficient expression")
        try:
            schedule = CoefficientSchedule.from_expressions(
                sources, constants=constants, hbar=hbar)
        except (ParseError, InvalidSchedule) as exc:
            raise ConfigError(f"[hamiltonian]: {exc}") from exc

    run = parser["run"] if "run" in parser else {}
    where = "[run]"
    cfg = RunConfig(
        schedule=schedule,
        t_end=_float(run, "t_end", where=where, check=_POSITIVE_FINITE),
        rtol=_float(run, "rtol", 1e-10, where=where, check=_POSITIVE_FINITE),
        atol=_float(run, "atol", 1e-10, where=where, check=_POSITIVE_FINITE),
        samples=int(_float(run, "samples", 200, where=where, check=_COUNT)),
        max_step=(_float(run, "max_step", where=where,
                         check=_POSITIVE_FINITE)
                  if "max_step" in run else None),
        # inf is allowed: it switches the magnitude sentinel off
        magnitude_cap=_float(run, "magnitude_cap", 1e8, where=where,
                             check=_POSITIVE),
    )

    if "outputs" in parser:
        for key, raw in parser["outputs"].items():
            if key not in ("alphas", "heisenberg", "green"):
                raise ConfigError(f"[outputs]: unknown output {key!r}")
            cfg.outputs[key] = raw.strip()

    if "green" in parser:
        g = parser["green"]
        points = []
        if "points" in g:
            for chunk in g["points"].split(";"):
                chunk = chunk.strip()
                if chunk:
                    points.append(_parse_tuple(chunk, 4, "[green] points"))
        times = _parse_tuple(g["times"], None, "[green] times") \
            if "times" in g else ()
        grid_extent = _float(g, "grid_extent", where="[green]",
                             check=_POSITIVE_FINITE) \
            if "grid_extent" in g else None
        grid_points = int(_float(g, "grid_points", where="[green]",
                                 check=_COUNT)) \
            if "grid_points" in g else None
        source = _parse_tuple(g["source"], 2, "[green] source") \
            if "source" in g else None
        if (grid_extent is None) != (grid_points is None):
            raise ConfigError("[green]: grid_extent and grid_points go together")
        if grid_extent is not None and source is None:
            raise ConfigError("[green]: grid mode needs a source = xp,yp")
        if not points and grid_extent is None:
            raise ConfigError("[green]: needs points or a grid spec")
        cfg.green = GreenRequest(points=tuple(points), times=times,
                                 grid_extent=grid_extent,
                                 grid_points=grid_points, source=source)
    return cfg

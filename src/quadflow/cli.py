"""quadflow command line interface.

Subcommands
-----------
run <config>...   integrate the flow and write the files [outputs] names;
                  several configs run in turn, in argv order, each in its
                  own output directory (<outdir>/<stem> under --outdir),
                  and the first failing config stops the batch (a schedule
                  still pickles, for callers who pool runs themselves)
verify            the oracle cross-check table on run's flow, config or preset
print-odes        dump the flow right-hand side at a given (a(t), alpha)

Failures print a machine-readable JSON object to stderr
({"error": code, "detail": text, "at": location}) and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import flow as flow_mod
from . import observables, propagator
from .adjoint import adjoint_closed_form, adjoint_matrix
from .config import RunConfig, _parse_tuple, load_config
from .errors import ConfigError, QuadflowError, SingularTime
from .reduction import assemble, reference_odes
from .schedule import PRESETS, CoefficientSchedule

_PRESET = "landau"  # the preset of verify and print-odes without --config
# every preset parameter, in PRESETS order: verify's options --m ... --e
_PARAMS = tuple(dict.fromkeys(k for keys in PRESETS.values() for k in keys))


def _load(args) -> RunConfig:
    """The run of verify or print-odes: ``--config``, or the preset built
    from the options given; an option the run would ignore is refused."""
    given = {key: value for key, value in vars(args).items()
             if key in ("preset", "t_end", *_PARAMS)}
    if "config" in args:
        if given:
            flags = sorted("--" + key.replace("_", "-") for key in given)
            raise ConfigError(f"--config sets the run; {', '.join(flags)} "
                              "would be ignored")
        return load_config(args.config)
    name, t_end = given.pop("preset", _PRESET), given.pop("t_end", 2.5)
    if not 0 < t_end < math.inf:
        raise ConfigError(f"--t-end = {t_end!r} must be positive and finite")
    return RunConfig(CoefficientSchedule.preset(name, **given), t_end)


def _green_samples(cfg: RunConfig, result) -> list:
    """The GreenSamples of each time in turn: the explicit points as one
    1-D sample, then the grid as a 2-D sample of its own, x along the
    first axis and y along the last (``ij``).  The grid broadcasts from its
    axis and source, so no flattened copy of its coordinates is made; a
    request without points or without a grid has no such sample."""
    req = cfg.green
    coords = [np.array(req.points, dtype=float).T] if req.points else []
    if req.grid_extent is not None:
        axis = np.linspace(-req.grid_extent, req.grid_extent,
                           req.grid_points)
        coords.append((axis[:, None], axis[None, :], *req.source))
    t_final = float(result.ts[-1])
    samples = []
    for t in req.times or (t_final,):
        if not 0 <= t <= t_final:
            raise ConfigError(f"[green] times: t = {t!r} lies outside the "
                              f"integrated span [0, {t_final!r}]")
        alpha = result.interpolate(t)
        samples += [propagator.green(alpha, cfg.schedule.hbar, *c, t=t)
                    for c in coords]
    return samples


def _plan(path, outdir=None):
    """Load one config and resolve where its outputs go: ``_run_plan``'s
    config path, config, output directory and {output kind: destination}."""
    cfg = load_config(path)
    if "green" in cfg.outputs and cfg.green is None:
        raise ConfigError("green output requested without [green] section")
    out_base = Path(outdir) if outdir else Path(path).resolve().parent
    return path, cfg, out_base, {kind: out_base / name
                                 for kind, name in cfg.outputs.items()}


def _check_destinations(plans):
    """Refuse, before any run writes, a destination that is a directory,
    that lies in a directory that neither exists nor is made by the run
    (the output directory and its parents), or that another output shares
    (the last would silently win); ``plans`` holds ``_plan``'s tuples."""
    owners = {}
    for path, _, out_base, dests in plans:
        made = {out_base.resolve(), *out_base.resolve().parents}
        for kind, dest in dests.items():
            where, dest = f"{path} [outputs] {kind}", dest.resolve()
            if dest in made or dest.is_dir():
                raise ConfigError(f"{where}: {dest} is a directory")
            if dest.parent not in made and not dest.parent.is_dir():
                raise ConfigError(f"{where}: {dest.parent} is not an "
                                  "existing directory")
            owners.setdefault(dest, []).append(where)
    for dest, names in owners.items():
        if len(names) > 1:
            raise ConfigError(f"{dest} is the destination of "
                              f"{' and '.join(names)}; each output needs "
                              "a file of its own")


def run_config_file(path, outdir=None) -> dict:
    """Integrate one config and write the outputs its [outputs] names;
    returns the info object printed by the CLI."""
    plan = _plan(path, outdir)
    _check_destinations([plan])
    return _run_plan(*plan)


def _flow(cfg: RunConfig, samples: int):
    """The flow of ``cfg`` under its [run] settings, sampled on ``samples``
    intervals: the one integration that ``run`` writes and ``verify``
    checks.  ``flow_mod.integrate`` is looked up at each call, where the
    benchmark's tracer wraps it."""
    return flow_mod.integrate(cfg.schedule, cfg.t_end, rtol=cfg.rtol,
                              atol=cfg.atol, samples=samples)


def _run_plan(path, cfg, out_base, dests) -> dict:
    """Integrate a planned config and write its outputs.  The flow and the
    Green samples are computed before the first file is written, so a run
    that fails on either (a Green time past the span, a kernel with no
    pointwise value) writes no file."""
    result = _flow(cfg, cfg.samples)
    green = _green_samples(cfg, result) if "green" in dests else None
    out_base.mkdir(parents=True, exist_ok=True)
    written = []
    if "alphas" in dests:
        flow_mod.write_alphas_csv(result, dests["alphas"])
        written.append(str(dests["alphas"]))
    if "heisenberg" in dests:
        observables.write_heisenberg_json(result, dests["heisenberg"])
        written.append(str(dests["heisenberg"]))
    if "green" in dests:
        propagator.write_green_csv(green, dests["green"])
        written.append(str(dests["green"]))
    info = {"config": str(path), "written": written,
            "t_final": float(result.ts[-1])}
    if result.breakdown is not None:
        info["breakdown"] = {"t_break": result.breakdown.t_break,
                             "index": result.breakdown.index,
                             "reason": result.breakdown.reason}
    return info


def _cmd_run(args) -> int:
    configs = args.config
    if len(configs) == 1:
        infos = [run_config_file(configs[0], args.outdir)]
    else:
        # each config writes into <outdir>/<stem>; every config is loaded
        # and every destination checked before the first one runs
        plans = [_plan(path, args.outdir
                       and Path(args.outdir) / Path(path).stem)
                 for path in configs]
        _check_destinations(plans)
        infos = [_run_plan(*plan) for plan in plans]
    for info in infos:
        print(json.dumps(info))
    return 0


# ---------------------------------------------------------------------------
# verify: oracle cross-check table
# ---------------------------------------------------------------------------

def _verify_checks(cfg: RunConfig):
    """Yield (name, max_error, tolerance) rows; NaN error marks a skip, a
    row that compared nothing.  The flow is ``run``'s for ``cfg`` (one
    ``_flow`` call), on the 200 intervals the action row needs; it and the
    classical oracle at the comparison time run before the first row, so
    an unresolved flow or a spent oracle budget raises with no row out.
    ``oracles`` is imported here: no other command uses it."""
    from . import oracles

    result = _flow(cfg, samples=200)
    # near a breakdown the map entries grow without bound and float
    # comparisons lose meaning; stop well inside the regular region, and
    # inside the span when the pole estimate lies far past the stop
    t_cmp = float(result.ts[-1])
    if result.breakdown is not None:
        t_cmp = min(t_cmp, 0.8 * result.breakdown.t_break)
    S_cl, d_cl = oracles.fundamental_matrix(cfg.schedule, t_cmp)
    rng = random.Random(20240915)

    # 200 (a, alpha) pairs, both sides in stacks of 32: the adjoint blocks
    # of a stack take 27 kB per row
    err, draws = 0.0, oracles._uniform(rng, (200, 2, 15))
    for pairs in np.split(draws, range(32, 200, 32)):
        state = assemble(pairs[:, 0], pairs[:, 1])
        ref = reference_odes(pairs[:, 0], pairs[:, 1])
        err = max(err, float(np.max(np.abs(state.det - 1.0))),
                  float(np.max(np.abs(state.mu - ref))))
    yield "reduction pipeline vs explicit equations (200 random states)", err, 1e-10

    err = 0.0
    for i in range(2, 16):
        alphas = oracles._uniform(rng, (25,))
        err = max(err, float(np.max(np.abs(
            adjoint_matrix(i, alphas) - adjoint_closed_form(i, alphas)))))
    yield "adjoint exponential vs closed-form rules", err, 1e-12

    if result.breakdown is not None:
        yield (f"flow breakdown at t = {result.breakdown.t_break:.6g} "
               f"(component {result.breakdown.index}); comparisons truncated "
               f"to the regular part of the flow", math.nan, math.nan)

    err = math.nan
    if cfg.schedule.kind == "landau" and result.breakdown is None:
        try:
            closed = flow_mod.constant_field_closed_form(
                **cfg.schedule.params, t=result.ts)
            err = float(np.max(np.abs(result.alphas - closed)))
        except SingularTime:  # omega_c is zero or too small for the formula
            pass
    yield "integrated alpha vs constant-field closed form", err, 1e-6

    # on a regular part of {0} each row below compares the identity map at
    # t = 0 with itself: it compares nothing, so it skips instead of passing
    skip = t_cmp == 0
    keep = result.ts <= t_cmp
    ts, alphas = result.ts[keep], result.alphas[keep]

    err = observables.heisenberg_map(alphas).symplectic_defect()
    yield ("symplecticity of the Heisenberg map along the flow",
           math.nan if skip else err, 1e-8)

    alpha_cmp = result.interpolate(t_cmp)
    m = observables.heisenberg_map(alpha_cmp)
    err = float(max(np.max(np.abs(m.S - S_cl)), np.max(np.abs(m.d - d_cl))))
    yield ("Heisenberg map vs classical fundamental matrix",
           math.nan if skip else err, 1e-6)

    shift = np.array([alpha_cmp[3], alpha_cmp[4],
                      -alpha_cmp[1], -alpha_cmp[2]])
    err = float(np.max(np.abs(d_cl - shift)))
    yield ("classical shift vs (alpha4, alpha5, -alpha2, -alpha3)",
           math.nan if skip else err, 1e-6)

    a = np.array([cfg.schedule.coefficients(t) for t in ts.tolist()])
    ls = oracles.classical_lagrangian(a, alphas, reference_odes(a, alphas))
    action = oracles._simpson(ls, ts)
    err = abs(action - alphas[-1, 0])
    yield ("action integral of L vs accumulated alpha1",
           math.nan if skip else err, 1e-8)


def _cmd_verify(args) -> int:
    failed = 0
    for name, err, tol in _verify_checks(_load(args)):
        if math.isnan(tol):
            print(f"[NOTE] {name}")
        elif math.isnan(err):
            print(f"[SKIP] {name}")
        elif err < tol:
            print(f"[PASS] {name}: max error {err:.3e} < {tol:.0e}")
        else:
            print(f"[FAIL] {name}: max error {err:.3e} >= {tol:.0e}")
            failed += 1
    return 1 if failed else 0


def _cmd_print_odes(args) -> int:
    schedule = _load(args).schedule
    if not math.isfinite(args.t):
        raise ConfigError(f"--t = {args.t!r} must be finite")
    alpha = np.zeros(15)
    if args.alpha:
        alpha = np.array(_parse_tuple(args.alpha, 15, "--alpha"))
    a = schedule.coefficients(args.t)
    state = assemble(a, alpha)
    ref = reference_odes(a, alpha)
    if not (np.isfinite(state.mu).all() and np.isfinite(ref).all()):
        raise ConfigError("the flow right-hand side is not finite at "
                          f"--t = {args.t!r}, --alpha = {alpha.tolist()}")
    print(json.dumps({
        "t": args.t,
        "a": a,
        "alpha": alpha.tolist(),
        "mu": state.mu.tolist(),
        "explicit": ref.tolist(),
        "max_difference": float(np.max(np.abs(state.mu - ref))),
        "det_nu": float(state.det),
    }, indent=1))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: ``main`` only parses."""
    ap = argparse.ArgumentParser(
        prog="quadflow",
        description="Exact evolution of 2D quadratic Hamiltonians by "
                    "Lie-algebraic factorization")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate and write artifacts")
    p_run.add_argument("config", nargs="+")
    p_run.add_argument("--outdir", default=None)
    p_run.set_defaults(fn=_cmd_run)

    # in verify and print-odes an option not given stays out of the
    # namespace: _load applies the defaults and refuses ignored options
    p_ver = sub.add_parser("verify", help="run the oracle cross-check table",
                           argument_default=argparse.SUPPRESS)
    p_odes = sub.add_parser("print-odes",
                            help="dump the flow RHS at a given state",
                            argument_default=argparse.SUPPRESS)
    for p in (p_ver, p_odes):
        p.add_argument("--preset", choices=list(PRESETS))
        p.add_argument("--config")

    p_ver.add_argument("--t-end", dest="t_end", type=float)
    for key in _PARAMS:
        p_ver.add_argument("--" + key.replace("_", "-"), dest=key, type=float)
    p_ver.set_defaults(fn=_cmd_verify)

    p_odes.add_argument("--t", type=float, default=0.0)
    p_odes.add_argument("--alpha", default=None,
                        help="comma-separated 15 values (default zeros)")
    p_odes.set_defaults(fn=_cmd_print_odes)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except QuadflowError as exc:
        code, detail = exc.code, str(exc)
    except OSError as exc:
        code, detail = "io-error", str(exc)
    except MemoryError as exc:
        code, detail = "out-of-memory", str(exc)
    # "at" names the configs of run, else --config or the preset
    where = getattr(args, "config", None) or getattr(args, "preset", _PRESET)
    if isinstance(where, list):
        where = ";".join(map(str, where))
    print(json.dumps({"error": code, "detail": detail, "at": where}),
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop worker: runs one workload's CLI call over and over.

Usage: python3 perfbench/harness.py <spec.json> <result.json>

One single-threaded process per workload.  The first call of each input is
untimed: its outputs become the reference that the parent process checks
against the oracles, and it must show the workload's character or the seed
is refused (exit code 3).  Then the inputs are run in turn, in whole
passes, each call timed around ``quadflow.cli.main`` alone (its output
files included) and preceded by one pass of the calibration kernel.  After
each call, outside the timed region, the output bytes are compared with
the input's reference, so a call counts as failed when it raises, exits
nonzero or writes different bytes.

With ``trace`` set, the first half of the time runs untraced and the second
half under :class:`tracing.Tracer`; the per-layer metrics come from the
traced half and the tracing overhead is the difference of the two medians.
Because passes are whole, a count's median over the traced calls is the
median over the inputs, whatever the number of passes.  An expected call
site that is never reached fails the run (exit code 4).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import kernel_seconds
from tracing import Tracer

MIN_OPS = 11          # the tail percentile needs ten samples beyond it
MIN_TRACED_OPS = 3


def run_op(cli, argv):
    """One CLI call: (seconds, exit code, captured stdout, error text)."""
    buf = io.StringIO()
    err = None
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc, err = None, traceback.format_exc()
        t1 = perf_counter()
    return t1 - t0, rc, buf.getvalue(), err


def fingerprint(inp, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for name in sorted(inp["outputs"]):
        path = Path(inp["outputs"][name])
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def loop(cli, inputs, references, seconds, min_ops, tracer=None):
    """Run whole passes over the inputs until ``seconds`` have passed and
    ``min_ops`` calls are done.

    Returns (times of the calls, calibration kernel time before each call,
    descriptions of failed calls)."""
    times, cals, failures = [], [], []
    start = perf_counter()
    while (len(times) < min_ops or perf_counter() - start < seconds
           or len(times) % len(inputs)):
        i = len(times) % len(inputs)
        for path in inputs[i]["outputs"].values():
            Path(path).unlink(missing_ok=True)   # a call must write them anew
        cals.append(kernel_seconds())
        if tracer is not None:
            tracer.new_run()
        dt, rc, stdout, err = run_op(cli, inputs[i]["argv"])
        if err is not None:
            failures.append(err.strip().splitlines()[-1])
        elif rc != 0:
            failures.append(f"exit code {rc}")
        elif fingerprint(inputs[i], stdout) != references[i]:
            failures.append("output bytes differ from the first run")
        times.append(dt)
    return times, cals, failures


def first_runs(cli, workload, inputs):
    """Run each input once, untimed; keep its outputs under ``<dir>/ref``.

    Returns the fingerprints, or raises SystemExit when an input fails or
    lacks the workload's character."""
    references = []
    for inp in inputs:
        _, rc, stdout, err = run_op(cli, inp["argv"])
        if err is not None:
            print(err, file=sys.stderr)
            raise SystemExit(2)
        problems = workloads.character_problems(workload, inp, rc, stdout)
        if problems:
            print("seed refused: " + "; ".join(problems), file=sys.stderr)
            raise SystemExit(3)
        ref = Path(inp["dir"]) / "ref"
        ref.mkdir(exist_ok=True)
        (ref / "stdout.txt").write_text(stdout)
        for path in inp["outputs"].values():
            shutil.copyfile(path, ref / Path(path).name)
        references.append(fingerprint(inp, stdout))
    return references


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics: medians over the traced runs of per-run values."""
    per_run = tracer.per_run()
    runs = list(per_run.values())
    counters = [tracer.counters[run] for run in per_run]

    def med(pick):
        return statistics.median(pick(r) for r in runs)

    def incl(name):
        return med(lambda r: r["incl"][name])

    def calls(name):
        return med(lambda r: r["calls"][name])

    def count(key):
        return statistics.median(c[key] for c in counters)

    n_rhs, accepted = count("rk.n_rhs"), count("rk.steps_accepted")
    m = {
        "cli.run_config_file.s": incl("cli.run_config_file"),
        "cli.self_s": med(lambda r: r["layer_self"]["cli"]),
        "config.load_config.s": incl("config.load_config"),
        "schedule.coefficients.calls": calls("schedule.coefficients"),
        "schedule.coefficients.s": incl("schedule.coefficients"),
        "reduction.assemble.calls": calls("reduction.assemble"),
        "reduction.assemble.s": incl("reduction.assemble"),
        "reduction.assemble.raised": count("reduction.assemble.raised"),
        "reduction.reference_odes.calls": calls("reduction.reference_odes"),
        "reduction.reference_odes.s": incl("reduction.reference_odes"),
        "adjoint.adjoint_matrix.s": incl("adjoint.adjoint_matrix"),
        "adjoint.adjoint_closed_form.s": incl("adjoint.adjoint_closed_form"),
        "rk.solve.s": med(lambda r: r["self"]["rk.solve"]),
        "rk.n_rhs": n_rhs,
        "rk.steps_accepted": accepted,
        "rk.rhs_per_step": n_rhs / accepted if accepted else 0.0,
        "rk.dense.calls": calls("rk.dense"),
        "rk.dense.s": incl("rk.dense"),
        "flow.integrate.s": incl("flow.integrate"),
        "flow.write_alphas_csv.s": incl("flow.write_alphas_csv"),
        "observables.heisenberg_map.calls": calls("observables.heisenberg_map"),
        "observables.heisenberg_map.s": incl("observables.heisenberg_map"),
        "observables.write_heisenberg_json.s":
            incl("observables.write_heisenberg_json"),
        "propagator.green.calls": calls("propagator.green"),
        "propagator.green.s": incl("propagator.green"),
        "propagator.write_green_csv.s": incl("propagator.write_green_csv"),
        "oracles.fundamental_matrix.s": incl("oracles.fundamental_matrix"),
        "trace.wall_s": med(lambda r: r["wall"]),
        "trace.accounted": med(lambda r: sum(r["layer_self"].values())
                               / r["wall"]),
    }
    # cli.self_s above is the cli layer's self time
    for layer in ("config", "schedule", "reduction", "adjoint", "rk", "flow",
                  "observables", "propagator", "oracles"):
        m[f"layer.{layer}.self_s"] = med(lambda r: r["layer_self"][layer])
    return m


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result_path = Path(sys.argv[2])
    import numpy
    import quadflow
    import quadflow.cli as cli
    import scipy

    result = {"versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__,
                           "quadflow_file": quadflow.__file__}}

    inputs = spec["inputs"]
    references = first_runs(cli, spec["workload"], inputs)
    seconds = spec["seconds"] / 2 if spec["trace"] else spec["seconds"]
    times, cals, failures = loop(cli, inputs, references, seconds, MIN_OPS)
    result["times"], result["cals"] = times, cals
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if spec["trace"]:
        with Tracer() as tracer:
            traced, traced_cals, traced_failures = loop(
                cli, inputs, references, seconds, MIN_TRACED_OPS, tracer)
        missing = tracer.missing_sites(spec["workload"])
        if missing:
            print("expected call sites never called: " + ", ".join(missing),
                  file=sys.stderr)
            return 4
        tracer.write_csv(Path(spec["workdir"]) / "spans.csv")
        result["traced_times"], result["traced_cals"] = traced, traced_cals
        result["layers"] = layer_metrics(tracer)
        failures += traced_failures
    result["failures"] = failures
    result_path.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

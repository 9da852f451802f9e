"""quadflow benchmark: one workload, one seed, one closed-loop process.

Usage:
    python3 perfbench/run.py --workload landau_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; quadflow is imported from ``src/``.  The
run generates the workload's inputs from the seed, times set-up in fresh
interpreters, runs the CLI call in a loop for ``--seconds`` in one
single-threaded worker process, checks the outputs against the oracles
and prints a summary followed, as the last line, by one JSON object
{"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
A full run record (versions, samples, percentiles, oracle misses) is
written to ``.perfbench_out/<workload>-trace<0|1>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from calibrate import REF_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 4             # timed fresh interpreters; one more warms caches
DEADLINE_S = 170.0           # the whole run must end within 180 s
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
MODULES = ("__init__", "adjoint", "algebra", "cli", "config", "errors",
           "expressions", "flow", "observables", "oracles", "propagator",
           "reduction", "rk", "schedule")
OUTPUT_BYTES = {"alphas": "flow.write_alphas_csv.bytes",
                "heisenberg": "observables.write_heisenberg_json.bytes",
                "green": "propagator.write_green_csv.bytes"}


class BenchError(Exception):
    """The run cannot produce a result; no result line is printed."""


def unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.startswith("loc."):
        return "lines"
    if name in ("rk.rhs_per_step", "trace.accounted"):
        return "1"
    return "count"


def scaled(times: list, cals: list, half_window: int = 3) -> list:
    """Wall times at the reference host speed (see calibrate.py).

    Each time is scaled by the median calibration time of the passes within
    ``half_window`` places of it: near enough to follow the host's drift,
    wide enough that one disturbed pass does not distort its neighbour.
    """
    return [t * REF_S / statistics.median(
                cals[max(0, i - half_window):i + half_window + 1])
            for i, t in enumerate(times)]


def p50(times: list, k: int) -> float:
    """Median over whole passes of the mean call time in a pass.

    A pass runs each of the workload's ``k`` inputs once, so with one input
    this is the median call time.  With several inputs of different cost
    the median of single calls would jump between the inputs' clusters.
    """
    return statistics.median(statistics.fmean(times[i:i + k])
                             for i in range(0, len(times), k))


def tail(times: list) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile); the value is the 11th largest sample.
    """
    n = len(times)
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def git_sha():
    """Commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def output_counts(inputs) -> dict:
    """Bytes per output file and Green rows per branch, median over inputs."""
    per_input = []
    for inp in inputs:
        ref = Path(inp["dir"]) / "ref"
        counts = {name: 0 for name in OUTPUT_BYTES.values()}
        for output, path in inp["outputs"].items():
            counts[OUTPUT_BYTES[output]] = (ref / Path(path).name).stat().st_size
        branches = (workloads.green_branches(str(ref / "green.csv"))
                    if "green" in inp["outputs"] else {})
        for branch in ("generic", "degenerate"):
            counts[f"propagator.branch.{branch}"] = branches.get(branch, 0)
        per_input.append(counts)
    return {k: statistics.median(c[k] for c in per_input) for k in per_input[0]}


def loc() -> dict:
    counts = {}
    for path in sorted((SRC / "quadflow").glob("*.py")):
        with open(path, "rb") as fh:
            counts[path.stem] = sum(1 for _ in fh)
    out = {f"loc.{m}": counts.get(m, 0) for m in MODULES}
    out["loc.total"] = sum(counts.values())
    return out


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, **SINGLE_THREAD)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]]
                          if self.env.get("PYTHONPATH") else []))

    def python(self, *args) -> subprocess.CompletedProcess:
        """Run a child interpreter; it is killed and reaped on timeout."""
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            raise BenchError("out of time")
        try:
            return subprocess.run([sys.executable, *args], env=self.env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child {args[0]} timed out") from exc

    def setup_probe(self, spec_path, importtime=False) -> dict:
        flags = ["-X", "importtime"] if importtime else []
        proc = self.python(*flags, str(HERE / "setup_probe.py"), str(spec_path))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if importtime:
            probe["import_scipy_s"] = 0.0
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() == "scipy.integrate":
                    probe["import_scipy_s"] = int(parts[1]) / 1e6
        return probe


def run(args) -> dict:
    deadline = perf_counter() + DEADLINE_S
    if not (SRC / "quadflow" / "cli.py").is_file():
        raise BenchError(f"no quadflow sources under {SRC}; run from the root "
                         "of a checkout of the repository")
    workdir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    spec = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "workdir": str(workdir),
            "inputs": workloads.generate(args.workload, args.seed, workdir)}
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=1))
    runner = Runner(deadline)

    probes = [runner.setup_probe(spec_path)
              for _ in range(SETUP_PROBES + 1)][1:]
    result_path = workdir / "result.json"
    proc = runner.python(str(HERE / "harness.py"), str(spec_path),
                         str(result_path))
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(result_path.read_text())
    if not Path(result["versions"]["quadflow_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"quadflow imported from outside {SRC}: "
                         f"{result['versions']['quadflow_file']}")

    sys.path.insert(0, str(SRC))
    import checks

    misses = [miss for inp in spec["inputs"]
              for miss in checks.problems(inp, Path(inp["dir"]) / "ref")]
    k = len(spec["inputs"])
    times = scaled(result["times"], result["cals"])
    traced = scaled(result.get("traced_times", []), result.get("traced_cals", []))
    setups = scaled([p["setup_s"] for p in probes], [p["cal_s"] for p in probes],
                    half_window=0)
    attempted = len(times) + len(traced)
    # every call wrote its input's reference bytes or was already counted
    # as failed, so an oracle miss in a reference fails every call
    failed = attempted if misses else len(result["failures"])
    tail_s, tail_pct = tail(times)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "versions": result["versions"],
        "params": [inp["params"] for inp in spec["inputs"]],
        "attempted": attempted, "failed": failed,
        "failures": result["failures"][:20], "oracle_misses": misses[:20],
        "run_s_tail_percentile": tail_pct, "run_s_tail_samples": len(times),
        "raw": {"run_s_samples": result["times"], "cal_s": result["cals"],
                "setup_probes": probes,
                "run_s.p50": p50(result["times"], k),
                "setup_s": statistics.median(p["setup_s"] for p in probes)},
        "run_s_samples": times, "setup_s_samples": setups,
    }
    if args.trace:
        metrics = dict(result["layers"])
        metrics["trace.overhead_s"] = p50(traced, k) - p50(times, k)
        metrics["setup.import_s"] = statistics.median(p["import_s"]
                                                      for p in probes)
        metrics["setup.import_scipy_s"] = runner.setup_probe(
            spec_path, importtime=True)["import_scipy_s"]
        metrics.update(output_counts(spec["inputs"]))
        metrics.update(loc())
        record["traced_run_s_samples"] = traced
        record["raw"]["traced_run_s_samples"] = result["traced_times"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s.p50": p50(times, k),
            "run_s.tail": tail_s,
            "peak_rss_mb": result["peak_rss_kb"] * 1024 / 1e6,
            "ok_ratio": (attempted - failed) / attempted,
        }
    units = {"run_s.p50": "s", "run_s.tail": "s", "peak_rss_mb": "MB",
             "ok_ratio": "1"}
    record["metrics"] = {k: {"value": v, "unit": units.get(k) or unit(k)}
                         for k, v in metrics.items()}
    (workdir / "record.json").write_text(json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    raw = record["raw"]
    print(f"{record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} calls, {record['failed']} failed, "
          f"run_s.tail = p{record['run_s_tail_percentile']:.1f} of "
          f"{record['run_s_tail_samples']} samples; unscaled wall times: "
          f"run_s.p50 {raw['run_s.p50']:.6g} s, setup_s {raw['setup_s']:.6g} s")
    for miss in record["oracle_misses"] + record["failures"]:
        print(f"  FAIL {miss}")
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import quadflow.cli as cli  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_runs(workload, seed, workdir):
    """Generate the inputs and run each once; outputs go to ``<dir>/ref``."""
    inputs = workloads.generate(workload, seed, workdir)
    return inputs, harness.first_runs(cli, workload, inputs)


def traced_counts(workload, seed, workdir):
    inputs, references = first_runs(workload, seed, workdir)
    with Tracer() as tracer:
        _, _, failures = harness.loop(cli, inputs, references, 0.0,
                                      2 * len(inputs), tracer)
    assert failures == [] and tracer.missing_sites(workload) == []
    counts = {k: v for k, v in harness.layer_metrics(tracer).items()
              if bench.unit(k) in ("count", "1") and k != "trace.accounted"}
    counts.update(bench.output_counts(inputs))
    return counts


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_over_two_traced_runs(workload, tmp_path):
    first = traced_counts(workload, 5, tmp_path / "a")
    second = traced_counts(workload, 5, tmp_path / "b")
    assert first == second
    assert first["rk.n_rhs"] > 0 and first["reduction.assemble.calls"] > 0


def test_corrupted_outputs_count_as_failures(tmp_path):
    inp = first_runs("driven_breakdown", 5, tmp_path)[0][0]
    ref = Path(inp["dir"]) / "ref"
    assert checks.problems(inp, ref) == []

    green = ref / "green.csv"
    clean_green = green.read_text()
    lines = clean_green.splitlines(keepends=True)
    cols = lines[1].split(",")
    cols[5] = repr(float(cols[5]) * 1.001)
    cols[6] = repr(float(cols[6]) * 1.001)
    lines[1] = ",".join(cols)
    green.write_text("".join(lines))
    assert any("Van Vleck" in p for p in checks.problems(inp, ref))
    green.write_text(clean_green)

    heis = ref / "heisenberg.json"
    records = json.loads(heis.read_text())
    records[50]["S"][1][2] += 1e-5
    heis.write_text(json.dumps(records))
    assert any("Heisenberg" in p for p in checks.problems(inp, ref))


def test_verify_table_with_a_fail_row_is_a_failure(tmp_path):
    inp = first_runs("verify_landau", 5, tmp_path)[0][0]
    ref = Path(inp["dir"]) / "ref"
    assert checks.problems(inp, ref) == []
    stdout = ref / "stdout.txt"
    stdout.write_text(stdout.read_text().replace("[PASS]", "[FAIL]", 1))
    assert checks.problems(inp, ref) != []


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_has_every_declared_metric(trace, key):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_landau",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "landau_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""

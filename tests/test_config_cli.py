"""Config parsing and the quadflow command line."""

import csv
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadflow import cli
from quadflow.cli import build_parser, main, run_config_file
from quadflow.config import RunConfig, load_config
from quadflow.errors import ConfigError, InvalidSchedule
from quadflow.expressions import FUNCTIONS
from quadflow.schedule import PRESETS, CoefficientSchedule

LANDAU_CFG = """
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
green = green.csv

[green]
points = 0,0,0,0 ; 1,0.5,0,0
"""

EXPR_CFG = """
[hamiltonian]
a6 = 0.5*m0*sin(2*t)^2
a9 = 1/(2*m0)
a10 = 1/(2*m0)

[constants]
m0 = 1.0

[run]
t_end = 0.8
samples = 50

[outputs]
alphas = alphas.csv
"""


HUGE_CFG = """
[hamiltonian]
a6 = 1e300
a9 = 1e300

[run]
t_end = 1.0

[outputs]
alphas = alphas.csv
"""


@pytest.fixture
def landau_cfg(tmp_path):
    p = tmp_path / "landau.cfg"
    p.write_text(LANDAU_CFG)
    return p


def test_load_preset_config(landau_cfg):
    cfg = load_config(landau_cfg)
    assert cfg.schedule.kind == "landau"
    assert cfg.schedule.params["E_x"] == 0.3
    assert cfg.t_end == 2.5
    assert cfg.outputs == {"alphas": "alphas.csv",
                           "heisenberg": "heisenberg.json",
                           "green": "green.csv"}
    assert cfg.green.points == ((0.0, 0.0, 0.0, 0.0), (1.0, 0.5, 0.0, 0.0))


def test_load_expression_config(tmp_path):
    p = tmp_path / "expr.cfg"
    p.write_text(EXPR_CFG)
    cfg = load_config(p)
    a = cfg.schedule.coefficients(0.3)
    assert a[5] == pytest.approx(0.5 * math.sin(0.6) ** 2)
    assert a[8] == a[9] == 0.5
    assert np.count_nonzero(a) == 3


@pytest.mark.parametrize("mutation,fragment", [
    ("preset = landau", "t_end"),                # missing [run]
    ("preset = nosuch", "unknown preset"),
    ("a99 = 1", "unknown key"),
    ("a6 = sin t", "parentheses"),
])
def test_config_errors(tmp_path, mutation, fragment):
    text = f"[hamiltonian]\n{mutation}\n"
    if "t_end" not in fragment:
        text += "\n[run]\nt_end = 1.0\n"
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert fragment.split()[0] in str(err.value)


def test_undefined_constant_rejected(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[hamiltonian]\na6 = k0*t\n\n[run]\nt_end = 1.0\n")
    with pytest.raises(ConfigError) as err:
        load_config(p)
    assert "k0" in str(err.value)


def test_run_writes_all_artifacts(landau_cfg, tmp_path):
    info = run_config_file(landau_cfg, outdir=tmp_path / "out")
    assert len(info["written"]) == 3
    rows = list(csv.reader((tmp_path / "out" / "alphas.csv").open()))
    assert len(rows) == 202  # header + 201 samples
    records = json.loads((tmp_path / "out" / "heisenberg.json").read_text())
    assert len(records) == 201
    green_rows = (tmp_path / "out" / "green.csv").read_text().splitlines()
    assert len(green_rows) == 3  # header + two requested points
    assert green_rows[1].endswith("degenerate")


def test_runs_are_deterministic(landau_cfg, tmp_path):
    run_config_file(landau_cfg, outdir=tmp_path / "a")
    run_config_file(landau_cfg, outdir=tmp_path / "b")
    for name in ("alphas.csv", "heisenberg.json", "green.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_main_reuses_one_parser(landau_cfg, tmp_path, capsys):
    parser = build_parser()
    assert build_parser() is parser
    for k in range(2):
        assert main(["run", str(landau_cfg),
                     "--outdir", str(tmp_path / str(k))]) == 0
    assert build_parser() is parser
    assert (tmp_path / "0" / "alphas.csv").read_bytes() == \
        (tmp_path / "1" / "alphas.csv").read_bytes()


def test_cli_run_and_json_summary(landau_cfg, tmp_path, capsys):
    code = main(["run", str(landau_cfg), "--outdir", str(tmp_path / "o")])
    assert code == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert info["t_final"] == pytest.approx(2.5)
    assert "breakdown" not in info


def test_cli_run_batch_isolates_outputs(landau_cfg, tmp_path, capsys,
                                        monkeypatch):
    other = tmp_path / "second.cfg"
    other.write_text(LANDAU_CFG.replace("t_end = 2.5", "t_end = 1.5"))
    monkeypatch.setenv("QUADFLOW_THREADS", "2")
    code = main(["run", str(landau_cfg), str(other),
                 "--outdir", str(tmp_path / "batch")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert (tmp_path / "batch" / "landau" / "alphas.csv").exists()
    assert (tmp_path / "batch" / "second" / "alphas.csv").exists()


def test_batch_loads_each_config_once(landau_cfg, tmp_path, capsys,
                                      monkeypatch):
    # the workers (forked, so they share this patch) take the parent's
    # plans; each load appends a line to a file all processes can see
    log = tmp_path / "loads.txt"
    real = cli.load_config

    def logged(path):
        with open(log, "a") as fh:
            fh.write(f"{path}\n")
        return real(path)

    other = tmp_path / "second.cfg"
    other.write_text(LANDAU_CFG.replace("t_end = 2.5", "t_end = 1.5"))
    monkeypatch.setattr(cli, "load_config", logged)
    monkeypatch.setenv("QUADFLOW_THREADS", "2")
    assert main(["run", str(landau_cfg), str(other),
                 "--outdir", str(tmp_path / "batch")]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
    assert sorted(log.read_text().splitlines()) == sorted(
        [str(landau_cfg), str(other)])


def test_cli_reports_breakdown(tmp_path, capsys):
    p = tmp_path / "break.cfg"
    p.write_text("[hamiltonian]\npreset = landau\nm = 1.0\nomega_c = 1.0\n\n"
                 "[run]\nt_end = 3.5\n\n[outputs]\nalphas = alphas.csv\n")
    code = main(["run", str(p), "--outdir", str(tmp_path)])
    assert code == 0
    info = json.loads(capsys.readouterr().out.strip())
    assert abs(info["breakdown"]["t_break"] - math.pi) < 1e-3


def test_cli_error_is_machine_readable(tmp_path, capsys):
    p = tmp_path / "dom.cfg"
    p.write_text("[hamiltonian]\na6 = ln(cos(t))\n\n[run]\nt_end = 3.0\n\n"
                 "[outputs]\nalphas = alphas.csv\n")
    code = main(["run", str(p), "--outdir", str(tmp_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid-schedule"
    assert "a6" in err["detail"]


def test_cli_verify_landau(capsys):
    code = main(["verify", "--preset", "landau", "--t-end", "2.5",
                 "--E-x", "0.3", "--E-y", "-0.2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[FAIL]" not in out
    assert out.count("[PASS]") >= 6


def test_cli_verify_expression_config(tmp_path, capsys):
    p = tmp_path / "expr.cfg"
    p.write_text(EXPR_CFG)
    code = main(["verify", "--config", str(p)])
    out = capsys.readouterr().out
    assert code == 0
    assert "[SKIP]" in out  # no closed form for expression schedules
    assert "[FAIL]" not in out


def test_cli_print_odes(capsys):
    code = main(["print-odes", "--preset", "landau", "--t", "0.0"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_difference"] < 1e-12
    assert doc["det_nu"] == pytest.approx(1.0)
    np.testing.assert_allclose(doc["mu"], doc["a"])


def test_cli_green_subcommand(landau_cfg, tmp_path, capsys):
    code = main(["green", str(landau_cfg), "--outdir", str(tmp_path / "g")])
    assert code == 0
    assert (tmp_path / "g" / "green.csv").exists()
    assert not (tmp_path / "g" / "alphas.csv").exists()
    info = json.loads(capsys.readouterr().out.strip())
    assert info == {"config": str(landau_cfg),
                    "written": [str(tmp_path / "g" / "green.csv")],
                    "t_final": pytest.approx(2.5)}


def test_green_grid_mode_and_times(tmp_path):
    p = tmp_path / "grid.cfg"
    p.write_text(
        "[hamiltonian]\npreset = landau\nm = 1.0\nomega_c = 1.0\n\n"
        "[run]\nt_end = 1.5\n\n[outputs]\ngreen = green.csv\n\n"
        "[green]\ngrid_extent = 1.0\ngrid_points = 3\nsource = 0.5,-0.5\n"
        "times = 0.8, 1.2\n")
    run_config_file(p, outdir=tmp_path / "out")
    rows = (tmp_path / "out" / "green.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2 * 9  # header + 3x3 grid at two times
    cells = rows[1].split(",")
    assert float(cells[2]) == 0.8          # first requested time
    assert (float(cells[3]), float(cells[4])) == (0.5, -0.5)


def test_green_rows_are_points_then_grid_per_time(tmp_path):
    p = tmp_path / "mixed.cfg"
    p.write_text(
        "[hamiltonian]\npreset = landau\nm = 1.0\nomega_c = 1.0\n\n"
        "[run]\nt_end = 1.5\n\n[outputs]\ngreen = green.csv\n\n"
        "[green]\npoints = 0.1,0.2,0.3,0.4 ; -0.5,0.6,0.7,-0.8\n"
        "grid_extent = 1.0\ngrid_points = 2\nsource = 0.25,-0.25\n"
        "times = 0.8, 1.2\n")
    run_config_file(p, outdir=tmp_path / "out")
    rows = (tmp_path / "out" / "green.csv").read_text().strip().splitlines()
    cols = [tuple(float(c) for c in r.split(",")[:5]) for r in rows[1:]]
    for t in (0.8, 1.2):
        block = [(0.1, 0.2, t, 0.3, 0.4), (-0.5, 0.6, t, 0.7, -0.8),
                 (-1.0, -1.0, t, 0.25, -0.25), (-1.0, 1.0, t, 0.25, -0.25),
                 (1.0, -1.0, t, 0.25, -0.25), (1.0, 1.0, t, 0.25, -0.25)]
        assert cols[:6] == block
        cols = cols[6:]
    assert cols == []


@pytest.mark.parametrize("t_end", ["nan", "-1", "0", "inf"])
def test_bad_t_end_is_a_json_error(tmp_path, capsys, t_end):
    p = tmp_path / "bad.cfg"
    p.write_text(f"[hamiltonian]\npreset = free\n\n[run]\nt_end = {t_end}\n"
                 "\n[outputs]\nalphas = alphas.csv\n")
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config-error"
    assert "t_end" in err["detail"]
    assert not (tmp_path / "alphas.csv").exists()


@pytest.mark.parametrize("command", ["run", "green"])
def test_green_time_past_breakdown_is_a_json_error(tmp_path, capsys, command):
    # the landau flow breaks down at t = pi; t = 3.9 lies past the span
    p = tmp_path / "late.cfg"
    p.write_text(
        "[hamiltonian]\npreset = landau\nm = 1.0\nomega_c = 1.0\n\n"
        "[run]\nt_end = 4.0\n\n[outputs]\ngreen = green.csv\n\n"
        "[green]\npoints = 0,0,0,0\ntimes = 1.0, 3.9\n")
    assert main([command, str(p), "--outdir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config-error"
    assert "3.9" in err["detail"] and "integrated span" in err["detail"]


def test_bad_thread_count_is_a_json_error(landau_cfg, tmp_path, capsys,
                                          monkeypatch):
    monkeypatch.setenv("QUADFLOW_THREADS", "abc")
    code = main(["run", str(landau_cfg), str(landau_cfg),
                 "--outdir", str(tmp_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config-error"
    assert "QUADFLOW_THREADS" in err["detail"]


@pytest.mark.parametrize("second", ["same", "sibling"])
def test_batch_with_a_shared_stem_is_a_json_error(landau_cfg, tmp_path,
                                                  capsys, second):
    # each config of a batch writes into <outdir>/<stem>/
    other = landau_cfg
    if second == "sibling":
        other = tmp_path / "elsewhere" / landau_cfg.name
        other.parent.mkdir()
        other.write_text(LANDAU_CFG.replace("t_end = 2.5", "t_end = 1.5"))
    code = main(["run", str(landau_cfg), str(other),
                 "--outdir", str(tmp_path / "batch")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "config-error"
    assert str(landau_cfg) in err["detail"] and str(other) in err["detail"]
    assert not (tmp_path / "batch").exists()


FREE_ALPHAS_CFG = ("[hamiltonian]\npreset = free\n\n[run]\nt_end = 1.0\n\n"
                   "[outputs]\nalphas = alphas.csv\n")


def _json_error(captured):
    """The one JSON error line on stderr, with nothing on stdout."""
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    return json.loads(line)


@pytest.mark.parametrize("second", ["y", "x"])
def test_batch_whose_outputs_collide_is_a_json_error(tmp_path, capsys,
                                                     second):
    # without --outdir each config writes next to itself: two configs of
    # one directory, or one config twice, would write one alphas.csv
    same = tmp_path / "same"
    same.mkdir()
    (same / "x.cfg").write_text(FREE_ALPHAS_CFG)
    (same / "y.cfg").write_text(FREE_ALPHAS_CFG.replace("free", "landau"))
    configs = [str(same / "x.cfg"), str(same / f"{second}.cfg")]
    assert main(["run", *configs]) == 1
    err = _json_error(capsys.readouterr())
    assert err["error"] == "config-error"
    assert str(same / "alphas.csv") in err["detail"]
    assert all(c in err["detail"] for c in configs)
    assert not (same / "alphas.csv").exists()


def test_config_whose_outputs_share_a_file_is_a_json_error(tmp_path,
                                                           capsys):
    p = tmp_path / "one.cfg"
    p.write_text(FREE_ALPHAS_CFG.replace(
        "alphas = alphas.csv", "alphas = a.csv\nheisenberg = a.csv"))
    assert main(["run", str(p)]) == 1
    err = _json_error(capsys.readouterr())
    assert err["error"] == "config-error"
    assert str(tmp_path / "a.csv") in err["detail"]
    assert "alphas" in err["detail"] and "heisenberg" in err["detail"]
    assert not (tmp_path / "a.csv").exists()


def test_same_stem_batch_with_distinct_files_runs(landau_cfg, tmp_path,
                                                  capsys):
    # both configs write into <outdir>/landau/, under different names
    other = tmp_path / "elsewhere" / landau_cfg.name
    other.parent.mkdir()
    other.write_text(FREE_ALPHAS_CFG.replace("alphas.csv", "free.csv"))
    assert main(["run", str(landau_cfg), str(other),
                 "--outdir", str(tmp_path / "batch")]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
    assert {p.name for p in (tmp_path / "batch" / "landau").iterdir()} == {
        "alphas.csv", "heisenberg.json", "green.csv", "free.csv"}


# a valid config on the free preset; each case below overrides one key
NUMERIC_BASE = {
    "hamiltonian": {"preset": "free", "hbar": "1.0"},
    "run": {"t_end": "1.0"},
    "outputs": {"alphas": "alphas.csv", "green": "green.csv"},
    "green": {"points": "0,0,0,0", "grid_extent": "1.0", "grid_points": "3",
              "source": "0,0", "times": "0.5"},
}


@pytest.mark.parametrize("section,key,value", [
    ("run", "rtol", "nan"),
    ("run", "atol", "-1"),
    ("run", "max_step", "-1"),
    ("run", "magnitude_cap", "nan"),
    ("run", "samples", "nan"),
    ("run", "samples", "2.7"),
    ("run", "samples", "0"),
    ("green", "grid_points", "-3"),
    ("green", "grid_extent", "nan"),
    ("green", "times", "0.5, x"),
    ("green", "points", "nan,0,0,0"),
    ("hamiltonian", "hbar", "nan"),
])
def test_bad_number_is_a_json_error(tmp_path, capsys, section, key, value):
    sections = {name: dict(body) for name, body in NUMERIC_BASE.items()}
    sections[section][key] = value
    p = tmp_path / "bad.cfg"
    p.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items())
        + "\n" for name, body in sections.items()))
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config-error"
    assert key in err["detail"] and value in err["detail"]
    assert not (tmp_path / "alphas.csv").exists()


@pytest.mark.parametrize("alpha", ["1,2", "x"])
def test_bad_print_odes_alpha_is_a_json_error(capsys, alpha):
    assert main(["print-odes", "--alpha", alpha]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config-error"
    assert "--alpha" in err["detail"] and alpha in err["detail"]


@pytest.mark.parametrize("argv, fragment", [
    (["--t", "nan"], "--t = nan"),
    (["--t", "inf"], "--t = inf"),
    (["--alpha", "0,1e300" + ",0" * 13], "not finite"),
], ids=["t-nan", "t-inf", "alpha-overflow"])
def test_non_finite_print_odes_is_a_json_error(capsys, argv, fragment):
    assert main(["print-odes", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    err = json.loads(line)
    assert err["error"] == "config-error"
    assert fragment in err["detail"]


def test_singular_nu_detail_prints_a_plain_float(capsys):
    # e^{2 alpha12} overflows at alpha12 = 1000, so det(nu) is NaN
    alpha = ",".join("1000" if k == 11 else "0" for k in range(15))
    assert main(["print-odes", "--alpha", alpha]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "singular-nu"
    assert err["detail"].startswith("det(nu) = nan at alpha = ")


@pytest.mark.parametrize("t_end", ["-1", "nan"])
def test_bad_verify_t_end_is_a_json_error(capsys, t_end):
    assert main(["verify", "--t-end", t_end]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config-error"
    assert "--t-end" in err["detail"] and t_end in err["detail"]


def test_outdir_that_is_a_file_is_a_json_error(landau_cfg, tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["run", str(landau_cfg), "--outdir", str(blocker)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "io-error"
    assert "taken" in err["detail"]
    assert err["at"] == str(landau_cfg)


def test_preset_table_matches_constructors():
    for name, keys in PRESETS.items():
        params = inspect.signature(getattr(CoefficientSchedule, name)).parameters
        assert tuple(params) == keys + ("hbar",)


@pytest.mark.parametrize("preset", ["landau", "free", "harmonic1d",
                                    "kanai_caldirola"])
def test_zero_mass_preset_config_is_a_json_error(tmp_path, capsys, preset):
    p = tmp_path / "m0.cfg"
    p.write_text(f"[hamiltonian]\npreset = {preset}\nm = 0\n\n"
                 "[run]\nt_end = 1.0\n\n[outputs]\nalphas = alphas.csv\n")
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "config-error"
    assert "m = 0" in err["detail"]
    assert not (tmp_path / "alphas.csv").exists()


@pytest.mark.parametrize("argv", [["--m", "0"],
                                  ["--preset", "harmonic1d", "--m", "0"]])
def test_zero_mass_verify_is_a_json_error(capsys, argv):
    assert main(["verify", *argv]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "invalid-schedule"
    assert "m = 0" in err["detail"]


def test_verify_landau_without_field_skips_closed_form(capsys):
    assert main(["verify", "--omega-c", "0"]) == 0
    out = capsys.readouterr().out
    assert "[SKIP] integrated alpha vs constant-field closed form" in out
    assert "[FAIL]" not in out


def test_verify_landau_with_underflowing_field_skips_closed_form(capsys):
    # omega_c ** 3 underflows to zero in the closed form's alpha1 prefactor
    assert main(["verify", "--omega-c", "1e-300", "--E-x", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "[SKIP] integrated alpha vs constant-field closed form" in out
    assert "[FAIL]" not in out


def test_halt_before_first_step_with_green_is_a_json_error(tmp_path, capsys):
    # the flow stops at t = 0, where the Green function is a delta function
    p = tmp_path / "halt.cfg"
    p.write_text("[hamiltonian]\na6 = 1e300\na9 = 1e300\n\n[run]\n"
                 "t_end = 1.0\n\n[green]\npoints = 0,0,0,0\n\n"
                 "[outputs]\nalphas = alphas.csv\ngreen = green.csv\n")
    with np.errstate(over="ignore"):
        assert main(["run", str(p), "--outdir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert set(err) == {"error", "detail", "at"}
    assert err["error"] == "degenerate-geometry"
    assert not (tmp_path / "green.csv").exists()
    p.write_text(p.read_text().replace("green = green.csv", ""))
    with np.errstate(over="ignore"):
        info = run_config_file(p, outdir=tmp_path)
    assert info["t_final"] == 0.0
    # no step was accepted: the component with the largest |alpha_dot(0)|,
    # alpha6 (a6 = a9 = 1e300 tie between alpha6 and alpha9; the first wins)
    assert info["breakdown"] == {"t_break": 0.0, "index": 6,
                                 "reason": "step-underflow"}


def _fresh_cli(*argv):
    """Run the CLI in a fresh interpreter without np.errstate, as from the
    shell: numpy's warnings would land on stderr ahead of any JSON line."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        v for v in (src, env.get("PYTHONPATH")) if v)
    return subprocess.run([sys.executable, "-m", "quadflow.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)


def test_huge_coefficients_print_nothing_on_stderr(tmp_path):
    p = tmp_path / "huge.cfg"
    p.write_text(HUGE_CFG)
    proc = _fresh_cli("run", str(p), "--outdir", str(tmp_path))
    assert proc.stderr == "", proc.stderr
    assert proc.returncode == 0
    info = json.loads(proc.stdout)
    # no step was accepted: the component with the largest |alpha_dot(0)|,
    # alpha6 (a6 = a9 = 1e300 tie between alpha6 and alpha9; the first wins)
    assert info["breakdown"] == {"t_break": 0.0, "index": 6,
                                 "reason": "step-underflow"}


@pytest.mark.parametrize("lam,coefficient", [("400", "a6"), ("-400", "a9")])
def test_overflowing_kanai_caldirola_is_one_json_line(tmp_path, lam,
                                                      coefficient):
    # e^{lam t} (a6) or e^{-lam t} (a9) overflows at t = 5
    p = tmp_path / "kc.cfg"
    p.write_text(f"[hamiltonian]\npreset = kanai_caldirola\nlam = {lam}\n\n"
                 "[run]\nt_end = 2.0\n\n[outputs]\nalphas = alphas.csv\n")
    proc = _fresh_cli("print-odes", "--config", str(p), "--t", "5")
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "invalid-schedule"
    assert err["detail"] == f"{coefficient} non-finite at t = 5.0"


@pytest.mark.parametrize("preset, flag", [("harmonic1d", "--omega"),
                                          ("landau", "--omega-c")])
def test_overflowing_preset_parameter_is_one_json_line(preset, flag):
    # m * omega**2 overflows on Python floats
    proc = _fresh_cli("verify", "--preset", preset, flag, "1e200")
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "invalid-schedule"
    assert err["detail"].startswith(f"{preset} preset: a6 is not finite ")


def test_overflowing_preset_parameter_in_a_config_is_a_config_error(
        tmp_path, capsys):
    p = tmp_path / "h.cfg"
    p.write_text("[hamiltonian]\npreset = harmonic1d\nomega = 1e200\n\n"
                 "[run]\nt_end = 1.0\n")
    assert main(["run", str(p)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config-error"
    assert err["detail"].startswith("[hamiltonian]: harmonic1d preset: a6 ")


def test_schedule_error_inside_the_flow_prints_a_plain_time(tmp_path,
                                                            capsys):
    # RK stage times are Python floats: the detail reads t = 1.00007...,
    # not numpy's repr of a scalar
    p = tmp_path / "sqrt.cfg"
    p.write_text("[hamiltonian]\na6 = sqrt(1-t)\na9 = 0.5\n\n"
                 "[run]\nt_end = 2.0\n\n[outputs]\nalphas = alphas.csv\n")
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-schedule"
    head, sep, tail = err["detail"].partition(" undefined at t = ")
    assert head == "a6" and sep
    t, _, reason = tail.partition(": ")
    assert reason == "math domain error"
    assert 1.0 < float(t) < 1.01


def test_verify_landau_with_weak_field_passes_closed_form(capsys):
    assert main(["verify", "--omega-c", "1e-6", "--E-x", "0.3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] integrated alpha vs constant-field closed form" in out
    assert "[FAIL]" not in out


def test_interpolating_callers_stay_inside_the_span(tmp_path, capsys):
    # Green samples up to the end of the span, and verify after a breakdown
    # (it compares at 0.8 t_break); FlowResult.interpolate refuses the rest
    p = tmp_path / "ends.cfg"
    p.write_text(LANDAU_CFG + "times = 0.5, 2.5\n")
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 0
    with open(tmp_path / "green.csv") as fh:
        assert {float(row["t"]) for row in csv.DictReader(fh)} == {0.5, 2.5}
    capsys.readouterr()
    assert main(["verify", "--t-end", "3.9"]) == 0
    out = capsys.readouterr().out
    assert "[NOTE] flow breakdown" in out and "[FAIL]" not in out


def test_unknown_print_odes_preset_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["print-odes", "--preset", "nosuch"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_green_config_validation(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[hamiltonian]\npreset = free\n\n[run]\nt_end = 1.0\n\n"
                 "[green]\ngrid_extent = 1.0\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "quadflow.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


# coefficient expressions nested far past the interpreter's recursion limit
DEEP_EXPRESSIONS = {
    "neg-3000": "-" * 3000 + "t",
    "sum-3000": "+".join(["t"] * 3000),
    "paren-1000": "(" * 1000 + "t" + ")" * 1000,
    "sin-3000": "sin(" * 3000 + "t" + ")" * 3000,
}


@pytest.mark.parametrize("name", sorted(DEEP_EXPRESSIONS))
def test_deep_expression_configs_run(tmp_path, capsys, name):
    p = tmp_path / f"{name}.cfg"
    p.write_text(f"[hamiltonian]\na6 = {DEEP_EXPRESSIONS[name]}\na9 = 0.5\n\n"
                 "[run]\nt_end = 1.0\n\n[outputs]\nalphas = alphas.csv\n")
    code = main(["run", str(p), "--outdir", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert json.loads(captured.out)["written"]


# the expression alphabet: numbers, t, names (w is defined, k is not), the
# functions bare and called, an unknown function, a stray character,
# operators, parentheses and spaces
EXPRESSION_TOKENS = [
    "0.5", "2", "1e3", ".5", "t", "w", "k", *sorted(FUNCTIONS),
    *(f"{name}(" for name in sorted(FUNCTIONS)), "sinh(", "$", "+", "-", "*",
    "/", "^", "(", ")", " "]


# units that open an operand: repeated, they nest or chain without error
PREFIX_UNITS = ["-", "(", "sin(", "exp(", "ln(", "neg(", "t+", "2*", "t^",
                "w/", " "]


def _expression_text():
    tokens = st.lists(st.sampled_from(EXPRESSION_TOKENS), min_size=1,
                      max_size=8)
    units = st.one_of(tokens, st.lists(st.sampled_from(PREFIX_UNITS),
                                       min_size=1, max_size=4))

    def chain(unit, n, tail, balance):
        # a unit repeated to about n tokens, then a tail; balancing closes
        # every paren the chain left open
        text = "".join(unit) * (n // len(unit)) + "".join(tail)
        return text + ")" * max(0, text.count("(") - text.count(")")) \
            if balance else text

    short = st.lists(st.sampled_from(EXPRESSION_TOKENS), max_size=30).map(
        "".join)
    tails = st.one_of(tokens, st.sampled_from(["t", "w", "0.5"]).map(list))
    return st.one_of(short, st.builds(chain, units, st.integers(1000, 4000),
                                      tails, st.booleans()))


@settings(max_examples=100, deadline=None)
@given(text=_expression_text())
def test_any_expression_text_loads_or_is_a_config_error(tmp_path_factory,
                                                        text):
    p = tmp_path_factory.mktemp("expr") / "expr.cfg"
    p.write_text(f"[hamiltonian]\na6 = {text}\n\n[constants]\nw = 2.0\n\n"
                 "[run]\nt_end = 1.0\n")
    try:
        cfg = load_config(p)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    try:
        values = cfg.schedule.coefficients(0.5)
    except InvalidSchedule:
        return
    assert len(values) == 15 and all(type(v) is float for v in values)

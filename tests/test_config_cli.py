"""Config parsing and the quadflow command line."""

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadflow import cli, flow, oracles, rk
from quadflow.cli import build_parser, main, run_config_file
from quadflow.config import RunConfig, load_config
from quadflow.errors import ConfigError, InvalidSchedule
from quadflow.adjoint import adjoint_closed_form, adjoint_matrix
from quadflow.expressions import FUNCTIONS
from quadflow.flow import integrate
from quadflow.oracles import classical_lagrangian
from quadflow.reduction import assemble, reference_odes
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


def test_a_constant_that_no_expression_reads_is_refused(tmp_path, capsys):
    # t is the time, so a constant named t is never read either
    p = tmp_path / "t.cfg"
    for extra, detail in [
            ("t = 9\n", "['t']; t is the time, not a constant"),
            ("unused = 3\n", "['unused']"),
            ("t = 9\nunused = 3\n",
             "['t', 'unused']; t is the time, not a constant")]:
        p.write_text("[hamiltonian]\na6 = w*t\n\n[constants]\nw = 2\n"
                     f"{extra}\n[run]\nt_end = 1.0\n")
        with pytest.raises(ConfigError) as err:
            load_config(p)
        assert str(err.value) == f"[constants]: no expression reads {detail}"
        assert main(["run", str(p), "--outdir", str(tmp_path)]) == 1
        out, stderr = capsys.readouterr()
        assert out == "" and json.loads(stderr)["error"] == "config-error"
    p.write_text("[hamiltonian]\na6 = w*t\n\n[constants]\nw = 2\n\n"
                 "[run]\nt_end = 1.0\n")
    assert load_config(p).schedule.coefficients(0.25)[5] == 0.5


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


# each preset's parameters and its expressions (schedule._SOURCES) as a
# config's [hamiltonian] lines, and the run's t_end
ONE_PATH = {
    "landau": ("m = 1.0\nomega_c = 1.0\nE_x = 0.3\nE_y = -0.2\ne = 1.0\n",
               "a2 = e*E_x\na3 = e*E_y\na6 = m*omega_c^2/8\n"
               "a7 = m*omega_c^2/8\na9 = 1/(2*m)\na10 = 1/(2*m)\n"
               "a14 = omega_c/2\na15 = -omega_c/2\n", 2.5),
    "kanai_caldirola": ("m = 1.0\nomega = 2.0\nlam = 0.3\n",
                        "a6 = 0.5*m*omega^2*exp(lam*t)\n"
                        "a9 = exp(-lam*t)/(2*m)\n", 2.0),
}


@pytest.mark.parametrize("preset", ONE_PATH)
def test_a_preset_runs_as_the_config_of_its_expressions(tmp_path, preset):
    params, expressions, t_end = ONE_PATH[preset]
    rest = (f"\n[run]\nt_end = {t_end}\n\n[outputs]\nalphas = alphas.csv\n"
            "heisenberg = heisenberg.json\n")
    configs = {"preset": f"[hamiltonian]\npreset = {preset}\n{params}",
               "expressions": f"[hamiltonian]\n{expressions}\n"
                              f"[constants]\n{params}"}
    for name, text in configs.items():
        (tmp_path / f"{name}.cfg").write_text(text + rest)
        assert main(["run", str(tmp_path / f"{name}.cfg"),
                     "--outdir", str(tmp_path / name)]) == 0
    for out in ("alphas.csv", "heisenberg.json"):
        assert (tmp_path / "preset" / out).read_bytes() == \
            (tmp_path / "expressions" / out).read_bytes()


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


def test_cli_run_batch_isolates_outputs(landau_cfg, tmp_path, capsys):
    other = tmp_path / "second.cfg"
    other.write_text(LANDAU_CFG.replace("t_end = 2.5", "t_end = 1.5"))
    code = main(["run", str(landau_cfg), str(other),
                 "--outdir", str(tmp_path / "batch")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert (tmp_path / "batch" / "landau" / "alphas.csv").exists()
    assert (tmp_path / "batch" / "second" / "alphas.csv").exists()


def test_batch_loads_each_config_once(landau_cfg, tmp_path, capsys,
                                      monkeypatch):
    loads = []
    real = cli.load_config

    def logged(path):
        loads.append(path)
        return real(path)

    other = tmp_path / "second.cfg"
    other.write_text(LANDAU_CFG.replace("t_end = 2.5", "t_end = 1.5"))
    monkeypatch.setattr(cli, "load_config", logged)
    assert main(["run", str(landau_cfg), str(other),
                 "--outdir", str(tmp_path / "batch")]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2
    assert loads == [str(landau_cfg), str(other)]


def test_a_failing_config_stops_the_batch(landau_cfg, tmp_path, capsys):
    # the configs run in turn: the first writes its files, the second
    # fails, and the third never runs
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text(LANDAU_CFG.replace("t_end = 2.5", "t_end = 2e-322"))
    third = tmp_path / "third.cfg"
    third.write_text(LANDAU_CFG.replace("t_end = 2.5", "t_end = 1.5"))
    out = tmp_path / "batch"
    assert main(["run", str(landau_cfg), str(tiny), str(third),
                 "--outdir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "step-underflow"
    assert sorted(p.name for p in (out / "landau").iterdir()) == [
        "alphas.csv", "green.csv", "heisenberg.json"]
    assert not (out / "tiny").exists()
    assert not (out / "third").exists()


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
    # the landau flow breaks down at t = pi; t = 3.9 lies past the span, and
    # the Green samples fail before any file of the run is written
    p = tmp_path / "late.cfg"
    p.write_text(
        "[hamiltonian]\npreset = landau\nm = 1.0\nomega_c = 1.0\n\n"
        "[run]\nt_end = 4.0\n\n[outputs]\nalphas = alphas.csv\n"
        "heisenberg = heisenberg.json\ngreen = green.csv\n\n"
        "[green]\npoints = 0,0,0,0\ntimes = 1.0, 3.9\n")
    assert main([command, str(p), "--outdir", str(tmp_path)]) == 1
    err = _one_json_error(capsys.readouterr())
    assert err["error"] == "config-error"
    assert "3.9" in err["detail"] and "integrated span" in err["detail"]
    for name in ("alphas.csv", "heisenberg.json", "green.csv"):
        assert not (tmp_path / name).exists(), name


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


def _one_json_error(captured) -> dict:
    """The one JSON error line on stderr, with nothing on stdout."""
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert set(err) == {"error", "detail", "at"}
    return err


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
    err = _one_json_error(capsys.readouterr())
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
    err = _one_json_error(capsys.readouterr())
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
    ("run", "samples", "nan"),
    ("run", "samples", "2.7"),
    ("run", "samples", "0"),
    ("run", "samples", "1e308"),     # numpy's arange refuses the size
    ("green", "grid_points", "-3"),
    ("green", "grid_points", "2e9"),  # N^2 above numpy's size limit
    ("green", "grid_extent", "nan"),
    ("green", "grid_extent", "1e308"),   # the axis spans 2e308, not finite
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


def test_green_on_the_zero_preset_is_a_degenerate_geometry_error(tmp_path,
                                                                capsys):
    # alpha stays 0, where the Green function is a delta function; the
    # flow resolves, and the run still writes none of its files
    p = tmp_path / "zero.cfg"
    p.write_text("[hamiltonian]\npreset = zero\n\n[run]\nt_end = 1.0\n\n"
                 "[green]\npoints = 0,0,0,0\n\n"
                 "[outputs]\nalphas = alphas.csv\n"
                 "heisenberg = heisenberg.json\ngreen = green.csv\n")
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 1
    err = _one_json_error(capsys.readouterr())
    assert err["error"] == "degenerate-geometry"
    assert err["at"] == str(p)
    for name in ("alphas.csv", "heisenberg.json", "green.csv"):
        assert not (tmp_path / name).exists(), name


def _fresh_cli(*argv, **environ):
    """Run the CLI in a fresh interpreter without np.errstate, as from the
    shell: numpy's warnings would land on stderr ahead of any JSON line.
    ``environ`` adds to the inherited environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        v for v in (src, env.get("PYTHONPATH")) if v)
    return subprocess.run([sys.executable, "-m", "quadflow.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=300)


def test_huge_coefficients_are_one_json_line_on_stderr(tmp_path):
    # no step resolves, and no numpy warning lands ahead of the JSON line
    p = tmp_path / "huge.cfg"
    p.write_text(HUGE_CFG)
    proc = _fresh_cli("run", str(p), "--outdir", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert json.loads(line)["error"] == "step-underflow"
    assert not (tmp_path / "alphas.csv").exists()


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
    assert err["detail"] == (f"{coefficient} undefined at t = 5.0: "
                             "math range error")


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


# a weak magnetic field, and a charge whose square overflows a float
@pytest.mark.parametrize("args", [["--omega-c", "1e-6", "--E-x", "0.3"],
                                  ["--e", "1e200"]],
                         ids=["omega_c_1e-6", "e_1e200"])
def test_verify_landau_with_weak_field_passes_closed_form(capsys, args):
    assert main(["verify", *args]) == 0
    out = capsys.readouterr().out
    assert "[PASS] integrated alpha vs constant-field closed form" in out
    assert "[FAIL]" not in out


def test_interpolating_callers_stay_inside_the_span(tmp_path, capsys,
                                                   monkeypatch):
    # Green samples up to the end of the span, and verify after a breakdown
    # (it compares at 0.8 t_break, or at the stop when the pole estimate
    # lies past 1.25 times the stop); FlowResult.interpolate refuses the rest
    p = tmp_path / "ends.cfg"
    p.write_text(LANDAU_CFG + "times = 0.5, 2.5\n")
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 0
    with open(tmp_path / "green.csv") as fh:
        assert {float(row["t"]) for row in csv.DictReader(fh)} == {0.5, 2.5}
    capsys.readouterr()
    assert main(["verify", "--t-end", "3.9"]) == 0
    out = capsys.readouterr().out
    assert "[NOTE] flow breakdown" in out and "[FAIL]" not in out
    # alpha12 = -t - 0.01 t^2 stops at t = 3.34 and fits no root, so
    # t_break is the stop; an estimate far past it (patched in) compares
    # at the stop, not past the span
    p.write_text("[hamiltonian]\na9 = 0.5\na10 = 0.5\na12 = -1 - 0.02*t\n\n"
                 "[run]\nt_end = 5\n")
    assert main(["verify", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "[NOTE] flow breakdown at t = 3.34218" in out
    monkeypatch.setattr(flow, "_pole", lambda rhs, dense, t, i: (17 * t, 1))
    assert main(["verify", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "[NOTE] flow breakdown at t = 56.817 (component 12)" in out
    assert "[FAIL]" not in out and "[SKIP] symplecticity" not in out


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


GREEN_FREE_CFG = ("[hamiltonian]\npreset = free\n\n[run]\nt_end = 1.0\n\n"
                  "[outputs]\nalphas = alphas.csv\ngreen = green.csv\n")


@pytest.mark.parametrize("text, fragment", [
    (None, "config file not found: "),
    ("[run]\nt_end = 1.0\n\n[outputs]\nalphas = alphas.csv\n",
     ": missing [hamiltonian] section"),
    ("[hamiltonian]\nhbar = 1.0\n\n[run]\nt_end = 1.0\n\n"
     "[outputs]\nalphas = alphas.csv\n",
     "[hamiltonian]: needs a preset or at least one coefficient expression"),
    (GREEN_FREE_CFG + "\n[green]\ngrid_extent = 1\ngrid_points = 3\n",
     "[green]: grid mode needs a source = xp,yp"),
    (GREEN_FREE_CFG + "\n[green]\ntimes = 0.5\n",
     "[green]: needs points or a grid spec"),
    (GREEN_FREE_CFG, "green output requested without [green] section"),
], ids=["no-file", "no-hamiltonian", "no-coefficient", "grid-without-source",
        "green-without-points", "green-without-section"])
def test_incomplete_config_is_one_json_error(tmp_path, capsys, text,
                                             fragment):
    p = tmp_path / "c.cfg"
    if text is not None:
        p.write_text(text)
    assert main(["run", str(p), "--outdir", str(tmp_path / "out")]) == 1
    err = _one_json_error(capsys.readouterr())
    assert err["error"] == "config-error"
    assert fragment in err["detail"]
    assert err["at"] == str(p)
    assert [q.name for q in tmp_path.iterdir()] == ([] if text is None
                                                    else ["c.cfg"])


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
    # a warning would reach stderr from the shell: here it raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
    # a7 reads w, so the constant is read whatever a6 is
    p.write_text(f"[hamiltonian]\na6 = {text}\na7 = w\n\n[constants]\n"
                 "w = 2.0\n\n[run]\nt_end = 1.0\n")
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


# whole config text: the known sections with their keys plus misspelled
# ones, numbers, non-finite, negative-zero and subnormal values,
# non-numbers, empty values, expression text and bytes that are not UTF-8
CONFIG_TEMPLATES = [
    {"hamiltonian": {"preset": "landau"}, "run": {"t_end": "1.0"},
     "outputs": {"alphas": "alphas.csv"}},
    {"hamiltonian": {"preset": "landau", "E_x": "0.3"},
     "run": {"t_end": "2.5", "samples": "20"},
     "outputs": {"heisenberg": "heisenberg.json", "green": "green.csv"},
     "green": {"points": "0,0,1,0 ; 1,0.5,0,0", "times": "0.5, 1"}},
    {"hamiltonian": {"a6": "A*sin(w*t)", "a9": "0.5", "a10": "0.5",
                     "a11": "B*cos(t)", "a14": "C", "a15": "-C"},
     "constants": {"A": "0.5", "w": "2.0", "B": "0.1", "C": "0.5"},
     "run": {"t_end": "4.0", "samples": "10"},
     "outputs": {"alphas": "alphas.csv", "green": "green.csv"},
     "green": {"grid_extent": "1.0", "grid_points": "3", "source": "0,0"}},
]
CONFIG_KEYS = {
    "hamiltonian": ["preset", "hbar", "m", "omega_c", "E_x", "omega", "lam",
                    "a1", "a6", "a9", "a10", "a11", "a14", "a16", "Preset"],
    "constants": ["A", "w", "k", "t"],
    "run": ["t_end", "rtol", "atol", "samples", "max_step", "magnitude_cap",
            "sample", "t-end"],
    "outputs": ["alphas", "heisenberg", "green", "alpha"],
    "green": ["points", "times", "grid_extent", "grid_points", "source",
              "time"],
}
# misspelled sections, and configparser's DEFAULT, whose keys every
# section sees
ODD_SECTIONS = {"output": ["alphas"], "Run": ["t_end"], "DEFAULT": ["m", "x"]}
NUMBERS = ["0.5", "2", "10", "-1", "0", "-0", "1e-320", "1e308", "nan",
           "inf", "-inf"]
WORDS = ["", "x", "landau", "free", "harmonic1d", "kanai_caldirola", "zero",
         "nosuch", "0,0,0,0", "1e308,1e308,-1e308,1e308", "0.5, 1", "0,0",
         "-0, 1e-320"]
FILE_NAMES = ["alphas.csv", "h.json", "green.csv", "", "missing/x.csv"]


def _config_value(key):
    if key in ("t_end", "t-end"):   # t_end stays <= 5
        return st.sampled_from(["0.5", "2.5", "5", "-0", "0", "1e-320", "-1",
                                "nan", "inf", "x", ""])
    if key in ("samples", "sample", "grid_points"):
        # counts from 1..1000 (a grid of up to 40^2 points) or >= 1e16,
        # sizes whose allocation fails at once
        top = 40 if key == "grid_points" else 1000
        return st.one_of(st.integers(1, top).map(str), st.sampled_from(
            ["1e16", "1e308", "2.5", "-0", "1e-320", "nan", "x", ""]))
    if key in CONFIG_KEYS["outputs"]:
        return st.sampled_from(FILE_NAMES)
    if key == "w":
        # the driving frequency stays below 1e308: sin(1e308 t) is noise
        # that the flow resolves in steps of about 1e-8, a day-long run
        return st.sampled_from([v for v in NUMBERS if v != "1e308"] + WORDS)
    expression = st.lists(st.sampled_from(EXPRESSION_TOKENS),
                          max_size=8).map("".join)
    if key.startswith("a"):
        return st.one_of(st.sampled_from(NUMBERS), expression)
    # mostly numbers: a value that is not one ends the run at once
    return st.one_of(st.sampled_from(NUMBERS), st.sampled_from(NUMBERS),
                     st.sampled_from(NUMBERS + WORDS), expression)


@st.composite
def _config_bytes(draw):
    sections = {name: dict(body)
                for name, body in draw(st.sampled_from(CONFIG_TEMPLATES))
                .items()}
    # known sections three times as often as odd ones
    keys = {**CONFIG_KEYS, **ODD_SECTIONS}
    names = [*CONFIG_KEYS] * 3 + [*ODD_SECTIONS]
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(names))
        key = draw(st.sampled_from(keys[section]))
        sections.setdefault(section, {})[key] = draw(_config_value(key))
    data = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in body.items()) + "\n"
                   for name, body in sections.items()).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80",
                                                 b"\xff\xfe"])) + data[at:]
    return data


@settings(max_examples=100, deadline=None)
@given(data=_config_bytes())
def test_any_config_runs_or_is_one_json_error(tmp_path_factory, data):
    d = tmp_path_factory.mktemp("cfg")
    p = d / "any.cfg"
    p.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["run", str(p), "--outdir", str(d / "out")])
    if code == 0:
        assert err.getvalue() == ""
        (line,) = out.getvalue().splitlines()
        assert set(json.loads(line)) <= {"config", "written", "t_final",
                                         "breakdown"}
    else:
        assert code == 1 and out.getvalue() == ""
        (line,) = err.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "detail", "at"}


TOL_CFG = """
[hamiltonian]
preset = landau

[run]
t_end = 3.5
rtol = 1e-4

[outputs]
alphas = alphas.csv
"""


def test_verify_checks_the_flow_that_run_writes(tmp_path, capsys,
                                               monkeypatch):
    # run's tolerance and a chart bound patched to 1e-2 stop the flow at
    # 2 acos(0.1) = 2.94, and verify reports the pole estimate near pi
    monkeypatch.setattr(flow, "_CHART_EPS", 1e-2)
    p = tmp_path / "tol.cfg"
    p.write_text(TOL_CFG)
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 0
    info = json.loads(capsys.readouterr().out)
    t_break = info["breakdown"]["t_break"]
    assert f"{info['t_final']:.6g}" == "2.94126"
    assert main(["verify", "--config", str(p)]) == 0
    note = (f"[NOTE] flow breakdown at t = {t_break:.6g} (component 12); "
            "comparisons truncated to the regular part of the flow")
    assert note in capsys.readouterr().out.splitlines()
    assert f"{t_break:.6g}" == "3.14026"


def test_verify_on_an_unresolved_flow_prints_no_row(tmp_path, capsys):
    # the flow runs before the first row, so stdout holds no half table
    # next to the error
    p = tmp_path / "huge.cfg"
    p.write_text("[hamiltonian]\na2 = 1e300\na9 = 0.5\na10 = 0.5\n\n"
                 "[run]\nt_end = 1\n")
    assert main(["verify", "--config", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"] == "step-underflow"


SMOOTH_CFG = """
[hamiltonian]
a2 = sin(50*t)

[run]
t_end = 400

[outputs]
alphas = alphas.csv
"""


# unresolved runs: (config, error code, a fragment of its detail)
UNRESOLVED = [
    # the chart of a2 = sin(50 t) cannot break down; it spends the budget
    (SMOOTH_CFG, "step-budget", "spent 200 step attempts"),
    # the first stage overflows in the action, and no chart coordinate moves
    ("[hamiltonian]\na2 = 1e300\na9 = 0.5\na10 = 0.5\n\n[run]\nt_end = 1\n"
     "\n[outputs]\nalphas = alphas.csv\n", "step-underflow",
     "no step of the flow resolves at t = 0.0 of t_end = 1.0"),
] + [
    # the default max_step, t_end / 50, underflows to 0 below about
    # 1.2e-322, and a step of 2e-322 / 50 is below the step-size floor
    (f"[hamiltonian]\npreset = landau\n\n[run]\nt_end = {t_end}\n\n"
     "[outputs]\nalphas = alphas.csv\n", "step-underflow",
     f"at t = 0.0 of t_end = {t_end}")
    for t_end in ("5e-324", "1e-322", "2e-322")]


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_spent_step_budget_is_one_json_error(tmp_path, capsys, monkeypatch,
                                               command):
    # a run that spends the stepper's budget, or that no step resolves, is
    # no breakdown: it is an error that names the config and writes no file
    monkeypatch.setattr(rk, "_MAX_ATTEMPTS", 200)
    for k, (text, code, fragment) in enumerate(UNRESOLVED):
        p = tmp_path / f"unresolved{k}.cfg"
        p.write_text(text)
        out = tmp_path / "out"
        argv = ["run", str(p), "--outdir", str(out)] if command == "run" \
            else ["verify", "--config", str(p)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "breakdown" not in captured.out
        (line,) = captured.err.splitlines()
        err = json.loads(line)
        assert set(err) == {"error", "detail", "at"}
        assert err["error"] == code
        assert err["at"] == str(p)
        assert fragment in err["detail"]
        assert not out.exists() and not (tmp_path / "alphas.csv").exists()


@pytest.mark.parametrize("command", ["run", "verify"])
def test_a_max_step_too_short_for_the_budget_is_one_json_error(
        tmp_path, capsys, command):
    # 1e9 steps of max_step would run for hours: the flow is refused before
    # it integrates, with an error that names the config; no file is written
    p = tmp_path / "fine.cfg"
    p.write_text("[hamiltonian]\npreset = free\n\n[run]\nt_end = 1\n"
                 "max_step = 1e-9\n\n[outputs]\nalphas = alphas.csv\n")
    out = tmp_path / "out"
    argv = ["run", str(p), "--outdir", str(out)] if command == "run" \
        else ["verify", "--config", str(p)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "breakdown" not in captured.out
    (line,) = captured.err.splitlines()
    err = json.loads(line)
    assert set(err) == {"error", "detail", "at"}
    assert err["error"] == "step-budget"
    assert err["at"] == str(p)
    assert "max_step = 1e-09" in err["detail"]
    assert not out.exists() and not (tmp_path / "alphas.csv").exists()


def test_verify_compares_a_strong_field_flow_with_the_closed_form(capsys):
    # the action passes 1e8 at t = 2.1, before omega_c t = pi: no breakdown,
    # so the closed-form row compares the whole flow.  (Rows with absolute
    # tolerances on entries of about 1e8 are not pinned either way.)
    main(["verify", "--preset", "landau", "--E-x", "1e4", "--E-y=-2e3"])
    out = capsys.readouterr().out
    assert "[NOTE] flow breakdown" not in out
    assert "[SKIP]" not in out
    assert "integrated alpha vs constant-field closed form: max error" in out


def test_verify_reduction_row_equals_the_one_state_loop_bit_for_bit():
    # the row assembles its 200 random states in stacks of 32; its error is
    # the one a loop of one-state assemble calls finds, to the bit
    draws = oracles._uniform(random.Random(20240915), (200, 2, 15))
    err = 0.0
    for a, al in draws:
        state = assemble(a, al)
        err = max(err, abs(np.linalg.det(state.nu) - 1.0),
                  float(np.max(np.abs(state.mu - reference_odes(a, al)))))
    cfg = RunConfig(CoefficientSchedule.preset("landau"), 1.0)
    name, got, _ = next(cli._verify_checks(cfg))
    assert name.startswith("reduction pipeline vs explicit equations")
    assert 0 < got == err


def test_verify_draws_span_the_half_open_interval():
    # the least and the greatest 53-bit draw are -1 and 1 - 2**-52, exactly
    zeros = SimpleNamespace(randbytes=lambda n: b"\x00" * n)
    ones = SimpleNamespace(randbytes=lambda n: b"\xff" * n)
    assert (oracles._uniform(zeros, (2, 3)) == -1.0).all()
    assert (oracles._uniform(ones, (4,)) == 1.0 - 2.0 ** -52).all()
    draws = oracles._uniform(random.Random(20240915), (200, 2, 15))
    assert draws.shape == (200, 2, 15)
    assert -1.0 <= draws.min() and draws.max() < 1.0
    assert abs(draws.mean()) < 0.05


def test_verify_adjoint_and_action_rows_equal_their_scalar_loops_bit_for_bit():
    # the adjoint row compares one stack of 25 parameters per generator and
    # the action row evaluates its Lagrangian on one stack of flow rows;
    # each error is the one the loops of one-parameter and one-state calls
    # find, to the bit
    # the benchmark's seed-7 landau input, whose action error is not 0
    cfg = RunConfig(CoefficientSchedule.preset(
        "landau", m=0.9734795173293455, omega_c=0.9836329001050563,
        E_x=0.2946697649907765, E_y=-0.1952997849560123), 2.5)
    rows = {name: err for name, err, _ in cli._verify_checks(cfg)}

    rng = random.Random(20240915)
    oracles._uniform(rng, (200, 2, 15))  # the reduction row's draws
    err, off_diagonal = 0.0, set()
    for i in range(2, 16):
        for alpha in oracles._uniform(rng, (25,)):
            pair = adjoint_matrix(i, alpha), adjoint_closed_form(i, alpha)
            err = max(err, float(np.max(np.abs(pair[0] - pair[1]))))
            # the row compares no identities: each matrix moves an entry,
            # and only the squeezes alpha12 and alpha13 act diagonally
            for m in pair:
                assert not np.array_equal(m, np.eye(15)), (i, alpha)
                if np.any(m[~np.eye(15, dtype=bool)]):
                    off_diagonal.add(i)
    assert off_diagonal == set(range(2, 16)) - {12, 13}
    # the error is 0 where numpy's vector exp rounds as the scalar one does
    # (its baseline dispatch) and not 0 under AVX-512
    assert rows["adjoint exponential vs closed-form rules"] == err

    res = integrate(cfg.schedule, cfg.t_end, rtol=cfg.rtol, atol=cfg.atol,
                    max_step=cfg.max_step)
    assert res.breakdown is None
    a = [cfg.schedule.coefficients(t) for t in res.ts.tolist()]
    ls = np.array([classical_lagrangian(a_t, alpha, reference_odes(a_t, alpha))
                   for a_t, alpha in zip(a, res.alphas)])
    err = abs(oracles._simpson(ls, res.ts) - res.alphas[-1, 0])
    assert 0 < rows["action integral of L vs accumulated alpha1"] == err


def test_a_failing_row_prints_fail_and_exits_1(capsys, monkeypatch):
    # one closed-form adjoint entry off by 1e-9: the adjoint row fails, and
    # verify still prints every row before it exits 1
    def off_by_1e9(i, alphas):
        adjoint = adjoint_closed_form(i, alphas).copy()
        adjoint[0, 0, 0] += 1e-9
        return adjoint

    monkeypatch.setattr(cli, "adjoint_closed_form", off_by_1e9)
    assert main(["verify", "--preset", "free"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert [line.split("]")[0] for line in lines] == [
        "[PASS", "[FAIL", "[SKIP", "[PASS", "[PASS", "[PASS", "[PASS"]
    assert lines[1] == ("[FAIL] adjoint exponential vs closed-form rules: "
                        "max error 1.000e-09 >= 1e-12")


def test_a_breakdown_at_t_zero_skips_every_comparison(tmp_path, capsys):
    # a squeeze a12 = -1e15 drives e^{2 alpha12} below the chart bound
    # within 1e-12 of t = 0, so the flow stops at t = 0 on alpha12; with no
    # pole ahead (alpha12 is linear in t) t_break is the stop.  This is the
    # bound's false stop (the squeeze has no pole); a real pole that close
    # to t = 0 ends in step-underflow under the step-size floor instead, so
    # a stop certified by the classical map needs another input for t = 0
    p = tmp_path / "squeeze.cfg"
    p.write_text("[hamiltonian]\na9 = 0.5\na10 = 0.5\na12 = -1e15\n\n"
                 "[run]\nt_end = 2.5\nsamples = 3\n\n[outputs]\n"
                 "alphas = alphas.csv\n")
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["t_final"] == 0.0
    assert info["breakdown"] == {"t_break": 0.0, "index": 12,
                                 "reason": "chart-end"}
    rows = (tmp_path / "alphas.csv").read_text().splitlines()
    assert rows[1:] == [",".join(["0"] * 16)] * 4
    assert main(["verify", "--config", str(p)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    # each row after the breakdown compares the identity map at t = 0 with
    # itself: it skips instead of passing on nothing
    assert captured.out.splitlines()[2:] == [
        "[NOTE] flow breakdown at t = 0 (component 12); comparisons "
        "truncated to the regular part of the flow",
        "[SKIP] integrated alpha vs constant-field closed form",
        "[SKIP] symplecticity of the Heisenberg map along the flow",
        "[SKIP] Heisenberg map vs classical fundamental matrix",
        "[SKIP] classical shift vs (alpha4, alpha5, -alpha2, -alpha3)",
        "[SKIP] action integral of L vs accumulated alpha1",
    ]


@pytest.mark.parametrize("preset", list(PRESETS))
def test_the_oracle_table_passes_on_every_preset(capsys, preset):
    assert main(["verify", "--preset", preset]) == 0, capsys.readouterr()


DRIVEN_CFG = """
[hamiltonian]
a6 = A*sin(w*t)
a9 = 0.5
a10 = 0.5
a11 = B*cos(t)
a14 = C
a15 = -C

[constants]
A = 0.5
w = 2.0
B = 0.1
C = 0.5

[run]
t_end = 4.0
"""


def test_the_oracle_table_passes_on_a_driven_schedule_that_breaks_down(
        tmp_path, capsys):
    # the flow ends in a chart-end breakdown, so every comparison (the
    # batched symplecticity row among them) runs on its truncation
    p = tmp_path / "driven.cfg"
    p.write_text(DRIVEN_CFG)
    rc = main(["verify", "--config", str(p)])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert any(line.startswith("[NOTE] flow breakdown")
               for line in out.splitlines()), out


def test_driven_runs_in_two_fresh_interpreters_write_the_same_bytes(
        tmp_path):
    # the breakdown halt and both files repeat byte for byte across
    # processes; distinct hash seeds expose a value derived from hash()
    p = tmp_path / "driven.cfg"
    p.write_text(DRIVEN_CFG + "\n[outputs]\nalphas = alphas.csv\n"
                 "heisenberg = heisenberg.json\n")
    written = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        proc = _fresh_cli("run", str(p), "--outdir", str(out),
                          PYTHONHASHSEED=seed)
        assert proc.stderr == "", proc.stderr
        assert proc.returncode == 0
        breakdown = json.loads(proc.stdout)["breakdown"]
        assert breakdown["reason"] == "chart-end"
        written.append({name: (out / name).read_bytes()
                        for name in ("alphas.csv", "heisenberg.json")})
    assert written[0] == written[1]


@pytest.mark.parametrize("argv, fragment", [
    (["verify", "--preset", "free", "--omega", "5"],
     "keys ['omega'] not valid for preset 'free'"),
    (["verify", "--preset", "free", "--omega", "5", "--lam", "3"],
     "keys ['lam', 'omega'] not valid for preset 'free'"),
    (["verify", "--config", "CFG", "--m", "7"], "--m would be ignored"),
    (["verify", "--config", "CFG", "--preset", "landau", "--t-end", "3"],
     "--preset, --t-end would be ignored"),
    (["print-odes", "--config", "CFG", "--preset", "landau"],
     "--preset would be ignored"),
], ids=["unused-parameter", "unused-parameters", "config-and-m",
        "config-and-preset", "print-odes-config-and-preset"])
def test_ignored_options_are_refused(tmp_path, capsys, argv, fragment):
    p = tmp_path / "loose.cfg"
    p.write_text(TOL_CFG)
    argv = [str(p) if arg == "CFG" else arg for arg in argv]
    assert main(argv) == 1
    err = _one_json_error(capsys.readouterr())
    assert err["error"] == "config-error"
    assert fragment in err["detail"]


@pytest.mark.parametrize("old, new, fragment", [
    ("[outputs]", "[output]", "unknown sections ['output']"),
    ("t_end = 1.0", "t_end = 1.0\nsample = 10", "[run]: unknown keys ['sample']"),
    ("t_end = 1.0", "t_end = 1.0\nmagnitude_cap = 10",
     "[run]: unknown keys ['magnitude_cap']"),
    ("times = 0.5", "time = 0.5", "[green]: unknown keys ['time']"),
    ("[outputs]", "[constants]\nw = 5\n\n[outputs]",
     "[constants]: a preset reads no constants"),
], ids=["section-output", "run-sample", "run-magnitude_cap", "green-time",
        "preset-constants"])
def test_ignored_config_input_is_refused(tmp_path, capsys, old, new,
                                         fragment):
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                           for k, v in body.items()) + "\n"
                   for name, body in NUMERIC_BASE.items())
    p = tmp_path / "bad.cfg"
    p.write_text(text.replace(old, new))
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 1
    err = _one_json_error(capsys.readouterr())
    assert err["error"] == "config-error"
    assert fragment in err["detail"]
    assert not (tmp_path / "alphas.csv").exists()


# each allocation asks for far more than 2**47 bytes, so it fails at once
@pytest.mark.parametrize("run, green", [
    ("samples = 1e16", "points = 0,0,1,0"),                   # 71 PiB
    ("", "grid_extent = 1\ngrid_points = 1e7\nsource = 0,0"),  # 728 TiB
], ids=["samples", "grid"])
def test_an_allocation_that_fails_is_one_json_error(tmp_path, capsys, run,
                                                    green):
    p = tmp_path / "big.cfg"
    p.write_text(f"[hamiltonian]\npreset = landau\n\n[run]\nt_end = 1.0\n"
                 f"{run}\n\n[green]\n{green}\n")
    assert main(["green", str(p), "--outdir", str(tmp_path)]) == 1
    err = _one_json_error(capsys.readouterr())
    assert err["error"] == "out-of-memory"
    assert err["detail"].startswith("Unable to allocate")


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    p = tmp_path / "bom.cfg"
    p.write_bytes(b"\xff\xfe[hamiltonian]\npreset = landau\n")
    assert main(["run", str(p), "--outdir", str(tmp_path)]) == 1
    err = _one_json_error(capsys.readouterr())
    assert err["error"] == "config-error"
    assert "can't decode byte 0xff" in err["detail"]


def test_degenerate_geometry_detail_prints_plain_floats(tmp_path, capsys):
    p = tmp_path / "a9.cfg"
    p.write_text("[hamiltonian]\na9 = 0.5\n\n[run]\nt_end = 0.5\n\n"
                 "[green]\npoints = 0,0,0,0\n")
    assert main(["green", str(p), "--outdir", str(tmp_path)]) == 1
    err = _one_json_error(capsys.readouterr())
    assert err["detail"] == (
        "kernel keeps a delta factor when alpha9 or alpha10 vanishes "
        "(alpha9 = 0.24999999999999997, alpha10 = 0.0); not "
        "pointwise-evaluable")


@pytest.mark.parametrize("hamiltonian, green, row_end", [
    ("preset = landau\nhbar = 1e-320", "0,0,1,0", ",nan,nan,degenerate"),
    ("preset = landau", "1e308,1e308,-1e308,1e308", ",nan,nan,degenerate"),
    ("a9 = 0.5\na10 = 0.5\na11 = 0.1\nhbar = 1e-320", "0,0,1,0",
     ",nan,nan,generic"),
    # alpha9 * alpha10 underflows to 0 in the prefactor's denominator
    ("preset = landau", "1,0.5,0,0\ntimes = 1e-320", ",nan,nan,degenerate"),
], ids=["tiny-hbar", "huge-points", "tiny-hbar-generic", "tiny-time"])
def test_green_overflow_writes_non_finite_values_silently(
        tmp_path, capsys, hamiltonian, green, row_end):
    p = tmp_path / "g.cfg"
    p.write_text(f"[hamiltonian]\n{hamiltonian}\n\n[run]\nt_end = 1.0\n\n"
                 f"[green]\npoints = {green}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["green", str(p), "--outdir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    row = (tmp_path / "green.csv").read_text().splitlines()[1]
    assert row.endswith(row_end)

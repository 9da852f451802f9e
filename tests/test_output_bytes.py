"""Byte oracles for the output writers.

The reference writers below are the plain forms of the three file formats:
``json.dump(records, indent=1)`` over one ``heisenberg_map`` call per
sample, and ``%.17g`` formatting of every float, one at a time.  The
package's writers format in bulk and must produce the same bytes.
"""

import json
import math

import numpy as np
import pytest

from quadflow import observables
from quadflow.flow import FlowResult, integrate, write_alphas_csv
from quadflow.observables import heisenberg_map, write_heisenberg_json
from quadflow.propagator import GreenSample, green, write_green_csv
from quadflow.schedule import CoefficientSchedule


def ref_alphas_csv(result, path):
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"alpha{i}" for i in range(1, 16)) + "\n")
        for t, alpha in zip(result.ts.tolist(), result.alphas):
            fh.write(",".join(f"{v:.17g}" for v in [t, *alpha]) + "\n")


def ref_heisenberg_json(result, path):
    records = []
    for t, alpha in zip(result.ts.tolist(), result.alphas):
        m = heisenberg_map(alpha)
        records.append({"t": t, "S": m.S.tolist(), "d": m.d.tolist(),
                        "phase": m.phase})
    with open(path, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


def ref_green_csv(samples, path):
    with open(path, "w") as fh:
        fh.write("x,y,t,x_prime,y_prime,re,im,branch\n")
        for s in samples:
            value = np.ravel(s.value)
            for x, y, xp, yp, re, im in zip(
                    *(np.ravel(c).tolist() for c in
                      (s.x, s.y, s.x_prime, s.y_prime, value.real,
                       value.imag))):
                fh.write(f"{x:.17g},{y:.17g},{s.t:.17g},{xp:.17g},{yp:.17g},"
                         f"{re:.17g},{im:.17g},{s.branch}\n")


def assert_same_bytes(tmp_path, write, ref, data):
    write(data, tmp_path / "out")
    ref(data, tmp_path / "ref")
    assert (tmp_path / "out").read_bytes() == (tmp_path / "ref").read_bytes()


def landau_flow():
    sched = CoefficientSchedule.landau(m=1.0, omega_c=1.0, E_x=0.3, E_y=-0.2,
                                       e=1.0)
    return integrate(sched, 2.5, samples=80)


def driven_flow():
    # the benchmark's driven schedule: it ends in a chart-end breakdown
    sched = CoefficientSchedule.from_expressions(
        {6: "A*sin(w*t)", 9: "0.5", 10: "0.5", 11: "B*cos(t)", 14: "C",
         15: "-C"}, constants=dict(A=0.5, w=2.0, B=0.1, C=0.5))
    res = integrate(sched, 4.0, samples=60)
    assert res.breakdown is not None
    return res


def grid_samples(res, hbar, times, points, source, extent=2.0, n=9):
    axis = np.linspace(-extent, extent, n)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    pts = np.concatenate([np.reshape(points, (-1, 4)),
                          np.column_stack([xs.ravel(), ys.ravel(),
                                           np.tile(source, (xs.size, 1))])])
    return [green(res.interpolate(t), hbar, *pts.T, t=t) for t in times]


@pytest.mark.parametrize("make", [landau_flow, driven_flow])
def test_alphas_and_heisenberg_bytes_match_the_plain_writers(tmp_path, make):
    res = make()
    assert_same_bytes(tmp_path, write_alphas_csv, ref_alphas_csv, res)
    assert_same_bytes(tmp_path, write_heisenberg_json, ref_heisenberg_json,
                      res)


def test_green_bytes_match_on_a_landau_run(tmp_path):
    res = landau_flow()
    samples = grid_samples(res, 1.0, (1.0, 2.5),
                           [[0.0, 0.0, 0.0, 0.0], [1.0, 0.5, -0.25, 0.125]],
                           (0.3, -0.2))
    assert {s.branch for s in samples} == {"degenerate"}
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv, samples)


def test_green_bytes_match_on_a_driven_breakdown(tmp_path):
    res = driven_flow()
    samples = grid_samples(res, 1.0, (0.4, 0.8, 1.2),
                           [[0.5, -0.5, 0.25, 0.1]], (0.1, 0.2))
    assert {s.branch for s in samples} == {"generic"}
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv, samples)


def test_green_bytes_keep_negative_zero_and_non_finite_values(tmp_path):
    res = landau_flow()
    with np.errstate(invalid="ignore"):
        samples = grid_samples(res, 1.0, (0.5,),
                               [[-0.0, 0.0, -0.0, 1e-300],
                                [math.nan, 0.5, 0.0, -0.0],
                                [0.1, -0.0, math.inf, 0.0]], (-0.0, 0.0))
    samples.append(GreenSample(np.array([0.0, -0.0]), np.array([-0.0] * 2),
                               -0.0, np.array([5e-324] * 2),
                               np.array([-1.5] * 2),
                               np.array([complex(math.nan, math.inf),
                                         complex(-math.inf, -0.0)]),
                               "generic"))
    samples.append(GreenSample(np.array(0.25), np.array(0.5), 2.0,
                               np.array(0.0), np.array(0.0),
                               np.array(1 + 2j), "landau"))
    values = np.concatenate([np.ravel(s.value) for s in samples])
    assert np.isnan(values.real).any() and np.isinf(values.imag).any()
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv, samples)
    text = (tmp_path / "out").read_text()
    assert "\n-0,0,0.5,-0,1e-300," in text
    assert ("\n0,-0,-0,4.9406564584124654e-324,-1.5,nan,inf,generic\n"
            "-0,-0,-0,4.9406564584124654e-324,-1.5,-inf,-0,generic\n") in text


def test_heisenberg_bytes_match_with_non_finite_maps(tmp_path):
    # e^{2 alpha12} overflows to inf at alpha12 = 400 and every product
    # with it is NaN; at alpha12 = 354 it is finite and e^{2 alpha12} alpha15
    # overflows to +-inf alone
    rng = np.random.default_rng(5)
    alphas = rng.uniform(-1, 1, (4, 15))
    alphas[1, 11] = 400.0
    alphas[2, [11, 14]] = 354.0, 1e10
    alphas[3, [11, 14]] = 354.0, -1e10
    res = FlowResult(ts=0.25 * np.arange(4), alphas=alphas, breakdown=None,
                     dense=None, n_rhs=0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_bytes(tmp_path, write_heisenberg_json,
                          ref_heisenberg_json, res)
    text = (tmp_path / "out").read_text()
    for spelling in ("NaN", " Infinity", "-Infinity"):
        assert spelling in text
    assert len(json.loads(text)) == 4


def test_heisenberg_writer_maps_every_sample_in_one_call(tmp_path,
                                                         monkeypatch):
    calls = []
    real = observables.heisenberg_map

    def counting(alpha):
        calls.append(np.shape(alpha))
        return real(alpha)

    monkeypatch.setattr(observables, "heisenberg_map", counting)
    res = landau_flow()
    write_heisenberg_json(res, tmp_path / "h.json")
    assert calls == [res.alphas.shape]


def test_stacked_map_equals_the_per_alpha_maps_bit_for_bit():
    rng = np.random.default_rng(31)
    alphas = np.concatenate([rng.uniform(-mag, mag, (40, 15))
                             for mag in (1e-3, 0.1, 1.0, 3.0, 20.0)])
    stacked = heisenberg_map(alphas)
    assert stacked.S.shape == (200, 4, 4) and stacked.d.shape == (200, 4)
    for k, alpha in enumerate(alphas):
        one = heisenberg_map(alpha)
        assert one.S.shape == (4, 4) and isinstance(one.phase, float)
        assert np.array_equal(stacked.S[k], one.S), alpha
        assert np.array_equal(stacked.d[k], one.d), alpha
        assert stacked.phase[k] == one.phase
    grid = heisenberg_map(alphas.reshape(10, 20, 15))
    assert np.array_equal(grid.S.reshape(200, 4, 4), stacked.S)
    assert np.array_equal(grid.phase.ravel(), alphas[:, 0])
    with pytest.raises(ValueError):
        heisenberg_map(np.zeros((3, 14)))


def test_stacked_symplectic_defect_is_the_largest_per_map_defect():
    res = landau_flow()
    alphas = res.alphas
    per_map = [heisenberg_map(a).symplectic_defect() for a in alphas]
    assert heisenberg_map(alphas).symplectic_defect() == max(per_map)
    assert max(per_map) > 0.0

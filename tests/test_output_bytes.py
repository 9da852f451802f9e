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

import digits_fuzz
from quadflow import cli, flow, observables, propagator
from quadflow.config import GreenRequest, RunConfig
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


LANDAU = RunConfig(CoefficientSchedule.preset(
    "landau", m=1.0, omega_c=1.0, E_x=0.3, E_y=-0.2, e=1.0), 2.5, samples=80)
# the benchmark's driven schedule: it ends in a chart-end breakdown
DRIVEN = RunConfig(CoefficientSchedule.from_expressions(
    {6: "A*sin(w*t)", 9: "0.5", 10: "0.5", 11: "B*cos(t)", 14: "C",
     15: "-C"}, constants=dict(A=0.5, w=2.0, B=0.1, C=0.5)), 4.0, samples=60)


def landau_flow():
    return integrate(LANDAU.schedule, LANDAU.t_end, samples=LANDAU.samples)


def driven_flow():
    res = integrate(DRIVEN.schedule, DRIVEN.t_end, samples=DRIVEN.samples)
    assert res.breakdown is not None
    return res


def grid_samples(res, hbar, times, points, source, extent=2.0, n=9):
    axis = np.linspace(-extent, extent, n)
    xs, ys = np.meshgrid(axis, axis, indexing="ij")
    pts = np.concatenate([np.reshape(points, (-1, 4)),
                          np.column_stack([xs.ravel(), ys.ravel(),
                                           np.tile(source, (xs.size, 1))])])
    return [green(res.interpolate(t), hbar, *pts.T, t=t) for t in times]


def grid_sample(res, t, axis, source, hbar=1.0):
    """A sample of grid form, as ``cli._green_samples`` takes a grid: x on
    the first axis and y on the last, broadcast from ``axis`` and the
    source."""
    axis = np.asarray(axis, dtype=float)
    return green(res.interpolate(t), hbar, axis[:, None], axis[None, :],
                 *source, t=t)


def non_finite_flow():
    # e^{2 alpha12} overflows to inf at alpha12 = 400 and every product
    # with it is NaN; at alpha12 = 354 it is finite and e^{2 alpha12} alpha15
    # overflows to +-inf alone
    rng = np.random.default_rng(5)
    alphas = rng.uniform(-1, 1, (4, 15))
    alphas[1, 11] = 400.0
    alphas[2, [11, 14]] = 354.0, 1e10
    alphas[3, [11, 14]] = 354.0, -1e10
    return FlowResult(ts=0.25 * np.arange(4), alphas=alphas, breakdown=None,
                      dense=None, n_rhs=0)


def class_values(n):
    """n doubles of every class the writers' digits tell apart (fixed
    notation below and above 1, integers, zero and -0, ties, neighbours of
    powers of ten, scientific, subnormal and non-finite), shuffled so that
    every block holds each class."""
    rng = np.random.default_rng(3)
    return digits_fuzz.families(rng, n)[:n]


def class_flow():
    # 300 rows: a block of flow._BLOCK = 256 and a partial one
    values = class_values(300 * 16).reshape(300, 16)
    return FlowResult(ts=values[:, 0], alphas=values[:, 1:], breakdown=None,
                      dense=None, n_rhs=0)


@pytest.mark.parametrize("make", [landau_flow, driven_flow, class_flow])
def test_alphas_and_heisenberg_bytes_match_the_plain_writers(tmp_path, make):
    res = make()
    assert_same_bytes(tmp_path, write_alphas_csv, ref_alphas_csv, res)
    assert_same_bytes(tmp_path, write_heisenberg_json, ref_heisenberg_json,
                      res)


@pytest.mark.parametrize("block", [1, 2, 7, 60, 80])
@pytest.mark.parametrize("make", [landau_flow, driven_flow, non_finite_flow])
def test_alphas_and_heisenberg_bytes_match_across_block_boundaries(
        tmp_path, monkeypatch, make, block):
    # landau_flow's 81 rows are one more than a block of 80 and
    # driven_flow's 61 one more than a block of 60; a block of 2 holds the
    # non-finite flow's finite first record and its NaN one
    monkeypatch.setattr(flow, "_BLOCK", block)
    monkeypatch.setattr(observables, "_BLOCK", block)
    res = make()
    assert_same_bytes(tmp_path, write_alphas_csv, ref_alphas_csv, res)
    assert_same_bytes(tmp_path, write_heisenberg_json, ref_heisenberg_json,
                      res)


def landau_green():
    samples = grid_samples(landau_flow(), 1.0, (1.0, 2.5),
                           [[0.0, 0.0, 0.0, 0.0], [1.0, 0.5, -0.25, 0.125]],
                           (0.3, -0.2))
    assert {s.branch for s in samples} == {"degenerate"}
    return samples


def driven_green():
    samples = grid_samples(driven_flow(), 1.0, (0.4, 0.8, 1.2),
                           [[0.5, -0.5, 0.25, 0.1]], (0.1, 0.2))
    assert {s.branch for s in samples} == {"generic"}
    return samples


def odd_green():
    """Samples of 84, 2 and 1 rows holding -0, nan, inf and a subnormal."""
    with np.errstate(invalid="ignore"):
        samples = grid_samples(landau_flow(), 1.0, (0.5,),
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
    return samples


def test_green_bytes_match_on_a_landau_run(tmp_path):
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv,
                      landau_green())


def test_green_bytes_match_on_a_driven_breakdown(tmp_path):
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv,
                      driven_green())


def test_green_bytes_keep_negative_zero_and_non_finite_values(tmp_path):
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv, odd_green())
    text = (tmp_path / "out").read_text()
    assert "\n-0,0,0.5,-0,1e-300," in text
    assert ("\n0,-0,-0,4.9406564584124654e-324,-1.5,nan,inf,generic\n"
            "-0,-0,-0,4.9406564584124654e-324,-1.5,-inf,-0,generic\n") in text


def constant_green():
    """A grid around the source (-0.0, 0.0), the grid again with x_prime
    0.0 on every row but one -0.0, and one point: coordinates that keep one
    bit pattern, or all but one row of it."""
    res = landau_flow()
    samples = grid_samples(res, 1.0, (1.0,), np.empty((0, 4)), (-0.0, 0.0))
    x_prime = np.zeros(samples[0].x.size)
    x_prime[40] = -0.0
    samples.append(green(res.interpolate(2.0), 1.0, samples[0].x,
                         samples[0].y, x_prime, 0.5, t=2.0))
    samples.append(green(res.interpolate(2.5), 1.0, 0.3, -0.2, 0.1, -0.0,
                         t=2.5))
    return samples


def test_green_bytes_keep_the_bits_of_a_constant_coordinate(tmp_path):
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv,
                      constant_green())
    rows = [row.split(",") for row in
            (tmp_path / "out").read_text().splitlines()[1:]]
    assert len(rows) == 81 + 81 + 1
    assert all(row[3:5] == ["-0", "0"] for row in rows[:81])
    assert [row[3] for row in rows[81:162]].count("-0") == 1
    assert rows[-1][:5] == ["0.29999999999999999", "-0.20000000000000001",
                            "2.5", "0.10000000000000001", "-0"]


def class_green():
    """A 40 x 33 grid and 1,100 points, each coordinate and value drawn
    from ``class_values``: more rows than a block of 1,024 on either
    writer path."""
    axis, values = class_values(73), class_values(2 * 40 * 33 + 6 * 1100)
    re, im = values[2:2 + 80 * 33].reshape(2, 40, 33)
    x, y, x_prime, y_prime = np.broadcast_arrays(
        axis[:40, None], axis[None, 40:], values[0], values[1])
    grid = GreenSample(x, y, 0.5, x_prime, y_prime, re + 1j * im,
                       "degenerate")
    assert propagator._grid_form([x, y, x_prime, y_prime], grid.value)
    points = values[80 * 33:].reshape(6, 1100)
    return [grid, GreenSample(*points[:2], -0.0, *points[2:4],
                              points[4] + 1j * points[5], "generic")]


@pytest.mark.parametrize("block", [1, 2, 7, propagator._BLOCK])
@pytest.mark.parametrize("make", [landau_green, driven_green, odd_green,
                                  constant_green, class_green])
def test_green_bytes_match_across_block_boundaries(tmp_path, monkeypatch,
                                                   make, block):
    # every sample above but class_green's has more rows than the block of
    # 1, 2 or 7, and the 1-row and 2-row samples end in a partial block of
    # 2 and 7; class_green's two samples are longer than the default block
    monkeypatch.setattr(propagator, "_BLOCK", block)
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv, make())


def test_green_bytes_match_on_a_sample_longer_than_a_block(tmp_path):
    # the 33 x 33 grid and two points: 1,091 rows per sample, one full
    # block and a partial one
    samples = grid_samples(landau_flow(), 1.0, (1.0, 2.5),
                           [[0.0, 0.0, 0.0, 0.0], [1.0, 0.5, -0.25, 0.125]],
                           (0.3, -0.2), n=33)
    assert samples[0].value.size == 1091 > propagator._BLOCK
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv, samples)


@pytest.fixture
def paths(monkeypatch):
    """The writer path that each sample takes, in turn."""
    taken = []
    for name in ("_write_runs", "_write_blocks"):
        def spy(*args, real=getattr(propagator, name), name=name):
            taken.append(name)
            return real(*args)
        monkeypatch.setattr(propagator, name, spy)
    return taken


@pytest.mark.parametrize("n", [1, 2, 33, 101])
@pytest.mark.parametrize("make", [landau_flow, driven_flow])
def test_green_bytes_match_on_grid_samples(tmp_path, paths, make, n):
    res = make()
    samples = [grid_sample(res, t, np.linspace(-2.0, 2.0, n), (0.3, -0.2))
               for t in (0.4, 1.2)]
    assert samples[0].value.shape == (n, n)
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv, samples)
    assert paths == ["_write_runs"] * 2
    assert len((tmp_path / "out").read_text().splitlines()) == 1 + 2 * n * n


# -0 and 0, nan, both infinities, the smallest subnormal and a tiny normal
ODD_AXIS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 0.5]


def odd_grids():
    """Grids of the odd axis and of a 33-point axis, around the source
    (-0.0, 0.0), on the degenerate and the generic branch."""
    landau, driven = landau_flow(), driven_flow()
    samples = [grid_sample(landau, 0.5, ODD_AXIS, (-0.0, 0.0)),
               grid_sample(driven, 0.4, ODD_AXIS, (-0.0, 0.0)),
               grid_sample(landau, 2.5, np.linspace(-1.0, 1.0, 33),
                           (-0.0, 0.0))]
    assert [s.branch for s in samples] == ["degenerate", "generic",
                                           "degenerate"]
    return samples


def test_green_bytes_keep_the_odd_values_of_a_grid_axis(tmp_path, paths):
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv, odd_grids())
    assert paths == ["_write_runs"] * 3
    text = (tmp_path / "out").read_text()
    assert "\n-0,0,0.5,-0,0," in text and "\n0,-0,0.5,-0,0," in text
    assert "\nnan,inf,0.5,-0,0,nan,nan,degenerate\n" in text
    assert "\n4.9406564584124654e-324,-inf,0.40000000000000002,-0,0," in text


@pytest.mark.parametrize("block", [1, 2, 7, 32])
def test_grid_bytes_match_across_block_boundaries(tmp_path, monkeypatch,
                                                  paths, block):
    # runs of 8 and 33 rows, each longer than the block: one % covers at
    # most a block of a run, and a run ends in a partial block
    monkeypatch.setattr(propagator, "_BLOCK", block)
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv, odd_grids())
    assert paths == ["_write_runs"] * 3


def test_a_2d_sample_not_of_grid_form_takes_the_block_path(tmp_path, paths):
    res = landau_flow()
    alpha, axis = res.interpolate(1.0), np.linspace(-2.0, 2.0, 9)
    # x keeps one bit pattern along the last axis, and y along the first,
    # each but for one -0.0
    x = np.broadcast_to(axis[:, None], (9, 9)).copy()
    x[4, 6] = -0.0
    y = np.broadcast_to(axis, (9, 9)).copy()
    y[2, 4] = -0.0
    samples = [
        # x on the last axis and y on the first
        green(alpha, 1.0, axis[None, :], axis[:, None], 0.3, -0.2, t=1.0),
        green(alpha, 1.0, x, axis[None, :], 0.3, -0.2, t=1.0),
        green(alpha, 1.0, axis[:, None], y, 0.3, -0.2, t=1.0),
        # x_prime varies along the first axis
        green(alpha, 1.0, axis[:, None], axis[None, :], axis[:, None], -0.2,
              t=1.0),
        # y_prime varies along the first axis of a 9 x 1 sample
        green(alpha, 1.0, axis[:, None], 0.5, 0.3, axis[:, None], t=1.0),
    ]
    assert all(s.value.ndim == 2 for s in samples)
    assert_same_bytes(tmp_path, write_green_csv, ref_green_csv, samples)
    assert paths == ["_write_blocks"] * 5
    text = (tmp_path / "out").read_text()
    assert "\n-0,1,1,0.29999999999999999,-0.20000000000000001," in text
    assert "\n-1,-0,1,0.29999999999999999,-0.20000000000000001," in text


@pytest.mark.parametrize("x_prime, path", [
    (0.3, "_write_runs"), (np.arange(40.0)[:, None], "_write_blocks")],
    ids=["grid", "blocks"])
def test_green_bytes_of_a_sample_not_yet_broadcast(tmp_path, paths, x_prime,
                                                   path):
    # coordinates of shapes (40, 1), (1, 33) and a scalar or (40, 1) with a
    # (40, 33) value write the rows of the sample broadcast by hand, on the
    # grid path and on the block path
    res = landau_flow()
    axis = np.linspace(-2.0, 2.0, 40)
    value = green(res.interpolate(1.0), 1.0, axis[:, None], axis[None, :33],
                  x_prime, -0.2, t=1.0).value
    sample = GreenSample(axis[:, None], axis[None, :33], 1.0,
                         np.asarray(x_prime), np.asarray(-0.2), value,
                         "degenerate")
    assert sample.x.shape != value.shape == (40, 33)
    x, y, xp, yp, _ = np.broadcast_arrays(sample.x, sample.y,
                                          sample.x_prime, sample.y_prime,
                                          value)
    broadcast = sample._replace(x=x, y=y, x_prime=xp, y_prime=yp)
    write_green_csv([sample], tmp_path / "out")
    ref_green_csv([broadcast], tmp_path / "ref")
    assert (tmp_path / "out").read_bytes() == (tmp_path / "ref").read_bytes()
    assert paths == [path]


def test_a_sample_that_does_not_broadcast_writes_no_byte(tmp_path):
    # x of shape (3,) and y of shape (4,), after a sample that writes: the
    # call raises before it opens the file, so a fresh path stays absent
    # and a file already there keeps its bytes
    zero = np.asarray(0.0)
    good = GreenSample(np.zeros(2), np.zeros(2), 1.0, zero, zero,
                       np.ones(2, dtype=complex), "degenerate")
    bad = GreenSample(np.zeros(3), np.zeros(4), 1.0, zero, zero,
                      np.ones(3, dtype=complex), "degenerate")
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    old.write_bytes(b"kept\n")
    for path in (fresh, old):
        with pytest.raises(ValueError):
            write_green_csv([good, bad], path)
    assert not fresh.exists()
    assert old.read_bytes() == b"kept\n"


@pytest.mark.parametrize("cfg, points", [
    (LANDAU, ((0.0, 0.0, 0.0, 0.0), (1.0, 0.5, -0.25, 0.125))),
    (DRIVEN, ((0.5, -0.5, 0.25, 0.1),)),
    (LANDAU, ()),
])
def test_the_cli_samples_write_the_flattened_layout(tmp_path, paths, cfg,
                                                    points):
    # the CLI's points sample, then its grid sample, at each time: the rows
    # of one flattened sample per time, in the same order
    res = integrate(cfg.schedule, cfg.t_end, samples=cfg.samples)
    req = GreenRequest(points=points, times=(0.4, 0.8, 1.2), grid_extent=2.0,
                       grid_points=9, source=(0.1, -0.2))
    samples = cli._green_samples(cfg._replace(green=req), res)
    flat = grid_samples(res, cfg.schedule.hbar, req.times, points, req.source)
    assert [s.value.shape for s in flat] == [(len(points) + 81,)] * 3
    write_green_csv(samples, tmp_path / "out")
    ref_green_csv(flat, tmp_path / "ref")
    assert (tmp_path / "out").read_bytes() == (tmp_path / "ref").read_bytes()
    per_time = ["_write_blocks", "_write_runs"] if points else ["_write_runs"]
    assert paths == per_time * 3


def test_heisenberg_bytes_match_with_non_finite_maps(tmp_path):
    res = non_finite_flow()
    with np.errstate(over="ignore", invalid="ignore"):
        assert_same_bytes(tmp_path, write_heisenberg_json,
                          ref_heisenberg_json, res)
    text = (tmp_path / "out").read_text()
    for spelling in ("NaN", " Infinity", "-Infinity"):
        assert spelling in text
    assert len(json.loads(text)) == 4


# a value of each piece json's float text takes, and its text: zero and
# -0, integers, fixed notation below and above 1, a tie at the 16th digit
# (both neighbours read back; the even one), scientific notation on either
# side of the fixed range and subnormal, and the non-finite spellings
PIECES = [(0.0, "0.0"), (-0.0, "-0.0"), (1.0, "1.0"), (-2.0, "-2.0"),
          (1e-4, "0.0001"), (-0.0625, "-0.0625"),
          (1e15, "1000000000000000.0"),
          (562949953421312.25, "562949953421312.2"),
          (9.999999999999999e-05, "9.999999999999999e-05"), (1e16, "1e+16"),
          (5e-324, "5e-324"), (math.nan, "NaN"), (math.inf, "Infinity"),
          (-math.inf, "-Infinity")]


@pytest.mark.parametrize("block", [1, 4, observables._BLOCK])
def test_heisenberg_bytes_of_every_piece(tmp_path, monkeypatch, block):
    # 300 records, more than a block: t and the phase, which the writer
    # copies, cycle through the pieces; the other alphas are random, so
    # the maps take the digit paths
    monkeypatch.setattr(observables, "_BLOCK", block)
    values, texts = zip(*PIECES)
    rng = np.random.default_rng(42)
    alphas = rng.uniform(-1, 1, (300, 15))
    alphas[:, 0] = np.resize(values, 300)
    ts = np.resize(values[3:] + values[:3], 300)
    res = FlowResult(ts=ts, alphas=alphas, breakdown=None, dense=None,
                     n_rhs=0)
    assert_same_bytes(tmp_path, write_heisenberg_json, ref_heisenberg_json,
                      res)
    text = (tmp_path / "out").read_text()
    for spelling in texts:
        assert f'"phase": {spelling}\n' in text
        assert f'"t": {spelling},\n' in text


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

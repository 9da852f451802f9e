"""Green-function branches: mutual agreement, limits, and structure."""

import cmath
import math

import numpy as np
import pytest

from quadflow.errors import (BranchUnavailable, DegenerateGeometry,
                             SingularTime)
from quadflow.flow import constant_field_closed_form, integrate
from quadflow.observables import heisenberg_map
from quadflow.oracles import GaussianState, landau_kernel, phase_parts
from quadflow.propagator import (GreenSample, QuadraticPhaseKernel,
                                 degenerate_kernel, generic_kernel, green,
                                 green_kernel, write_green_csv)
from quadflow.schedule import CoefficientSchedule

RNG = np.random.default_rng(2024)


def landau_alpha(t, E_x=0.0, E_y=0.0):
    return constant_field_closed_form(1.0, 1.0, E_x, E_y, 1.0, t=t)


def free_alpha(t, m=1.0):
    al = np.zeros(15)
    al[8] = al[9] = t / (2 * m)
    return al


# -- auxiliary quantities ----------------------------------------------------

def test_aux_f_g_collapse_for_symmetric_dilatations():
    # with alpha14 = alpha15 = 0 the source combinations collapse to
    # f = e^(2 a12) x' and g = e^(2 a13) y', so the (X - f)^2/(4 a9) and
    # (Y - g)^2/(4 a10) squares couple x to x' and y to y' only
    al = np.zeros(15)
    al[8], al[9] = 0.25, 0.4
    al[11] = al[12] = 0.3   # alpha12 = alpha13
    M, _, _ = phase_parts(degenerate_kernel(al, 1.0))
    np.testing.assert_allclose(
        M, np.diag([-math.exp(0.6) / (2 * 0.25), -math.exp(0.6) / (2 * 0.4)]),
        rtol=1e-14, atol=1e-14)


def test_aux_eta_sq_definition():
    # |prefactor| = |2i eta| / (4 pi hbar |alpha11|) with
    # |eta|^2 = |eta^2| = |alpha11^2 / (alpha11^2 - 4 alpha9 alpha10)|
    al = np.zeros(15)
    al[8], al[9], al[10] = 0.2, 0.3, 0.4
    eta_sq = 0.4 ** 2 / (0.4 ** 2 - 4 * 0.2 * 0.3)
    assert abs(generic_kernel(al, 1.0).prefactor) == pytest.approx(
        math.sqrt(abs(eta_sq)) / (2 * math.pi * 0.4), rel=1e-14)


# -- landau branch -----------------------------------------------------------

def test_landau_half_period_origin_value():
    # E = 0 at omega_c*t = pi: alpha1..alpha5 vanish (the factorization
    # parameters alpha6.. diverge there, but the propagator formula only
    # carries the drift/action shifts, which stay finite)
    kern = landau_kernel(1.0, 1.0, 1.0, np.zeros(15), math.pi)
    assert kern(0.0, 0.0, 0.0, 0.0) == pytest.approx(1.0 / (4 * math.pi))
    assert kern.branch == "landau"


def test_landau_prefactor_magnitude_and_divergence():
    al = landau_alpha(1.3)
    g = landau_kernel(1.0, 1.0, 1.0, al, 1.3)(0.4, -0.2, 0.1, 0.9)
    assert abs(g) == pytest.approx(
        1.0 / (4 * math.pi * abs(math.sin(0.65))))
    with pytest.raises(SingularTime):
        landau_kernel(1.0, 1.0, 1.0, np.zeros(15), 2 * math.pi)
    with pytest.raises(SingularTime):
        landau_kernel(1.0, 1.0, 1.0, np.zeros(15), 0.0)


def test_landau_weak_field_limit_is_free_kernel():
    # omega_c -> 0 at fixed t: prefactor -> m/(2 pi hbar t) and the whole
    # kernel approaches the free one
    t, m = 0.7, 1.3
    wc = 1e-7  # kernel difference shrinks linearly in omega_c
    al = constant_field_closed_form(m, wc, t=t)
    weak = landau_kernel(m, wc, 1.0, al, t)
    free = degenerate_kernel(free_alpha(t, m), 1.0)
    pts = RNG.uniform(-1.5, 1.5, (5, 4))
    for x, y, xp, yp in pts:
        g_w = weak(x, y, xp, yp)
        g_f = free(x, y, xp, yp)
        assert abs(g_w - g_f) / abs(g_f) < 1e-6
    pref = m * wc / (4 * math.pi * math.sin(wc * t / 2))
    assert pref == pytest.approx(m / (2 * math.pi * t), rel=1e-6)


# -- degenerate branch -------------------------------------------------------

def test_degenerate_matches_landau_on_constant_field_parameters():
    for wct in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        al = landau_alpha(wct, E_x=0.3, E_y=-0.2)
        kd = degenerate_kernel(al, 1.0)
        kl = landau_kernel(1.0, 1.0, 1.0, al, wct)
        for x, y, xp, yp in RNG.uniform(-2, 2, (5, 4)):
            gd = kd(x, y, xp, yp)
            gl = kl(x, y, xp, yp)
            assert abs(gd - gl) / abs(gl) < 1e-9


def test_degenerate_free_particle_factorizes():
    t, m = 0.7, 1.3
    a9 = t / (2 * m)

    def kernel_1d(d):
        return cmath.exp(1j * d * d / (4 * a9)) / math.sqrt(4 * math.pi * a9)

    kern = degenerate_kernel(free_alpha(t, m), 1.0)
    for x, y, xp, yp in RNG.uniform(-2, 2, (5, 4)):
        gd = kern(x, y, xp, yp)
        assert abs(gd - kernel_1d(x - xp) * kernel_1d(y - yp)) < 1e-14


def test_degenerate_geometry_error():
    al = np.zeros(15)
    al[5] = 0.3  # quadratic terms present but no kinetic spreading
    with pytest.raises(DegenerateGeometry,
                       match=r"\(alpha9 = 0\.0, alpha10 = 0\.0\)"):
        degenerate_kernel(al, 1.0)
    al[8] = 0.4  # alpha9 != 0, alpha10 still 0: y-delta survives
    with pytest.raises(DegenerateGeometry):
        degenerate_kernel(al, 1.0)


# -- generic branch ----------------------------------------------------------

def generic_alpha():
    al = RNG.uniform(-0.4, 0.4, 15)
    al[8], al[9], al[10] = 0.37, 0.29, 0.21
    return al


def test_generic_magnitude_is_coordinate_independent():
    kern = generic_kernel(generic_alpha(), 1.0)
    vals = [kern(*pt) for pt in RNG.uniform(-3, 3, (6, 4))]
    mags = [abs(v) for v in vals]
    assert max(mags) - min(mags) < 1e-12 * max(mags)


def test_generic_converges_to_degenerate():
    al = generic_alpha()
    al[10] = 0.0
    x, y, xp, yp = 0.3, -0.5, 0.8, 0.1
    gd = degenerate_kernel(al, 1.0)(x, y, xp, yp)
    errs = []
    for s in (1e-2, 1e-3, 1e-4):
        al2 = al.copy()
        al2[10] = s
        gg = generic_kernel(al2, 1.0)(x, y, xp, yp)
        errs.append(abs(gg - gd))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_generic_branch_preconditions():
    al = np.zeros(15)
    al[8], al[9] = 0.3, 0.3     # alpha11 = 0
    with pytest.raises(BranchUnavailable, match=r"^\|alpha11\| = 0\.0 "):
        generic_kernel(al, 1.0)
    al[10] = 2 * math.sqrt(0.3 * 0.3)  # alpha11^2 == 4 a9 a10
    with pytest.raises(BranchUnavailable):
        generic_kernel(al, 1.0)
    al2 = np.zeros(15)
    al2[10] = 0.5               # alpha9 == 0
    with pytest.raises(BranchUnavailable):
        generic_kernel(al2, 1.0)


def test_generic_smearing_matches_affine_map():
    # schedule with a genuine p_x p_y coupling so the generic branch applies
    from quadflow.oracles import apply_kernel

    sched = CoefficientSchedule.from_expressions(
        {9: "0.5", 10: "0.5", 11: "0.3", 6: "0.1", 2: "0.2"})
    res = integrate(sched, 0.7)
    al = res.alphas[-1]
    assert abs(al[10]) > 1e-3
    kern = generic_kernel(al, 1.0)
    state = GaussianState.separable([0.4, -0.2, 0.3, 0.1], 1.0, 1.0)
    out = apply_kernel(kern, state, extent=6.5, points=160, hbar=1.0)
    mean_pred, _ = heisenberg_map(al).push_gaussian(state.mean,
                                                    state.covariance)
    assert np.max(np.abs(out.mean - mean_pred)) < 1e-3
    assert abs(out.norm - 1.0) < 1e-3


# -- dispatch and sampling ---------------------------------------------------

def test_green_dispatch_selects_branch():
    al_free = free_alpha(0.5)
    s = green(al_free, 1.0, 0.1, 0.2, 0.3, 0.4)
    assert s.branch == "degenerate"
    al_gen = generic_alpha()
    s2 = green(al_gen, 1.0, 0.1, 0.2, 0.3, 0.4)
    assert s2.branch == "generic"
    assert s2.value == generic_kernel(al_gen, 1.0)(0.1, 0.2, 0.3, 0.4)
    assert s.value == degenerate_kernel(al_free, 1.0)(0.1, 0.2, 0.3, 0.4)
    assert green_kernel(al_gen, 1.0).branch == "generic"
    assert green_kernel(al_free, 1.0).branch == "degenerate"


def test_green_on_arrays_matches_per_point_calls():
    # both branches; squares use np.square, so the broadcast evaluation
    # reproduces the per-point one bit for bit
    xs, ys = RNG.uniform(-3, 3, (2, 40))
    for al, branch in ((generic_alpha(), "generic"),
                       (free_alpha(0.5), "degenerate")):
        s = green(al, 1.0, xs, ys, 0.3, -0.7, t=0.5)
        assert s.branch == branch
        assert s.value.shape == s.x_prime.shape == (40,)
        for i in range(40):
            p = green(al, 1.0, xs[i], ys[i], 0.3, -0.7, t=0.5)
            assert p.value.shape == ()
            assert s.value[i] == p.value


def test_kernel_phase_decomposes_into_out_src_and_coupling():
    t = 1.1
    al = landau_alpha(t, E_x=0.2)
    kernels = {"landau": landau_kernel(1.0, 1.0, 1.0, al, t),
               "degenerate": degenerate_kernel(al, 1.0),
               "generic": generic_kernel(generic_alpha(), 1.0)}
    x, y, xp, yp = RNG.uniform(-3, 3, (4, 20))
    for branch, kern in kernels.items():
        assert kern.branch == branch
        M, phase_out, phase_src = phase_parts(kern)
        cross = (x * (M[0, 0] * xp + M[0, 1] * yp)
                 + y * (M[1, 0] * xp + M[1, 1] * yp))
        np.testing.assert_allclose(
            phase_out(x, y) + phase_src(xp, yp) + cross,
            kern.phase(x, y, xp, yp), rtol=1e-12, atol=1e-12)


def test_a_kernel_calls_its_phase_only_when_it_is_evaluated():
    calls = []

    def phase(x, y, xp, yp):
        calls.append((x, y, xp, yp))
        return x * xp + y * yp

    kern = QuadraticPhaseKernel(0.5, phase, "counting")
    assert calls == []
    assert kern(1.0, 2.0, 0.5, 0.25) == pytest.approx(0.5 * cmath.exp(1j))
    assert calls == [(1.0, 2.0, 0.5, 0.25)]


@pytest.mark.parametrize("build", [
    lambda al: degenerate_kernel(al, 1.0),
    lambda al: generic_kernel(al, 1.0),
    lambda al: landau_kernel(1.0, 1.0, 1.0, al, 1.0),
], ids=["degenerate", "generic", "landau"])
def test_kernels_refuse_an_alpha_that_is_not_a_15_vector(build):
    al = np.full(14, 0.3)
    with pytest.raises(ValueError, match="alpha must be a 15-vector"):
        build(al)


def _analytic_smear(kernel, state, X, Y, hbar):
    """Exact Gaussian integral of a quadratic-phase kernel against a
    separable Gaussian; no grid quadrature, hence no aliasing limits."""
    M, phase_out, ps = phase_parts(kernel)
    p00 = ps(0.0, 0.0)
    A = np.array([
        [ps(1.0, 0.0) + ps(-1.0, 0.0) - 2 * p00,
         ps(1.0, 1.0) - ps(1.0, 0.0) - ps(0.0, 1.0) + p00],
        [0.0, ps(0.0, 1.0) + ps(0.0, -1.0) - 2 * p00],
    ])
    A[1, 0] = A[0, 1]
    b = np.array([(ps(1.0, 0.0) - ps(-1.0, 0.0)) / 2,
                  (ps(0.0, 1.0) - ps(0.0, -1.0)) / 2])
    sx, sy = state.sigmas
    q = state.mean[:2]
    p = state.mean[2:]
    D = np.diag([1 / (4 * sx ** 2), 1 / (4 * sy ** 2)])
    amp = (2 * math.pi * sx ** 2) ** -0.25 * (2 * math.pi * sy ** 2) ** -0.25
    Q = 2 * D - 1j * A
    Qinv = np.linalg.inv(Q)
    det = np.linalg.det(Q)
    out = np.empty(X.shape, dtype=complex)
    for idx in np.ndindex(X.shape):
        r = np.array([X[idx], Y[idx]])
        k = M.T @ r
        v = 2 * D @ q + 1j * (b + k + p / hbar)
        integral = (2 * math.pi / cmath.sqrt(det)
                    * cmath.exp(0.5 * v @ Qinv @ v - q @ D @ q + 1j * p00))
        out[idx] = (kernel.prefactor * amp
                    * cmath.exp(1j * phase_out(*r)) * integral)
    return out


def test_short_time_kernel_is_distributionally_the_identity():
    # free kernel at t = 1e-3 smeared against a unit Gaussian returns the
    # Gaussian: L2 error below 1e-3 after removing the global phase
    t = 1e-3
    kern = degenerate_kernel(free_alpha(t), 1.0)
    state = GaussianState.separable([0.0, 0.0, 0.0, 0.0], 1.0, 1.0)
    axis = np.linspace(-5, 5, 41)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    dx = axis[1] - axis[0]
    psi_t = _analytic_smear(kern, state, X, Y, 1.0)
    psi_0 = state.wavefunction(X, Y)
    phase = np.angle(np.sum(np.conj(psi_0) * psi_t))
    err = math.sqrt(float(np.sum(np.abs(psi_t * np.exp(-1j * phase)
                                        - psi_0) ** 2)) * dx * dx)
    assert err < 1e-3


def test_green_csv_output(tmp_path):
    al = free_alpha(0.5)
    xs, ys = RNG.uniform(-1, 1, (2, 4))
    samples = [green(al, 1.0, xs, ys, 0.0, 0.0, t=0.5),
               green(al, 1.0, 0.1, 0.2, 0.0, 0.0, t=0.25)]
    path = tmp_path / "green.csv"
    write_green_csv(samples, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,t,x_prime,y_prime,re,im,branch"
    assert len(lines) == 6   # one row per broadcast element
    for i, line in enumerate(lines[1:5]):
        cells = line.split(",")
        assert cells[-1] == "degenerate"
        assert (float(cells[0]), float(cells[1]), float(cells[2])) == \
            (xs[i], ys[i], 0.5)
        assert complex(float(cells[5]), float(cells[6])) == \
            samples[0].value[i]
    assert lines[5].split(",")[:3] == ["0.10000000000000001",
                                       "0.20000000000000001", "0.25"]


def test_green_sample_fields():
    s = GreenSample(1.0, 2.0, 0.3, 0.4, 0.5, 1 + 2j, "generic")
    assert s.value == 1 + 2j
    assert s.branch == "generic"

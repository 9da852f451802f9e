"""Brute-force and closed-form references used to cross-check the pipeline.

Only ``verify`` loads this module.  Two brute-force oracles share no code
with the adjoint/reduction machinery beyond the coefficient schedule:

* :func:`fundamental_matrix` integrates the *classical* equations of motion
  dz/dt = A(t) z + b(t) on z = (x, y, p_x, p_y), with A = J (2H(t))
  assembled directly from the symmetric matrix H of the quadratic form and
  b = J l from the linear coefficients.  The resulting flow map (S, d) must match
  the Heisenberg-picture affine map.

* :func:`apply_kernel` pushes a Gaussian wavepacket through a
  :class:`QuadraticPhaseKernel` by quadrature on a square grid, summed as
  matrix products, and extracts means,
  covariances (position side from |psi|^2, momentum side from the FFT) and
  the norm.

Transcribed closed forms: :func:`heisenberg_closed_form` (Heisenberg map),
:func:`classical_lagrangian` (action alpha1) and :func:`landau_kernel` (the
degenerate Green branch on the constant-field charge).  verify's random
draws (:func:`_uniform`) and its action quadrature (:func:`_simpson`) live
here too, off the run path.

The classical integrator is Gragg-Bulirsch-Stoer extrapolation (Bulirsch &
Stoer, Numer. Math. 8, 1, 1966; Hairer, Norsett & Wanner, Solving ODEs I,
section II.9): each macro step runs the modified midpoint rule with 2, 4,
..., 16 substeps and extrapolates the eight results to zero step size in
h**2 by Aitken-Neville, and the step size follows the difference of the
last two diagonal entries of that tableau.  It is another method family
than the flow's embedded Dormand-Prince 5(4) pair and shares no code with
:mod:`.rk`, so an error in the stepper cannot cancel out of the comparison.
On this smooth linear 20-component system it takes long steps: three
accepted on the landau preset to t = 2.5.  A macro step evaluates the
schedule once per distinct node time and builds every A(t), b(t) in one
stacked :func:`classical_system` call.  The package needs no scipy: the
tests use scipy's integrators as the independent reference for this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridUnderresolved, SingularTime, StepBudget
from .observables import SYMPLECTIC_J, AffineSymplecticMap
from .propagator import QuadraticPhaseKernel, _check_alpha
from .schedule import N_GENERATORS, CoefficientSchedule

__all__ = ["hamiltonian_matrix", "classical_system", "heisenberg_closed_form",
           "classical_lagrangian", "fundamental_matrix", "landau_kernel",
           "phase_parts", "GaussianState", "apply_kernel"]
_CHUNK = 256   # output points per quadrature block in apply_kernel


# hamiltonian_matrix: H[i, j] = _H_WEIGHT[i, j] * a[_H_SLOT[i, j]] / 2
_H_SLOT = np.array([[6, 8, 12, 14], [8, 7, 15, 13],
                    [12, 15, 9, 11], [14, 13, 11, 10]]) - 1
_H_WEIGHT = np.array([[2.0, 1.0, 2.0, 1.0], [1.0, 2.0, 1.0, 2.0],
                      [2.0, 1.0, 2.0, 1.0], [1.0, 2.0, 1.0, 2.0]])


def hamiltonian_matrix(a) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric H and linear l of the classical value z^T H z + l . z + a1.

    z = (x, y, p_x, p_y), and H collects the quadratic coefficients
    symmetrically:

        H = [[2a6,  a8,  2a12, a14],        l = (a2, a3, a4, a5)
             [a8,  2a7,  a15,  2a13],
             [2a12, a15, 2a9,  a11],
             [a14, 2a13, a11,  2a10]] / 2

    ``a`` is a 15-vector or a (..., 15) stack; H and l carry its stack axes.
    """
    a = np.asarray(a, dtype=float)
    return 0.5 * (_H_WEIGHT * a[..., _H_SLOT]), a[..., 1:5].copy()


def classical_system(a) -> tuple[np.ndarray, np.ndarray]:
    """Linear part A = J (2H) and shift b = J l of Hamilton's equations,
    for a 15-vector or a (..., 15) stack of coefficients.

    J A is symmetric by construction (A is a Hamiltonian matrix).
    """
    H, l = hamiltonian_matrix(a)
    return SYMPLECTIC_J @ (2 * H), l @ SYMPLECTIC_J.T


def heisenberg_closed_form(alpha) -> AffineSymplecticMap:
    """Transcribed closed-form coefficients of the Heisenberg operators (oracle)."""
    alpha = np.asarray(alpha, dtype=float)
    (a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15) = alpha[1:]
    e12, e13 = math.exp(2 * a12), math.exp(2 * a13)
    em12, em13 = math.exp(-2 * a12), math.exp(-2 * a13)
    k = a14 * a15 + 1.0
    gx = 4 * a6 * a9 + a8 * a11 - 1.0
    gy = 4 * a7 * a10 + a8 * a11 - 1.0
    S = np.array([
        [e12,
         e12 * a15,
         2 * em12 * a9 * k - em13 * a11 * a15,
         em13 * a11 - 2 * em12 * a9 * a14],
        [e13 * a14,
         e13 * k,
         em12 * a11 * k - 2 * em13 * a10 * a15,
         2 * em13 * a10 - em12 * a11 * a14],
        [-(2 * e12 * a6 + e13 * a8 * a14),
         -(2 * e12 * a6 * a15 + e13 * a8 * k),
         2 * em13 * (a8 * a10 + a6 * a11) * a15 - em12 * gx * k,
         em12 * gx * a14 - 2 * em13 * (a8 * a10 + a6 * a11)],
        [-(e12 * a8 + 2 * e13 * a7 * a14),
         -(e12 * a8 * a15 + 2 * e13 * a7 * k),
         em13 * gy * a15 - 2 * em12 * (a8 * a9 + a7 * a11) * k,
         2 * em12 * (a8 * a9 + a7 * a11) * a14 - em13 * gy],
    ])
    d = np.array([a4, a5, -a2, -a3])
    return AffineSymplecticMap(S=S, d=d, phase=float(alpha[0]))


def classical_lagrangian(a, alpha, alpha_dot):
    """Classical Lagrangian in the transformation-parameter variables.

    Along a valid flow L equals alpha1_dot, so the accumulated phase alpha1
    is the classical action integral.  ``a``, ``alpha`` and ``alpha_dot``
    are 15-vectors, which give a float, or (..., 15) stacks whose stack
    axes broadcast, which give an ndarray of the broadcast stack shape;
    every entry has the bits of the one-state call.
    """
    rows = [np.asarray(x, dtype=float) for x in (a, alpha, alpha_dot)]
    if any(x.shape[-1:] != (N_GENERATORS,) for x in rows):
        raise ValueError("a, alpha and alpha_dot must be 15-vectors or "
                         "stacks of them, got shapes "
                         f"{[x.shape for x in rows]}")
    # 1-based views of the components keep the transcription readable
    a, al, ad = ((None, *np.moveaxis(x, -1, 0)) for x in rows)
    L = (a[9] * al[2] ** 2 - a[4] * al[2] + a[11] * al[3] * al[2]
         - 2 * a[12] * al[4] * al[2] - a[15] * al[5] * al[2]
         + a[10] * al[3] ** 2 + a[6] * al[4] ** 2 + a[7] * al[5] ** 2
         - a[5] * al[3] + a[2] * al[4] - a[14] * al[3] * al[4]
         + a[3] * al[5] - 2 * a[13] * al[3] * al[5] + a[8] * al[4] * al[5]
         + a[1] - al[4] * ad[2] - al[5] * ad[3])
    return float(L) if np.ndim(L) == 0 else L


def _uniform(rng, shape) -> np.ndarray:
    """verify's draws: floats uniform on [-1, 1) in ``shape``, the top 53
    bits of each of the :class:`random.Random` ``rng``'s little-endian
    64-bit words, times 2**-52, minus 1 (exact)."""
    words = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8")
    return ((words >> 11) * 2.0 ** -52 - 1.0).reshape(shape)


def _simpson(y, x) -> float:
    """Composite Simpson sum of the samples ``y`` on the uniform grid ``x``,
    the value scipy.integrate.simpson gives for every point count: 0 for
    one point, the trapezoid for two, and for an odd number N of intervals
    Simpson on the first N - 1 plus Cartwright's h/12 (5 y_N + 8 y_{N-1} -
    y_{N-2}) for the last."""
    n = len(y)
    if n < 2:
        return 0.0
    h = (x[-1] - x[0]) / (n - 1)
    if n == 2:
        return 0.5 * h * (y[0] + y[1])
    m = n - 1 + n % 2          # the points of the even-interval part
    total = h / 3 * (y[0] + 4 * np.sum(y[1:m - 1:2])
                     + 2 * np.sum(y[2:m - 1:2]) + y[m - 1])
    if m < n:
        total += h / 12 * (5 * y[-1] + 8 * y[-2] - y[-3])
    return float(total)


# Gragg-Bulirsch-Stoer: each macro step of length H runs the modified
# midpoint rule with n_j = 2j substeps, j = 1..8, and extrapolates the eight
# results to h = 0 in h**2.  Substep k of sequence j starts at the node
# t0 + H k / n_j; _NODES holds the distinct fractions k / n_j, and
# _NODE_OF[k] the node of substep k in each sequence still running there,
# the j >= k // 2 (0-based) with n_j > k.
_SUBSTEPS = np.arange(2, 17, 2)
_LCM = math.lcm(*_SUBSTEPS.tolist())
_keys = [[k * (_LCM // n) for k in range(n)] for n in _SUBSTEPS.tolist()]
_distinct = sorted(set(sum(_keys, [])))
_NODES = np.array(_distinct) / _LCM
_NODE_OF = [np.searchsorted(_distinct, [row[k] for row in _keys[k // 2:]])
            for k in range(16)]
# Aitken-Neville in h**2: column c divides by (n_j / n_{j-c})**2 - 1
_NEVILLE = [((_SUBSTEPS[c:] / _SUBSTEPS[:-c]) ** 2 - 1)[:, None, None]
            for c in range(1, 8)]
# |T_88 - T_77| estimates the error of T_77, and the step keeps T_88, so
# the map is well inside the tolerances; a tenth of them is a margin for an
# estimate that reads low (the tests' cases meet 1e-10 relative at 1.0 too)
_TOL_SCALE = 0.1
_GROW, _SHRINK = 4.0, 0.2
_RTOL, _ATOL = 1e-10, 1e-12   # fundamental_matrix's tolerances
# macro-step attempts, accepted or rejected, before fundamental_matrix
# gives up: over 100 times the 88 of the longest contract-fuzz row
_MAX_ATTEMPTS = 10_000


@np.errstate(over="ignore", invalid="ignore")
def _gbs_step(schedule, t0, H, Y0):
    """One macro step from (t0, Y0) of the augmented (5, 5) state; returns
    the last two diagonal entries T_88, T_77 of the extrapolation tableau."""
    a = [schedule.coefficients(s) for s in (t0 + H * _NODES).tolist()]
    M = np.zeros((len(a), 5, 5))
    M[:, :4, :4], M[:, :4, 4] = classical_system(a)
    h = (H / _SUBSTEPS)[:, None, None]
    prev = np.broadcast_to(Y0, (8, 5, 5)).copy()
    cur = prev + h * (M[0] @ Y0)
    for k in range(1, 16):
        lo = k // 2
        nxt = prev[lo:] + 2 * h[lo:] * (M[_NODE_OF[k]] @ cur[lo:])
        prev[lo:] = cur[lo:]
        cur[lo:] = nxt
    for c, denominator in enumerate(_NEVILLE, 1):
        cur[c:] += (cur[c:] - cur[c - 1:-1]) / denominator
    return cur[7], cur[6]


def fundamental_matrix(schedule: CoefficientSchedule,
                       t: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical flow map: z(t) = S z(0) + d.

    Integrates dZ/dt = A(t) Z with Z(0) = I alongside the inhomogeneous
    shift, by Gragg-Bulirsch-Stoer extrapolation at relative tolerance
    1e-10 and absolute tolerance 1e-12.
    Raises StepBudget after ``_MAX_ATTEMPTS`` macro-step attempts short of
    t, and RuntimeError when a step falls below 16 eps t without a finite
    result within the tolerances.
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"t = {t!r} must be finite and non-negative")
    if t == 0:
        return np.eye(4), np.zeros(4)
    # (S | d) with the constant row (0, 0, 0, 0, 1): dY/dt = [A b; 0 0] Y
    Y = np.eye(5)
    t0, H, floor = 0.0, t, 16 * np.finfo(float).eps * t
    attempts = 0
    while t0 < t:
        if attempts == _MAX_ATTEMPTS:
            raise StepBudget(f"the classical oracle spent {attempts} step "
                             f"attempts and reached only t = {t0!r} of "
                             f"{t!r}")
        attempts += 1
        last = t0 + 1.05 * H >= t   # no sliver of a step before t
        if last:
            H = t - t0
        new, old = _gbs_step(schedule, t0, H, Y)
        scale = _ATOL + _RTOL * np.maximum(np.abs(Y), np.abs(new))
        err = float(np.max(np.abs(new - old) / scale)) / _TOL_SCALE
        # the estimate goes as H**15, the local error of T_77
        if err <= 1.0:
            t0, Y = t if last else t0 + H, new
            H *= min(_GROW, 0.9 * err ** (-1 / 15)) if err else _GROW
            continue
        H *= max(_SHRINK, 0.9 * err ** (-1 / 15)) if err < math.inf \
            else _SHRINK   # a non-finite state shrinks the most
        if H < floor:
            raise RuntimeError(f"classical oracle integration failed: no "
                               f"step of {floor!r} or more resolves at "
                               f"t = {t0!r} of {t!r}")
    return Y[:4, :4].copy(), Y[:4, 4].copy()


def landau_kernel(m, omega_c, hbar, alpha, t) -> QuadraticPhaseKernel:
    """Constant-field propagator with prefactor m*omega_c / (4*pi*hbar*
    sin(omega_c t/2)); raises SingularTime where that diverges.  Only
    alpha1..alpha5 are used (action and drift shifts from the electric
    field); the magnetic part is carried by the cyclotron phase."""
    al = np.concatenate(([0.0], _check_alpha(alpha)))
    th = 0.5 * omega_c * t
    s, c = math.sin(th), math.cos(th)
    if abs(s) < 1e-12:
        raise SingularTime(
            f"prefactor diverges at omega_c*t = {omega_c * t!r} (mod 2*pi)")
    pref = m * omega_c / (4 * math.pi * hbar * s)
    kq = m * omega_c / (4 * hbar * s)

    def phase(x, y, xp, yp):
        X = x - al[4]
        Y = y - al[5]
        return (-(al[1] + al[2] * x + al[3] * y) / hbar
                + kq * ((np.square(X) + np.square(Y) + np.square(xp)
                         + np.square(yp)) * c
                        - 2 * c * xp * X - 2 * s * xp * Y
                        + 2 * s * yp * X - 2 * c * yp * Y))

    return QuadraticPhaseKernel(pref, phase, "landau")


def phase_parts(kernel: QuadraticPhaseKernel):
    """The exact split of a quadratic kernel phase,

        phase = phase_out(x, y) + phase_src(x', y') + (x, y) M (x', y')^T,

    as ``(M, phase_out, phase_src)``; the 2x2 coupling M comes from the
    four-point second-difference rule, which is exact for quadratics."""
    phase, unit = kernel.phase, ((1.0, 0.0), (0.0, 1.0))
    p00 = phase(0.0, 0.0, 0.0, 0.0)
    coupling = np.array([[phase(*r, *s) - phase(*r, 0.0, 0.0)
                          - phase(0.0, 0.0, *s) + p00 for s in unit]
                         for r in unit])
    return (coupling, lambda x, y: phase(x, y, 0.0, 0.0) - p00,
            lambda x_prime, y_prime: phase(0.0, 0.0, x_prime, y_prime))


@dataclass
class GaussianState:
    """Gaussian wavepacket summary: first and second moments on (x, y, p_x, p_y).

    Construction validates the uncertainty bound Sigma + i*hbar*J/2 >= 0
    (Hermitian positive semidefinite) unless ``validate=False`` - measured
    moments from a finite grid sit within quadrature noise of saturation.
    """

    mean: np.ndarray
    covariance: np.ndarray
    norm: float = 1.0
    hbar: float = 1.0
    validate: bool = True
    sigmas: tuple = field(default=None)   # (sigma_x, sigma_y) when synthesizable

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if self.mean.shape != (4,) or self.covariance.shape != (4, 4):
            raise ValueError("mean must be a 4-vector, covariance 4x4")
        if self.validate:
            bound = self.covariance + 0.5j * self.hbar * SYMPLECTIC_J
            lam = np.linalg.eigvalsh(bound)
            if lam.min() < -1e-9 * max(1.0, float(np.abs(self.covariance).max())):
                raise ValueError(
                    f"covariance violates the uncertainty bound "
                    f"(min eigenvalue {lam.min()!r})")

    @classmethod
    def separable(cls, mean, sigma_x, sigma_y, hbar=1.0) -> "GaussianState":
        """Minimum-uncertainty product state with widths (sigma_x, sigma_y)."""
        cov = np.diag([sigma_x ** 2, sigma_y ** 2,
                       (hbar / (2 * sigma_x)) ** 2,
                       (hbar / (2 * sigma_y)) ** 2])
        return cls(mean=np.asarray(mean, dtype=float), covariance=cov,
                   norm=1.0, hbar=hbar, sigmas=(sigma_x, sigma_y))

    def wavefunction(self, X, Y) -> np.ndarray:
        """Position wavefunction on a grid (only for separable states)."""
        if self.sigmas is None:
            raise ValueError("wavefunction synthesis needs a separable state")
        sx, sy = self.sigmas
        x0, y0, px0, py0 = self.mean
        amp = (2 * math.pi * sx ** 2) ** -0.25 * (2 * math.pi * sy ** 2) ** -0.25
        return amp * np.exp(
            -(X - x0) ** 2 / (4 * sx ** 2) - (Y - y0) ** 2 / (4 * sy ** 2)
            + 1j * (px0 * X + py0 * Y) / self.hbar)


def _phase_consistency(kernel, x_out, y_out, p0, p1, pm):
    """Per-cell phase increment via half-step consistency; returns
    (increment, aliasing mismatch)."""
    g0 = kernel(x_out, y_out, p0[0], p0[1])
    g1 = kernel(x_out, y_out, p1[0], p1[1])
    gm = kernel(x_out, y_out, pm[0], pm[1])
    full = np.angle(g1 / g0)
    halves = np.angle(gm / g0) + np.angle(g1 / gm)
    wrap = (full - halves + math.pi) % (2 * math.pi) - math.pi
    return halves, wrap


def apply_kernel(kernel, initial: GaussianState, extent: float,
                 points: int) -> GaussianState:
    """Quadrature pushforward psi_t = integral G * psi_0 over a square grid.

    Parameters
    ----------
    kernel : QuadraticPhaseKernel, summed by matrix products
        (:func:`phase_parts`)
    initial : separable GaussianState (synthesizable wavefunction); its
        ``hbar`` is the kernel's, and the result's
    extent, points : grid is [-extent, extent]^2 with ``points`` nodes per axis

    Raises
    ------
    TypeError
        If ``kernel`` is not a QuadraticPhaseKernel.
    GridUnderresolved
        If the grid fails the coverage check (mean +- 5 sigma inside the
        extent, >= 6 points per sigma) or the Nyquist probe detects phase
        aliasing of the kernel across a cell.
    """
    if not isinstance(kernel, QuadraticPhaseKernel):
        raise TypeError(f"apply_kernel needs a QuadraticPhaseKernel, not "
                        f"{type(kernel).__name__}")
    axis = np.linspace(-extent, extent, points)
    dx = axis[1] - axis[0]
    sx, sy = initial.sigmas if initial.sigmas else (None, None)
    if sx is None:
        raise ValueError("apply_kernel needs a separable initial state")
    # coverage: support inside the grid, enough points per standard deviation
    for mean_c, sigma in ((initial.mean[0], sx), (initial.mean[1], sy)):
        if abs(mean_c) + 5 * sigma > extent:
            raise GridUnderresolved(
                f"initial state leaks outside the grid: |{mean_c}| + 5*{sigma} "
                f"> {extent}", diagnostic="coverage")
        if dx > sigma / 6:
            raise GridUnderresolved(
                f"fewer than 6 points per sigma: dx = {dx}, sigma = {sigma}",
                diagnostic="points-per-sigma")
    # Nyquist probe: kernel phase step per cell along both source axes,
    # measured between grid corners and centre (output and source sides)
    # with half-step consistency to expose aliasing
    corners = [(-extent, -extent), (0.0, 0.0), (extent - dx, extent - dx),
               (-extent, extent - dx)]
    for out_pt in corners:
        for (px, py) in corners:
            for ux, uy in ((dx, 0.0), (0.0, dx)):
                p0, pm, p1 = ((px + f * ux, py + f * uy) for f in (0, 0.5, 1))
                inc, wrap = _phase_consistency(kernel, out_pt[0], out_pt[1],
                                               p0, p1, pm)
                if abs(wrap) > 1e-6 or abs(inc) > 0.9 * math.pi:
                    raise GridUnderresolved(
                        f"kernel phase step {inc:+.3f} rad per cell at source "
                        f"({p0[0]:.3g}, {p0[1]:.3g}), output "
                        f"({out_pt[0]:.3g}, {out_pt[1]:.3g}) "
                        f"(aliasing mismatch {wrap:+.2e})",
                        diagnostic="nyquist")

    X, Y = np.meshgrid(axis, axis, indexing="ij")
    psi0 = initial.wavefunction(X, Y)
    # renormalize on the grid so the norm check isolates the kernel
    psi0 /= math.sqrt(float(np.sum(np.abs(psi0) ** 2)) * dx * dx)

    xo_flat = X.ravel()
    yo_flat = Y.ravel()
    psi_t = np.empty(points * points, dtype=complex)
    # the source coupling is a plane wave per output point, so the
    # quadrature reduces to matrix products
    M, phase_out, phase_src = phase_parts(kernel)
    W = np.exp(1j * phase_src(X, Y)) * psi0
    for lo in range(0, xo_flat.size, _CHUNK):
        hi = min(lo + _CHUNK, xo_flat.size)
        kx = M[0, 0] * xo_flat[lo:hi] + M[1, 0] * yo_flat[lo:hi]
        ky = M[0, 1] * xo_flat[lo:hi] + M[1, 1] * yo_flat[lo:hi]
        Ex = np.exp(1j * np.outer(kx, axis))
        Ey = np.exp(1j * np.outer(ky, axis))
        inner = Ey @ W.T              # [c, ix'] = sum_iy' Ey[c,iy'] W[ix',iy']
        psi_t[lo:hi] = np.einsum("ci,ci->c", Ex, inner)
    psi_t *= (kernel.prefactor * dx * dx
              * np.exp(1j * phase_out(xo_flat, yo_flat)))
    psi_t = psi_t.reshape(points, points)

    # position moments from |psi|^2, momentum moments from the Fourier side
    w = np.abs(psi_t) ** 2
    norm = float(np.sum(w)) * dx * dx
    mean_x, cov_x = _moments(w, X, Y)
    p_axis = 2 * math.pi * initial.hbar * np.fft.fftfreq(points, d=dx)
    PX, PY = np.meshgrid(p_axis, p_axis, indexing="ij")
    mean_p, cov_p = _moments(np.abs(np.fft.fft2(psi_t)) ** 2, PX, PY)
    cov = np.zeros((4, 4))
    cov[:2, :2], cov[2:, 2:] = cov_x, cov_p
    return GaussianState(mean=np.array(mean_x + mean_p), covariance=cov,
                         norm=norm, hbar=initial.hbar, validate=False)


def _moments(w, A, B):
    """Means and covariance of the grids ``A``, ``B`` under the weights
    ``w``, normalized here."""
    w = w / np.sum(w)
    mean = [float(np.sum(w * A)), float(np.sum(w * B))]
    d = (A - mean[0], B - mean[1])
    return mean, [[float(np.sum(w * u * v)) for v in d] for u in d]

"""Brute-force reference implementations used to cross-check the pipeline.

Two oracles, deliberately sharing no code with the adjoint/reduction
machinery beyond the coefficient schedule:

* :func:`fundamental_matrix` integrates the *classical* equations of motion
  dz/dt = A(t) z + b(t) on z = (x, y, p_x, p_y), with A = J (2H(t))
  assembled directly from the symmetric matrix H of the quadratic form and
  b = J l from the linear coefficients.  The resulting flow map (S, d) must match
  the Heisenberg-picture affine map.

* :func:`apply_kernel` pushes a Gaussian wavepacket through a Green-function
  kernel by tensor-product quadrature on a square grid and extracts means,
  covariances (position side from |psi|^2, momentum side from the FFT) and
  the norm.

The classical integrator uses scipy's Runge-Kutta 5(4) so even the stepping
code differs from the in-package flow integrator.  scipy is imported on the
first call, not with the package: ``run``, ``green`` and ``print-odes`` never
reach an oracle, and importing ``scipy.integrate`` is most of a cold start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridUnderresolved
from .observables import SYMPLECTIC_J
from .schedule import CoefficientSchedule

__all__ = ["hamiltonian_matrix", "classical_system", "fundamental_matrix",
           "GaussianState", "apply_kernel"]


def hamiltonian_matrix(a) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric H and linear l of the classical value z^T H z + l . z + a1.

    z = (x, y, p_x, p_y), and H collects the quadratic coefficients
    symmetrically:

        H = [[2a6,  a8,  2a12, a14],        l = (a2, a3, a4, a5)
             [a8,  2a7,  a15,  2a13],
             [2a12, a15, 2a9,  a11],
             [a14, 2a13, a11,  2a10]] / 2
    """
    a = np.concatenate(([0.0], np.asarray(a, dtype=float)))
    H = 0.5 * np.array([
        [2 * a[6], a[8], 2 * a[12], a[14]],
        [a[8], 2 * a[7], a[15], 2 * a[13]],
        [2 * a[12], a[15], 2 * a[9], a[11]],
        [a[14], 2 * a[13], a[11], 2 * a[10]],
    ])
    l = np.array([a[2], a[3], a[4], a[5]])
    return H, l


def classical_system(a) -> tuple[np.ndarray, np.ndarray]:
    """Linear part A = J (2H) and shift b = J l of Hamilton's equations.

    J A is symmetric by construction (A is a Hamiltonian matrix).
    """
    H, l = hamiltonian_matrix(a)
    return SYMPLECTIC_J @ (2 * H), SYMPLECTIC_J @ l


def fundamental_matrix(schedule: CoefficientSchedule, t: float, *,
                       rtol=1e-10, atol=1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Classical flow map: z(t) = S z(0) + d.

    Integrates dZ/dt = A(t) Z with Z(0) = I alongside the inhomogeneous
    shift, with scipy's RK45.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return np.eye(4), np.zeros(4)
    from scipy.integrate import solve_ivp

    def rhs(tt, y):
        A, b = classical_system(schedule.coefficients(tt))
        Z = y[:16].reshape(4, 4)
        d = y[16:]
        return np.concatenate([(A @ Z).ravel(), A @ d + b])

    y0 = np.concatenate([np.eye(4).ravel(), np.zeros(4)])
    sol = solve_ivp(rhs, (0.0, t), y0, method="RK45", rtol=rtol, atol=atol,
                    dense_output=False)
    if not sol.success:
        raise RuntimeError(f"classical oracle integration failed: {sol.message}")
    yT = sol.y[:, -1]
    return yT[:16].reshape(4, 4), yT[16:]


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


def apply_kernel(kernel, initial: GaussianState, extent: float, points: int,
                 hbar=1.0, chunk=256) -> GaussianState:
    """Quadrature pushforward psi_t = integral G * psi_0 over a square grid.

    Parameters
    ----------
    kernel : callable (x, y, x_prime, y_prime) -> complex, numpy-broadcastable
    initial : separable GaussianState (synthesizable wavefunction)
    extent, points : grid is [-extent, extent]^2 with ``points`` nodes per axis

    Raises
    ------
    GridUnderresolved
        If the grid fails the coverage check (mean +- 5 sigma inside the
        extent, >= 6 points per sigma) or the Nyquist probe detects phase
        aliasing of the kernel across a cell.
    """
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
            for along_x in (True, False):
                if along_x:
                    p0, pm, p1 = (px, py), (px + dx / 2, py), (px + dx, py)
                else:
                    p0, pm, p1 = (px, py), (px, py + dx / 2), (px, py + dx)
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
    if hasattr(kernel, "phase_src") and hasattr(kernel, "coupling"):
        # quadratic-phase kernel: the source coupling is a plane wave per
        # output point, so the quadrature reduces to matrix products
        M = kernel.coupling
        W = np.exp(1j * kernel.phase_src(X, Y)) * psi0
        for lo in range(0, xo_flat.size, chunk):
            hi = min(lo + chunk, xo_flat.size)
            kx = M[0, 0] * xo_flat[lo:hi] + M[1, 0] * yo_flat[lo:hi]
            ky = M[0, 1] * xo_flat[lo:hi] + M[1, 1] * yo_flat[lo:hi]
            Ex = np.exp(1j * np.outer(kx, axis))
            Ey = np.exp(1j * np.outer(ky, axis))
            inner = Ey @ W.T              # [c, ix'] = sum_iy' Ey[c,iy'] W[ix',iy']
            psi_t[lo:hi] = np.einsum("ci,ci->c", Ex, inner)
        psi_t *= (kernel.prefactor * dx * dx
                  * np.exp(1j * kernel.phase_out(xo_flat, yo_flat)))
    else:
        xp = X[None, :, :]
        yp = Y[None, :, :]
        for lo in range(0, xo_flat.size, chunk):
            hi = min(lo + chunk, xo_flat.size)
            G = kernel(xo_flat[lo:hi, None, None], yo_flat[lo:hi, None, None],
                       xp, yp)
            psi_t[lo:hi] = np.tensordot(G, psi0,
                                        axes=([1, 2], [0, 1])) * dx * dx
    psi_t = psi_t.reshape(points, points)

    # position moments from |psi|^2
    w = np.abs(psi_t) ** 2
    norm = float(np.sum(w)) * dx * dx
    w = w / np.sum(w)
    mx = float(np.sum(w * X))
    my = float(np.sum(w * Y))
    cov_pos = np.array([
        [float(np.sum(w * (X - mx) ** 2)), float(np.sum(w * (X - mx) * (Y - my)))],
        [float(np.sum(w * (X - mx) * (Y - my))), float(np.sum(w * (Y - my) ** 2))],
    ])
    # momentum moments from the Fourier side
    psi_k = np.fft.fft2(psi_t)
    p_axis = 2 * math.pi * hbar * np.fft.fftfreq(points, d=dx)
    PX, PY = np.meshgrid(p_axis, p_axis, indexing="ij")
    wk = np.abs(psi_k) ** 2
    wk = wk / np.sum(wk)
    mpx = float(np.sum(wk * PX))
    mpy = float(np.sum(wk * PY))
    cov_mom = np.array([
        [float(np.sum(wk * (PX - mpx) ** 2)),
         float(np.sum(wk * (PX - mpx) * (PY - mpy)))],
        [float(np.sum(wk * (PX - mpx) * (PY - mpy))),
         float(np.sum(wk * (PY - mpy) ** 2))],
    ])
    cov = np.zeros((4, 4))
    cov[:2, :2] = cov_pos
    cov[2:, 2:] = cov_mom
    return GaussianState(mean=np.array([mx, my, mpx, mpy]), covariance=cov,
                         norm=norm, hbar=hbar, validate=False)

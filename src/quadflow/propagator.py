"""Coordinate-space Green function G(x, y, t; x', y', 0) from alpha(t).

Branches
--------
Each branch is a :class:`QuadraticPhaseKernel` whose ``branch`` attribute
names the constructor that built it:

* generic     - :func:`generic_kernel`, the closed form assembled from the
                factorized evolution operator, valid while |alpha11| stays
                away from zero and alpha11^2 != 4*alpha9*alpha10.
* degenerate  - :func:`degenerate_kernel`, the alpha11 -> 0 limit, which
                covers the constant-field case (alpha11 = 0 identically).

:func:`green` evaluates :func:`green_kernel` (generic where available, else
degenerate) at broadcast coordinates.  The constant-field propagator in
terms of the cyclotron phase, the oracle for the degenerate branch, is
:func:`quadflow.oracles.landau_kernel` (branch ``landau``).

Conventions
-----------
All branches share one overall constant-phase convention: the elementary
kinetic kernels are normalized with real positive prefactors
1/sqrt(4*pi*hbar*alpha), i.e. the stationary-phase factors exp(-i*pi/4) per
Gaussian integral are dropped.  For alpha9, alpha10 > 0 the values equal
i times the textbook propagator.  Absolute constant phase is not observable;
moduli, relative phases, and every smearing-based check are unaffected.

The quadratic exponent carries the eta^2-weighted final square with
eta^2 = alpha11^2 / (alpha11^2 - 4*alpha9*alpha10); the prefactor uses
eta = alpha11 / csqrt(alpha11^2 - 4*alpha9*alpha10) on the principal branch,
which is the choice continuous against the degenerate branch as
alpha11 -> 0.

Squares are taken with np.square, which rounds alike on scalars and arrays
(a scalar ``** 2`` goes through libm pow), so evaluating a kernel point by
point reproduces the vectorized values bit for bit.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .digits import g17, g17_rows
from .errors import BranchUnavailable, DegenerateGeometry, SingularTime
from .schedule import N_GENERATORS

__all__ = ["GreenSample", "QuadraticPhaseKernel", "degenerate_kernel",
           "generic_kernel", "green_kernel", "green", "write_green_csv"]

# the generic branch's relative threshold on |alpha11| (generic_kernel)
_BRANCH_EPS = 1e-6
# kernels evaluate quietly: an overflow gives inf and nan, written as is
_quiet = np.errstate(all="ignore")
# Green CSV rows per ``%`` operation: bounds the block's transient strings
_BLOCK = 1024


class GreenSample(NamedTuple):
    """Green-function values at one time t.

    ``x``, ``y``, ``x_prime``, ``y_prime`` and ``value`` share one broadcast
    shape: 0-d for scalar coordinates, 1-D for a list of points, and 2-D
    for a grid (the CLI's: x along the first axis, y along the last, the
    source constant), which :func:`write_green_csv` writes run by run.
    ``branch`` names the kernel that produced every value.
    """

    x: np.ndarray
    y: np.ndarray
    t: float
    x_prime: np.ndarray
    y_prime: np.ndarray
    value: np.ndarray
    branch: str  # "generic" | "degenerate" | "landau"


def _check_alpha(alpha):
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (N_GENERATORS,):
        raise ValueError("alpha must be a 15-vector")
    return alpha


class QuadraticPhaseKernel:
    """Kernel value(x, y, x', y') = prefactor * exp(i * phase(x, y, x', y'))
    with a phase that is a joint quadratic polynomial in all four arguments.

    Callable like any kernel, numpy-broadcastable; ``branch`` names the
    closed form it evaluates.  Building one evaluates nothing: the split of
    the phase into output, source and coupling parts, which quadrature
    turns into matrix products, is :func:`quadflow.oracles.phase_parts`.
    """

    def __init__(self, prefactor: complex, phase, branch: str):
        self.prefactor = complex(prefactor)
        self.phase = phase
        self.branch = branch

    @_quiet
    def __call__(self, x, y, x_prime, y_prime):
        return self.prefactor * np.exp(1j * self.phase(x, y, x_prime, y_prime))


def _shifts(al, x, y, xp, yp):
    """X = x - a4, Y = y - a5 and the source combinations f, g of
    :func:`degenerate_kernel`, for the 1-based alphas ``al``."""
    X = x - al[4]
    Y = y - al[5]
    f = np.exp(2 * al[12]) * (xp + al[15] * yp)
    g = np.exp(2 * al[13]) * (yp + al[14] * xp + al[14] * al[15] * yp)
    return X, Y, f, g


@_quiet
def degenerate_kernel(alpha, hbar) -> QuadraticPhaseKernel:
    """alpha11 -> 0 limit of the kernel.

    With the p_x p_y factor collapsed to an identity kernel, the delta chain
    pins the two remaining Gaussian integrals at f and g and the kernel
    becomes

        e^(a12+a13) / (4 pi hbar sqrt(a9 a10))
        * exp{ (i/hbar) [ (X-f)^2/(4 a9) + (Y-g)^2/(4 a10) ] }
        * exp{ -(i/hbar) [ a1 + a2 x + a3 y + a6 X^2 + a7 Y^2 + a8 X Y ] }

    with X = x - alpha4, Y = y - alpha5, f = e^(2 a12) (x' + a15 y') and
    g = e^(2 a13) (y' + a14 x' + a14 a15 y').  On the constant-field
    parameters this reduces exactly to the landau branch.  Raises
    DegenerateGeometry when alpha9 or alpha10 vanishes.
    """
    al = np.concatenate(([0.0], _check_alpha(alpha)))
    a9, a10 = float(al[9]), float(al[10])
    if a9 == 0 or a10 == 0:
        raise DegenerateGeometry(
            "kernel keeps a delta factor when alpha9 or alpha10 vanishes "
            f"(alpha9 = {a9!r}, alpha10 = {a10!r}); not pointwise-evaluable")
    scale = 4 * math.pi * hbar * cmath.sqrt(complex(a9 * a10))
    pref = math.exp(al[12] + al[13]) / scale if scale else math.inf

    def phase(x, y, xp, yp):
        X, Y, f, g = _shifts(al, x, y, xp, yp)
        return (np.square(X - f) / (4 * a9) + np.square(Y - g) / (4 * a10)
                - (al[1] + al[2] * x + al[3] * y
                   + al[6] * np.square(X) + al[7] * np.square(Y)
                   + al[8] * X * Y)) / hbar

    return QuadraticPhaseKernel(pref, phase, "degenerate")


@_quiet
def generic_kernel(alpha, hbar) -> QuadraticPhaseKernel:
    """Generic-branch kernel.  Requires |alpha11| > _BRANCH_EPS *
    max(|alpha9|, |alpha10|, 1), alpha11^2 != 4*alpha9*alpha10 and
    alpha9 != 0; otherwise raises BranchUnavailable and :func:`green_kernel`
    falls back to the degenerate branch."""
    al = np.concatenate(([0.0], _check_alpha(alpha)))
    a9, a10, a11 = al[9], al[10], al[11]
    if abs(a11) <= _BRANCH_EPS * max(abs(a9), abs(a10), 1.0):
        raise BranchUnavailable(
            f"|alpha11| = {float(abs(a11))!r} below branch threshold; "
            "use the degenerate branch")
    disc = a11 ** 2 - 4 * a9 * a10
    if disc == 0:
        raise BranchUnavailable("alpha11^2 == 4*alpha9*alpha10 (eta diverges)")
    if a9 == 0:
        raise BranchUnavailable("alpha9 == 0 (generic form carries 1/alpha9)")
    eta_sq = a11 ** 2 / disc
    eta = a11 / cmath.sqrt(complex(disc))
    pref = ((1 + 1j) ** 2 * eta / (4 * math.pi * hbar * a11)
            * math.exp(al[12] + al[13]))

    def phase(x, y, xp, yp):
        X, Y, f, g = _shifts(al, x, y, xp, yp)
        quad = ((4 * a9 * al[6] - 1) / (4 * a9) * np.square(X)
                + al[7] * np.square(Y)
                + al[8] * X * Y
                + f / a11 * (Y - g)
                + al[3] * y + al[2] * x
                + a10 / a11 ** 2 * np.square(f)
                + al[1])
        square = np.square(X / (2 * a9) - Y / a11
                           + (g - 2 * a10 * f / a11) / a11)
        return -(quad + a9 * eta_sq * square) / hbar

    return QuadraticPhaseKernel(pref, phase, "generic")


def green_kernel(alpha, hbar) -> QuadraticPhaseKernel:
    """Branch-dispatching kernel: generic if available, else degenerate."""
    try:
        return generic_kernel(alpha, hbar)
    except BranchUnavailable:
        return degenerate_kernel(alpha, hbar)


def green(alpha, hbar, x, y, x_prime, y_prime, t=math.nan) -> GreenSample:
    """Green function at broadcastable coordinates, on the branch that
    :func:`green_kernel` selects for ``alpha``; ``t`` is only recorded."""
    kernel = green_kernel(alpha, hbar)
    x, y, x_prime, y_prime = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x, y, x_prime, y_prime)))
    return GreenSample(x, y, t, x_prime, y_prime,
                       kernel(x, y, x_prime, y_prime), kernel.branch)


def _grid_form(coords, value) -> bool:
    """Whether a sample is a grid: 2-D and not empty, with x keeping one
    bit pattern along the last axis, and y, x_prime and y_prime along the
    first (as the CLI's ``ij`` grid broadcast from its axis and source)."""
    shape = np.shape(value)
    if len(shape) != 2 or 0 in shape or any(c.shape != shape
                                             for c in coords):
        return False
    x, *rest = (c.view(np.uint64) for c in coords)
    return bool((x == x[:, :1]).all()
                and all((c == c[:1]).all() for c in rest))


def _write_runs(fh, coords, t, value, tail):
    """The rows of a grid-form sample in C order: each axis value is
    formatted once, a row joins its x cell and its column's cells of y, t,
    x_prime and y_prime, and one ``%`` per at most ``_BLOCK`` rows fills
    ``re`` and ``im``."""
    x, y, xp, yp = coords
    nx, ny = value.shape
    pieces, args = g17(np.concatenate([x[:, 0], y[0], xp[0], yp[0]]))
    cells = ("\n".join(pieces) % tuple(args)).split("\n")
    heads = np.array([c + "," for c in cells[:nx]], dtype=object)
    columns = np.array([f"{a},{t:.17g},{b},{c}," for a, b, c in
                        zip(*(cells[nx + i * ny:nx + (i + 1) * ny]
                              for i in range(3)))], dtype=object)
    # each row's (re, im) pair, in the order the row format reads them
    pairs = np.ascontiguousarray(value, dtype=complex).view(float).ravel()
    rows = np.empty((_BLOCK, 6), dtype=object)
    rows[:, 3], rows[:, 5] = ",", tail
    for start in range(0, nx * ny, _BLOCK):
        stop = min(start + _BLOCK, nx * ny)
        k, block = np.arange(start, stop), rows[:stop - start]
        block[:, 0], block[:, 1] = heads[k // ny], columns[k % ny]
        pieces, args = g17(pairs[2 * start:2 * stop])
        block[:, 2], block[:, 4] = pieces[0::2], pieces[1::2]
        fh.write("".join(block.ravel().tolist()) % tuple(args))


def _write_blocks(fh, coords, t, value, tail):
    """The rows of any sample in C order, every field ``%.17g``: one ``%``
    per at most ``_BLOCK`` rows fills them with the rows' coordinates,
    ``re`` and ``im``."""
    value = np.ravel(value)
    table = np.column_stack([*(np.ravel(c) for c in coords), value.real,
                             value.imag])
    after = [",", f",{t:.17g},", ",", ",", ",", tail]
    for start in range(0, len(table), _BLOCK):
        fh.write(g17_rows(table[start:start + _BLOCK], after))


def write_green_csv(samples, path):
    """CSV with columns x,y,t,x_prime,y_prime,re,im,branch; one row per
    broadcast element of each sample, in C order, every number ``%.17g``.

    A sample may be a 2-D grid, as the CLI samples one: x keeps one bit
    pattern along the last axis, and y, x_prime and y_prime along the
    first.  Such a sample is written run by run along its last axis, each
    cell formatted once (:func:`_write_runs`).  Any other sample is written
    in blocks of rows (:func:`_write_blocks`).  The path follows from the
    sample's shape and bits alone, and both give the bytes of formatting
    every number on its own.
    """
    with open(path, "w") as fh:
        fh.write("x,y,t,x_prime,y_prime,re,im,branch\n")
        for s in samples:
            coords = [np.asarray(c, dtype=float)
                      for c in (s.x, s.y, s.x_prime, s.y_prime)]
            tail = f",{s.branch.replace('%', '%%')}\n"
            write = _write_runs if _grid_form(coords, s.value) \
                else _write_blocks
            write(fh, coords, s.t, s.value, tail)

"""Heisenberg-picture observables and the classical correspondence.

The conjugated position/momentum operators are affine in the Schroedinger
operators,

    (x_H, y_H, p_xH, p_yH)^T = S(alpha) (x, y, p_x, p_y)^T + d(alpha),

with S symplectic and d = (alpha4, alpha5, -alpha2, -alpha3): the first
five transformation parameters carry the classical action (alpha1) and the
classical trajectory (alpha2..alpha5 = -p_x, -p_y, x, y).  The map is the
ordered product of the adjoint matrices' affine 5x5 blocks.  Its oracles
live in :mod:`quadflow.oracles`: the transcribed closed-form coefficients
(``heisenberg_closed_form``) and the Lagrangian (``classical_lagrangian``).

Gaussian means/covariances push forward with
:meth:`AffineSymplecticMap.push_gaussian`.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .adjoint import _adjoint_blocks
from .digits import rows, shortest
from .schedule import N_GENERATORS

__all__ = ["SYMPLECTIC_J", "AffineSymplecticMap", "heisenberg_map",
           "write_heisenberg_json"]

# symplectic form on (x, y, p_x, p_y)
SYMPLECTIC_J = np.array([
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])


class AffineSymplecticMap(NamedTuple):
    """Affine action z -> S z + d on (x, y, p_x, p_y), plus the action phase.

    A stack of maps carries leading axes: S (..., 4, 4), d (..., 4) and
    phase (...); ``symplectic_defect`` and ``push_gaussian`` also take a
    stack.
    """

    S: np.ndarray               # (4, 4)
    d: np.ndarray               # (4,)
    phase: float | np.ndarray   # accumulated classical action (units of hbar)

    def symplectic_defect(self) -> float:
        """max-norm of S^T J S - J, the largest over a stack of maps; zero
        for an exactly symplectic map."""
        return float(np.max(np.abs(self.S.swapaxes(-1, -2) @ SYMPLECTIC_J
                                   @ self.S - SYMPLECTIC_J)))

    def push_gaussian(self, mean, cov):
        """Mean and covariance of a Gaussian state after the map."""
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        return (self.S @ mean + self.d,
                self.S @ cov @ self.S.swapaxes(-1, -2))


def heisenberg_map(alpha) -> AffineSymplecticMap:
    """Affine Heisenberg map from the ordered adjoint-matrix product.

    span{1, x, y, p_x, p_y} is invariant under every adjoint action, so the
    product M_2(a2) M_3(a3) ... M_15(a15) (M_1 = identity) is taken over the
    leading 5x5 blocks alone; its constant column gives
    d = (alpha4, alpha5, -alpha2, -alpha3) exactly.  ``alpha`` of shape
    (..., 15) gives a stack of maps (S (..., 4, 4), d (..., 4), phase (...))
    from fourteen batched 5x5 products, each map bit for bit the one its
    own 15-vector gives.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[-1:] != (N_GENERATORS,):
        raise ValueError("alpha must be a 15-vector or a stack of them")
    block = np.eye(5)
    # an overflowing e^{2 alpha12} makes inf and nan entries, which the map
    # reports as they are; numpy's warnings about them would reach stderr
    with np.errstate(over="ignore", invalid="ignore"):
        MT = _adjoint_blocks(alpha, 5)
        for k in range(1, N_GENERATORS):
            block = block @ MT[..., k, :, :].swapaxes(-1, -2)
    return AffineSymplecticMap(
        S=block[..., 1:, 1:], d=block[..., 1:, 0],
        phase=alpha[..., 0].copy() if alpha.ndim > 1 else float(alpha[0]))


# one record in json.dump's indent=1 layout: its text before, between and
# after its 22 numbers, and the text between two records
_HEAD, *_BETWEEN, _TAIL = json.dumps(
    [{"t": 0.5, "S": [[0.5] * 4] * 4, "d": [0.5] * 4, "phase": 0.5}],
    indent=1)[2:-2].split("0.5")
_NEXT = _TAIL + ",\n" + _HEAD
# records per ``%`` operation: bounds the block's transient strings
_BLOCK = 256


def write_heisenberg_json(flow_result, path):
    """One record per flow sample: {"t", "S", "d", "phase"}.

    The bytes are those of ``json.dump(records, fh, indent=1)`` plus a
    newline; every map comes from one stacked :func:`heisenberg_map` call.
    Up to ``_BLOCK`` records are formatted by one ``%`` on the digits of
    their fields (:func:`.digits.rows` with :func:`.digits.shortest`), which
    spell each float as json does: its ``repr``, or ``NaN``, ``Infinity``
    and ``-Infinity``.
    """
    m = heisenberg_map(flow_result.alphas)
    fields = np.column_stack([flow_result.ts, m.S.reshape(-1, 16), m.d,
                              m.phase])
    with open(path, "w") as fh:
        # a FlowResult holds at least one sample
        fh.write("[\n" + _HEAD)
        for start in range(0, len(fields), _BLOCK):
            text = rows(fields[start:start + _BLOCK], [*_BETWEEN, _NEXT],
                        shortest)
            fh.write(text if start + _BLOCK < len(fields)
                     else text[:-len(_NEXT)] + _TAIL + "\n]\n")

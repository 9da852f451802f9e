"""The 15-generator dynamical algebra of 2D quadratic Hamiltonians.

Generator basis (1-based indices, used everywhere in the public API):

    h1  = 1        h2  = x         h3  = y         h4  = p_x      h5  = p_y
    h6  = x^2      h7  = y^2       h8  = x*y       h9  = p_x^2    h10 = p_y^2
    h11 = p_x*p_y  h12 = x*p_x + p_x*x             h13 = y*p_y + p_y*y
    h14 = x*p_y    h15 = y*p_x

Commutators close on this set:  [h_i, h_j] = i*hbar * sum_k c[i][j][k] h_k,
with exact rational structure constants c (entries in {0, +-1, +-2, +-4,
+-1/2}).  Everything here is exact ``Fraction`` arithmetic.  The tensor is
built on first use from ``_UPPER`` of :mod:`.adjoint`, the package's one
table (its ints and +-1/2 convert exactly); no command imports this module.
Three independent checks hold the table: the Poisson-bracket derivation in
the tests, the exact Jacobi check of :meth:`StructureConstants.validate`,
and :func:`.adjoint_closed_form` against :func:`.adjoint_matrix`.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Mapping, NamedTuple

from .adjoint import _UPPER, N_GENERATORS, _check_index

GENERATOR_LABELS = (
    "1", "x", "y", "p_x", "p_y",
    "x^2", "y^2", "x*y", "p_x^2", "p_y^2",
    "p_x*p_y", "x*p_x+p_x*x", "y*p_y+p_y*y", "x*p_y", "y*p_x",
)


class Violation(NamedTuple):
    """Location of the first identity failure found by :meth:`validate`."""

    kind: str               # "antisymmetry" | "jacobi" | "central"
    indices: tuple          # (i, j, k) for antisymmetry/central, (i, j, k, l) for jacobi
    detail: str


class AlgebraReport(NamedTuple):
    ok: bool
    antisymmetry_ok: bool
    central_ok: bool
    jacobi_ok: bool
    violation: Violation | None = None

    def __str__(self) -> str:
        if self.ok:
            return "algebra ok: antisymmetry, centrality and Jacobi hold exactly"
        return f"algebra INVALID: {self.violation.kind} at {self.violation.indices}: {self.violation.detail}"


class StructureConstants:
    """Exact rational structure-constant tensor c[i][j][k] (1-based indices)."""

    def __init__(self, entries: Mapping[tuple[int, int], Mapping[int, Fraction]]):
        # store both orientations so lookups are uniform
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), row in entries.items():
            table[(i, j)] = {k: Fraction(v) for k, v in row.items() if v != 0}
        self._table = {key: row for key, row in table.items() if row}

    @classmethod
    def standard(cls) -> "StructureConstants":
        """Tensor of the 15-generator algebra: :mod:`.adjoint`'s ``_UPPER``
        as exact fractions, antisymmetrically completed."""
        entries: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), row in _UPPER.items():
            entries[(i, j)] = dict(row)
            entries[(j, i)] = {k: -v for k, v in row.items()}
        return cls(entries)

    def commutator(self, i: int, j: int) -> dict[int, Fraction]:
        """Coefficients of (1/i*hbar)[h_i, h_j] in the generator basis (sparse)."""
        _check_index(i)
        _check_index(j)
        return dict(self._table.get((i, j), {}))

    def with_entry(self, i: int, j: int, k: int, value) -> "StructureConstants":
        """Copy with c[i][j][k] replaced (no antisymmetric mirroring).

        Intended for deliberate-corruption tests of :meth:`validate`.
        """
        _check_index(i), _check_index(j), _check_index(k)
        entries = {key: dict(row) for key, row in self._table.items()}
        row = entries.setdefault((i, j), {})
        row[k] = Fraction(value)
        return StructureConstants(entries)

    # -- identity checks ----------------------------------------------------

    def validate(self) -> AlgebraReport:
        """Check antisymmetry, centrality of h1 and the Jacobi identity.

        All checks are exact (rational arithmetic, zero tolerance).  The
        Jacobi identity

            sum_m c[i][j][m] c[m][k][l] + c[j][k][m] c[m][i][l]
                                        + c[k][i][m] c[m][j][l]  = 0

        is verified for every (i, j, k, l); the first violation in
        lexicographic (i, j, k) order is reported.
        """
        idx = range(1, N_GENERATORS + 1)
        # antisymmetry (includes i == j: c[i][i] must vanish)
        for i in idx:
            for j in idx:
                a = self._table.get((i, j), {})
                b = self._table.get((j, i), {})
                for k in set(a) | set(b):
                    if a.get(k, Fraction(0)) != -b.get(k, Fraction(0)):
                        v = Violation("antisymmetry", (i, j, k),
                                      f"c[{i}][{j}][{k}] != -c[{j}][{i}][{k}]")
                        return AlgebraReport(False, False, True, True, v)
        # h1 central: row i=1 and column j=1 identically zero
        for j in idx:
            if self._table.get((1, j)) or self._table.get((j, 1)):
                v = Violation("central", (1, j, 0), "h1 row/column not zero")
                return AlgebraReport(False, True, False, True, v)
        # Jacobi, exact
        for i in idx:
            for j in idx:
                cij = self._table.get((i, j), {})
                for k in idx:
                    cjk = self._table.get((j, k), {})
                    cki = self._table.get((k, i), {})
                    total: dict[int, Fraction] = {}
                    for m, v in cij.items():
                        for l, w in self._table.get((m, k), {}).items():
                            total[l] = total.get(l, Fraction(0)) + v * w
                    for m, v in cjk.items():
                        for l, w in self._table.get((m, i), {}).items():
                            total[l] = total.get(l, Fraction(0)) + v * w
                    for m, v in cki.items():
                        for l, w in self._table.get((m, j), {}).items():
                            total[l] = total.get(l, Fraction(0)) + v * w
                    for l in sorted(total):
                        if total[l] != 0:
                            v = Violation("jacobi", (i, j, k, l),
                                          f"Jacobi sum = {total[l]}")
                            return AlgebraReport(False, True, True, False, v)
        return AlgebraReport(True, True, True, True, None)


@functools.cache
def standard_algebra() -> StructureConstants:
    """The tensor of the 15-generator algebra, built on first use."""
    return StructureConstants.standard()


def commutator(i: int, j: int) -> dict[int, Fraction]:
    """(1/i*hbar)[h_i, h_j] in the generator basis, as a sparse dict."""
    return standard_algebra().commutator(i, j)


def validate_algebra(tensor: StructureConstants | None = None) -> AlgebraReport:
    return (standard_algebra() if tensor is None else tensor).validate()

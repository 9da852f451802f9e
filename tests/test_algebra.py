"""Structure-constant tensor: exactness, identities, sub-algebras.

The tensor is cross-derived here from scratch: each generator is a degree<=2
polynomial in (x, y, p_x, p_y), and for such polynomials the operator
commutator is exactly i*hbar times the Poisson bracket, so the whole table
can be recomputed with exact rational arithmetic and compared entry by
entry.
"""

from fractions import Fraction
from itertools import product

import pytest

from quadflow.algebra import (GENERATOR_LABELS, N_GENERATORS,
                              StructureConstants, commutator,
                              standard_algebra, validate_algebra)

F = Fraction

# Weyl symbols of the generators: exponent tuple (x, y, px, py) -> coefficient
GEN_MONO = {
    1: {(0, 0, 0, 0): F(1)}, 2: {(1, 0, 0, 0): F(1)}, 3: {(0, 1, 0, 0): F(1)},
    4: {(0, 0, 1, 0): F(1)}, 5: {(0, 0, 0, 1): F(1)}, 6: {(2, 0, 0, 0): F(1)},
    7: {(0, 2, 0, 0): F(1)}, 8: {(1, 1, 0, 0): F(1)}, 9: {(0, 0, 2, 0): F(1)},
    10: {(0, 0, 0, 2): F(1)}, 11: {(0, 0, 1, 1): F(1)},
    12: {(1, 0, 1, 0): F(2)}, 13: {(0, 1, 0, 1): F(2)},
    14: {(1, 0, 0, 1): F(1)}, 15: {(0, 1, 1, 0): F(1)},
}


def _poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, F(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _poly_diff(p, axis):
    out = {}
    for e, c in p.items():
        if e[axis]:
            enew = list(e)
            enew[axis] -= 1
            out[tuple(enew)] = out.get(tuple(enew), F(0)) + c * e[axis]
    return out


def _poly_sub(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, F(0)) - c
    return {e: c for e, c in out.items() if c}


def _poisson(p, q):
    out = {}
    for qi, pi in ((0, 2), (1, 3)):
        t1 = _poly_mul(_poly_diff(p, qi), _poly_diff(q, pi))
        t2 = _poly_mul(_poly_diff(p, pi), _poly_diff(q, qi))
        for e, c in _poly_sub(t1, t2).items():
            out[e] = out.get(e, F(0)) + c
    return {e: c for e, c in out.items() if c}


def _expand(p):
    coeffs = {}
    rem = dict(p)
    for k, mono in GEN_MONO.items():
        (e, base) = next(iter(mono.items()))
        if e in rem:
            c = rem[e] / base
            coeffs[k] = c
            rem = _poly_sub(rem, {e: c * base})
    assert not rem, f"bracket left residual monomials: {rem}"
    return coeffs


def test_tensor_matches_poisson_bracket_derivation():
    alg = standard_algebra()
    for i, j in product(range(1, 16), repeat=2):
        derived = _expand(_poisson(GEN_MONO[i], GEN_MONO[j]))
        assert alg.commutator(i, j) == derived, (i, j)


def test_commutator_x_px_is_central_element():
    assert commutator(2, 4) == {1: F(1)}


def test_central_element_commutes_with_everything():
    for k in range(1, 16):
        assert commutator(1, k) == {}
        assert commutator(k, 1) == {}


def test_commutator_xy_pxpy_is_half_sum_of_dilatations():
    assert commutator(8, 11) == {12: F(1, 2), 13: F(1, 2)}


def test_commutator_antisymmetry_all_pairs():
    for i, j in product(range(1, 16), repeat=2):
        fwd = commutator(i, j)
        bwd = commutator(j, i)
        assert set(fwd) == set(bwd)
        assert all(bwd[k] == -v for k, v in fwd.items())


def test_validate_standard_tensor_passes():
    report = validate_algebra()
    assert report.ok
    assert report.antisymmetry_ok and report.jacobi_ok and report.central_ok
    assert report.violation is None
    assert str(report) == ("algebra ok: antisymmetry, centrality and "
                           "Jacobi hold exactly")


def test_validate_reports_deliberate_corruption():
    bad = standard_algebra().with_entry(2, 4, 1, -1)
    report = bad.validate()
    assert not report.ok
    assert report.violation.kind in ("antisymmetry", "jacobi")
    assert report.violation.indices[:2] in ((2, 4), (4, 2))


def test_validate_reports_a_non_central_h1():
    # both orientations of [h1, h2] = h3 keep the tensor antisymmetric
    bad = standard_algebra().with_entry(1, 2, 3, 1).with_entry(2, 1, 3, -1)
    report = bad.validate()
    assert (report.ok, report.antisymmetry_ok, report.central_ok,
            report.jacobi_ok) == (False, True, False, True)
    assert report.violation.kind == "central"
    assert report.violation.indices == (1, 2, 0)
    assert str(report) == ("algebra INVALID: central at (1, 2, 0): "
                           "h1 row/column not zero")


def test_validate_reports_a_jacobi_violation():
    # [h8, h9] = 2 h15 rescaled to 4 h15 in both orientations: the tensor
    # stays antisymmetric with h1 central, and the first triple in
    # lexicographic order whose Jacobi sum no longer vanishes is (h2, h8, h9)
    bad = standard_algebra().with_entry(8, 9, 15, 4).with_entry(9, 8, 15, -4)
    report = bad.validate()
    assert (report.ok, report.antisymmetry_ok, report.central_ok,
            report.jacobi_ok) == (False, True, True, False)
    assert report.violation.kind == "jacobi"
    assert report.violation.indices == (2, 8, 9, 3)
    assert str(report) == ("algebra INVALID: jacobi at (2, 8, 9, 3): "
                           "Jacobi sum = -2")


def test_validate_zero_tensor_passes():
    assert StructureConstants({}).validate().ok


def test_index_range_is_enforced():
    with pytest.raises(ValueError):
        commutator(0, 4)
    with pytest.raises(ValueError):
        commutator(2, 16)


def closed(ids):
    """True iff every pairwise commutator of ``ids`` lies in span(ids)."""
    return all(set(commutator(i, j)) <= set(ids)
               for i, j in product(ids, repeat=2))


@pytest.mark.parametrize("ids", [
    {1, 2, 3, 4, 5},
    {1, 2, 3, 4, 5, 6, 7, 8},
    {1, 2, 4},
    {1, 3, 5},
    {6, 9, 12},
    {7, 10, 13},
    {1, 2, 4, 6, 9, 12},
    {1, 3, 5, 7, 10, 13},
])
def test_named_subalgebras_are_closed(ids):
    assert closed(ids)


@pytest.mark.parametrize("ids", [
    {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},   # [h6, h9] = 2 h12 leaves the set
    {2, 9},                                  # [x, px^2] = 2 p_x
    {6, 9},
])
def test_open_subsets_are_detected(ids):
    assert not closed(ids)


def test_momentum_triple_is_abelian_hence_closed():
    # p_x^2, p_y^2 and p_x p_y commute pairwise, so under the pairwise-
    # closure definition this subset is (trivially) a closed sub-algebra,
    # even though its flow equations couple to other parameters.
    assert closed({9, 10, 11})
    for i, j in product((9, 10, 11), repeat=2):
        assert commutator(i, j) == {}


def test_named_structure_constants():
    assert commutator(2, 4) == {1: F(1)}
    assert commutator(8, 11) == {12: F(1, 2), 13: F(1, 2)}
    assert commutator(8, 9) == {15: F(2)}
    assert commutator(9, 8) == {15: F(-2)}


def test_generator_labels_cover_all_indices():
    assert len(GENERATOR_LABELS) == N_GENERATORS
    assert GENERATOR_LABELS[0] == "1"
    assert GENERATOR_LABELS[11] == "x*p_x+p_x*x"

"""The byte-check tools of ``ci/``: ``output_diff.distance``, its ulp count
and the case table of ``output_digests``.  No case is run here."""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "ci"))

import output_diff  # noqa: E402  (ci/output_diff.py)
import output_digests  # noqa: E402  (ci/output_digests.py)

distance = output_diff.distance
_ordinal = output_diff._ordinal


def test_identical_bytes():
    assert distance(b"t,alpha1\n0.5,1e-3\n", b"t,alpha1\n0.5,1e-3\n") \
        == "identical"


def test_changed_text():
    assert distance(b'{"ok": true, "x": 1}', b'{"ok": false, "x": 1}') \
        == "text differs"


def test_one_field_moved_by_one_ulp():
    x = 0.1
    y = math.nextafter(x, 1.0)
    a = f"t,alpha1\n2,{x!r}\n".encode()
    b = f"t,alpha1\n2,{y!r}\n".encode()
    gap = y - x
    assert distance(a, b) == (f"changed=1 max_rel={gap / y:.3g} max_ulp=1 "
                              f"max_abs={gap:.3g}")


def test_inf_against_a_finite_field():
    verdict = distance(b"1.5,inf\n", b"1.5,2.5\n")
    assert verdict.startswith("changed=1 max_rel=inf ")


def test_zero_against_minus_zero_is_text():
    # the same number written two ways: no field moved, the text did
    assert distance(b"x,0\n", b"x,-0\n") == "text differs"


@pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 0.1, 1.0, 1e300,
                               -5e-324, -1.0, -1e300])
def test_consecutive_doubles_have_consecutive_ordinals(x):
    assert _ordinal(math.nextafter(x, math.inf)) == _ordinal(x) + 1


def test_ordinals_are_adjacent_across_zero():
    assert _ordinal(0.0) == _ordinal(-0.0) == 0
    assert (_ordinal(-5e-324), _ordinal(5e-324)) == (-1, 1)


def test_the_cases_at_one_seed(tmp_path):
    # the benchmark's six inputs at the seed and the thirty fixed cases,
    # each laying out its inputs and giving a command line
    cases = list(output_digests.cases([3]))
    names = [name for name, _ in cases]
    assert len(names) == 36 and len(set(names)) == 36
    for j, (name, write) in enumerate(cases):
        tmp = tmp_path / str(j)
        tmp.mkdir()
        argv = write(tmp)
        assert argv[0] in ("run", "green", "verify", "print-odes"), name
        assert all(isinstance(arg, str) for arg in argv), name

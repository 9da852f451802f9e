"""``quadflow.digits.g17`` gives the bytes of ``'%.17g' % v`` and
``quadflow.digits.shortest`` those of ``repr(v)`` (json's spelling where v
is not finite) on every family of ``digits_fuzz``, and both take integer
arguments where they print fixed notation."""

import numpy as np
import pytest

import digits_fuzz
from quadflow import digits
from quadflow.digits import g17, shortest


@pytest.mark.parametrize("family", digits_fuzz.FAMILIES,
                         ids=lambda f: f.__name__)
def test_g17_prints_what_percent_prints(family):
    rng = np.random.default_rng(digits_fuzz.SEED)
    values = family(rng, 50_000)
    assert digits_fuzz.mismatches(values) == 0


def test_g17_prints_the_families_mixed_in_one_call():
    rng = np.random.default_rng(digits_fuzz.SEED + 1)
    assert digits_fuzz.mismatches(digits_fuzz.families(rng, 4_000)) == 0


@pytest.mark.parametrize("family", digits_fuzz.FAMILIES,
                         ids=lambda f: f.__name__)
def test_shortest_prints_what_repr_prints(family):
    rng = np.random.default_rng(digits_fuzz.SEED)
    values = family(rng, 20_000)
    assert digits_fuzz.repr_mismatches(values) == 0


def test_shortest_prints_the_families_mixed_in_one_call():
    rng = np.random.default_rng(digits_fuzz.SEED + 1)
    assert digits_fuzz.repr_mismatches(digits_fuzz.families(rng, 4_000)) == 0


def test_g17_text_of_each_class():
    values = [0.0, -0.0, 0.5, -0.00012, 1e-4, 9.9999999999999991e-05,
              1.5, -1024.0, 1e16, 99999999999999984.0, 1e17, 5e-324,
              float("nan"), float("-inf"), 0.1, 2.0 ** 53 + 2]
    # 16 copies: more values than the short arrays that all take '%.17g'
    pieces, args = g17(values * 16)
    assert len(values) * 16 >= digits._FEW
    assert ("|".join(pieces) % tuple(args)).split("|") == [
        "0", "-0", "0.5", "-0.00012", "0.0001", "9.9999999999999991e-05",
        "1.5", "-1024", "10000000000000000", "99999999999999984", "1e+17",
        "4.9406564584124654e-324", "nan", "-inf", "0.10000000000000001",
        "9007199254740994"] * 16


def test_repr_text_of_each_class():
    values = [0.0, -0.0, 0.5, -0.00012, 1e-4, 9.999999999999999e-05, 1.5,
              -1024.0, 1e15, 9999999999999998.0, 1e16, 5e-324, float("nan"),
              float("-inf"), float("inf"), 0.1, 0.30000000000000004,
              562949953421312.25, -70368744177664.125, 2.0 ** 53, 123.456]
    text = ["0.0", "-0.0", "0.5", "-0.00012", "0.0001",
            "9.999999999999999e-05", "1.5", "-1024.0", "1000000000000000.0",
            "9999999999999998.0", "1e+16", "5e-324", "NaN", "-Infinity",
            "Infinity", "0.1", "0.30000000000000004",
            # ties at the 16th digit, both neighbours within the half-gap:
            # the even one
            "562949953421312.2", "-70368744177664.12",
            "9007199254740992.0", "123.456"]
    # shortest takes the digit path however short the array
    for n in (1, 16):
        pieces, args = shortest(values * n)
        assert ("|".join(pieces) % tuple(args)).split("|") == text * n
        # only the values repr prints in scientific notation take '%r'
        assert [p == "%r" for p in pieces[:len(values)]] == [
            t in ("9.999999999999999e-05", "1e+16", "5e-324") for t in text]


def test_a_short_array_takes_percent_for_every_value():
    values = np.linspace(0.25, 0.75, digits._FEW - 1)
    pieces, args = g17(values)
    assert set(pieces) == {"%.17g"} and args == values.tolist()
    assert "%.17g" not in g17(np.append(values, 0.5))[0]


def test_a_value_below_one_takes_one_integer_argument():
    rng = np.random.default_rng(7)
    values = rng.uniform(-1, 1, 1000)
    values = values[np.abs(values) >= 1e-4]
    for spell in (g17, shortest):
        pieces, args = spell(values)
        assert len(args) == len(values)
        assert all(type(a) is int for a in args)

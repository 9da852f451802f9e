"""Seeded doubles for ``quadflow.digits``: ``g17`` checked against
``'%.17g'``, and ``shortest`` against ``repr`` (json's ``NaN``,
``Infinity`` and ``-Infinity`` where v is not finite).

``families(rng, n)`` draws about ``n`` doubles of each family, mixed so
that every chunk a writer formats holds all of them:

- random bit patterns, with the exponent field drawn uniformly, so that
  subnormals, +-inf and nan appear;
- a log-uniform sweep of |v| = 10^U(-6, 18), both signs;
- the ``nextafter`` neighbours of every power of ten from 1e-5 to 1e17,
  up to 20 ulps on either side;
- exact ties at the 17th digit: 13 integer digits plus k/32;
- 0, -0 and integer-valued floats of 1 to 20 digits, both signs;
- short decimals k / 10^j, k of 1 to 15 digits and j up to 22, whose
  shortest digits are k's, and their ``nextafter`` neighbours up to 3 ulps
  on either side;
- powers of two from 2^-1074 to 2^1023, whose gap below is half the gap
  above;
- exact ties at the 16th digit: 17 - j integer digits plus an odd multiple
  of 2^-j, j = 1 to 8, where for j >= 2 and the larger integers both
  16-digit neighbours read back as v;
- the edges of ``repr``'s fixed notation, 1e-4 and 1e16: up to 20 ulps
  either side, and relative offsets of 10^-16 to 10^-1.

``mismatches(values)`` and ``repr_mismatches(values)`` count the values
whose text differs.  The tier-1 tests (``tests/test_digits.py``) draw a
small sample; run as a script, this module checks ``CI_COUNT`` doubles in
chunks and prints both counts of mismatches and its seconds::

    PYTHONPATH=src python3 tests/digits_fuzz.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from quadflow.digits import g17, shortest

SEED = 41
CI_SEED = 2016
CI_COUNT = 10_000_000
_CHUNK = 100_000


def bit_patterns(rng, n):
    exponent = rng.integers(0, 2048, n, dtype=np.uint64)
    mantissa = rng.integers(0, 2 ** 52, n, dtype=np.uint64)
    sign = rng.integers(0, 2, n, dtype=np.uint64)
    bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
    return np.concatenate([bits.view(float),
                           [np.inf, -np.inf, np.nan, 5e-324, -2.2e-308]])


def log_uniform(rng, n):
    return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-6, 18, n)


def _walk(v, ulps):
    """Each of ``v`` moved by its count of ``ulps``, up or down."""
    steps = np.where(ulps < 0, -np.inf, np.inf)
    for _ in range(np.abs(ulps).max(initial=0)):
        v = np.where(ulps != 0, np.nextafter(v, steps), v)
        ulps = ulps - np.sign(ulps)
    return v


def power_neighbours(rng, n):
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    ulps = rng.integers(-20, 21, n)
    v = np.repeat(powers, -(-n // len(powers)))[:n]
    rng.shuffle(v)
    v = _walk(v, ulps)
    return np.concatenate([v, -v[:n // 2]])


def ties(rng, n):
    whole = rng.integers(10 ** 12, 10 ** 13, n).astype(float)
    v = whole + rng.integers(0, 32, n) / 32
    return v * rng.choice([-1.0, 1.0], n)


def integers(rng, n):
    digits = rng.integers(1, 21, n)
    v = np.floor(10.0 ** (digits - rng.uniform(0, 1, n)))
    return np.concatenate([v * rng.choice([-1.0, 1.0], n), [0.0, -0.0] * 8])


def _signs(rng, v):
    return v * rng.choice([-1.0, 1.0], len(v))


def short_decimals(rng, n):
    k = np.floor(10.0 ** rng.uniform(0, 15, n))
    return _signs(rng, k / 10.0 ** rng.integers(0, 23, n))


def short_neighbours(rng, n):
    return _walk(short_decimals(rng, n), rng.integers(-3, 4, n))


def powers_of_two(rng, n):
    return _signs(rng, np.ldexp(1.0, rng.integers(-1074, 1024, n)))


def ties16(rng, n):
    j = rng.integers(1, 9, n)
    whole = np.floor(10.0 ** (16 - j + rng.uniform(0, 1, n)))
    odd = 2 * np.floor(rng.uniform(0, 1, n) * 2.0 ** (j - 1)) + 1
    return _signs(rng, whole + np.ldexp(odd, -j))


def fixed_edges(rng, n):
    edges = rng.choice([1e-4, 1e16], n)
    near = _walk(edges, rng.integers(-20, 21, n))
    offset = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-16, -1, n)
    return _signs(rng, np.concatenate([near, edges * (1 + offset)]))


FAMILIES = (bit_patterns, log_uniform, power_neighbours, ties, integers,
            short_decimals, short_neighbours, powers_of_two, ties16,
            fixed_edges)


def families(rng, n):
    """About ``n`` doubles of each family, shuffled together."""
    v = np.concatenate([family(rng, n) for family in FAMILIES])
    rng.shuffle(v)
    return v


def mismatches(values) -> int:
    """The number of ``values`` whose text from ``g17`` is not
    ``'%.17g' % v``."""
    pieces, args = g17(values)
    got = ("\n".join(pieces) % tuple(args)).split("\n")
    want = ["%.17g" % v for v in np.asarray(values).tolist()]
    return len(want) if len(got) != len(want) else sum(
        a != b for a, b in zip(got, want))


_JSON = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def repr_mismatches(values) -> int:
    """The number of ``values`` whose text from ``shortest`` is not
    ``repr(v)``, or json's spelling of a non-finite v."""
    pieces, args = shortest(values)
    got = ("\n".join(pieces) % tuple(args)).split("\n")
    want = [_JSON.get(r, r) for r in map(repr, np.asarray(values).tolist())]
    return len(want) if len(got) != len(want) else sum(
        a != b for a, b in zip(got, want))


def main() -> int:
    rng = np.random.default_rng(CI_SEED)
    start, checked, bad, bad_repr = time.perf_counter(), 0, 0, 0
    while checked < CI_COUNT:
        values = families(rng, _CHUNK // len(FAMILIES))[:CI_COUNT - checked]
        bad += mismatches(values)
        bad_repr += repr_mismatches(values)
        checked += len(values)
    print(f"{checked} doubles, {bad} %.17g mismatches, {bad_repr} repr "
          f"mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if bad or bad_repr else 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded doubles for ``quadflow.digits.g17``, checked against ``'%.17g'``.

``families(rng, n)`` draws about ``n`` doubles of each family, mixed so
that every chunk a writer formats holds all of them:

- random bit patterns, with the exponent field drawn uniformly, so that
  subnormals, +-inf and nan appear;
- a log-uniform sweep of |v| = 10^U(-6, 18), both signs;
- the ``nextafter`` neighbours of every power of ten from 1e-5 to 1e17,
  up to 20 ulps on either side;
- exact ties at the 17th digit: 13 integer digits plus k/32;
- 0, -0 and integer-valued floats of 1 to 20 digits, both signs.

``mismatches(values)`` counts the values whose text differs.  The tier-1
tests (``tests/test_digits.py``) draw a small sample; run as a script, this
module checks ``CI_COUNT`` doubles in chunks and prints the count of
mismatches and its seconds::

    PYTHONPATH=src python3 tests/digits_fuzz.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from quadflow.digits import g17

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


def power_neighbours(rng, n):
    powers = np.array([float(f"1e{k}") for k in range(-5, 18)])
    ulps = rng.integers(-20, 21, n)
    steps = np.where(ulps < 0, -np.inf, np.inf)
    v = np.repeat(powers, -(-n // len(powers)))[:n]
    rng.shuffle(v)
    for _ in range(20):
        v = np.where(ulps != 0, np.nextafter(v, steps), v)
        ulps -= np.sign(ulps)
    return np.concatenate([v, -v[:n // 2]])


def ties(rng, n):
    whole = rng.integers(10 ** 12, 10 ** 13, n).astype(float)
    v = whole + rng.integers(0, 32, n) / 32
    return v * rng.choice([-1.0, 1.0], n)


def integers(rng, n):
    digits = rng.integers(1, 21, n)
    v = np.floor(10.0 ** (digits - rng.uniform(0, 1, n)))
    return np.concatenate([v * rng.choice([-1.0, 1.0], n), [0.0, -0.0] * 8])


FAMILIES = (bit_patterns, log_uniform, power_neighbours, ties, integers)


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


def main() -> int:
    rng = np.random.default_rng(CI_SEED)
    start, checked, bad = time.perf_counter(), 0, 0
    while checked < CI_COUNT:
        values = families(rng, _CHUNK // len(FAMILIES))[:CI_COUNT - checked]
        bad += mismatches(values)
        checked += len(values)
    print(f"{checked} doubles, {bad} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

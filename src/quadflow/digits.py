"""The bytes of ``'%.17g' % v`` for float64 arrays, from exact integer digits.

The CSV writers print every number as ``'%.17g' % v``, which costs about
0.45 us per number; ``'%d'`` prints a 17-digit integer in about 0.1 us.
:func:`g17` turns an array into one ``%`` format piece per value and the
arguments those pieces take, mostly one integer per value, so that a
writer fills a block of rows with one ``%`` and each number keeps the
bytes of ``'%.17g' % v``.

Where ``%.17g`` prints fixed notation, the decimal exponent e of v rounded
to 17 significant digits lies in [-4, 16], and the digits it prints are the
integer N = round-half-even(|v| * 10^k), k = 16 - e, with its trailing
zeros stripped.  For k <= 20, 10^k is a double, and Dekker's two-product
(a Veltkamp split by 2^27 + 1, without a fused multiply-add) gives
|v| * 10^k = p + err exactly.  Once p >= 1e16 > 2^53, p is an even integer
and |err| <= 8, so N = p + rint(err).  ``log10`` only guesses e: an N
outside [1e16, 1e17) moves e by one and N is computed again.  Zero and -0
get fixed pieces.  Every other value (non-finite, subnormal, in scientific
notation, or with an N outside [1e16, 1e17) after the second try) gets the
piece ``'%.17g'`` with itself as its argument, and so does every value of
an array too short to repay numpy's per-call cost.
"""

from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0   # 2^27 + 1: Veltkamp's split into two 26-bit halves
# 10^k is exact for k <= 22; a first guess of e can sit at -5, so k <= 21
_POW10 = np.array([float(10 ** k) for k in range(22)])
_INT10 = np.array([10 ** k for k in range(17)], dtype=np.int64)


def _halves(a):
    """Veltkamp's split a = hi + lo, each half with at most 26 bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _halves(_POW10)


def _digits(a, k):
    """round-half-even(a * 10^k) as int64, exact wherever fl(a * 10^k) >=
    2^53; below that the result is below 1e16, as the exact one is."""
    p = a * _POW10[k]
    ah, al = _halves(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


# format pieces by code: zero and -0; %d (an integer-valued |v| >= 1, its
# sign in the argument); 0. and 0 to 3 zeros before the digits (e = -1 to
# -4), unsigned then signed; the integer part, the point and w = 1..16
# zero-padded fraction digits; any other value, formatted by % itself
_ZERO, _INT, _FRAC, _MIXED, _OTHER = 0, 2, 3, 11, 27
_PIECES = np.array(["0", "-0", "%d"]
                   + ["0." + "0" * z + "%d" for z in range(4)]
                   + ["-0." + "0" * z + "%d" for z in range(4)]
                   + [f"%d.%0{w}d" for w in range(1, 17)] + ["%.17g"],
                   dtype=object)
_COUNT = np.array([piece.count("%") for piece in _PIECES])
# below about this many values numpy's per-call cost outweighs what the
# integers save, and every value takes the piece '%.17g'
_FEW = 256


def g17(values):
    """``%`` format pieces and their arguments for the 1-D float array
    ``values``: ``"".join(pieces) % tuple(args)`` is ``"".join('%.17g' % v
    for v in values)``.  A piece takes no, one or two arguments, in the
    order of the values: integers, or the value itself where the piece is
    ``'%.17g'``.  Every ``%`` in a piece starts a conversion."""
    v = np.asarray(values, dtype=float)
    if len(v) < _FEW:
        return np.full(len(v), "%.17g", dtype=object), v.tolist()
    a = np.abs(v)
    candidate = (a >= 9e-5) & (a < 1e17)   # nan is no candidate
    a = np.where(candidate, a, 1.0)
    # a < 1e17 may still round to log10 = 17
    e = np.minimum(np.floor(np.log10(a)), 16).astype(np.int64)
    n = _digits(a, 16 - e)
    shift = (n >= 10 ** 17).astype(np.int64) - (n < 10 ** 16)
    e += shift
    again = np.flatnonzero((shift != 0) & (e >= -4) & (e <= 16))
    if again.size:
        n[again] = _digits(a[again], 16 - e[again])
    fixed = (candidate & (e >= -4) & (e <= 16)
             & (n >= 10 ** 16) & (n < 10 ** 17))

    # d = n / 10^z without its z trailing zeros (at most 16)
    d, z = n, np.zeros(len(n), dtype=np.int64)
    tens = np.flatnonzero(fixed & (n // 10 * 10 == n))
    if tens.size:
        dt, zt = n[tens], z[tens]
        for s in (16, 8, 4, 2, 1):
            q = dt // _INT10[s]
            cut = q * _INT10[s] == dt
            dt, zt = np.where(cut, q, dt), zt + s * cut
        d = n.copy()
        d[tens], z[tens] = dt, zt

    neg = np.signbit(v)
    code = _FRAC - 1 + 4 * neg - e       # right where e < 0
    args = np.zeros((len(v), 2), dtype=np.int64)
    args[:, 0] = d
    big = np.flatnonzero(fixed & (e >= 0))
    if big.size:
        # the integer part, and the w fraction digits left after stripping
        db, w = d[big], 16 - e[big] - z[big]
        mixed = w > 0
        scale = _INT10[np.abs(w)]
        whole = np.where(mixed, db // scale, db * scale)
        args[big, 0] = np.where(neg[big], -whole, whole)
        args[big, 1] = np.where(mixed, db % scale, 0)
        code[big] = np.where(mixed, _MIXED - 1 + w, _INT)
    zero = v == 0
    code = np.where(fixed, code, np.where(zero, _ZERO + neg, _OTHER))
    count = _COUNT[code]
    taken = np.empty((len(v), 2), dtype=bool)
    taken[:, 0], taken[:, 1] = count > 0, count > 1
    args = args[taken]
    other = np.flatnonzero(code == _OTHER)
    if other.size:
        # the value itself is the argument of its piece
        args = args.astype(object)
        args[np.cumsum(count)[other] - 1] = v[other].tolist()
    return _PIECES[code], args.tolist()


def g17_rows(table, after) -> str:
    """The rows of the 2-D float array ``table``, each value as ``'%.17g'``
    and followed by its column's literal in ``after`` (``%`` escaped)."""
    pieces, args = g17(table.ravel())
    cells = np.empty((len(table), 2 * table.shape[1]), dtype=object)
    cells[:, 0::2] = pieces.reshape(table.shape)
    cells[:, 1::2] = after
    return "".join(cells.ravel().tolist()) % tuple(args)

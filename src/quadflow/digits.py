"""The bytes of ``'%.17g' % v`` and of ``repr(v)`` for float64 arrays, from
exact integer digits.

The CSV writers print every number as ``'%.17g' % v``, which costs about
0.45 us per number, and ``heisenberg.json`` prints it as ``repr(v)``, the
shortest digits that read back as v, which costs about 1 us; ``'%d'``
prints a 17-digit integer in about 0.1 us.  :func:`g17` and
:func:`shortest` turn an array into one ``%`` format piece per value and
the arguments those pieces take, mostly one integer per value, so that a
writer fills a block of rows with one ``%`` (:func:`rows`) and each number
keeps its bytes.

Where ``%.17g`` prints fixed notation, the decimal exponent e of v rounded
to 17 significant digits lies in [-4, 16], and the digits it prints are the
integer N = round-half-even(|v| * 10^k), k = 16 - e, with its trailing
zeros stripped.  For k <= 20, 10^k is a double, and Dekker's two-product
(a Veltkamp split by 2^27 + 1, without a fused multiply-add) gives
X = |v| * 10^k = p + err exactly.  Once p >= 1e16 > 2^53, p is an even
integer and |err| <= 8, so N = p + rint(err).  ``log10`` only guesses e:
an N outside [1e16, 1e17) moves e by one and N is computed again.

``repr`` prints fixed notation for e in [-4, 15], and its digits are the
fewest that read back as v, the nearest to v among those (David Gay's
shortest round trip).  A candidate C, a multiple of 10 or 100, reads back
as v where its distance C - X = (C - p) - err is below v's half-gap scaled
by 10^k, H = 2^(E-1) * 10^k for v = M * 2^E: an exact double, a power of
two times 10^k, in (0.55, 11.2).  So only a C with |C - p| <= 32 can pass,
and for it (C - p) - err is exact.  Of the two multiples of 10 around X
only the nearer can pass (half-way: the even one); a passing multiple of
100 is at least 100 from any other C with fewer trailing zeros, so none of
those passes.  N, the passing multiple of 10 and the passing multiple of
100 hold the shortest digits.  The half-gap below a power of two is H / 2,
and a distance of exactly H reads back on an even M, but neither decides
a digit here.  Every power of two in [1e-4, 1e16) is a decimal of at most
16 digits, the 16th one 2, 4, 6 or 8, so its X is a C itself, and 20 or
more from any other.  A C at distance H needs k = E = 1: an even integer
v whose X = 10 v is itself a multiple of 20.

Zero and -0, nan and the infinities get fixed pieces (``nan``, ``inf`` for
``%.17g``; json's ``NaN``, ``Infinity`` for :func:`shortest`).  Every other
value (subnormal, in scientific notation, or with an N outside [1e16,
1e17) after the second try) gets the piece ``'%.17g'`` or ``'%r'`` with
itself as its argument, and for :func:`g17` so does every value of an
array too short to repay numpy's per-call cost.
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


def _product(a, k):
    """a * 10^k = p + err exactly, where it does not overflow."""
    p = a * _POW10[k]
    ah, al = _halves(a)
    bh, bl = _POW10_HI[k], _POW10_LO[k]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _rint(p, err):
    """round-half-even(p + err) as int64, exact wherever p >= 2^53; below
    that the result is below 1e16, as the exact one is."""
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _shortest(a, k, err, n):
    """The fewest digits that read back as a, the nearest to a: n =
    rint(a * 10^k) rounded to the nearest multiple of 100 or of 10 where
    that lies within a's half-gap, else n."""
    half_gap = np.ldexp(_POW10[k], np.frexp(a)[1] - 54)
    over = err - np.rint(err)      # a * 10^k - n, in [-0.5, 0.5]
    short = n
    for step in (10, 100):
        q = n // step
        t = (n - q * step) + over  # a * 10^k - q * step, exact below 128
        up = (t > step / 2) | ((t == step / 2) & (q & 1 == 1))
        short = np.where(np.where(up, step - t, np.abs(t)) < half_gap,
                         (q + up) * step, short)
    return short


# format pieces by code: zero and -0; an integer-valued |v| >= 1, its sign
# in the argument; 0. and 0 to 3 zeros before the digits (e = -1 to -4),
# unsigned then signed; the integer part, the point and w = 1..16
# zero-padded fraction digits; nan, inf and -inf; any other value,
# formatted by % itself
_ZERO, _INT, _FRAC, _MIXED, _NAN, _INF, _OTHER = 0, 2, 3, 11, 27, 28, 30
_DIGITS = (["0." + "0" * z + "%d" for z in range(4)]
           + ["-0." + "0" * z + "%d" for z in range(4)]
           + [f"%d.%0{w}d" for w in range(1, 17)])
_G17 = np.array(["0", "-0", "%d", *_DIGITS, "nan", "inf", "-inf", "%.17g"],
                dtype=object)
_REPR = np.array(["0.0", "-0.0", "%d.0", *_DIGITS, "NaN", "Infinity",
                  "-Infinity", "%r"], dtype=object)
_COUNT = np.array([piece.count("%") for piece in _G17])   # as in _REPR
# below about this many values numpy's per-call cost outweighs what the
# integers save, and every value takes the piece '%.17g'
_FEW = 256


def _spell(v, short):
    """Pieces and their arguments for the float array v: the 17
    significant digits of ``%.17g``, or if ``short`` those of ``repr``."""
    a = np.abs(v)
    candidate = (a >= 9e-5) & (a < 1e17)   # nan is no candidate
    a = np.where(candidate, a, 1.0)
    # a < 1e17 may still round to log10 = 17
    e = np.minimum(np.floor(np.log10(a)), 16).astype(np.int64)
    p, err = _product(a, 16 - e)
    n = _rint(p, err)
    shift = (n >= 10 ** 17).astype(np.int64) - (n < 10 ** 16)
    e += shift
    again = np.flatnonzero((shift != 0) & (e >= -4) & (e <= 16))
    if again.size:
        p[again], err[again] = _product(a[again], 16 - e[again])
        n[again] = _rint(p[again], err[again])
    del p, shift, again
    fixed = (candidate & (e >= -4) & (e <= 16)
             & (n >= 10 ** 16) & (n < 10 ** 17))
    if short:
        n = _shortest(a, np.where(fixed, 16 - e, 0), err, n)
        carry = n == 10 ** 17
        n, e = np.where(carry, 10 ** 16, n), e + carry
        fixed &= e <= 15
    del a, err

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
    rest = np.where(v == 0, _ZERO + neg, _OTHER)
    if not candidate.all():
        rest = np.where(np.isinf(v), _INF + neg,
                        np.where(np.isnan(v), _NAN, rest))
    code = np.where(fixed, code, rest)
    count = _COUNT[code]
    taken = np.empty((len(v), 2), dtype=bool)
    taken[:, 0], taken[:, 1] = count > 0, count > 1
    args = args[taken]
    other = np.flatnonzero(code == _OTHER)
    if other.size:
        # the value itself is the argument of its piece
        args = args.astype(object)
        args[np.cumsum(count)[other] - 1] = v[other].tolist()
    return (_REPR if short else _G17)[code], args.tolist()


def g17(values):
    """``%`` format pieces and their arguments for the 1-D float array
    ``values``: ``"".join(pieces) % tuple(args)`` is ``"".join('%.17g' % v
    for v in values)``.  A piece takes no, one or two arguments, in the
    order of the values: integers, or the value itself where the piece is
    ``'%.17g'``.  Every ``%`` in a piece starts a conversion."""
    v = np.asarray(values, dtype=float)
    if len(v) < _FEW:
        return np.full(len(v), "%.17g", dtype=object), v.tolist()
    return _spell(v, False)


def shortest(values):
    """As :func:`g17`, for json's text of each float: ``repr(v)``, or
    ``NaN``, ``Infinity`` and ``-Infinity``; ``'%r'`` is the piece that
    takes the value itself."""
    return _spell(np.asarray(values, dtype=float), True)


def rows(table, after, spell=g17) -> str:
    """The rows of the 2-D float array ``table``, each value spelled by
    ``spell`` (:func:`g17` or :func:`shortest`) and followed by its
    column's literal in ``after`` (``%`` escaped)."""
    pieces, args = spell(table.ravel())
    cells = np.empty((len(table), 2 * table.shape[1]), dtype=object)
    cells[:, 0::2] = pieces.reshape(table.shape)
    cells[:, 1::2] = after
    return "".join(cells.ravel().tolist()) % tuple(args)

"""The exact ``"%.17g"`` text of float64 arrays, computed in numpy.

g17_text lays out the text of a block of values in a byte buffer, padded
with NUL bytes, so that a caller writes many values with one deletion of
the NUL bytes and one write.  The digits come from double-double
arithmetic (Dekker's exact two-product), and the text equals Python's
``"%.17g" % x`` byte for byte.
"""

from __future__ import annotations

import functools

import numpy as np

# Every character some "%.17g\n" layout keeps: a sign, "0.000" (X < 0 in
# fixed notation), 17 digits with a '.' after each of the first 16, and
# "e+XXX".  A layout is a 0/1 mask over these: 0 makes the char a NUL.
_CHARS = b"-0.000" + b"0." * 16 + b"0e+000\n"
G17_WIDTH = len(_CHARS)
_DIGITS = slice(6, 39, 2)
_POINTS = slice(7, 38, 2)
_EXPONENT = slice(40, 44)

_FAST_RANGE = (1e-270, 1e270)
_TIE_GAP = 1e-9
_E16, _E17 = 10**16, 10**17
_X_OFFSET = 400  # the exponent tables cover |X| < 400


def g17_text(x: np.ndarray, text: np.ndarray) -> None:
    """Fill text, uint8 of shape (len(x), G17_WIDTH), so that row r with its
    NUL bytes deleted is ``b"%.17g\\n" % x[r]``.

    ``"%.17g" % x`` is fixed by the sign of x, by the exponent X after
    rounding and by the 17-digit integer D = round(|x| / 10^(X-16)) in
    [10^16, 10^17).  _decimal17 computes D and X exactly for 1e-270 <= |x| <=
    1e270:

    * ``e = floor(log10 |x|)`` is X, or X -+ 1 when |x| is within a few ulps
      of a power of ten, so ``V = |x| 10^(16-e)`` lies in [10^15, 10^18).
    * _pow10 gives ``10^k = hi + lo + r`` with hi = fl(10^k) and lo = fl(10^k
      - hi) rounded from the exact integer or rational: ``|r| <= 2^-106 10^k``.
    * Dekker's two-product (Veltkamp's split) gives ``|x| hi = p + err``
      exactly; in the range above no split half or partial product leaves the
      normal doubles.  So ``V = p + err + |x| lo + |x| r``, with ``|x| lo <=
      2^-52 V`` and ``||x| r| <= 2^-106 V``.
    * ``q = (p - floor p) + (err + fl(|x| lo))`` rounds three numbers below
      300, so ``floor(p) + q`` is V to within 1e-13, and ``N = floor p +
      floor q``, ``frac = q - floor q`` (both exact) give V = N + frac.  N >=
      10^17 moves N's last digit into frac, N < 10^16 frac's first digit into
      N (the error grows to 1e-12), and X follows.  ``D = N + (frac > 1/2)``
      is round(V) whenever ``|frac - 1/2| > 1e-9``; D = 10^17 carries to
      10^16 and X + 1.  An error that puts N on the wrong side of 10^16 or
      10^17 changes nothing: V that close to 10^16 or 10^17 gives the same D
      and X from either side.

    The %g layout is fixed notation for -4 <= X < 17 ("0.000ddd" for X < 0),
    else exponent notation with ``e+XX`` or ``e-XXX``; trailing zeros and a
    bare '.' are dropped, and a set sign bit, -0.0's too, prints "-".  Zeros
    are D = X = 0.  Values outside [1e-270, 1e270] (also NaN and inf) and
    near-ties fall back to ``b"%.17g" % x`` for their row.
    """
    digits, exponents, style, layouts = _tables()
    a = np.abs(x)
    zero = a == 0
    fast = (a >= _FAST_RANGE[0]) & (a <= _FAST_RANGE[1])
    D, X, decided = _decimal17(np.where(fast, a, 1.0))
    D[zero] = X[zero] = 0
    groups = np.empty((len(D), 5), np.int64)  # "000" + D's first digit, then 4 digits each
    for j in range(4, 0, -1):
        D, groups[:, j] = np.divmod(D, 10**4)
    groups[:, 0] = D
    chars = np.take(digits, groups).view(np.uint8)[:, 3:]
    text[:] = np.frombuffer(_CHARS, np.uint8)
    text[:, _DIGITS] = chars
    nd = 17 - np.argmax(chars[:, ::-1] != ord("0"), axis=1)  # digits up to the last nonzero
    nd[zero] = 1
    X += _X_OFFSET
    text[:, _EXPONENT] = np.take(exponents, X).view(np.uint8).reshape(-1, 4)
    text *= np.take(layouts, (nd - 1) * 46 + np.take(style, X) + np.signbit(x), axis=0)
    for r in np.flatnonzero(~(fast & decided | zero)):
        s = b"%.17g\n" % x[r]
        text[r] = 0
        text[r, : len(s)] = np.frombuffer(s, np.uint8)


@functools.cache
def _pow10(k: int) -> tuple[float, float]:
    """10^k as hi + lo: hi = fl(10^k), lo = fl(10^k - hi), from exact integers."""
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    hi = 1 / 10**-k
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10**-k) / (den * 10**-k)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """g17_text's tables, built on first use.

    digits[i] and exponents[X + _X_OFFSET] are uint32s whose bytes are
    ``"%04d" % i`` (i < 10^4) and ``"%+04d" % X``.  A layout's code is
    ``(nd - 1) * 46 + style[X + _X_OFFSET] + sign bit``, nd the number of
    digits up to the last nonzero one; layouts[code] is its 0/1 mask.
    """
    i = np.arange(10**4, dtype=np.uint16)
    chars = np.empty((10**4, 4), np.uint8)
    for j, scale in enumerate((1000, 100, 10, 1)):
        chars[:, j] = i // scale % 10 + ord("0")
    xs = np.arange(-_X_OFFSET, _X_OFFSET)
    exps = chars[abs(xs)]  # |X| < 1000, so the first char is '0': make it the sign
    exps[:, 0] = np.where(xs < 0, ord("-"), ord("+"))
    # style s: X = s - 4 in fixed notation for s <= 20, else exponent
    # notation with two (s = 21) or three (s = 22) exponent digits
    style = 2 * np.where((xs >= -4) & (xs < 17), xs + 4, np.where(abs(xs) < 100, 21, 22))
    code = np.arange(17 * 46)
    nd, s, neg = code // 46 + 1, code % 46 // 2, code % 2 == 1
    x = np.where(s <= 20, s - 4, np.where(s == 21, 17, 100))
    small, large = s < 4, (s >= 4) & (s <= 20)
    point = np.where(large, x, 0)  # the '.' follows this digit ...
    point[small | (nd <= point + 1)] = -1  # ... unless no digit follows it
    # Row n of np.tri(m + 1, m, -1) keeps the first n of m chars, row p of
    # np.eye(17, 16) the p-th and row -1 none: indexing them needs no
    # broadcast comparison, whose buffers would take 150 kB.
    keep = np.zeros((len(code), G17_WIDTH), bool)
    keep[:, 0] = neg
    keep[:, 1] = keep[:, 2] = small
    keep[:, 3:6] = np.tri(4, 3, -1, dtype=bool)[np.where(small, -1 - x, 0)]
    keep[:, _DIGITS] = np.tri(18, 17, -1, dtype=bool)[np.where(large, np.maximum(nd, x + 1), nd)]
    keep[:, _POINTS] = np.eye(17, 16, dtype=bool)[point]
    keep[:, 39:44] = (s > 20)[:, None]
    keep[:, 41] &= s == 22
    keep[:, -1] = True
    return (chars.view(np.uint32).ravel(), exps.view(np.uint32).ravel(),
            style.astype(np.int16), keep.view(np.uint8))


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo exactly, each with at most 26 significant bits."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _decimal17(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, X, decided) with D in [10^16, 10^17) the correctly rounded
    a / 10^(X-16), for 1e-270 <= a <= 1e270, where decided is true; false
    marks a near-tie.  The proof is in g17_text's docstring."""
    e = np.floor(np.log10(a)).astype(np.int64)
    k = 16 - e
    k0 = int(k.min())
    hi, lo = np.array([_pow10(j) for j in range(k0, int(k.max()) + 1)]).T
    hi, lo = np.take(hi, k - k0), np.take(lo, k - k0)
    p = a * hi
    ah, al = _split(a)
    bh, bl = _split(hi)
    err = al * bl - (((p - ah * bh) - al * bh) - ah * bl)  # a * hi - p, exactly
    whole = np.floor(p)
    q = (p - whole) + (err + a * lo)
    q_whole = np.floor(q)
    N = whole.astype(np.int64) + q_whole.astype(np.int64)
    frac = q - q_whole
    up = N >= _E17
    frac[up] = (N[up] % 10 + frac[up]) / 10
    N[up] //= 10
    down = N < _E16
    t = 10 * frac[down]
    N[down] = 10 * N[down] + np.floor(t).astype(np.int64)
    frac[down] = t - np.floor(t)
    D = N + (frac > 0.5)
    carry = D == _E17
    D[carry] = _E16
    return D, e + up - down + carry, np.abs(frac - 0.5) > _TIE_GAP

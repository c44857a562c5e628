"""Exactly Python's `'%.17g' % v` text for float64 arrays, vectorized.

A finite |x| in (1e-6, 1e16) has a decimal exponent d whose scale 10**q,
q = 16 - d, is an exact double (1 <= q <= 22). Its 17 significant
digits are the integer N nearest to x * 10**q, ties to even. The product
p = fl(x * 10**q) and its exact rounding error e come from Dekker's
error-free product with Veltkamp's split (Numer. Math. 18, 1971); where the
exact product lies in [1e16, 1e17), p >= 1e16 > 2**53 is an even integer,
so N = p + rint(e). The exponent comes from log10, which is off by at most
one, and moves by one where the product falls outside that range. N never
rounds up to 1e17: the largest double below each power of ten in range is
more than half a 17th-digit unit below it (tests/test_floattext.py checks).

The digits come from a table of 4-digit words, with trailing zeros as NUL
bytes. Values are sorted by exponent and sign, so that each group lays out
its text (the fixed or e-notation form %g picks) with whole-column copies
into a fixed-width byte row; a block's rows are then put back in order,
and its text is every non-NUL byte. Zeros are written as they are; every
other value (subnormal, at most 1e-6, at or above 1e16, nan, +-inf) goes
through one Python `%` call per block, and so does every value of an array
smaller than VECTOR_MIN.
"""
from __future__ import annotations

import numpy as np

# values formed at a time: a block's text is handed out before the next is formed
BLOCK = 8192
# arrays with fewer values go through Python's % whole: the vector path's fixed
# cost (about 0.1 ms) is that of formatting about 250 values one by one
VECTOR_MIN = 256

_WIDTH = 24  # the longest %.17g text, as in "-2.2250738585072014e-308"
_POW10 = np.array([10.0 ** q for q in range(23)])  # exact: 5**22 < 2**53
_VELTKAMP = 134217729.0  # 2**27 + 1
_ZERO, _POINT, _MINUS = ord("0"), ord("."), ord("-")


def _text4():
    """The texts "0000".."9999" as 4-byte words, then the same with trailing
    zeros as NUL bytes."""
    digits = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1)[:, ::-1]
    text = (digits + _ZERO).astype(np.uint8)
    return np.concatenate([text, np.where(trailing, 0, text)]).view(np.uint32).ravel()


_TEXT4 = _text4()
# sort keys: (exponent + 6) * 2 + sign for exponents -6..15, then these
_ZERO_KEY, _PYTHON_KEY = 44, 46


def _split(a):
    """Veltkamp's split: hi + lo == a, each half with at most 26 bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(x, q):
    """N = x * 10**q rounded half-even to an integer, exactly, and whether the
    exact product lies below 1e16 or at or above 1e17 (where N is not used)."""
    p = x * _POW10[q]
    x_hi, x_lo = _split(x)
    y_hi, y_lo = _POW10_HI[q], _POW10_LO[q]
    e = ((x_hi * y_hi - p) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo  # p + e == x * 10**q
    below = (p < 1e16) | ((p == 1e16) & (e < 0.0))
    above = (p > 1e17) | ((p == 1e17) & (e >= 0.0))
    return p.astype(np.int64) + np.rint(e).astype(np.int64), below, above


def _digits(x):
    """For x in (1e-6, 1e16): the 17 digits of each x as 5 words (the first
    digit last in word 0, trailing zeros NUL) and its decimal exponent."""
    q = np.clip(16 - np.floor(np.log10(x)).astype(np.int64), 0, 22)
    n, below, above = _scaled(x, q)
    off = np.flatnonzero(below | above)
    if off.size:
        q[off] += below[off].astype(np.int64) - above[off]
        n[off] = _scaled(x[off], q[off])[0]
    top = n // 10 ** 8
    low = n - top * 10 ** 8
    lead = top // 10 ** 8
    high = top - lead * 10 ** 8
    g1, g3 = high // 10 ** 4, low // 10 ** 4
    g2, g4 = high - g1 * 10 ** 4, low - g3 * 10 ** 4
    words = np.empty((x.size, 5), np.uint32)
    words[:, 0] = _TEXT4[lead]  # "000d"
    # a group's trailing zeros are NUL where every later group is zero
    words[:, 1] = _TEXT4[g1 + 10 ** 4 * ((g2 == 0) & (low == 0))]
    words[:, 2] = _TEXT4[g2 + 10 ** 4 * (low == 0)]
    words[:, 3] = _TEXT4[g3 + 10 ** 4 * (g4 == 0)]
    words[:, 4] = _TEXT4[g4 + 10 ** 4]
    return words, 16 - q


def _layout(out, digits, exponent, negative):
    """Write the %g text of one exponent and sign into the rows of `out`."""
    col = 0
    if negative:
        out[:, 0] = _MINUS
        col = 1
    if exponent >= 0:  # fixed: integer digits (their zeros put back), point, fraction
        out[:, col:col + exponent + 1] = digits[:, :exponent + 1] | _ZERO
        out[:, col + exponent + 1] = np.where(digits[:, exponent + 1] != 0, _POINT, 0)
        out[:, col + exponent + 2:col + 18] = digits[:, exponent + 1:]
    elif exponent >= -4:  # fixed: "0.", leading zeros, digits
        lead = np.frombuffer(b"0." + b"0" * (-exponent - 1), np.uint8)
        out[:, col:col + lead.size] = lead
        out[:, col + lead.size:col + lead.size + 17] = digits
    else:  # e-notation: first digit, point, fraction, exponent
        out[:, col] = digits[:, 0]
        out[:, col + 1] = np.where(digits[:, 1] != 0, _POINT, 0)
        out[:, col + 2:col + 18] = digits[:, 1:]
        out[:, col + 18:col + 22] = np.frombuffer(b"e-%02d" % -exponent, np.uint8)


def _python_texts(values) -> list[str]:
    """`'%.17g' % v` of every value, in one % call."""
    return ("%.17g\0" * len(values) % tuple(values.tolist())).split("\0")[:-1]


def _block_text(v, row_end, sep):
    """The %.17g texts of `v`, each followed by `sep`, or by a newline where
    `row_end` is set, as one string."""
    x, negative = np.abs(v), np.signbit(v)
    # the double 1e-6 lies below 10**-6, so every x in range has q <= 22
    in_range = (x > 1e-6) & (x < 1e16)
    words, exponent = _digits(np.where(in_range, x, 1.0))
    key = ((exponent + 6) * 2 + negative).astype(np.uint8)
    key[x == 0.0] = _ZERO_KEY + negative[x == 0.0]
    key[~in_range & (x != 0.0)] = _PYTHON_KEY
    order = np.argsort(key, kind="stable")
    digits = words.view("V20").ravel().take(order).view(np.uint8).reshape(-1, 20)[:, 3:]
    width = _WIDTH + len(sep)
    out = np.zeros((v.size, width), np.uint8)
    counts = np.bincount(key, minlength=_PYTHON_KEY + 1)
    ends = np.cumsum(counts).tolist()
    for group in np.flatnonzero(counts).tolist():
        rows = slice(ends[group] - counts[group], ends[group])
        if group < _ZERO_KEY:
            _layout(out[rows], digits[rows], group // 2 - 6, group % 2)
        elif group < _PYTHON_KEY:
            zero = b"0" if group == _ZERO_KEY else b"-0"
            out[rows, :len(zero)] = np.frombuffer(zero, np.uint8)
        else:
            text = _python_texts(v[order[rows]])
            out[rows, :_WIDTH] = np.array(text, f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
    back = np.empty_like(order)
    back[order] = np.arange(order.size)
    buf = out.view(f"V{width}").ravel().take(back).view(np.uint8).reshape(-1, width)
    buf[:, _WIDTH:] = np.frombuffer(sep, np.uint8)
    buf[row_end, _WIDTH:] = 0
    buf[row_end, _WIDTH] = ord("\n")
    return buf.tobytes().translate(None, b"\0").decode("ascii")


def format_rows(values, sep: str = ","):
    """Yield, for each row of a 2-D float array, its values' `'%.17g' % v`
    texts joined by `sep` (which holds no newline)."""
    values = np.asarray(values, dtype=float)
    n_rows, n_cols = values.shape
    if n_cols == 0:
        yield from [""] * n_rows
        return
    flat = values.ravel()
    if flat.size < VECTOR_MIN:
        texts = _python_texts(flat)
        yield from (sep.join(texts[lo:lo + n_cols]) for lo in range(0, flat.size, n_cols))
        return
    sep, pending = sep.encode("ascii"), ""
    for lo in range(0, flat.size, BLOCK):
        stop = min(lo + BLOCK, flat.size)
        row_end = np.arange(lo, stop) % n_cols == n_cols - 1
        *rows, pending = (pending + _block_text(flat[lo:stop], row_end, sep)).split("\n")
        yield from rows

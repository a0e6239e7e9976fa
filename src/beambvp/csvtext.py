"""Exact ``%.17g`` CSV text for float tables, vectorized over cells.

Each cell's 17 digits come from a double-double product |x| * 10**k; its
text is masked out of a byte row holding every character a cell can need.
The finite cells the kernel cannot certify, near-ties, are formatted by
``%``, in one call per chunk.
"""

from __future__ import annotations

import functools

import numpy as np

from .grid import nodes

CHUNK = 4096  # cells per chunk, rounded down to whole rows
_KMIN, _KMAX = -292, 340  # the scale factors 10**k that every finite nonzero |x| needs
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's split constant
_WIDE = 24  # longest %.17g text: -2.2250738585072014e-308
# A cell's byte row, in output order: "-", "0.000", d0, ".", d1..d16 (in fixed
# notation with X >= 1, d1..dX move left and the point follows dX), "e+XXX",
# the separator.  Fallback text overwrites columns 1.._WIDE.
_MINUS, _LEAD, _DIGIT, _EXP, _SEP = 0, 1, 6, 24, 29
_PREFIX = b"0.0000."  # the fixed bytes of columns _LEAD.._DIGIT + 1 (_DIGIT is d0's)
# layouts: fixed notation for X = -4..16, exponent notation with 2 or 3
# exponent digits, each for 1..17 digits, then fallback text of 1.._WIDE bytes
_FIXED, _FALLBACK = 21 * 17, 23 * 17
_LAYOUTS = _FALLBACK + _WIDE


@functools.cache
def _powers() -> tuple[np.ndarray, np.ndarray]:
    """By k - _KMIN: rows (hi, hh, hl, lo) and scales 2**e, where 10**k =
    2**e * (hi + lo) with e about log2(10**k), at most 1023, hi and lo each
    rounded to nearest, and hi = hh + hl split."""
    rows = []
    for k in range(_KMIN, _KMAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        e = min(num.bit_length() - den.bit_length(), 1023)
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        p, q = (num / den).as_integer_ratio()  # int / int rounds correctly
        rows.append((p / q, (num * q - p * den) / (q * den), e))
    hi, lo, e = np.array(rows).T
    return np.stack([hi, *_split(hi), lo], axis=1), np.ldexp(1.0, e.astype(int))


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp: a = high + low with at most 26 bits in each."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(v: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part and fraction of v * 10**(16 - X), exact where the product
    is at least 2**53; a smaller one comes out below 10**16 all the same."""
    table, scales = _powers()
    hi, hh, hl, lo = table.take(16 - _KMIN - X, axis=0).T
    # exact: v * 2**e = v * 10**k / (hi + lo) is a normal double; the error bound
    # below reads v for v * 2**e and 10**k for 10**k / 2**e
    v = v * scales.take(16 - _KMIN - X)
    p = v * hi  # an integer from 2**53 on
    vh, vl = _split(v)
    # Error bound.  Dekker: vh*hh - p + vh*hl + vl*hh + vl*hl, summed in this
    # order, is exact and equals v*hi - p.  Below 1e17, |v*hi - p| <= 8 (half
    # an ulp of p), |v*lo| < 12 and |v*10**k - v*(hi + lo)| <= 2**-53 |v*lo|, so
    # that error and the roundings of v*lo and of its sum (below 20) leave r
    # within 1e-14 of v * 10**k - p.
    r = ((vh * hh - p) + vh * hl + vl * hh) + vl * hl + v * lo
    n = np.floor(r)
    return p.astype(np.int64) + n.astype(np.int64), r - n


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fast, R, X): |x| rounds to R * 10**(X - 16) with 10**16 <= R < 10**17,
    certified where ``fast``; zeros are fast with R = X = 0."""
    a = np.abs(x)
    fast = np.isfinite(a) & (a > 0.0)
    v = np.where(fast, a, 1.0)
    X = np.floor(np.log10(v)).astype(np.int64)
    n, frac = _scaled(v, X)
    off = (n >= 10**17).astype(np.int64) - (n < 10**16)  # log10 is off near 10**j
    redo = np.flatnonzero(off)
    if redo.size:
        X[redo] += off[redo]
        n[redo], frac[redo] = _scaled(v[redo], X[redo])
    # frac is within 1e-14 of the exact fraction, so outside this band rounding
    # half-even decides as the exact value would; exact ties fall inside it
    fast &= (n >= 10**16) & (n < 10**17) & (np.abs(frac - 0.5) > 1e-7)
    R = n + (frac > 0.5)
    carry = R == 10**17
    R[carry] = 10**16
    X += carry
    zero = a == 0
    R[zero] = X[zero] = 0
    return fast | zero, R, X


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Lookup tables: by 0..9999 its four ASCII digits as one uint32 and its
    trailing zeros (4 for 0); by X + 330 the "e+XX" text and the first layout
    of X's notation; by layout (plus _LAYOUTS for a minus) the column mask."""
    ascii4 = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T) + 48
    zeros4 = (ascii4[:, ::-1] == 48).cumprod(axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)
    X = range(-330, 331)
    exp_text = np.array([b"e%+03d" % x for x in X], dtype="S5").view(np.uint8).reshape(-1, 5)
    first = np.array([(x + 4) * 17 if -4 <= x < 17 else _FIXED + 17 * (abs(x) >= 100) for x in X])

    def digits(s, point):  # the first s digits, with the point if one follows
        return range(_DIGIT, _DIGIT + s + (s > point + 1))
    layouts = [[*range(_LEAD, _LEAD + 1 - X), _DIGIT, *range(_DIGIT + 2, _DIGIT + 1 + s)] if X < 0
               else digits(max(s, X + 1), X) for X in range(-4, 17) for s in range(1, 18)]
    layouts += [[*digits(s, 0), *range(_EXP, _EXP + width)] for width in (4, 5) for s in range(1, 18)]
    layouts += [range(1, 1 + width) for width in range(1, _WIDE + 1)]
    masks = np.zeros((2, _LAYOUTS, _SEP + 1), bool)
    for i, cols in enumerate(layouts):
        masks[:, i, list(cols)] = True
    masks[:, :, _SEP] = masks[1, :, _MINUS] = True
    return ascii4.view(np.uint32).ravel(), zeros4, exp_text, first, masks.reshape(-1, _SEP + 1)


def table_chunks(cells: np.ndarray):
    """Yield the CSV text of the 2-D float array ``cells``: cells joined by
    ",", each row ended by a newline, in chunks of whole rows."""
    for rows in _masked_rows(cells):
        yield rows.tobytes().translate(None, b"\0")  # masked-out bytes are NUL


def _masked_rows(cells: np.ndarray):
    """Yield the byte rows of ``cells``, masked-out bytes NUL, per chunk in one
    reused array; a leading column bit-equal to the grid nodes is cached."""
    rows, cols = cells.shape
    step = max(CHUNK // cols, 1)
    head = int(cols > 1 and np.array_equal(cells[:, 0].view(np.int64), nodes(rows - 1).view(np.int64)))
    column = _node_column(rows) if head else None
    width = min(step, rows)
    out = np.empty((width, cols, _SEP + 1), np.uint8)
    src = np.zeros((width * (cols - head), _SEP + 1), np.uint8)
    src[:, _MINUS] = ord("-")
    src[:, _SEP] = np.tile(np.frombuffer(b"," * (cols - 1) + b"\n", np.uint8)[head:], width)
    mask = np.empty_like(src, dtype=bool)
    for start in range(0, rows, step):
        block = cells[start:start + step]
        if head:
            out[:len(block), 0] = column[start:start + step]
        x = block[:, head:].ravel()
        _chunk_text(x, src[:x.size], mask[:x.size], out[:len(block), head:])
        yield out[:len(block)]


@functools.lru_cache(maxsize=4)  # read-only: every table on one grid shares it
def _node_column(rows: int) -> np.ndarray:
    """The byte rows of the grid nodes as a leading column, by :func:`_masked_rows`
    on their one-column table, which has no leading column to look up."""
    column = np.empty((rows, _SEP + 1), np.uint8)
    for start, chunk in zip(range(0, rows, CHUNK), _masked_rows(nodes(rows - 1)[:, None])):
        column[start:start + CHUNK] = chunk[:, 0]
    column[:, _SEP] = ord(",")
    column.flags.writeable = False
    return column


def _chunk_text(x: np.ndarray, src: np.ndarray, mask: np.ndarray, out: np.ndarray) -> None:
    """The byte rows of the cells ``x`` into ``out``, masked, built in the rows ``src``."""
    ascii4, zeros4, exp_text, first, masks = _tables()
    fast, R, X = _digits(x)
    src[:, _LEAD:_DIGIT + 2] = np.frombuffer(_PREFIX, np.uint8)  # text may overwrite it
    quotients = [R // 10**j for j in (16, 12, 8, 4)] + [R]  # no %: int64 % costs 4x //
    groups = [low - 10**4 * high for high, low in zip(quotients, quotients[1:])]
    src[:, _DIGIT] = quotients[0] + 48
    src[:, _DIGIT + 2:_EXP] = ascii4.take(np.stack(groups, axis=1)).view(np.uint8)
    zeros = zeros4.take(groups[-1])
    more = np.flatnonzero(zeros == 4)
    for group in groups[-2::-1]:  # trailing zeros, counted on where all of the later groups are 0
        z = zeros4.take(group[more])
        zeros[more] += z
        more = more[z == 4]
    # fixed notation from X = 1 on: d1..dX move left and the point follows dX
    for shift in np.flatnonzero(np.bincount(X.clip(0, 17), minlength=18)[1:17]) + 1:
        rows = np.flatnonzero(X == shift)
        src[rows, _DIGIT + 1:_DIGIT + 1 + shift] = src[rows, _DIGIT + 2:_DIGIT + 2 + shift]
        src[rows, _DIGIT + 1 + shift] = ord(".")
    X += 330
    src[:, _EXP:_SEP] = exp_text.take(X, axis=0)
    key = first.take(X) + 16 - zeros + _LAYOUTS * np.signbit(x)
    finite = np.isfinite(x)
    special = np.flatnonzero(~finite)
    if special.size:  # "nan", "inf" and "-inf"
        inf = np.isinf(x[special]).astype(np.intp)
        src[special, 1:4] = np.frombuffer(b"naninf", np.uint8).reshape(2, 3).take(inf, axis=0)
        key[special] = _FALLBACK + 2 + _LAYOUTS * (x[special] < 0)
    slow = np.flatnonzero(~fast & finite)
    if slow.size:
        text = ("%.17g\0" * slow.size % tuple(x[slow].tolist())).encode().split(b"\0")[:-1]
        text = np.array(text, dtype=f"S{_WIDE}").view(np.uint8).reshape(-1, _WIDE)
        src[slow, 1:1 + _WIDE] = text
        key[slow] = _FALLBACK - 1 + np.count_nonzero(text, axis=1)
    np.take(masks, key, axis=0, out=mask, mode="clip")  # "raise" would buffer out
    # masked-out bytes become NUL, which no %.17g text holds
    np.multiply(src.reshape(out.shape), mask.reshape(out.shape), out=out)

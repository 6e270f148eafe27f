"""CSV tables written from 1-D columns, every float field formatted in numpy.

A float64 field is byte-identical to Python's ``"%.16e" % value``: 17
significant digits, which round-trip float64 exactly.  With
e = floor(log10 |x|), the 17-digit mantissa is y = |x| 10^(16-e) rounded to
an integer.  y is computed in double-double: 10^(16-e) is a hi + lo pair
built from exact integers and |x| * hi an error-free product by Dekker's
split (Dekker 1971, "A floating-point technique for extending the
available precision"), so y carries an error below 1e-14.  A value this
cannot settle takes Python's own formatting instead, so every field equals
Python's by construction, not by luck:

- |x| outside [1e-280, 1e280], nan and inf (zeros are exact on the fast
  path);
- y within 1e-6 of a rounding tie;
- floor(y) outside [10^16, 10^17), where log10 misjudged the decade, or y
  rounding up to 10^17.

Integer and string columns are formatted per value.  The rows go out in
blocks of at most `BLOCK_VALUES` fields, each a (rows, width) byte matrix
whose zero padding is dropped on the way out, so the memory of a write
stays flat in the row count.
"""

from __future__ import annotations

import numpy as np

BLOCK_VALUES = 4096
# a float field as seven uint32 words: sign, lead digit and point; four
# groups of four digits; the exponent in two words, whose last byte is free
# for the separator.  Zero bytes pad.
FLOAT_WIDTH = 28

_SPLITTER = 134217729.0  # 2^27 + 1, Dekker's split of a 53-bit double
_MIN_FAST, _MAX_FAST = 1e-280, 1e280
_TIE_MARGIN = 1e-6
# e = floor(log10 |x|) for |x| in [1e-280, 1e280] and 0 elsewhere: |e| <= 281
_MAX_EXPONENT = 300
_MINUS, _PLUS, _POINT, _E, _COMMA, _NEWLINE = b"-+.e,\n"


def _digit_table(count: int) -> np.ndarray:
    """(10**count, count) uint8: row k holds the `count` ASCII digits of k."""
    table = np.empty((10,) * count + (count,), dtype=np.uint8)
    for k in range(count):
        table[..., k] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (count - 1 - k))
    return table.reshape(-1, count)


def _heads() -> np.ndarray:
    """uint32 words of sign, lead digit and point, by 10 * signbit + digit."""
    heads = np.zeros((2, 10, 4), dtype=np.uint8)
    heads[1, :, 0] = _MINUS
    heads[:, :, 1] = np.arange(48, 58)
    heads[:, :, 2] = _POINT
    return heads.view(np.uint32).ravel()


def _exponents() -> np.ndarray:
    """(2 * _MAX_EXPONENT + 1, 2) uint32 words of "e-300" .. "e+300", with
    the hundreds digit only where it is not 0."""
    e = np.arange(-_MAX_EXPONENT, _MAX_EXPONENT + 1)
    text = np.zeros((e.size, 8), dtype=np.uint8)
    text[:, 0] = _E
    text[:, 1] = np.where(e < 0, _MINUS, _PLUS)
    text[:, 2:5] = _digit_table(3)[np.abs(e)]
    text[np.abs(e) < 100, 2] = 0
    return text.view(np.uint32)


_HEADS = _heads()
_GROUPS = _digit_table(4).view(np.uint32).ravel()
_EXPONENTS = _exponents()
# _power_of_ten(p) for p = 16 - e, by row p - _P_MIN; a row is computed the
# first time a value needs it, once per process
_P_MIN = 16 - _MAX_EXPONENT
_POWERS = np.zeros((2 * _MAX_EXPONENT + 1, 4))
_KNOWN = np.zeros(2 * _MAX_EXPONENT + 1, dtype=bool)


def _power_of_ten(p: int) -> tuple[float, float, float, float]:
    """10^p as hi + lo (hi the double nearest 10^p, lo the double nearest
    the rest), with hi split in two 26-bit halves for Dekker's product."""
    num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
    hi = num / den  # int true division rounds correctly
    hi_num, hi_den = hi.as_integer_ratio()
    lo = (num * hi_den - hi_num * den) / (den * hi_den)
    c = _SPLITTER * hi
    hi_hi = c - (c - hi)
    return hi, hi_hi, hi - hi_hi, lo


def format_floats(x: np.ndarray) -> np.ndarray:
    """(n, FLOAT_WIDTH) uint8 matrix whose row i is ``"%.16e" % x[i]``,
    padded with zero bytes."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    a = np.abs(x)
    fast = (a >= _MIN_FAST) & (a <= _MAX_FAST)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    rows = 16 - e - _P_MIN
    first, stop = int(rows.min()), int(rows.max()) + 1
    for row in first + np.flatnonzero(~_KNOWN[first:stop]):
        _POWERS[row] = _power_of_ten(int(row) + _P_MIN)
    _KNOWN[first:stop] = True
    hi, hi_hi, hi_lo, lo = _POWERS.take(rows, axis=0).T

    # y = |x| 10^p = head + tail, head = fl(|x| hi) and tail exact but for
    # the rounding of lo and of its own sum
    head = a * hi
    c = _SPLITTER * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    tail = (((a_hi * hi_hi - head) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo
    whole = np.floor(tail)
    frac = tail - whole
    # wherever floor(y) can reach 10^16, head > 2^53 is an integer and
    # floor(y) = head + floor(tail)
    floor_y = head.astype(np.int64) + whole.astype(np.int64)
    mantissa = floor_y + (frac > 0.5)
    # a rounding carry to 10^17 leaves the fast path too (log10 rounds to
    # the integer for the doubles that carry, so floor(y) sends them first)
    certain = (
        fast
        & (floor_y >= 10**16)
        & (mantissa < 10**17)
        & (np.abs(frac - 0.5) >= _TIE_MARGIN)
    )
    # zeros (e = 0 from a = 1.0) print mantissa 0; so, until Python's text
    # replaces them below, do the rows it formats
    mantissa[~certain] = 0
    certain |= x == 0.0

    out = np.empty((n, FLOAT_WIDTH), dtype=np.uint8)
    words = out.view(np.uint32)
    lead = mantissa // 10**16
    words[:, 0] = _HEADS.take(lead + 10 * np.signbit(x))
    rest = mantissa - lead * 10**16
    upper = rest // 10**8
    halves = np.stack([upper, rest - upper * 10**8], axis=1)
    quarters = halves // 10**4
    groups = np.stack([quarters, halves - quarters * 10**4], axis=2)
    words[:, 1:5] = _GROUPS.take(groups.reshape(n, 4))
    words[:, 5:7] = _EXPONENTS.take(e + _MAX_EXPONENT, axis=0)

    slow = np.flatnonzero(~certain)
    if slow.size:
        text = np.array(["%.16e" % v for v in x[slow].tolist()], dtype=f"S{FLOAT_WIDTH}")
        out[slow] = text.view(np.uint8).reshape(slow.size, FLOAT_WIDTH)
    return out


def _text_field(column: np.ndarray) -> np.ndarray:
    """(n, width + 1) uint8 matrix: the `%d` or `%s` text of each value and
    a separator."""
    text = column.astype(np.bytes_)
    field = np.zeros((column.size, text.itemsize + 1), dtype=np.uint8)
    field[:, :-1] = text.view(np.uint8).reshape(column.size, text.itemsize)
    field[:, -1] = _COMMA
    return field


def _block(columns: list[np.ndarray]) -> bytes:
    """The CSV lines of equally long column slices."""
    rows = columns[0].size
    floats = [k for k, col in enumerate(columns) if col.dtype.kind == "f"]
    fields = {}
    if floats:
        matrix = format_floats(np.stack([columns[k] for k in floats], axis=1).ravel())
        matrix = matrix.reshape(rows, len(floats), FLOAT_WIDTH)
        matrix[:, :, -1] = _COMMA
        fields = {k: matrix[:, j] for j, k in enumerate(floats)}
    table = np.concatenate(
        [fields[k] if k in fields else _text_field(col) for k, col in enumerate(columns)], axis=1
    )
    table[:, -1] = _NEWLINE
    return table[table != 0].tobytes()


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write `header` and one row per entry of the equally long 1-D
    `columns`: float columns as ``%.16e``, integer ones as ``%d`` and
    ASCII string ones as ``%s``."""
    step = max(1, BLOCK_VALUES // len(columns))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, columns[0].size, step):
            fh.write(_block([col[start:start + step] for col in columns]))

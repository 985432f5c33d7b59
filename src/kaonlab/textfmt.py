"""Exact printf-style text for numpy columns, and back, with no Python loop per value.

Rows of text are built in one row-major uint8 buffer of shape (n, width),
whose row i holds the bytes of text row i.  Each field of a row
(:func:`integers`, :func:`tokens`, :func:`times`) is as wide as the
widest of its values there, and :func:`rows` writes the fields side by
side, separated by commas and ended by a newline.  Decimal digits go in
four at a time: little-endian 4-byte words from a table of the 10^4
four-digit strings, stored through strided ``<u4`` views of the buffer's
columns.  A value narrower than its field is padded with NUL; the NULs
are dropped only when some value is, so rows of one layout are the
buffer's bytes as they stand.  The tables are built in numpy the first
time a row is formatted, not on import.

``%.17e`` of a positive double x is its exact value rounded half to even
to 18 significant digits, D * 10^(e-17) with D in [1e17, 1e18).
:func:`e17` takes e = floor(log10 x) and forms x * 10^(17-e) as a
double-double: 10^k is tabulated as (hi + lo) * 2^s with hi in [0.5, 1),
both parts rounded to nearest from the exact rational, and Dekker's
TwoProduct gives m * hi exactly for the binary mantissa m of x.  The error
of the result is below 1e-12 in D's last place, so rounding it gives D
unless its fraction lies within 1e-12 of 1/2.  Those values, and any
whose D misses [1e17, 1e18) because log10 rounded across a power of ten,
are flagged for the caller to format exactly some other way.  Only
positive finite values are formatted.

:func:`parse_rows` uses the table the other way.  A time's text gives D and
k = e - 17.  With Dh = float(D) = m 2^p, r = D - Dh and m hi = prod + err by
TwoProduct, x + tail = prod + (err + m lo + r 2^-p hi) is D * 10^k / 2^(p+s)
in [0.25, 1] to within 2^-104, so x 2^(p+s) is the nearest double unless
tail lies within 2^-100 of half the gap to x's neighbour on its side (half
as wide below a power of two), as at a tie.  A time ``%.17e`` wrote lies
within 5e-18 of its double and at least 5.5e-17 from a tie, relative.

References: Dekker, "A floating-point technique for extending the
available precision", Numer. Math. 18 (1971); Adams, "Ryu revisited:
printf floating point conversion", OOPSLA 2019; Clinger, "How to read
floating point numbers accurately", PLDI 1990.
"""

from __future__ import annotations

import functools
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves
_ZERO = ord("0")


@functools.lru_cache(maxsize=None)
def _power(k: int):
    """(hi, lo, s) with 10^k = (hi + lo) * 2^s to about 2^-107, hi in [0.5, 1)."""
    from fractions import Fraction  # only once the first row is formatted
    exact = Fraction(10) ** k
    s = exact.numerator.bit_length() - exact.denominator.bit_length() + 1
    if exact < Fraction(2) ** (s - 1):
        s -= 1
    mantissa = exact / Fraction(2) ** s
    hi = float(mantissa)
    return hi, float(mantissa - Fraction(hi)), s


def _table(k):
    """The columns (hi, lo, s) of :func:`_power` over the int64 exponents
    ``k``, and each one's row in them."""
    low = int(k.min()) if k.size else 0
    row = k - low
    present = np.bincount(row, minlength=1) > 0
    # rows for exponents absent from k are placeholders, never read
    columns = zip(*(_power(low + i) if seen else (0.5, 0.0, 0)
                    for i, seen in enumerate(present.tolist())))
    return [np.array(column) for column in columns], row


def _as_words(*columns):
    """The little-endian 4-byte words whose bytes are the four ``columns``."""
    return np.stack(columns, axis=-1).astype(np.uint8).view("<u4")[:, 0]


@functools.lru_cache(maxsize=None)
def _words():
    """(digits, point, short, long): as 4-byte words, the text ``%04d`` of
    0 to 9999; ``d.d`` and a NUL of 10 to 99; and, at e + 324 for the
    exponents e of doubles, -324 to 308, ``e%+03d`` (for |e| < 100) and
    ``%+04d`` with its leading zero NUL."""
    k = np.arange(10 ** 4)
    digits = _as_words(k // 1000 + _ZERO, k // 100 % 10 + _ZERO, k // 10 % 10 + _ZERO,
                       k % 10 + _ZERO)
    k = np.arange(100)
    point = _as_words(k // 10 + _ZERO, np.full(k.size, ord(".")), k % 10 + _ZERO, 0 * k)
    e = np.arange(-324, 309)
    sign, a = np.where(e < 0, ord("-"), ord("+")), np.abs(e)
    short = _as_words(np.full(e.size, ord("e")), sign, a // 10 % 10 + _ZERO, a % 10 + _ZERO)
    long = _as_words(sign, np.where(a >= 100, a // 100 + _ZERO, 0), a // 10 % 10 + _ZERO,
                     a % 10 + _ZERO)
    return digits, point, short, long


def _words_at(buf, at):
    """The ``<u4`` view of bytes ``at`` to ``at + 3`` of each row of the
    C-contiguous 2-D uint8 ``buf``."""
    return np.ndarray(buf.shape[:1], "<u4", buf, at, buf.strides[:1])


def _put_digits(buf, at, values, width):
    """Write the last ``width`` decimal digits of each nonnegative integer
    of ``values``, zero-filled on the left, to columns ``at`` to ``at +
    width - 1`` of its row of ``buf``, four at a time: eight digits are
    split off the right at a time, then four, and fewer than four at the
    left are written left-aligned in a word, or one by one at the end of
    a row."""
    if width > 4:
        step = 8 if width > 8 else 4
        high = values // 10 ** step
        # the left part first: a word of it may run into the last digits
        _put_digits(buf, at, high, width - step)
        _put_digits(buf, at + width - step, values - high * 10 ** step, step)
    elif width == 4:
        _words_at(buf, at)[...] = _words()[0][values]
    elif at + 4 <= buf.shape[1]:
        # left-aligned in a word; the bytes it writes past the field are
        # written again by what lies to the right
        _words_at(buf, at)[...] = _words()[0][values * 10 ** (4 - width)]
    else:
        for j in range(at + width - 1, at - 1, -1):
            quotient = values // 10
            buf[:, j] = values - quotient * 10 + _ZERO
            values = quotient


class Field(NamedTuple):
    """A column of text as :func:`rows` lays it out: ``width`` bytes per
    value, NUL-padded where some value is narrower (then ``padded``), and
    ``write(buf, at)``, which writes value i to row i of the uint8 array
    ``buf`` from column ``at``.  A write may also write bytes to the right
    of the field, which the fields and separators there overwrite."""

    size: int
    width: int
    padded: bool
    write: Callable


def integers(values) -> Field:
    """The ``%d`` field of nonnegative int64 ``values``, right-aligned."""
    values = np.asarray(values, dtype=np.int64)
    low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
    width = len(str(high))
    padded = width > 1 and low < 10 ** (width - 1)

    def write(buf, at):
        _put_digits(buf, at, values, width)
        if padded:
            for j in range(width - 1):
                buf[values < 10 ** (width - 1 - j), at + j] = 0

    return Field(values.size, width, padded, write)


def tokens(names, codes) -> Field:
    """The field of ``names[code]`` for each of the int ``codes``, ASCII
    names left-aligned; as wide as the longest name among the codes."""
    codes = np.asarray(codes)
    present = np.flatnonzero(np.bincount(codes, minlength=len(names))).tolist()
    lengths = [len(names[code]) for code in present]
    width = max(lengths, default=0)
    chars = np.frombuffer(b"".join(name.encode("ascii").ljust(width, b"\0")[:width]
                                   for name in names), np.uint8).reshape(len(names), width)

    def write(buf, at):
        # one name is a row broadcast, not a gather
        buf[:, at:at + width] = chars[present[0]] if len(present) == 1 else chars[codes]

    return Field(codes.size, width, min(lengths, default=0) < width, write)


def _two_product(a, b):
    """(prod, err) with a * b = prod + err exactly: Dekker's TwoProduct, for
    a and b in [0.25, 1], where no split overflows or underflows."""
    prod = a * b
    split = _SPLIT * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    split = _SPLIT * b
    b_hi = split - (split - b)
    b_lo = b - b_hi
    return prod, ((a_hi * b_hi - prod) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _scaled(x, hi, lo, s):
    """(n, f): x * 10^k = n + f, n an integer and f in [0, 1) to within
    1e-12, where 10^k = (hi + lo) * 2^s."""
    m, p = np.frexp(x)
    whole, err = _two_product(m, hi)
    scale = p + s
    part = np.ldexp(err + m * lo, scale)
    # a double above 2^53 is an integer; the clip keeps a decade too many
    # (log10 rounded down across a power of ten) inside int64
    whole = np.minimum(np.ldexp(whole, scale), 2.0 ** 62).astype(np.int64)
    floor = np.floor(part)
    part -= floor
    return whole + floor.astype(np.int64), part


def e17(x):
    """(digits, exponent, exact): ``%.17e`` of each of ``x`` is the int64
    ``digits`` D in [1e17, 1e18) times 10^(``exponent`` - 17), where
    ``exact`` holds that it is proven.  Zero, negative, non-finite and
    flagged values are not exact; their digits are those of 1."""
    x = np.asarray(x, dtype=float)
    exact = np.isfinite(x) & (x > 0)
    x = np.where(exact, x, 1.0)
    exponent = np.floor(np.log10(x)).astype(np.int64)
    (hi, lo, s), row = _table(17 - exponent)
    n, f = _scaled(x, hi[row], lo[row], s[row])
    d = n + (f > 0.5)
    # a tie, or log10 rounded across a power of ten
    exact &= (np.abs(f - 0.5) > 1e-12) & (n >= 10 ** 17) & (d < 10 ** 18)
    return np.where(exact, d, 10 ** 17), exponent, exact


def times(digits, exponent) -> Field:
    """The ``%.17e`` field of the times :func:`e17` gives as ``digits``
    and ``exponent``; three exponent digits, NUL-padded, only if some
    time needs them."""
    long = bool(exponent.size) and bool(exponent.min() <= -100 or exponent.max() >= 100)

    def write(buf, at):
        _, point, short, longer = _words()
        lead = digits // 10 ** 16
        _words_at(buf, at)[...] = point[lead]  # d.d, its last byte written again
        _put_digits(buf, at + 3, digits - lead * 10 ** 16, 16)
        if long:
            buf[:, at + 19] = ord("e")
            _words_at(buf, at + 20)[...] = longer[exponent + 324]
        else:
            _words_at(buf, at + 19)[...] = short[exponent + 324]

    padded = long and bool((np.abs(exponent) < 100).any())
    return Field(digits.size, 23 + long, padded, write)


def rows(fields) -> np.ndarray:
    """The bytes, as a 1-D uint8 array, of the rows whose fields are
    ``fields``, separated by commas and each ended by a newline.  The
    rows are laid out in one (n, width) buffer, NUL dropped only where a
    field is padded.  Every value is written: a caller holding a value
    the fields cannot prove formats those rows some other way."""
    n = fields[0].size
    buf = np.empty((n, sum(field.width + 1 for field in fields)), np.uint8)
    if not n:
        return buf.ravel()
    at = 0
    for field in fields:
        field.write(buf, at)
        at += field.width + 1
        buf[:, at - 1] = ord(",")
    buf[:, -1] = ord("\n")
    buf = buf.ravel()
    if any(field.padded for field in fields):
        # numpy loops, which release the GIL, where bytes.replace would hold it
        return buf[buf != 0]
    return buf


# byte ranges of the columns of d.ddddddddddddddddde+dd; the sign's holds ',', a separator
_TIME_MIN = np.frombuffer(b"1.00000000000000000e+00", np.uint8)
_TIME_SPAN = np.frombuffer(b"9.99999999999999999e-99", np.uint8) - _TIME_MIN


def _decimal(digits, value=0) -> np.ndarray:
    """int64 ``value`` followed by each row of decimal ``digits``, 18 at most."""
    value = np.zeros(len(digits), np.int64) + value
    for column in digits.T:
        value *= 10
        value += column
    return value


def _codes(a, starts, widths, names):
    """int8 codes into ``names`` (distinct widths, at most 8 bytes) of the
    fields of ``a`` at ``starts`` of ``widths`` bytes; None unless all match."""
    by_width = np.full(10, -1, np.int8)
    by_width[[len(name) for name in names]] = range(len(names))
    codes = by_width[np.clip(widths, 0, 9)]
    # the 8 bytes from each start as one little-endian word, masked to the field
    words = np.ndarray((a.size - 7,), "<u8", a, strides=(1,))[starts]
    tokens = np.array([name.encode("ascii") for name in names], "S8").view("<u8")
    masks = np.array([b"\xff" * len(name) for name in names], "S8").view("<u8")
    return codes if ((codes >= 0) & (words & masks[codes] == tokens[codes])).all() else None


def parse_rows(piece, sides, channels):
    """(ids, side codes, channel codes, times) of the rows of the bytes-like
    ``piece``, as ``int``, ``sides.index`` and ``channels.index`` (int8) and
    ``float`` read them; None unless every row is ``%d,%s,%s,%.17e`` and a
    newline, with 1-18 id digits and a two-digit exponent, and is proven."""
    a = np.frombuffer(piece, np.uint8)
    newlines = np.flatnonzero(a == ord("\n"))
    commas = np.flatnonzero(a == ord(","))
    if not newlines.size or commas.size != 3 * newlines.size or newlines[-1] != a.size - 1:
        return None
    starts = np.concatenate([[0], newlines[:-1] + 1])
    c1, c2, c3 = commas.reshape(-1, 3).T
    id_widths = c1 - starts
    # positive widths put each row's three commas, in order, before its newline
    if not ((id_widths >= 1) & (id_widths <= 18) & (newlines - c3 == 24)).all():
        return None
    side = _codes(a, c1 + 1, c2 - c1 - 1, sides)
    channel = _codes(a, c2 + 1, c3 - c2 - 1, channels)
    width = int(id_widths.max())
    digits = sliding_window_view(a, width)[starts] - np.uint8(_ZERO)
    inside = np.arange(width) < id_widths[:, None]
    text = sliding_window_view(a, 23)[c3 + 1]
    if (side is None or channel is None or not ((digits <= 9) | ~inside).all()
            or not (text - _TIME_MIN <= _TIME_SPAN).all()):
        return None
    ids = _decimal(digits * inside) // 10 ** (width - id_widths)
    digits = text - np.uint8(_ZERO)
    d = _decimal(digits[:, 2:19], digits[:, 0])
    exponent = np.where(text[:, 20] == ord("-"), -1, 1) * _decimal(digits[:, 21:])
    (hi, lo, s), row = _table(exponent - 17)
    hi, lo = hi[row], lo[row]
    dh = d.astype(float)
    m, p = np.frexp(dh)
    prod, err = _two_product(m, hi)
    low = err + m * lo + np.ldexp((d - dh.astype(np.int64)).astype(float), -p) * hi
    x = prod + low
    tail = low - (x - prod)
    fraction, q = np.frexp(x)
    half_gap = np.ldexp(1.0, q - 54 - ((fraction == 0.5) & (tail < 0)))
    if not (np.abs(tail) < half_gap - 2.0 ** -100).all():
        return None
    return ids, side, channel, np.ldexp(x, p + s[row])  # two-digit exponents: normal

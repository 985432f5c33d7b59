"""Exact printf-style text for numpy columns, and back, with no Python loop per value.

Text is built as character planes: a uint8 array ``chars`` of shape
(width, n) whose ``chars[j, i]`` is character j of value i, NUL where a
value is narrower than the plane.  :func:`join_rows` lays planes side by
side into rows and drops the NULs.

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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split into two 26-bit halves
_ZERO = ord("0")


@functools.lru_cache(maxsize=None)
def _power(k: int):
    """(hi, lo, s) with 10^k = (hi + lo) * 2^s to about 2^-107, hi in [0.5, 1),
    and the ``%+04d`` text of 17 - k as an exponent, its leading zero NUL."""
    from fractions import Fraction  # only once the first row is formatted
    exact = Fraction(10) ** k
    s = exact.numerator.bit_length() - exact.denominator.bit_length() + 1
    if exact < Fraction(2) ** (s - 1):
        s -= 1
    mantissa = exact / Fraction(2) ** s
    hi = float(mantissa)
    exponent = b"%+04d" % (17 - k)
    if exponent[1] == _ZERO:
        exponent = exponent[:1] + b"\0" + exponent[2:]
    return hi, float(mantissa - Fraction(hi)), s, exponent


def _table(k):
    """The columns (hi, lo, s, exponent) of :func:`_power` over the int64
    exponents ``k``, and each one's row in them; exponent is an S4 array."""
    low = int(k.min()) if k.size else 0
    row = k - low
    present = np.bincount(row, minlength=1) > 0
    # rows for exponents absent from k are placeholders, never read
    columns = zip(*(_power(low + i) if seen else (0.5, 0.0, 0, b"+00\0")
                    for i, seen in enumerate(present.tolist())))
    return [np.array(column) for column in columns], row


def _digits(values: np.ndarray, width: int) -> np.ndarray:
    """Plane of the last ``width`` decimal digits of nonnegative ``values``,
    zero-filled on the left.  Groups of nine digits are cut off in uint64,
    then peeled one digit at a time in uint32."""
    out = np.empty((width, values.size), np.uint8)
    rest = values.astype(np.uint64)
    for end in range(width, 0, -9):
        group = (rest % np.uint64(10 ** 9)).astype(np.uint32)
        rest //= np.uint64(10 ** 9)
        for j in range(end - 1, max(end - 9, 0) - 1, -1):
            quotient = group // np.uint32(10)
            out[j] = group - quotient * np.uint32(10)
            group = quotient
    out += _ZERO
    return out


def integers(values) -> np.ndarray:
    """Plane of the ``%d`` text of nonnegative int64 ``values``, right-aligned."""
    values = np.asarray(values, dtype=np.int64)
    width = len(str(int(values.max(initial=0))))
    out = _digits(values, width)
    for j in range(width - 1):
        out[j][values < 10 ** (width - 1 - j)] = 0
    return out


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
    """(chars, exact): the 24-character plane of ``%.17e`` of each of ``x``,
    and whether it is proven.  ``chars`` is only meaningful where ``exact``
    is; zero, negative, non-finite and flagged values are not exact."""
    x = np.asarray(x, dtype=float)
    exact = np.isfinite(x) & (x > 0)
    x = np.where(exact, x, 1.0)
    (hi, lo, s, exponents), row = _table(17 - np.floor(np.log10(x)).astype(np.int64))
    n, f = _scaled(x, hi[row], lo[row], s[row])
    d = n + (f > 0.5)
    # a tie, or log10 rounded across a power of ten
    exact &= (np.abs(f - 0.5) > 1e-12) & (n >= 10 ** 17) & (d < 10 ** 18)
    digits = _digits(d, 18)
    chars = np.empty((24, x.size), np.uint8)
    chars[0] = digits[0]
    chars[1] = ord(".")
    chars[2:19] = digits[1:]
    chars[19] = ord("e")
    chars[20:] = exponents.view(np.uint8).reshape(-1, 4).T[:, row]
    return chars, exact


def tokens(names) -> np.ndarray:
    """Plane of each of the ASCII ``names``, NUL-padded on the right;
    ``tokens(names)[:, codes]`` is the plane of ``names[code]`` per code."""
    return np.array([name.encode("ascii") for name in names]).view(np.uint8).reshape(
        len(names), -1).T


def join_rows(fields) -> bytes:
    """The rows whose fields are the planes ``fields``, separated by commas
    and each ended by a newline, NUL dropped.  Every column of every plane
    is written: a caller holding a value the planes cannot prove formats
    those rows some other way."""
    n = fields[0].shape[1]
    buf = np.empty((sum(f.shape[0] + 1 for f in fields), n), np.uint8)
    at = 0
    for field in fields:
        buf[at:at + field.shape[0]] = field
        buf[at + field.shape[0]] = ord(",")
        at += field.shape[0] + 1
    buf[-1] = ord("\n")
    return buf.T.tobytes().replace(b"\0", b"")


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
    (hi, lo, s, _), row = _table(exponent - 17)
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

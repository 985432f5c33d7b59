"""Exact printf-style text for numpy columns, without a Python loop per value.

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

References: Dekker, "A floating-point technique for extending the
available precision", Numer. Math. 18 (1971); Adams, "Ryu revisited:
printf floating point conversion", OOPSLA 2019.
"""

from __future__ import annotations

import functools

import numpy as np

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
    e = np.floor(np.log10(x)).astype(np.int64)
    top = int(e.max(initial=0))
    row = np.subtract(top, e, out=e)  # each value's entry in the table
    present = np.bincount(row, minlength=1) > 0
    # entries for exponents absent from x are placeholders, never read
    hi, lo, s, exponents = zip(*(_power(17 - top + i) if seen else (0.5, 0.0, 0, b"+00\0")
                                 for i, seen in enumerate(present.tolist())))
    n, f = _scaled(x, *(np.array(column)[row] for column in (hi, lo, s)))
    d = n + (f > 0.5)
    # a tie, or log10 rounded across a power of ten
    exact &= (np.abs(f - 0.5) > 1e-12) & (n >= 10 ** 17) & (d < 10 ** 18)
    digits = _digits(d, 18)
    chars = np.empty((24, x.size), np.uint8)
    chars[0] = digits[0]
    chars[1] = ord(".")
    chars[2:19] = digits[1:]
    chars[19] = ord("e")
    chars[20:] = np.frombuffer(b"".join(exponents), np.uint8).reshape(-1, 4).T[:, row]
    return chars, exact


def tokens(names) -> np.ndarray:
    """Plane of each of the ASCII ``names``, NUL-padded on the right;
    ``tokens(names)[:, codes]`` is the plane of ``names[code]`` per code."""
    return np.array([name.encode("ascii") for name in names]).view(np.uint8).reshape(
        len(names), -1).T


def join_rows(fields, literal=None) -> bytes:
    """The rows whose fields are the planes ``fields``, separated by commas
    and each ended by a newline, NUL dropped.  Row i of ``literal``, a dict
    of row index to bytes, is replaced by that text."""
    n = fields[0].shape[1]
    buf = np.empty((sum(f.shape[0] + 1 for f in fields), n), np.uint8)
    at = 0
    for field in fields:
        buf[at:at + field.shape[0]] = field
        buf[at + field.shape[0]] = ord(",")
        at += field.shape[0] + 1
    buf[-1] = ord("\n")
    swapped = sorted(literal or ())
    buf[:, swapped] = 0
    text = buf.T.tobytes().replace(b"\0", b"")
    if not swapped:
        return text
    ends = np.cumsum(np.count_nonzero(buf, axis=0))[swapped].tolist()
    pieces, start = [], 0
    for i, end in zip(swapped, ends):
        pieces += [text[start:end], literal[i]]
        start = end
    pieces.append(text[start:])
    return b"".join(pieces)

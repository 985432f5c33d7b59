"""The numpy formatter against Python's own ``%``, and the numpy reader
against ``np.loadtxt``, on the values they must match."""

import io

import numpy as np
import pytest

from _util import assert_same_lines
from kaonlab import sampler, textfmt
from kaonlab.core import DecayModel, KaonParams
from kaonlab.sampler import CHANNELS, SIDES, RunSeed, sample_decay_times
from kaonlab.single_models import cronin_fitch_state


def e17_text(x):
    """``%.17e`` lines of ``x`` through :func:`textfmt.e17`, the values it
    does not prove through ``%``; and how many those were."""
    digits, exponent, exact = textfmt.e17(x)
    lines = bytes(textfmt.rows([textfmt.times(digits, exponent)])).split(b"\n")[:-1]
    unproven = np.flatnonzero(~exact).tolist()
    for i in unproven:
        lines[i] = b"%.17e" % x[i]
    return b"".join(line + b"\n" for line in lines), len(unproven)


def percent_text(x):
    return ("%.17e\n" * x.size % tuple(x.tolist())).encode("ascii")


def test_sampled_times_formatted_without_fallback():
    times = sample_decay_times(DecayModel.TIME_OPERATOR, cronin_fitch_state(KaonParams(), +1),
                               10 ** 6, RunSeed(7)).time
    text, fallen_back = e17_text(times)
    assert fallen_back == 0
    assert_same_lines(text, percent_text(times))


def test_random_bit_patterns():
    bits = np.random.default_rng(12).integers(0, 0x7FF0000000000000, 10 ** 6,
                                              dtype=np.int64)
    x = bits.view(np.float64)
    text, fallen_back = e17_text(x)
    assert_same_lines(text, percent_text(x))
    # the exact 18-digit ties of large values with few fraction bits
    assert fallen_back < 10 ** 4


def test_constructed_values_and_their_neighbours():
    # exact 18-digit ties, rounded to even downwards and upwards, and a value
    # a quarter of a unit from one (its digits past the 18th are 75)
    ties = np.array([2.0 ** -26, 3 * 2.0 ** -26])
    near_tie = 3 * 2.0 ** -27
    assert ["%.17e" % t for t in (*ties, near_tie)] == [
        "1.49011611938476562e-08", "4.47034835815429688e-08", "2.23517417907714844e-08"]
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([[0.0, 5e-324, np.nextafter(2.2250738585072014e-308, 0.0),
                              2.2250738585072014e-308, np.finfo(float).max], powers,
                             ties, [near_tie]])
    with np.errstate(over="ignore"):
        x = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    x = x[np.isfinite(x)]
    text, _ = e17_text(x)
    assert_same_lines(text, percent_text(x))
    *_, exact = textfmt.e17(np.append(ties, near_tie))
    assert exact.tolist() == [False, False, True]


@pytest.mark.parametrize("x", [-0.0, -1e-9, np.inf, np.nan])
def test_values_outside_the_domain_are_not_exact(x):
    *_, exact = textfmt.e17(np.array([x]))
    assert not exact.any()


def test_integers_match_percent_d():
    values = np.concatenate([np.arange(1200), [10 ** 9 - 1, 10 ** 9, 10 ** 18 - 1, 10 ** 18,
                                               np.iinfo(np.int64).max]])
    text = bytes(textfmt.rows([textfmt.integers(values)]))
    assert text == "".join(f"{v}\n" for v in values.tolist()).encode("ascii")


@pytest.mark.parametrize("high", [0, 9, 99, 999])
def test_narrow_integers_end_their_rows(high):
    # a field of one to three bytes, the last of its row: its digits are not
    # written as a word reaching past the newline
    values = np.arange(high + 1)
    text = bytes(textfmt.rows([textfmt.integers(values)]))
    assert text == "".join(f"{v}\n" for v in values.tolist()).encode("ascii")


def event_rows(times, ids=None, sides=None, channels=None) -> bytes:
    """Event rows as Python's ``%`` formats them; ids 0, 1, ..., and side
    and channel codes cycling through every token, unless given."""
    n = len(times)
    ids = range(n) if ids is None else ids
    sides = np.arange(n) % len(SIDES) if sides is None else sides
    channels = np.arange(n) // len(SIDES) % len(CHANNELS) if channels is None else channels
    return b"".join(b"%d,%s,%s,%.17e\n" % (i, SIDES[s].encode(), CHANNELS[c].encode(), t)
                    for i, s, c, t in zip(ids, *(np.asarray(column).tolist()
                                                 for column in (sides, channels, times))))


def parsed(text: bytes):
    return textfmt.parse_rows(text, SIDES, CHANNELS)


def assert_read_as_loadtxt(text: bytes):
    """``parse_rows`` proves every row of ``text`` and gives the columns
    ``np.loadtxt`` reads from it, bit for bit."""
    got = parsed(text)
    assert got is not None
    expected = sampler._event_columns(np.loadtxt(io.BytesIO(text), dtype=sampler._EVENT_ROW,
                                                 delimiter=",", comments=None, ndmin=1,
                                                 encoding="ascii"))
    assert [c.dtype for c in got] == [np.int64, np.int8, np.int8, np.float64]
    for column, reference in zip(got, expected):
        assert column.tobytes() == reference.astype(column.dtype).tobytes()


def test_random_bit_patterns_read_exactly():
    # every double whose %.17e has a two-digit exponent: 1e-99 up to 1e100
    bits = np.random.default_rng(15).integers(np.float64(1e-99).view(np.int64),
                                              np.float64(1e100).view(np.int64), 10 ** 5)
    for piece in np.array_split(bits.view(np.float64), 10):
        assert_read_as_loadtxt(event_rows(piece))


def test_sampled_times_read_exactly():
    times = sample_decay_times(DecayModel.TIME_OPERATOR, cronin_fitch_state(KaonParams(), +1),
                               10 ** 5, RunSeed(7)).time
    assert_read_as_loadtxt(event_rows(times))


def test_powers_of_two_and_neighbours_read_exactly():
    powers = np.ldexp(1.0, np.arange(-328, 333))
    x = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    assert_read_as_loadtxt(event_rows(x[(x >= 1e-99) & (x < 1e100)]))


def test_ids_of_one_to_eighteen_digits_read_exactly():
    ids = [0, 7, 10 ** 17, 10 ** 18 - 1, 123456789012345678]
    assert_read_as_loadtxt(event_rows(np.full(len(ids), 1.5e-10), ids))
    # np.loadtxt reads a leading zero as int does
    assert_read_as_loadtxt(b"007,left,triplet,1.50000000000000003e-10\n"
                           b"000000000000000001,right,pair,1.50000000000000003e-10\n")


def test_every_token_read_exactly():
    codes = np.indices((len(SIDES), len(CHANNELS))).reshape(2, -1)
    text = event_rows(np.full(codes.shape[1], 2.5e-11), sides=codes[0], channels=codes[1])
    assert_read_as_loadtxt(text)
    assert parsed(text)[1].tolist() == codes[0].tolist()
    assert parsed(text)[2].tolist() == codes[1].tolist()


@pytest.mark.parametrize("row", [
    b"1,single,pair,1.00000000000000000e-100",  # three-digit exponents
    b"1,single,pair,1.79769313486231571e+308",
    b"1,single,pair,4.94065645841246544e-324",
    b"1,single,pair,0.00000000000000000e+00",   # zero
    b"1,single,pair,-1.50000000000000003e-10",
    b"1,single,pair,1.5e-10",                   # not %.17e
    b"1,single,pair,1.50000000000000003E-10",
    b"1,single,pair,1.50000000000000003e-10 ",
    b"1,single,pair,1.50000000000000003e-1x",
    b"1,single,pair,1.80143985094819860e+16",   # 2^54 + 2, a tie between doubles
    b"1,single,pair,1.80143985094819830e+16",   # 2^54 - 1, a tie below a power of two
    b"1000000000000000000,single,pair,1.50000000000000003e-10",  # 19 digits
    b"-1,single,pair,1.50000000000000003e-10",
    b"+1,single,pair,1.50000000000000003e-10",
    b",single,pair,1.50000000000000003e-10",
    b"1,singlx,pair,1.50000000000000003e-10",
    b"1,Left,pair,1.50000000000000003e-10",
    b"1,left,pairs,1.50000000000000003e-10",
    b"1,left,,1.50000000000000003e-10",
    b"1,left,pair,triplet,1.50000000000000003e-10",
    b"1,left,pair",
    b"",                                         # a blank line
    b"1,left,pair,1.50000000000000003e-10\r",
], ids=lambda row: repr(row)[2:-1])
def test_one_bad_row_refuses_its_piece(row):
    text = event_rows(np.linspace(1e-12, 1e-8, 500))
    assert_read_as_loadtxt(text)
    lines = text.splitlines(keepends=True)
    assert parsed(b"".join(lines[:250]) + row + b"\n" + b"".join(lines[250:])) is None


def test_piece_without_a_final_newline_refused():
    assert parsed(event_rows([1.5e-10, 2.5e-10])[:-1]) is None
    assert parsed(b"") is None

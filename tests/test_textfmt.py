"""The numpy formatter against Python's own ``%`` on the values it must match."""

import numpy as np
import pytest

from _util import assert_same_lines
from kaonlab import textfmt
from kaonlab.core import DecayModel, KaonParams
from kaonlab.sampler import RunSeed, sample_decay_times
from kaonlab.single_models import cronin_fitch_state


def e17_text(x):
    """``%.17e`` lines of ``x`` through :func:`textfmt.e17`, the values it
    does not prove through ``%``; and how many those were."""
    chars, exact = textfmt.e17(x)
    literal = {i: b"%.17e\n" % x[i] for i in np.flatnonzero(~exact).tolist()}
    return textfmt.join_rows([chars], literal), len(literal)


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
    _, exact = textfmt.e17(np.append(ties, near_tie))
    assert exact.tolist() == [False, False, True]


@pytest.mark.parametrize("x", [-0.0, -1e-9, np.inf, np.nan])
def test_values_outside_the_domain_are_not_exact(x):
    _, exact = textfmt.e17(np.array([x]))
    assert not exact.any()


def test_integers_match_percent_d():
    values = np.concatenate([np.arange(1200), [10 ** 9 - 1, 10 ** 9, 10 ** 18 - 1, 10 ** 18,
                                               np.iinfo(np.int64).max]])
    text = textfmt.join_rows([textfmt.integers(values)])
    assert text == "".join(f"{v}\n" for v in values.tolist()).encode("ascii")

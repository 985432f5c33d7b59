"""Assertions shared by the test modules."""

import contextlib
import threading
from itertools import zip_longest

import pytest


def assert_same_lines(text, expected):
    """Fail on any difference between two texts (str or bytes), naming the
    first differing line instead of printing a diff of the whole texts."""
    if text != expected:
        sep = b"\n" if isinstance(expected, bytes) else "\n"
        lines = enumerate(zip_longest(text.split(sep), expected.split(sep)))
        pytest.fail("first differing line (index, got, expected): "
                    f"{next((i, a, b) for i, (a, b) in lines if a != b)}")


@contextlib.contextmanager
def no_thread_left():
    """Fail unless the block leaves exactly the threads it found running."""
    before = threading.enumerate()
    yield
    assert threading.enumerate() == before

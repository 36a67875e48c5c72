"""left_sum: float totals in a fixed, left-to-right order."""

import functools
import math
import operator

from hypothesis import given, settings, strategies as st

from repro.numeric import left_sum


def test_adds_left_to_right():
    # Left to right, 1.0 is absorbed by 1e16 and lost; a compensated sum
    # (math.fsum, or sum() from Python 3.12) keeps it.
    values = [1e16, 1.0, -1e16]
    assert left_sum(values) == 0.0
    assert math.fsum(values) == 1.0
    assert left_sum(iter(values)) == 0.0
    assert left_sum([]) == 0.0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          width=64)))
@settings(max_examples=100, deadline=None)
def test_is_a_left_fold_from_zero(values):
    assert left_sum(values) == functools.reduce(operator.add, values, 0.0)

"""The terminal event's root: a bisection to one ulp that ends by returning, never by raising.

DOP853 calls it on the last step's dense output; ``test_dop853.py`` holds its roots within
brentq's 4 EPS |t| of scipy's.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

from killing3.dop853 import _bisect


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0)])
def test_root_of_a_line_within_one_ulp(a, b):
    assert abs(_bisect(lambda s: s - 0.3, a, b) - 0.3) <= np.spacing(0.3)


def test_zero_at_the_start_or_at_a_midpoint_is_the_root():
    assert _bisect(lambda s: s, 0.0, 1.0) == 0.0
    assert _bisect(lambda s: s - 0.5, 0.0, 1.0) == 0.5


def test_far_end_of_the_start_sign_returns_it():
    # the state at the step's end crossed the event, but the dense output there rounds
    # back to the start's sign; brentq refuses such a bracket with ValueError
    def event(s):
        calls.append(s)
        return s + 1.0

    calls = []
    assert _bisect(event, 0.0, 1.0) == 1.0
    assert 1.0 not in calls
    with pytest.raises(ValueError):
        brentq(event, 0.0, 1.0)


def test_nan_inside_the_bracket_ends_it():
    def event(s):
        return np.nan if 0.4 < s < 0.6 else s - 0.5

    assert abs(_bisect(event, 0.0, 1.0) - 0.4) <= np.spacing(0.4)
    assert _bisect(lambda s: np.nan, 0.0, 1.0) in (0.0, 1.0)

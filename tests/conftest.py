"""Hypothesis draws the same examples on every run and keeps no example database.

``bad_margins`` gives the raw margin arrays that ``MarginMatrix`` refuses.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def _margins_with(c, entries, value, shape=None):
    d = np.zeros(shape or (c, c), np.float32)
    for i, j in entries:
        d[i, j] = value
    return d


# One raw C x C margin array per way MarginMatrix refuses one (C >= 2).
BAD_MARGINS = {
    "nan": lambda c: _margins_with(c, [(0, 1), (1, 0)], np.nan),
    "inf": lambda c: _margins_with(c, [(0, 1), (1, 0)], np.inf),
    "seven": lambda c: np.full((c, c), 7.0),
    "negative": lambda c: _margins_with(c, [(0, 1), (1, 0)], -0.5),
    "asymmetric": lambda c: _margins_with(c, [(0, 1)], 0.3),
    "diagonal": lambda c: _margins_with(c, [(0, 0)], 0.25),
    "wrong_size": lambda c: np.zeros((c + 1, c + 1), np.float32),
    "non_square": lambda c: np.zeros((c, c + 1), np.float32),
}


@pytest.fixture(params=list(BAD_MARGINS))
def bad_margins(request):
    """A function of C giving a raw margin array that MarginMatrix refuses."""
    return BAD_MARGINS[request.param]

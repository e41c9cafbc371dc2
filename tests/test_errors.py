"""The two number rules of ``stegolm.errors``: ``check_int`` and ``check_real``."""

import math

import numpy as np
import pytest

from stegolm.codec import GenPolicy
from stegolm.errors import ConfigError, check_real
from stegolm.lm import LstmHyperparams
from stegolm.metrics import capacity

#: Every real-valued field: how to build with it, its closed bound (or None), its
#: open bounds, and a value inside its range.
REAL_FIELDS = {
    "temperature": (lambda value: GenPolicy(temperature=value), None, (0, math.inf), 0.5),
    "common_fraction": (lambda value: capacity(2, value), 0, (1,), 0.5),
    "mean message length": (lambda value: capacity(2, 0.0, value), 0, (math.inf,), 16.5),
    "lr_init": (lambda value: LstmHyperparams(lr_init=value), None, (0, math.inf), 0.5),
    "lr_decay": (lambda value: LstmHyperparams(lr_decay=value), None, (1, math.inf), 2.5),
    "clip_norm": (lambda value: LstmHyperparams(clip_norm=value), None, (0, math.inf), 0.5),
    "dropout": (lambda value: LstmHyperparams(dropout=value), 0, (1,), 0.5),
}


@pytest.mark.parametrize("field", REAL_FIELDS)
def test_real_field_range(field):
    build, closed, open_bounds, inside = REAL_FIELDS[field]
    closed_spellings = () if closed is None else (closed, float(closed))
    for value in (*closed_spellings, inside, np.float64(inside)):
        build(value)
    for value in (*open_bounds, *map(float, open_bounds), math.nan, math.inf, -math.inf,
                  True, "1", np.float32(inside)):
        with pytest.raises(ConfigError, match=field):
            build(value)


def test_check_real_returns_the_value_unchanged():
    for value in (3, 2.5, np.float64(2.5)):
        assert check_real("x", value, 0) is value
    with pytest.raises(ConfigError, match=r"x must be an int or float in \(0, inf\), not 0"):
        check_real("x", 0, 0, low_open=True)
    with pytest.raises(ConfigError, match=r"x must be an int or float in \[0, 1\), not 1"):
        check_real("x", 1, 0, 1)

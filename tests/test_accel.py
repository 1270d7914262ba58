import math

import numpy as np

from ergoxeb import _accel


def test_neumaier_beats_naive_on_cancellation():
    # classic pathological sum: 1 + 1e100 - 1e100 + 1
    x = np.array([1.0, 1e100, 1.0, -1e100])
    assert _accel.neumaier_sum(x) == 2.0


def test_neumaier_matches_fsum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10_000) * 10.0 ** rng.integers(-8, 8, 10_000)
    assert _accel.neumaier_sum(x) == math.fsum(x)

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoxeb import _accel, estimators
from ergoxeb.ensembles import haar_state_probs
from ergoxeb.estimators import SchemeFunction
from ergoxeb.noise import SampleSet
from ergoxeb.statevector import OutputDistribution, SystemDims


def _outcome(sum_fn, x):
    """The bits of the returned float, or the type of the raised error."""
    try:
        return struct.pack("<d", sum_fn(x))
    except (ValueError, OverflowError) as exc:
        return type(exc)


def test_neumaier_beats_naive_on_cancellation():
    # classic pathological sum: 1 + 1e100 - 1e100 + 1
    x = np.array([1.0, 1e100, 1.0, -1e100])
    assert _accel.neumaier_sum(x) == 2.0


def test_neumaier_matches_fsum():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(10_000) * 10.0 ** rng.integers(-8, 8, 10_000)
    assert _accel.neumaier_sum(x) == math.fsum(x)


@settings(max_examples=200, deadline=None)
@given(
    length=st.integers(0, 3 * _accel._BLOCK + 1),
    kind=st.sampled_from(["terms", "cancelling pairs", "signed zeros"]),
    exponents=st.tuples(st.integers(-1074, 1000), st.integers(-1074, 1000)),
    nonfinite=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]),
                       max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_sum_is_fsum_bit_for_bit(length, kind, exponents, nonfinite, seed):
    rng = np.random.default_rng(seed)
    lo, hi = sorted(exponents)
    if kind == "signed zeros":
        x = np.where(rng.random(length) < 0.5, 0.0, -0.0)
    else:
        x = np.ldexp(rng.uniform(-1.0, 1.0, length),
                     rng.integers(lo, hi + 1, length))
        if kind == "cancelling pairs":
            half = x[:length // 2]
            x = rng.permutation(np.concatenate([half, -half, x[2 * half.size:]]))
    if length and nonfinite:
        x[rng.integers(0, length, len(nonfinite))] = nonfinite
    assert _outcome(_accel.neumaier_sum, x) == _outcome(math.fsum, x)


@pytest.mark.parametrize("x", [
    [], [0.0], [-0.0], [-0.0, -0.0], [-0.0, 1.0, -1.0], [math.inf],
    [-math.inf, 1.0], [math.nan, 1.0], [math.inf, -math.inf],
    [1e308, 1e308, -1e308], [1e308, -1e308, 1.0], [8.98e307] * 2,
    [2.0**1000] * 40_000,
])
def test_sum_edge_cases_match_fsum(x):
    x = np.array(x, dtype=np.float64)
    assert _outcome(_accel.neumaier_sum, x) == _outcome(math.fsum, x)


def test_sum_takes_several_levels():
    # one level keeps bits down to 2**-36 of the leading 1.0; the 2**-60
    # terms survive only in the next level's split
    x = np.full(2 * _accel._BLOCK, 2.0**-60)
    x[0] = 1.0
    assert _accel.neumaier_sum(x) == math.fsum(x)
    assert _accel.neumaier_sum(x) != 1.0


def test_sum_of_haar_neglog_terms_n18():
    N = 1 << 18
    P = haar_state_probs(N, np.random.default_rng(18))
    terms = SchemeFunction.neglog().g(P, N) * P
    assert _outcome(_accel.neumaier_sum, terms) == _outcome(math.fsum, terms)


def test_estimators_sum_through_the_module(monkeypatch):
    summed = []

    def counting_sum(x):
        summed.append(x.shape[0])
        return math.fsum(x)

    monkeypatch.setattr(_accel, "neumaier_sum", counting_sum)
    dims = SystemDims(3)
    P = OutputDistribution(dims, np.full(8, 1 / 8))
    Q = OutputDistribution(dims, np.array([0.5, 0, 0, 0.25, 0, 0, 0.25, 0]))
    scheme = SchemeFunction.monomial(2)
    estimators.correlation_C_f(P, Q, scheme)
    estimators.estimate_C_f(P, SampleSet(dims, np.arange(5)), scheme)
    assert summed == [3, 5]

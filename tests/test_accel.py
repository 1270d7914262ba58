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
    kind=st.sampled_from(["terms", "cancelling pairs", "signed zeros",
                          "near-tie"]),
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
    elif kind == "near-tie":
        # b + ulp(b)/2 is a tie; three nudges of 2**-61..2**-2 ulp(b), or
        # zeros, move the total off it or not, and cancelling pairs spread
        # the terms over the blocks
        b = math.ldexp(rng.uniform(1.0, 2.0), int(rng.integers(lo, hi + 1)))
        nudges = math.ulp(b) * np.ldexp(rng.choice([-1.0, 0.0, 1.0], 3),
                                        -rng.integers(2, 62, 3))
        pairs = np.ldexp(rng.uniform(-1.0, 1.0, length // 2),
                         rng.integers(lo, hi + 1, length // 2))
        x = rng.permutation(np.concatenate(
            [[b, math.ulp(b) / 2], nudges, pairs, -pairs]))
    else:
        x = np.ldexp(rng.uniform(-1.0, 1.0, length),
                     rng.integers(lo, hi + 1, length))
        if kind == "cancelling pairs":
            half = x[:length // 2]
            x = rng.permutation(np.concatenate([half, -half, x[2 * half.size:]]))
    if length and nonfinite:
        x[rng.integers(0, length, len(nonfinite))] = nonfinite
    assert _outcome(_accel.neumaier_sum, x) == _outcome(math.fsum, x)


_B = _accel._BLOCK


def _ill_conditioned():
    # 3 * 2**13 terms of 1..2, their negatives and as many of 0..1e-16,
    # shuffled over five blocks: sum|x| / |sum x| ~ 1e17
    rng = np.random.default_rng(12)
    a = rng.uniform(1.0, 2.0, 3 * _B // 2)
    x = rng.permutation(np.concatenate([a, -a, rng.uniform(0, 1e-16, a.size)]))
    assert math.fsum(np.abs(x)) >= 1e12 * abs(math.fsum(x))
    return list(x)


@pytest.mark.parametrize("x", [
    [], [0.0], [-0.0], [-0.0, -0.0], [-0.0, 1.0, -1.0], [math.inf],
    [-math.inf, 1.0], [math.nan, 1.0], [math.inf, -math.inf],
    [1e308, 1e308, -1e308], [1e308, -1e308, 1.0], [8.98e307] * 2,
    [2.0**1000] * 40_000,
    # exact ties across two blocks, rounded down and up to the even float
    [1.0] + [0.0] * (_B - 1) + [2.0**-53],
    [1.0 + 2.0**-52] + [0.0] * (_B - 1) + [2.0**-53],
    # exact-zero totals of cancelling blocks, either sign first
    [1.5] * _B + [-1.5] * _B,
    [-(2.0**-600)] * _B + [2.0**-600] * _B + [-0.0],
    _ill_conditioned(),
    # a block top just above 2**-900 is split; at or below it, fsum runs
    [math.nextafter(2.0**-900, 1.0), -3 * 2.0**-902, 2.0**-950],
    [2.0**-900, -3 * 2.0**-902, 2.0**-950],
    [1.0 / 3.0] * _B + [math.nextafter(2.0**-900, 1.0), 2.0**-1074],
    [1.0 / 3.0] * _B + [math.nextafter(2.0**-900, 0.0), 2.0**-1074],
])
def test_sum_edge_cases_match_fsum(x, monkeypatch):
    x = np.array(x, dtype=np.float64)
    expected = _outcome(math.fsum, x)
    fsum, whole_input_sums = math.fsum, []

    def counting_fsum(values):
        whole_input_sums.append(values is x)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    assert _outcome(_accel.neumaier_sum, x) == expected
    # a zero total is math.fsum's own, so it takes fsum's sign of zero
    if expected in (struct.pack("<d", 0.0), struct.pack("<d", -0.0)):
        assert any(whole_input_sums)


def test_sum_keeps_terms_below_the_split():
    # the split keeps bits down to 2**-36 of the leading 1.0; the 2**-60
    # terms lie wholly in the remainders, whose float sum keeps them
    x = np.full(2 * _accel._BLOCK, 2.0**-60)
    x[0] = 1.0
    assert _accel.neumaier_sum(x) == math.fsum(x)
    assert _accel.neumaier_sum(x) != 1.0


def test_sum_of_haar_terms_needs_no_fallback(monkeypatch):
    # the certificate settles every exact-correlation sum of a Haar
    # instance: math.fsum only ever rounds the few block parts
    fsum, whole_input_sums = math.fsum, []

    def counting_fsum(values):
        whole_input_sums.append(isinstance(values, np.ndarray))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    for n in (10, 14, 18):
        N = 1 << n
        P = haar_state_probs(N, np.random.default_rng(n))
        for scheme in (SchemeFunction.monomial(2), SchemeFunction.plogp(),
                       SchemeFunction.neglog()):
            terms = scheme.g(P, N) * P
            expected = _outcome(fsum, terms)
            assert _outcome(_accel.neumaier_sum, terms) == expected
    assert whole_input_sums and not any(whole_input_sums)


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
    # one call with every term, however many blocks they fill or skip
    N, block = 1 << 16, _accel._BLOCK
    q = np.full(N, 1.0 / (N - block))
    q[block:2 * block] = 0.0
    P = OutputDistribution(SystemDims(16), np.full(N, 1.0 / N))
    Q = OutputDistribution(SystemDims(16), q)
    for scheme in (SchemeFunction.neglog(), SchemeFunction.monomial(3)):
        estimators.correlation_C_f(P, P, scheme)
        estimators.correlation_C_f(P, Q, scheme)
    assert summed == [3, 5] + [N, N - block] * 2

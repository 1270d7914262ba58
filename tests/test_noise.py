import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from ergoxeb import ensembles, noise
from ergoxeb.noise import (
    NoiseModel,
    SampleSet,
    check_bitstring_range,
    chi_normalization_check,
    experimental_distribution,
    index_to_bitstring,
    inverse_cdf,
    read_probabilities,
    read_samples,
    sample_bitstrings,
    write_probabilities,
    write_samples,
)
from ergoxeb.statevector import (
    OutputDistribution,
    SystemDims,
    check_probability_rows,
)


def _random_P(n, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(1 << n))
    return OutputDistribution(SystemDims(n), p)


def test_noiseless_is_identity():
    P = _random_P(3, 0)
    Q = experimental_distribution(P, NoiseModel.noiseless())
    assert np.array_equal(Q.probs, P.probs)


def test_depolarizing_mixture():
    P = _random_P(3, 1)
    Q = experimental_distribution(P, NoiseModel.depolarizing(0.7))
    np.testing.assert_allclose(
        Q.probs, 0.7 * P.probs + 0.3 / 8, atol=1e-14
    )


def test_depolarizing_endpoints():
    P = _random_P(2, 2)
    full = experimental_distribution(P, NoiseModel.depolarizing(1.0))
    np.testing.assert_allclose(full.probs, P.probs, atol=1e-15)
    none = experimental_distribution(P, NoiseModel.depolarizing(0.0))
    np.testing.assert_allclose(none.probs, 0.25, atol=1e-15)


def test_completely_noisy_uniform():
    P = _random_P(4, 3)
    Q = experimental_distribution(P, NoiseModel.completely_noisy())
    np.testing.assert_allclose(Q.probs, 1.0 / 16, atol=1e-15)


def test_fidelity_range_enforced():
    with pytest.raises(ValueError, match="fidelity"):
        NoiseModel.depolarizing(1.2)


def test_custom_chi_checks():
    with pytest.raises(ValueError, match="sums to"):
        NoiseModel.custom(0.5, np.full(4, 0.3))
    # quasiprobability chi may be negative as long as Q stays nonnegative
    chi = np.array([0.6, 0.5, -0.05, -0.05])
    P = OutputDistribution(SystemDims(2), np.full(4, 0.25))
    Q = experimental_distribution(P, NoiseModel.custom(0.9, chi))
    np.testing.assert_allclose(
        Q.probs, 0.9 * 0.25 + 0.1 * chi, atol=1e-14
    )
    bad = np.array([1.5, 1.5, -1.0, -1.0])
    with pytest.raises(ValueError, match="negative experimental"):
        experimental_distribution(P, NoiseModel.custom(0.1, bad))


@pytest.mark.parametrize("chi, message", [
    ([math.nan, 0.5, 0.25, 0.25], "NaN or infinite"),
    ([math.inf, -math.inf, 0.5, 0.5], "NaN or infinite"),
    ([[0.25, 0.25], [0.25, 0.25]], "1-D"),
    (1.0, "1-D"),
])
def test_custom_chi_rejects_non_finite_or_non_vector(chi, message):
    with pytest.raises(ValueError, match=message):
        NoiseModel.custom(0.5, chi)


def test_custom_chi_shape_mismatch():
    P = _random_P(3, 4)
    with pytest.raises(ValueError, match="shape"):
        experimental_distribution(
            P, NoiseModel.custom(0.5, np.full(4, 0.25))
        )


def test_chi_normalization_check():
    dims = SystemDims(2)
    uniform = [np.full(4, 0.25)] * 3
    assert not chi_normalization_check(uniform, dims).violated
    skewed = [np.array([0.4, 0.3, 0.2, 0.1])] * 3
    assert chi_normalization_check(skewed, dims).violated
    with pytest.raises(ValueError, match="at least one"):
        chi_normalization_check([], dims)


# -- sampling -----------------------------------------------------------------

def test_sample_zero_and_delta():
    P = _random_P(3, 5)
    assert sample_bitstrings(P, 0, seed=1).T == 0
    delta = OutputDistribution(SystemDims(2), np.array([0.0, 0.0, 1.0, 0.0]))
    draws = sample_bitstrings(delta, 100, seed=2)
    assert np.all(draws.bitstrings == 2)


def test_sample_reproducible():
    Q = _random_P(4, 6)
    a = sample_bitstrings(Q, 1000, seed=77)
    b = sample_bitstrings(Q, 1000, seed=77)
    assert np.array_equal(a.bitstrings, b.bitstrings)
    c = sample_bitstrings(Q, 1000, seed=78)
    assert not np.array_equal(a.bitstrings, c.bitstrings)


def test_sample_frequencies_chi_squared():
    Q = _random_P(4, 7)
    draws = sample_bitstrings(Q, 100_000, seed=8)
    counts = np.bincount(draws.bitstrings, minlength=16)
    pvalue = stats.chisquare(counts, 100_000 * Q.probs).pvalue
    assert pvalue > 1e-3


@pytest.mark.parametrize("seed", [21, 22, 23, 24])
def test_sampler_skips_zeros_and_fits(seed):
    # Dirichlet weights with random zeros plus a leading and trailing run
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(64))
    zero = rng.random(64) < 0.3
    zero[:2] = zero[-6:] = True
    probs[zero] = 0.0
    Q = OutputDistribution(SystemDims(6), probs / probs.sum())
    T = 200_000
    draws = sample_bitstrings(Q, T, seed=seed + 100).bitstrings
    assert not np.any(zero[draws])
    counts = np.bincount(draws, minlength=64)[~zero]
    pvalue = stats.chisquare(counts, T * Q.probs[~zero]).pvalue
    assert pvalue > 1e-3


def test_sample_set_validation():
    with pytest.raises(ValueError, match="out of range"):
        SampleSet(SystemDims(2), np.array([0, 4]))
    with pytest.raises(ValueError, match="flat"):
        SampleSet(SystemDims(2), np.zeros((2, 2), dtype=np.int64))
    check_bitstring_range(np.array([[0, 3], [1, 2]]), 4)
    for block in ([[0, 3], [1, 4]], [[0, 3], [-1, 2]]):
        with pytest.raises(ValueError, match="out of range"):
            check_bitstring_range(np.array(block), 4)


@pytest.mark.parametrize("values", [
    [1.7, 2.9], [0.0, math.nan], [math.inf], np.array([1.0, 2.5]),
])
def test_sample_set_rejects_non_integral_indices(values):
    with pytest.raises(ValueError, match="not an integer"):
        SampleSet(SystemDims(2), values)


def test_sample_set_takes_integral_values_as_before():
    dims = SystemDims(2)
    ints = np.array([0, 3, 1], dtype=np.int64)
    assert SampleSet(dims, ints).bitstrings is ints
    for values in ([0, 3, 1], np.array([0.0, 3.0, 1.0]),
                   np.array([0, 3, 1], dtype=np.uint8)):
        got = SampleSet(dims, values).bitstrings
        assert got.dtype == np.int64
        assert got.tolist() == [0, 3, 1]
    empty = SampleSet(dims, [])
    assert empty.T == 0 and empty.bitstrings.dtype == np.int64


def _per_row_draws(probs, u):
    """The sampler before the row kernel, one row at a time (reference)."""
    if u.size == 0:
        return np.empty(0, dtype=np.int64)
    cdf = np.cumsum(probs)
    draws = np.searchsorted(cdf, u * cdf[-1], side="right")
    np.minimum(draws, np.flatnonzero(probs)[-1], out=draws)
    return draws


def _rows_with_zeros(rows, n, seed):
    """Dirichlet rows with random interior zeros and zero runs at both ends."""
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(1 << n), size=rows)
    zero = rng.random(probs.shape) < 0.3
    zero[:, :2] = zero[:, -5:] = True
    probs[zero] = 0.0
    return check_probability_rows(probs / probs.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("rows, T", [(1, 500), (7, 1), (13, 300), (5, 0)])
def test_row_kernel_matches_per_row_sampler(rows, T):
    probs = _rows_with_zeros(rows, 6, seed=rows + T)
    seeds = range(40, 40 + rows)
    uniforms = np.array(
        [np.random.Generator(np.random.PCG64(s)).random(T) for s in seeds]
    ).reshape(rows, T)
    targets = uniforms.copy()
    draws = [inverse_cdf(p, t) for p, t in zip(probs, targets)]
    totals = np.cumsum(probs, axis=1)[:, -1:]
    assert np.array_equal(targets, uniforms * totals)
    assert len(draws) == rows
    for row, p, u, s in zip(draws, probs, uniforms, seeds):
        assert row.shape == (T,) and row.dtype == np.int64
        assert np.array_equal(row, _per_row_draws(p, u))
        one = sample_bitstrings(OutputDistribution(SystemDims(6), p), T, s)
        assert np.array_equal(row, one.bitstrings)


def test_row_kernel_clamps_to_last_nonzero_entry():
    # u = 1 targets the row total itself, which searchsorted places past
    # the trailing zero run, at index N
    probs = _rows_with_zeros(3, 5, seed=9)
    u = np.tile([0.0, 0.5, 1.0 - 2.0**-53, 1.0], (3, 1))
    draws = [inverse_cdf(p, u_row.copy()) for p, u_row in zip(probs, u)]
    for row, p, u_row in zip(draws, probs, u):
        assert np.array_equal(row, _per_row_draws(p, u_row))
        assert row[-1] == np.flatnonzero(p)[-1] and p[row].min() > 0.0


def test_row_kernel_fits_each_row_chi_squared():
    # threshold fixed before the run: p > 1e-3 per row, as for one row
    probs = _rows_with_zeros(4, 6, seed=31)
    T = 100_000
    uniforms = np.random.default_rng(32).random((4, T))
    for p, u in zip(probs, uniforms):
        row = inverse_cdf(p, u)
        nonzero = p > 0.0
        counts = np.bincount(row, minlength=p.size)
        assert not counts[~nonzero].any()
        pvalue = stats.chisquare(counts[nonzero], T * p[nonzero]).pvalue
        assert pvalue > 1e-3


_BLOCK = noise._SEARCH_BLOCK


def _check_draws(probs, u):
    """inverse_cdf equals one unsorted search of all targets, bit for bit."""
    draws = inverse_cdf(probs, u.copy())
    assert draws.shape == u.shape and draws.dtype == np.int64
    assert np.array_equal(draws, _per_row_draws(probs, u))
    return draws


@pytest.mark.parametrize("T", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                               8191, 8192, 8193, 3 * 8192 + 5])
def test_blocked_search_matches_one_search(T):
    probs = _rows_with_zeros(1, 10, seed=T)[0]
    _check_draws(probs, np.random.default_rng(T).random(T))


def test_blocked_search_repeated_uniforms():
    # few distinct values, repeated within and across blocks: equal
    # targets end in whatever order the unstable argsort leaves them
    probs = _rows_with_zeros(1, 8, seed=3)[0]
    rng = np.random.default_rng(4)
    u = rng.choice(rng.random(7), size=2 * _BLOCK + 77)
    _check_draws(probs, u)


def test_blocked_search_targets_on_cdf_entries():
    # dyadic probabilities sum exactly to 1, so u = cdf[k] makes targets
    # equal to CDF entries, among them the repeated entries of zero runs
    counts = np.random.default_rng(5).integers(0, 4, 1 << 7)
    counts[:3] = counts[-3:] = 0
    counts[-4] += (1 << 10) - counts.sum()
    probs = counts / 1024.0
    cdf = np.cumsum(probs)
    assert cdf[-1] == 1.0
    u = np.random.default_rng(6).choice(np.append(cdf, 0.0),
                                        size=_BLOCK + 300)
    draws = _check_draws(probs, u)
    assert probs[draws].min() > 0.0


def test_blocked_search_clamps_u_one_in_every_block():
    probs = _rows_with_zeros(3, 6, seed=7)
    rng = np.random.default_rng(8)
    for p in probs:
        u = rng.random(2 * _BLOCK + 9)
        u[rng.random(u.size) < 0.01] = 1.0
        u[[0, _BLOCK - 1, _BLOCK, -1]] = 1.0
        draws = _check_draws(p, u)
        assert (draws[u == 1.0] == np.flatnonzero(p)[-1]).all()


def test_blocked_search_holds_only_block_temporaries():
    # bound fixed before the run: 256 KiB beyond the cdf and the draws.
    # A block's three temporaries (3 x 32 KiB) fit it; those of 2^14
    # blocks, or of one argsort of all T targets, do not.
    N, T = 1 << 16, 1 << 18
    probs = np.random.default_rng(9).dirichlet(np.ones(N))
    u = np.random.default_rng(10).random(T)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        draws = inverse_cdf(probs, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    beyond = peak - base - probs.nbytes - draws.nbytes
    assert beyond <= 256 << 10, beyond


# -- file formats -------------------------------------------------------------

def test_bitstring_codec():
    assert index_to_bitstring(5, 4) == "0101"
    # rightmost character is qubit 0 (least significant)
    assert index_to_bitstring(1, 3) == "001"


def test_samples_round_trip(tmp_path):
    Q = _random_P(3, 9)
    draws = sample_bitstrings(Q, 500, seed=10)
    path = tmp_path / "samples.txt"
    write_samples(draws, path)
    back = read_samples(path, dims=Q.dims)
    assert np.array_equal(back.bitstrings, draws.bitstrings)


def test_read_samples_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("010\n01x\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        read_samples(p)
    p.write_text("010\n0110\n")
    with pytest.raises(ValueError, match="length"):
        read_samples(p)
    p.write_text("\n\n")
    with pytest.raises(ValueError, match="no bitstrings"):
        read_samples(p)
    p.write_text("0101\n")
    with pytest.raises(ValueError, match="length"):
        read_samples(p, dims=SystemDims(3))
    p.write_bytes(b"010\n0\xff0\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: invalid bitstring"):
        read_samples(p)
    p.write_text("\n" + "0" * 30 + "\n")
    with pytest.raises(ValueError, match=r"bad\.txt:2: .*exceeds cap"):
        read_samples(p)


def test_probabilities_round_trip(tmp_path):
    P = _random_P(4, 11)
    path = tmp_path / "probs.csv"
    write_probabilities(P, path)
    back = read_probabilities(path)
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(back.probs, P.probs)


def test_read_probabilities_errors(tmp_path):
    p = tmp_path / "probs.csv"
    p.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        read_probabilities(p)
    p.write_text("bitstring,probability\n00,0.5\n01,0.5\n")
    with pytest.raises(ValueError, match="expected 4 rows"):
        read_probabilities(p)
    p.write_text("bitstring,probability\n00,abc\n")
    with pytest.raises(ValueError, match="bad row"):
        read_probabilities(p)
    for row in ("0x,0.25", "0b,0.25", ",0.25", "0\xe9,0.25"):
        p.write_text(f"bitstring,probability\n00,0.25\n{row}\n")
        with pytest.raises(ValueError, match=r"probs\.csv:3: invalid bitstring"):
            read_probabilities(p)
    for value in ("nan", "inf", "-inf", "-0.25", "-1e-3"):
        p.write_text("bitstring,probability\n"
                     f"00,0.25\n01,0.25\n10,{value}\n11,0.25\n")
        with pytest.raises(ValueError,
                           match=r"probs\.csv:4: bad probability"):
            read_probabilities(p)
    # near misses of '%.17g': a byte on either side of the digits, in place
    # of the 'e' or the '-', and a trailing character
    for value in ("1.234567890123456:e-07", "1.2345678901234567e-0/",
                  "0.000123456789012345/", "1.2345678901234567e-07x",
                  "1.2345678901234567x-07", "1.2345678901234567e_07"):
        p.write_text("bitstring,probability\n"
                     f"00,0.25\n01,0.25\n10,{value}\n11,0.25\n")
        with pytest.raises(ValueError, match=r"probs\.csv:4: bad row"):
            read_probabilities(p)
    p.write_text("bitstring,probability\n0,0.25\n1,0.25\n")
    with pytest.raises(ValueError, match=r"^\S*probs\.csv: .*sum to"):
        read_probabilities(p)
    # all four bitstrings plus a repeat whose value would otherwise win
    p.write_text("bitstring,probability\n"
                 "00,0.25\n01,0.125\n10,0.25\n11,0.25\n01,0.25\n")
    with pytest.raises(ValueError, match=r"probs\.csv:6: duplicate"):
        read_probabilities(p)
    # a repeat right after its row, in a batch otherwise in order
    p.write_text("bitstring,probability\n"
                 "00,0.25\n01,0.25\n01,0.25\n10,0.25\n11,0.25\n")
    with pytest.raises(ValueError, match=r"probs\.csv:4: duplicate"):
        read_probabilities(p)
    # a repeat ahead of a malformed row is the first error
    p.write_text("bitstring,probability\n00,0.25\n00,0.25\n0x,0.25\n")
    with pytest.raises(ValueError, match=r"probs\.csv:3: duplicate"):
        read_probabilities(p)


# -- file formats: bulk readers and writers -----------------------------------

def _reference_probabilities(P):
    """The probability file, formatted one row at a time."""
    n = P.dims.n
    rows = [f"{index_to_bitstring(j, n)},{p:.17g}\n"
            for j, p in enumerate(P.probs)]
    return ("bitstring,probability\n" + "".join(rows)).encode()


def _reference_samples(samples):
    n = samples.dims.n
    return "".join(index_to_bitstring(j, n) + "\n"
                   for j in samples.bitstrings).encode()


_TINY = st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308])


@st.composite
def _distributions(draw):
    n = draw(st.integers(1, 8))
    N = 1 << n
    if draw(st.booleans()):
        # one certain outcome: zeros and subnormals leave the sum at 1.0
        probs = np.array(draw(st.lists(_TINY, min_size=N, max_size=N)))
        probs[draw(st.integers(0, N - 1))] = 1.0
    else:
        weights = draw(st.lists(st.one_of(_TINY, st.floats(0.0, 1.0)),
                                min_size=N, max_size=N))
        probs = np.array(weights)
        assume(probs.sum() > 0.0)
        probs /= probs.sum()
    return OutputDistribution(SystemDims(n), probs)


@settings(max_examples=60, deadline=None)
@given(P=_distributions())
def test_probabilities_round_trip_and_format(tmp_path_factory, P):
    path = tmp_path_factory.mktemp("probs") / "p.csv"
    write_probabilities(P, path)
    assert path.read_bytes() == _reference_probabilities(P)
    back = read_probabilities(path)
    assert back.dims == P.dims
    assert np.array_equal(back.probs, P.probs)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_samples_round_trip_and_format(tmp_path_factory, n, data):
    dims = SystemDims(n)
    indices = data.draw(st.lists(st.integers(0, dims.N - 1), max_size=40))
    samples = SampleSet(dims, np.array(indices, dtype=np.int64))
    path = tmp_path_factory.mktemp("samples") / "s.txt"
    write_samples(samples, path)
    assert path.read_bytes() == _reference_samples(samples)
    back = read_samples(path, dims=dims)
    assert np.array_equal(back.bitstrings, samples.bitstrings)


def _g17_lines(values):
    """Kernel output for a float64 array, one '%.17g' text per line."""
    chars = np.empty((values.size, noise._FIELD), dtype=np.uint8)
    keep = np.empty(chars.shape, dtype=bool)
    noise._format_g17(values, chars, keep)
    newline = np.full((values.size, 1), ord("\n"), dtype=np.uint8)
    lines = np.hstack([chars, newline])
    return lines[np.hstack([keep, newline > 0])].tobytes()


def _g17_reference(values):
    return (("%.17g\n" * values.size) % tuple(values.tolist())).encode()


def _bit_patterns(rng, low, high, size):
    """Floats whose bit patterns are uniform in [bits(low), bits(high))."""
    lo, hi = np.array([low, high]).view(np.int64)
    return rng.integers(lo, hi, size).view(np.float64)


def test_g17_kernel_matches_percent_format_on_random_bit_patterns():
    rng = np.random.default_rng(41)
    # one pattern in ten from every finite non-negative double, the rest
    # from [1e-30, 1.5), which holds the kernel's range and both its edges
    x = np.concatenate([
        _bit_patterns(rng, 0.0, math.inf, 100_000),
        _bit_patterns(rng, 1e-30, 1.5, 900_000),
    ])
    inside = (x >= 1e-26) & (x < 1.0)
    assert min(np.count_nonzero(inside), np.count_nonzero(~inside)) > 10**5
    for start in range(0, x.size, noise._CHUNK_ROWS):
        chunk = x[start:start + noise._CHUNK_ROWS]
        assert _g17_lines(chunk) == _g17_reference(chunk)


def _neighbours(v):
    return [np.nextafter(v, 0.0), v, np.nextafter(v, 1.0)]


def test_g17_kernel_edge_values():
    powers = [w for k in range(1, 31) for w in _neighbours(10.0 ** -k)]
    switch = [np.nextafter(v, d) for v in (1e-4, 1e-5)
              for d in (0.0, 0.0, 1.0, 1.0)]
    lowest = _neighbours(1e-26)
    # m * 2**-18 with m odd lies exactly halfway between two 17-digit texts
    ties = [m * 2.0**-18 for m in (26215, 26217, 131071, 262143)]
    special = [0.0, -0.0, 5e-324, 1e-310, 1.0, np.nextafter(1.0, 0.0)]
    x = np.array(powers + switch + lowest + ties + special)
    assert _g17_lines(x) == _g17_reference(x)
    # log10 of the double nearest 1e-6 rounds to -6: its 17 digits sit a
    # decade lower, and the unrounded product must say so
    assert _g17_lines(np.array([1e-6])) == b"9.9999999999999995e-07\n"
    assert _g17_lines(np.array([-0.0, 1e-4])) == b"-0\n0.0001\n"


def test_writers_match_reference_across_chunks(tmp_path):
    # more rows than one write chunk holds
    P = _random_P(17, 31)
    path = tmp_path / "p.csv"
    write_probabilities(P, path)
    assert path.read_bytes() == _reference_probabilities(P)
    draws = sample_bitstrings(P, noise._CHUNK_ROWS + 7, seed=32)
    path = tmp_path / "s.txt"
    write_samples(draws, path)
    assert path.read_bytes() == _reference_samples(draws)


def _rows(P):
    return _reference_probabilities(P).decode().splitlines()[1:]


def test_probability_errors_after_first_batch(tmp_path):
    # 16 qubits make ~1.6 MB of rows, so the last rows fall in a later batch
    P = _random_P(16, 33)
    rows = _rows(P)
    head = "bitstring,probability\n\n\n"  # blank lines count as lines
    path = tmp_path / "p.csv"
    path.write_text(head + "\n".join(rows + [rows[3]]) + "\n")
    with pytest.raises(ValueError, match=rf"p\.csv:{3 + len(rows) + 1}: "
                                         rf"duplicate bitstring '{rows[3][:16]}'"):
        read_probabilities(path)
    bad = list(rows)
    bad[60_000] = bad[60_000].split(",")[0] + ",0.1.2"
    path.write_text(head + "\n".join(bad) + "\n")
    with pytest.raises(ValueError, match=rf"p\.csv:{3 + 60_000 + 1}: bad row"):
        read_probabilities(path)
    # a repeat in the first batch comes before a bad row in a later one
    bad[10] = rows[3]
    path.write_text(head + "\n".join(bad) + "\n")
    with pytest.raises(ValueError, match=rf"p\.csv:{3 + 10 + 1}: duplicate"):
        read_probabilities(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_duplicate_row_read_from_a_pipe_names_its_line():
    r, w = os.pipe()
    try:
        os.write(w, b"bitstring,probability\n"
                    b"00,0.25\n01,0.125\n10,0.25\n11,0.25\n01,0.25\n")
        os.close(w)
        with pytest.raises(ValueError,
                           match=rf"^/dev/fd/{r}:6: duplicate bitstring '01'"):
            read_probabilities(f"/dev/fd/{r}")
    finally:
        os.close(r)


def test_late_repeat_costs_no_more_memory_than_a_good_read(tmp_path,
                                                            monkeypatch):
    # 64 KiB batches keep the parse's own peak near 1 MiB, so a set of the
    # 2^16 earlier indices (~4 MiB) would show
    monkeypatch.setattr(noise, "_BATCH_BYTES", 1 << 16)
    n = 16
    P = OutputDistribution(SystemDims(n), np.full(1 << n, 1.0 / (1 << n)))
    good = tmp_path / "good.csv"
    write_probabilities(P, good)
    text = good.read_bytes()
    repeated = tmp_path / "repeated.csv"
    repeated.write_bytes(text + text.split(b"\n")[2] + b"\n")
    tracemalloc.start()
    try:
        read_probabilities(good)
        good_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(ValueError,
                           match=f":{(1 << n) + 2}: duplicate bitstring"):
            read_probabilities(repeated)
        repeat_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert repeat_peak - good_peak < 1 << 20, (good_peak, repeat_peak)


def test_read_peak_memory_stays_at_the_line_reader_figure(tmp_path):
    # 11_375_473 bytes: the tracemalloc peak of the same read when each
    # batch was split into Python lines and parsed with float, token by
    # token (numpy 2.4, CPython 3.11)
    n = 16
    rng = np.random.Generator(np.random.PCG64([0, 0]))
    P = OutputDistribution(SystemDims(n),
                           ensembles.haar_state_probs(1 << n, rng))
    path = tmp_path / "p.csv"
    write_probabilities(P, path)
    tracemalloc.start()
    try:
        back = read_probabilities(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.probs, P.probs)
    assert peak <= 11_375_473, peak


def _capped(x):
    """The floats ``x`` as a distribution: an entry that would take the
    running sum past 1/2 is scaled by 2**-64, which keeps its significand
    bits, and the last entry takes the rest."""
    x = x.copy()
    total = 0.0
    for i, v in enumerate(x.tolist()):
        if total + v > 0.5:
            x[i] = v * 2.0**-64
        total += x[i]
    x[-1] = 0.0
    x[-1] = 1.0 - math.fsum(x.tolist())
    return x


def test_reader_reads_writer_files_bit_for_bit(tmp_path):
    rng = np.random.default_rng(43)
    x = _capped(_bit_patterns(rng, 1e-30, 1.5, 1 << 17))
    # the fast path's range and both ranges left to float all occur
    for low, high in ((1e-30, 1e-26), (1e-26, 1e-4), (1e-4, 1.0)):
        assert np.count_nonzero((x >= low) & (x < high)) > 10, (low, high)
    # and ~1000 values of the form '0.000ddd...'
    y = _capped(_bit_patterns(rng, 1e-4, 1e-3, 1 << 10))
    path = tmp_path / "p.csv"
    for probs in (x, y):
        P = OutputDistribution(SystemDims(probs.size.bit_length() - 1), probs)
        write_probabilities(P, path)
        assert np.array_equal(read_probabilities(path).probs, P.probs)
    # each edge value of the writer's kernel beside its complement
    powers = [w for k in range(1, 31) for w in _neighbours(10.0 ** -k)]
    switch = [np.nextafter(v, d) for v in (1e-4, 1e-5) for d in (0.0, 1.0)]
    ties = [m * 2.0**-18 for m in (26215, 26217, 131071, 262143)]
    special = [0.0, -0.0, 5e-324, 1e-310, 1.0, np.nextafter(1.0, 0.0)]
    for v in powers + switch + _neighbours(1e-26) + ties + special:
        P = OutputDistribution(SystemDims(1), np.array([v, 1.0 - v]))
        write_probabilities(P, path)
        back = read_probabilities(path).probs
        assert back.tobytes() == P.probs.tobytes(), v


def _slack_text(text):
    """``text`` as a uint8 array followed by the readers' slack bytes."""
    return np.frombuffer(text + bytes(noise._SLACK), dtype=np.uint8)


def test_value_kernel_takes_every_writer_token_in_its_range():
    rng = np.random.default_rng(46)
    x = _bit_patterns(rng, 1e-26, 1e-4, 100_000)
    text = b"".join(b"0," + line + b"\n"
                    for line in _g17_lines(x).split(b"\n")[:-1])
    text = _slack_text(text)
    ends = np.flatnonzero(text == ord("\n"))
    starts = np.append(0, ends[:-1] + 1)
    values, fast = noise._decimal_values(text, starts + 2, ends)
    assert fast.all()
    assert values.tobytes() == x.tobytes()


_ROW_KERNEL_NS = [1, 7, 8, 9, 16, 17, 24]


def _kernel_tokens(rng):
    """Value tokens for the row kernel: every length from 5 to 22 in the
    ``d.ddd...e-XX`` layout with random digits and exponents in and out of
    the kernel's (and 'E-' or 'e+' in place of 'e-'), the '%.17g' of
    doubles from below 1e-26 to above 1e-4 (where it prints '0.000...'),
    and tokens of 25 characters or more."""
    tokens = []
    for length in range(5, 23):
        for _ in range(20):
            after = max(length - 6, 0)  # digits after the '.'
            digits = "".join(map(str, rng.integers(0, 10, after)))
            mantissa = str(rng.integers(1, 10)) + ("." + digits
                                                   if length > 5 else "")
            sign = rng.choice(["e-", "e-", "e-", "E-", "e+"])
            tokens.append(f"{mantissa}{sign}{rng.integers(1, 40):02d}")
    x = _bit_patterns(rng, 1e-30, 1.5, 300)
    tokens += ["%.17g" % v for v in x]
    tokens += ["%.17g" % v for v in _bit_patterns(rng, 1e-4, 1e-3, 50)]
    tokens += ["%.40f" % v for v in x[:30]] + ["%.30e" % v for v in x[30:60]]
    assert {len(t) for t in tokens} >= set(range(5, 23)) | {42}
    return [t.encode() for t in tokens]


@pytest.mark.parametrize("n", _ROW_KERNEL_NS)
def test_row_kernel_matches_a_per_line_parse(n):
    rng = np.random.default_rng(50 + n)
    tokens = _kernel_tokens(rng)
    rng.shuffle(tokens)
    indices = rng.integers(0, 1 << n, len(tokens))
    indices[:2] = 0, (1 << n) - 1
    lines = [index_to_bitstring(j, n).encode() + b"," + t
             for j, t in zip(indices, tokens)]
    # the lines end at the end of the data, the readers' slack after it
    text = _slack_text(b"\n".join(lines) + b"\n")
    ends = np.flatnonzero(text == ord("\n"))
    got_indices, values = noise._parse_probability_rows(text, ends, n)
    assert got_indices.tolist() == [int(line[:n], 2) for line in lines]
    expected = np.array([float(t) for t in tokens])
    assert values.tobytes() == expected.tobytes()
    # both the word kernel and float took tokens
    starts = np.append(0, ends[:-1] + 1)
    _, fast = noise._decimal_values(text, starts + n + 1, ends)
    assert 0 < np.count_nonzero(fast) < fast.size
    # a byte other than '0'/'1' anywhere in a bitstring fails the batch
    for k in range(n):
        bad = text.copy()
        bad[starts[1] + k] = ord("2") if k % 2 else ord("/")
        assert noise._parse_probability_rows(bad, ends, n) is None


@pytest.mark.parametrize("n", _ROW_KERNEL_NS)
def test_bit_codec_matches_format_both_ways(n):
    rng = np.random.default_rng(60 + n)
    indices = rng.integers(0, 1 << n, 500)
    indices[:2] = 0, (1 << n) - 1
    chars = noise._bit_chars(indices, n)[:, :n]
    lines = [index_to_bitstring(j, n).encode() for j in indices]
    assert chars.tobytes() == b"".join(lines)
    text = _slack_text(b"".join(line + b"\n" for line in lines))
    ends = np.flatnonzero(text == ord("\n"))
    assert noise._sample_indices(text, ends, n).tolist() == indices.tolist()


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
@pytest.mark.parametrize("n", [1, 7, 8, 9])
def test_readers_match_a_per_line_parse_to_the_last_byte(tmp_path, n,
                                                          newline):
    # the file's last line has no newline and no byte after it
    rng = np.random.default_rng(70 + n)
    N = 1 << n
    probs = rng.exponential(size=N)
    probs /= probs.sum()
    formats = ["%.17g", "%r", "%.40f", "%.30e"]
    lines = [index_to_bitstring(j, n).encode() + b","
             + (formats[k % 4] % float(probs[j])).encode()
             for k, j in enumerate(rng.permutation(N))]
    path = tmp_path / "p.csv"
    path.write_bytes(newline.join([b"bitstring,probability"] + lines))
    expected = np.empty(N)
    for line in lines:
        bits, token = line.split(b",")
        expected[int(bits, 2)] = float(token)
    assert read_probabilities(path).probs.tobytes() == expected.tobytes()
    draws = rng.integers(0, N, 300)
    path = tmp_path / "s.txt"
    path.write_bytes(newline.join(index_to_bitstring(j, n).encode()
                                  for j in draws))
    assert read_samples(path).bitstrings.tolist() == draws.tolist()


# forms '%.17g' never writes: other exponent and mantissa spellings, signs,
# underscores, more than 17 digits and a token longer than a field
_HAND_TOKENS = [b"1E-07", b"+1e-07", b"1e-7", b"1.50e-07", b"0.50", b".5",
                b"5.", b"5.e-07", b"1_0e-08", b"-0", b"0", b"1",
                b"1.23456789012345678e-07", b"0.012345678901234567890",
                b"1.000000000000000000000000e-07"]


def test_hand_written_tokens_equal_float_bit_for_bit(tmp_path):
    assert len(_HAND_TOKENS[-1]) == 30
    expected = np.array([float(t) for t in _HAND_TOKENS])
    # all of them in one batch, beside tokens the fast path takes
    text = b"".join(b"0," + t + b"\n0,1.2345678901234567e-07\n"
                    for t in _HAND_TOKENS)
    text = _slack_text(text)
    ends = np.flatnonzero(text == ord("\n"))
    _, values = noise._parse_probability_rows(text, ends, 1)
    assert values[::2].tobytes() == expected.tobytes()
    assert (values[1::2] == 1.2345678901234567e-07).all()
    # and read from a file, beside their complement
    path = tmp_path / "p.csv"
    for i, token in enumerate(_HAND_TOKENS):
        if expected[i] <= 1.0:
            path.write_bytes(b"bitstring,probability\n0," + token
                             + b"\n1,%r\n" % (1.0 - float(expected[i])))
            back = read_probabilities(path).probs
            assert back[:1].tobytes() == expected[i:i + 1].tobytes(), token


@pytest.mark.parametrize("batch", [1, 7, 30, 1 << 20])
def test_readers_take_batches_shorter_than_a_line(tmp_path, monkeypatch,
                                                   batch):
    P = _random_P(4, 44)
    path = tmp_path / "p.csv"
    write_probabilities(P, path)
    # a last line longer than any batch here but the default, no newline
    text = path.read_bytes().replace(b"\n0000,", b"\n0000,  ", 1)
    rows = text.split(b"\n")
    rows[-2] = rows[-2].split(b",")[0] + b"," + b"%.40f" % P.probs[-1]
    path.write_bytes(b"\n".join(rows[:-1]))
    draws = sample_bitstrings(P, 50, seed=45)
    samples = tmp_path / "s.txt"
    write_samples(draws, samples)
    monkeypatch.setattr(noise, "_BATCH_BYTES", batch)
    expected = np.array([float(r.split(b",")[1]) for r in rows[1:-1]])
    assert np.array_equal(read_probabilities(path).probs, expected)
    assert np.array_equal(read_samples(samples).bitstrings, draws.bitstrings)


def _first_error(text):
    """(kind, line) of the first malformed or repeated row, read one line
    at a time."""
    n, seen = None, set()
    for lineno, line in enumerate(text.split("\n")[1:], start=2):
        s = line.strip()
        if not s:
            continue
        if n is None:
            n = s.find(",")
        try:
            bits, value = s.split(",")
            p = float(value)
        except ValueError:
            return "bad row", lineno
        if not re.fullmatch("[01]+", bits):
            return "invalid bitstring", lineno
        if len(bits) != n:
            return "bitstring length", lineno
        if bits in seen:
            return "duplicate bitstring", lineno
        seen.add(bits)
        if not (math.isfinite(p) and p >= 0.0):
            return "bad probability", lineno


_BAD_ROWS = ["{bits},0.1.2", "{bits}x,0.25", "0{bits},0.25", "{bits},nan",
             "{bits},-0.5", "{bits}", ",0.25"]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 4), batch=st.integers(16, 256), data=st.data())
def test_first_error_across_small_batches(tmp_path_factory, n, batch, data):
    # a file of a few rows spans many batches of 16-256 bytes
    N = 1 << n
    rows = [f"{index_to_bitstring(j, n)},{1 / N:.17g}"
            for j in data.draw(st.permutations(range(N)))]
    copy = data.draw(st.integers(0, N - 1))
    rows.insert(data.draw(st.integers(copy + 1, N)), rows[copy])
    if data.draw(st.booleans()):
        bad = data.draw(st.sampled_from(_BAD_ROWS))
        bits = index_to_bitstring(data.draw(st.integers(0, N - 1)), n)
        at = data.draw(st.integers(0, len(rows)))
        rows.insert(at, bad.format(bits=bits))
    blanks = data.draw(st.lists(st.integers(0, len(rows)), max_size=4))
    for i in sorted(blanks, reverse=True):
        rows.insert(i, "")
    text = "bitstring,probability\n" + "\n".join(rows) + "\n"
    kind, line = _first_error(text)
    path = tmp_path_factory.mktemp("batches") / "p.csv"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(noise, "_BATCH_BYTES", batch)
        with pytest.raises(ValueError) as exc:
            read_probabilities(path)
    assert str(exc.value).startswith(f"{path}:{line}: {kind}"), (
        str(exc.value), kind, line)


@pytest.mark.parametrize("batch", [16, 33, 100, 1 << 20])
def test_cap_error_names_first_row_whatever_the_batch(tmp_path, monkeypatch,
                                                      batch):
    # a well-formed first row sets n = 25; the malformed rows after it share
    # its batch or not, depending on the batch size
    bits = "0" * 25
    probs = tmp_path / "p.csv"
    probs.write_text(f"bitstring,probability\n\n{bits},0.5\n"
                     f"{bits[1:]}1,0.5\n{bits}x,0.25\n{bits},nan\n")
    samples = tmp_path / "s.txt"
    samples.write_text(f"\n{bits}\n{bits[1:]}\n01x\n")
    monkeypatch.setattr(noise, "_BATCH_BYTES", batch)
    with pytest.raises(ValueError) as exc:
        read_probabilities(probs)
    assert str(exc.value) == f"{probs}:3: qubit count 25 exceeds cap 24"
    with pytest.raises(ValueError) as exc:
        read_samples(samples)
    assert str(exc.value) == f"{samples}:2: qubit count 25 exceeds cap 24"


def test_sample_errors_after_first_batch(tmp_path):
    lines = ["01101001"] * 200_000  # 1.8 MB
    lines[150_000] = "0110100"
    path = tmp_path / "s.txt"
    path.write_text("\n" + "\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"s\.txt:150002: bitstring length 7"):
        read_samples(path)


def test_readers_accept_crlf_whitespace_and_blank_lines(tmp_path):
    path = tmp_path / "s.txt"
    path.write_bytes(b"\r\n  01 \r\n\t10\n\n \n11\r\n")
    back = read_samples(path)
    assert back.dims.n == 2 and back.bitstrings.tolist() == [1, 2, 3]
    path = tmp_path / "p.csv"
    path.write_bytes(b" bitstring,probability \r\n\r\n 1,0.25\t\r\n"
                     b"\n   \n0,0.75  \r\n\r\n")
    back = read_probabilities(path)
    assert back.probs.tolist() == [0.75, 0.25]


_JUNK_LINES = st.lists(st.one_of(
    st.sampled_from(["", "0", "01", "10", "0,0.5", "1,0.5", "01,0.25",
                     "0,nan", "1,1e999", ",", "0,", "0,0.5,1",
                     "bitstring,probability", " ", "\r"]),
    st.text(max_size=12),
), max_size=12)


@settings(max_examples=150, deadline=None)
@given(content=st.one_of(st.binary(max_size=80),
                         _JUNK_LINES.map(lambda l: "\n".join(l).encode()),
                         _JUNK_LINES.map(lambda l: "\n".join(
                             ["bitstring,probability"] + l).encode())))
def test_readers_reject_junk_with_path(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("junk") / "junk.txt"
    path.write_bytes(content)
    for read in (read_samples, read_probabilities):
        try:
            read(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}:"), str(exc)

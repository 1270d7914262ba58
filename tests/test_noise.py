import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from ergoxeb import noise
from ergoxeb.noise import (
    NoiseModel,
    SampleSet,
    bitstring_to_index,
    chi_normalization_check,
    experimental_distribution,
    index_to_bitstring,
    read_probabilities,
    read_samples,
    sample_bitstrings,
    write_probabilities,
    write_samples,
)
from ergoxeb.statevector import OutputDistribution, SystemDims


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


# -- file formats -------------------------------------------------------------

def test_bitstring_codec():
    assert index_to_bitstring(5, 4) == "0101"
    assert bitstring_to_index("0101") == 5
    # rightmost character is qubit 0 (least significant)
    assert bitstring_to_index("001") == 1


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
    for value in ("nan", "inf", "-inf", "-0.25"):
        p.write_text("bitstring,probability\n"
                     f"00,0.25\n01,0.25\n10,{value}\n11,0.25\n")
        with pytest.raises(ValueError,
                           match=r"probs\.csv:4: bad probability"):
            read_probabilities(p)
    p.write_text("bitstring,probability\n0,0.25\n1,0.25\n")
    with pytest.raises(ValueError, match=r"^\S*probs\.csv: .*sum to"):
        read_probabilities(p)
    # all four bitstrings plus a repeat whose value would otherwise win
    p.write_text("bitstring,probability\n"
                 "00,0.25\n01,0.125\n10,0.25\n11,0.25\n01,0.25\n")
    with pytest.raises(ValueError, match=r"probs\.csv:6: duplicate"):
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

import numpy as np
import pytest
from scipy import stats

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
    # all four bitstrings plus a repeat whose value would otherwise win
    p.write_text("bitstring,probability\n"
                 "00,0.25\n01,0.125\n10,0.25\n11,0.25\n01,0.25\n")
    with pytest.raises(ValueError, match=r"probs\.csv:6: duplicate"):
        read_probabilities(p)

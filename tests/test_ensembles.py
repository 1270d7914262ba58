import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from ergoxeb import analytic
from ergoxeb.ensembles import (
    HAAR_DENSE_CAP,
    EnsembleSpec,
    design_moment_discrepancy,
    haar_moment_tensor,
    haar_sample_values,
    haar_state_probs,
    member_probs,
    _moment_tensor,
    mix64,
    sample_haar_unitary,
    sample_member,
)
from ergoxeb.estimators import SchemeFunction, correlation_C_f
from ergoxeb.noise import inverse_cdf
from ergoxeb.statevector import (
    OutputDistribution,
    SystemDims,
    output_distribution,
    program_unitary,
    save_programs,
)


def _pcg(seed):
    """The PCG64 stream of ``seed``, as ``ensembles`` seeds its draws."""
    return np.random.Generator(np.random.PCG64(seed))


def test_mix64_spreads_indices():
    seeds = {mix64(0, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert {mix64(1, i) for i in range(1000)}.isdisjoint(seeds)


def test_haar_unitary_is_unitary():
    for N in [1, 2, 7, 16]:
        u = sample_haar_unitary(N, rng=_pcg(3))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(N), atol=1e-12)
    with pytest.raises(ValueError,
                       match=r"^dense Haar sampling limited to N <= 4096$"):
        sample_haar_unitary(HAAR_DENSE_CAP + 1, rng=_pcg(3))


def test_haar_unitary_deterministic():
    a = sample_haar_unitary(8, rng=_pcg(42))
    b = sample_haar_unitary(8, rng=_pcg(42))
    assert np.array_equal(a, b)


def test_haar_unitary_batch_starts_with_the_single_draw():
    # the single draw is Ginibre + QR with the phases of R's diagonal
    # divided out, taking the real part and then the imaginary part
    rng = np.random.Generator(np.random.PCG64(5))
    z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    one = sample_haar_unitary(8, rng=_pcg(5))
    assert np.array_equal(one, q * (d / np.abs(d)))
    batch = sample_haar_unitary(8, rng=_pcg(5), size=(3,))
    assert batch.shape == (3, 8, 8)
    assert np.array_equal(batch[0], one)
    for u in batch:
        np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)


@pytest.mark.parametrize("n, depth", [(2, 1), (2, 6), (3, 5), (5, 4),
                                      (8, 7)])
def test_brickwork_gates_match_per_gate_draws(n, depth):
    # the member's gates, drawn in one batch, against one draw per gate
    spec = EnsembleSpec("brickwork", SystemDims(n), depth=depth, base_seed=31)
    rng = np.random.Generator(np.random.PCG64(mix64(31, 3)))
    expected = [
        ((a, a + 1), sample_haar_unitary(4, rng=rng))
        for layer in range(depth) for a in range(layer % 2, n - 1, 2)
    ]
    gates = sample_member(spec, 3).gates
    assert [t for t, _ in gates] == [t for t, _ in expected]
    for (_, block), (_, reference) in zip(gates, expected):
        assert np.array_equal(block, reference)


def test_haar_mean_entry_probability():
    # E[|U_00|^2] = 1/N for Haar; 4x4 case, 2000 direct draws
    rng = np.random.default_rng(7)
    vals = np.array([
        abs(sample_haar_unitary(4, rng=rng)[0, 0]) ** 2 for _ in range(2000)
    ])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - 0.25) < 4 * se


def test_haar_state_probs_match_unitary_column_law():
    # fast path: mean and second moment agree with the exact Beta values
    N = 16
    rng = np.random.default_rng(11)
    probs = haar_state_probs(N, rng, size=100_000)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    u = probs[:, 0]
    se = u.std(ddof=1) / math.sqrt(u.size)
    assert abs(u.mean() - 1.0 / N) < 4 * se
    sq = u**2
    se2 = sq.std(ddof=1) / math.sqrt(sq.size)
    assert abs(sq.mean() - 2.0 / (N * (N + 1))) < 4 * se2


def test_haar_state_probs_allocate_only_the_result():
    # the 2 MiB result is the only N-array a draw at N = 2^18 allocates
    N = 1 << 18
    rng = np.random.default_rng(29)
    tracemalloc.start()
    try:
        probs = haar_state_probs(N, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert probs.shape == (N,)
    assert peak <= 1.1 * 8 * N


def _sampled_g_means(N, u, ps, pu, F, i):
    """Per-instance means of the monomial-i g at the draws of fidelity F."""
    pvals = np.where(u < F, ps, pu)
    return SchemeFunction.monomial(i).g(pvals, N).mean(axis=1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_haar_sample_values_exact_means(n):
    # E[C_f] under depolarizing F is F E_H[f_i] + (1-F) E_H[f_{i-1}]; the
    # pooled per-instance means of 20000 instances lie within 5 SE of it
    N = 1 << n
    u, ps, pu = haar_sample_values(N, 20_000, 30,
                                   np.random.default_rng(100 + n))
    haar = [SchemeFunction.monomial(i).haar_mean(N) for i in range(1, 5)]
    for F in (0.0, 0.3, 0.8, 1.0):
        for i in (2, 3, 4):
            means = _sampled_g_means(N, u, ps, pu, F, i)
            se = means.std(ddof=1) / math.sqrt(means.size)
            expected = F * haar[i - 1] + (1.0 - F) * haar[i - 2]
            assert abs(means.mean() - expected) <= 5 * se, (F, i)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_haar_sample_values_match_explicit_draws_ks(n):
    # per-instance means against N-vector instances sampled by inverse CDF;
    # rounding to 1e-10 keeps ulp-level differences out of the KS ties
    N, instances, per, F = 1 << n, 3000, 20, 0.5
    u, ps, pu = haar_sample_values(N, instances, per,
                                   np.random.default_rng(200 + n))
    rng = np.random.default_rng(300 + n)
    P = haar_state_probs(N, rng, size=instances)
    signal = np.array([inverse_cdf(row, u)
                       for row, u in zip(P, rng.random((instances, per)))])
    uniform = rng.integers(0, N, size=(instances, per))
    ref = (np.take_along_axis(P, signal, axis=1),
           np.take_along_axis(P, uniform, axis=1))
    v = rng.random((instances, per))
    for i in (2, 3):
        lazy = np.round(_sampled_g_means(N, u, ps, pu, F, i), 10)
        dense = np.round(_sampled_g_means(N, v, *ref, F, i), 10)
        assert stats.ks_2samp(lazy, dense).pvalue > 1e-3, i


def test_haar_sample_values_fidelity_only_switches_draws():
    N = 1 << 5
    u, ps, pu = haar_sample_values(N, 50, 40, np.random.default_rng(3))
    assert u.shape == ps.shape == pu.shape == (50, 40)
    assert np.array_equal(np.where(u < 1.0, ps, pu), ps)
    assert np.array_equal(np.where(u < 0.0, ps, pu), pu)
    previous = np.zeros(u.shape, dtype=bool)
    for F in np.linspace(0.0, 1.0, 11):
        signal = u < F
        assert not (previous & ~signal).any()
        previous = signal


def test_haar_sample_values_repeat_and_normalize():
    # equal seeds give equal rows; at N = 2 a row that visits both labels
    # holds P(0) and P(1) = 1 - P(0), and no row holds more than two values
    first, second = (haar_sample_values(2, 200, 10, np.random.default_rng(9))
                     for _ in range(2))
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    _, ps, pu = first
    for row in np.concatenate([ps, pu], axis=1):
        values = np.unique(row)
        assert values.size <= 2 and (values > 0.0).all()
        if values.size == 2:
            assert values.sum() == pytest.approx(1.0, rel=0, abs=1e-15)


def test_haar_sample_values_beyond_the_dense_cap():
    # N = 2^62: no N-vector, and N P at the uniform draws has mean 1
    N = 1 << 62
    u, ps, pu = haar_sample_values(N, 2000, 50, np.random.default_rng(5))
    scaled = N * pu
    se = scaled.std(ddof=1) / math.sqrt(scaled.size)
    assert abs(scaled.mean() - 1.0) <= 5 * se
    scaled = N * ps  # size-biased: E[N P] = 2N/(N+1) at the signal draws
    se = scaled.mean(axis=1).std(ddof=1) / math.sqrt(2000)
    assert abs(scaled.mean() - 2.0) <= 5 * se


def test_haar_probs_beta_law_ks():
    rng = np.random.default_rng(13)
    u = haar_state_probs(64, rng, size=400)[:, 0]
    pvalue = stats.kstest(u, stats.beta(1, 63).cdf).pvalue
    assert pvalue > 1e-3


def test_haar_invariance_across_bitstrings():
    # P(0) and P(N-1) are identically distributed
    rng = np.random.default_rng(17)
    probs = haar_state_probs(8, rng, size=5000)
    pvalue = stats.ks_2samp(probs[:, 0], probs[:, -1]).pvalue
    assert pvalue > 1e-3


def test_sample_member_bit_exact_reproducible():
    spec = EnsembleSpec("brickwork", SystemDims(4), depth=6, base_seed=99)
    a = sample_member(spec, 5)
    b = sample_member(spec, 5)
    for (ta, ga), (tb, gb) in zip(a.gates, b.gates):
        assert ta == tb
        assert np.array_equal(ga, gb)
    c = sample_member(spec, 6)
    assert not np.array_equal(a.gates[0][1], c.gates[0][1])


def test_member_probs_haar_fast_path_statistics():
    # the exponential shortcut and the dense QR column describe the same law
    spec = EnsembleSpec("haar", SystemDims(3), base_seed=23)
    fast = np.array([member_probs(spec, i)[0] for i in range(4000)])
    rng = np.random.default_rng(23)
    dense = np.array([
        abs(sample_haar_unitary(8, rng=rng)[0, 0]) ** 2 for _ in range(4000)
    ])
    assert stats.ks_2samp(fast, dense).pvalue > 1e-3


def test_member_probs_haar_monomial_means():
    # noiseless C_f of monomials 2 and 3 over 400 instances at n = 6, within
    # 5 standard errors of the exact Haar mean
    dims = SystemDims(6)
    spec = EnsembleSpec("haar", dims, base_seed=43)
    dists = [OutputDistribution(dims, member_probs(spec, k))
             for k in range(400)]
    for i in (2, 3):
        scheme = SchemeFunction.monomial(i)
        c_f = np.array([correlation_C_f(P, P, scheme) for P in dists])
        se = c_f.std(ddof=1) / math.sqrt(c_f.size)
        assert abs(c_f.mean() - scheme.haar_mean(dims.N, "exact")) <= 5 * se


def test_pauli_members_n1():
    spec = EnsembleSpec("pauli", SystemDims(1))
    mats = [program_unitary(sample_member(spec, i)) for i in range(4)]
    np.testing.assert_allclose(mats[0], np.eye(2), atol=1e-15)
    np.testing.assert_allclose(mats[1], [[0, 1], [1, 0]], atol=1e-15)
    np.testing.assert_allclose(mats[2], [[0, -1j], [1j, 0]], atol=1e-15)
    np.testing.assert_allclose(mats[3], [[1, 0], [0, -1]], atol=1e-15)
    with pytest.raises(IndexError):
        sample_member(spec, 4)


def test_pauli_average_values():
    # over I, X, Y, Z acting on |0>: P(0) is 1 twice and 0 twice
    spec = EnsembleSpec("pauli", SystemDims(1))
    p0 = np.array([member_probs(spec, i)[0] for i in range(4)])
    assert np.mean(p0) == pytest.approx(0.5)
    assert np.mean(p0**2) == pytest.approx(0.5)
    spec = EnsembleSpec("pauli", SystemDims(2))
    p0 = np.array([member_probs(spec, i)[0] for i in range(16)])
    assert np.mean(p0) == pytest.approx(0.25)


def test_brickwork_covers_all_pairs():
    spec = EnsembleSpec("brickwork", SystemDims(5), depth=4, base_seed=1)
    prog = sample_member(spec, 0)
    pairs = {t for t, _ in prog.gates}
    assert (0, 1) in pairs and (3, 4) in pairs and (1, 2) in pairs


def test_fixed_ensemble_round_trip(tmp_path):
    src = EnsembleSpec("brickwork", SystemDims(3), depth=3, base_seed=8)
    programs = [sample_member(src, i) for i in range(3)]
    path = tmp_path / "programs.json"
    save_programs(programs, path)
    spec = EnsembleSpec("fixed", SystemDims(3), source_path=str(path))
    for i in range(3):
        np.testing.assert_allclose(
            member_probs(spec, i),
            output_distribution(programs[i]).probs,
            atol=1e-12,
        )
    with pytest.raises(IndexError):
        sample_member(spec, 3)


def test_sample_member_haar_names_member_probs():
    with pytest.raises(ValueError, match="member_probs") as info:
        sample_member(EnsembleSpec("haar", SystemDims(3)), 0)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("kind", ["brickwork", "pauli", "fixed"])
def test_member_probs_is_the_member_programs_distribution(kind, tmp_path):
    dims = SystemDims(4)
    spec = EnsembleSpec("brickwork", dims, depth=5, base_seed=3)
    if kind == "fixed":
        path = tmp_path / "programs.json"
        save_programs([sample_member(spec, i) for i in range(3)], path)
        spec = EnsembleSpec("fixed", dims, source_path=str(path))
    elif kind == "pauli":
        spec = EnsembleSpec("pauli", dims)
    for i in range(3):
        assert np.array_equal(
            member_probs(spec, i),
            output_distribution(sample_member(spec, i)).probs,
        )


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown ensemble"):
        EnsembleSpec("clifford", SystemDims(2))
    with pytest.raises(ValueError, match="depth"):
        EnsembleSpec("brickwork", SystemDims(2), depth=0)
    with pytest.raises(ValueError, match="source_path"):
        EnsembleSpec("fixed", SystemDims(2))


# -- moment-tensor design checks ---------------------------------------------

def test_haar_first_moment_tensor_projects():
    # E[U (x) Udag] acting as swap/N: squares to itself / N
    N = 4
    m = haar_moment_tensor(N, 1)
    np.testing.assert_allclose(m @ m, np.eye(N * N) / N**2, atol=1e-14)


@pytest.mark.parametrize("N", [1, 2, 3, 8])
def test_haar_moment_tensor_t1_is_swap_over_n(N):
    swap = np.zeros((N * N, N * N))
    for i in range(N):
        for k in range(N):
            swap[i * N + k, k * N + i] = 1.0
    np.testing.assert_allclose(haar_moment_tensor(N, 1), swap / N,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("N, t", [(2, 2), (3, 2), (2, 3)])
def test_haar_moment_tensor_matches_monte_carlo(N, t):
    # every entry within 5 standard errors of the mean of _moment_tensor,
    # kron(U^t, Udag^t), over 2*10^4 Haar unitaries; at (2, 3) the Gram
    # matrix is singular
    samples = 20_000
    rng = np.random.default_rng(1905)
    u = sample_haar_unitary(N, rng=rng, size=samples)
    udag = u.conj().transpose(0, 2, 1)
    a, b = u, udag
    for _ in range(t - 1):  # batched kron
        size = a.shape[1] * N
        a = np.einsum("sij,skl->sikjl", a, u).reshape(samples, size, size)
        b = np.einsum("sij,skl->sikjl", b, udag).reshape(samples, size,
                                                         size)
    d = N**t
    # entry ((i, j), (k, l)) of kron(a, b) is a[i, k] * b[j, l]
    np.testing.assert_allclose(
        np.einsum("ik,jl->ijkl", a[0], b[0]).reshape(d * d, d * d),
        _moment_tensor(u[0], t), rtol=0, atol=1e-15,
    )
    mean = np.einsum("sik,sjl->ijkl", a, b, optimize=True).reshape(
        d * d, d * d) / samples
    second = np.einsum("sik,sjl->ijkl", np.abs(a) ** 2,
                       np.abs(b) ** 2, optimize=True).reshape(
        d * d, d * d) / samples
    se = np.sqrt((second - np.abs(mean) ** 2) / (samples - 1))
    gap = np.abs(mean - haar_moment_tensor(N, t))
    assert (gap <= 5 * se).all(), float(np.max(gap / se))


def test_pauli_is_exact_1_design():
    spec = EnsembleSpec("pauli", SystemDims(1))
    assert design_moment_discrepancy(spec, 1) <= 1e-14


def test_pauli_fails_2_design():
    spec = EnsembleSpec("pauli", SystemDims(1))
    assert abs(design_moment_discrepancy(spec, 2) - 0.5) <= 1e-14
    spec = EnsembleSpec("pauli", SystemDims(2))
    assert design_moment_discrepancy(spec, 2) == 0.25


@pytest.mark.parametrize("t", [1, 2])
def test_fixed_file_of_paulis_matches_pauli_bit_for_bit(tmp_path, t):
    dims = SystemDims(2)
    pauli = EnsembleSpec("pauli", dims)
    path = tmp_path / "paulis.json"
    save_programs([sample_member(pauli, i) for i in range(16)], path)
    fixed = EnsembleSpec("fixed", dims, source_path=str(path))
    gap = design_moment_discrepancy(fixed, t)
    assert gap == design_moment_discrepancy(pauli, t)
    if t == 2:
        assert gap == 0.25
    else:
        assert gap <= 1e-14


def test_haar_design_gap_is_exactly_zero():
    for n, t in ((1, 1), (1, 2), (2, 2), (5, 1)):
        spec = EnsembleSpec("haar", SystemDims(n))
        assert design_moment_discrepancy(spec, t) == 0.0


def test_design_check_refuses_brickwork_and_bad_order(tmp_path):
    spec = EnsembleSpec("brickwork", SystemDims(2), depth=3)
    with pytest.raises(ValueError, match="brickwork") as exc:
        design_moment_discrepancy(spec, 2)
    assert "\n" not in str(exc.value)
    for t in (0, -1):
        with pytest.raises(ValueError, match="t must be >= 1"):
            design_moment_discrepancy(EnsembleSpec("pauli", SystemDims(1)), t)
    path = tmp_path / "empty.json"
    path.write_text("[]")
    with pytest.raises(ValueError, match="no gate programs"):
        design_moment_discrepancy(
            EnsembleSpec("fixed", SystemDims(1), source_path=str(path)), 1
        )


def test_design_check_caps():
    # the cap counts the dim^2 entries of a moment tensor and raises before
    # allocating: at n = 3, t = 2, dim = 8^4 = 4096 passed a cap on dim, and
    # one tensor alone would take 4096^2 complex128 (268 MB)
    for kind, n in (("haar", 6), ("haar", 3), ("pauli", 3)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="cap"):
                design_moment_discrepancy(EnsembleSpec(kind, SystemDims(n)), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

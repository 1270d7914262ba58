import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from ergoxeb import _accel, analytic
from ergoxeb.ensembles import haar_state_probs
from ergoxeb.estimators import (
    SchemeFunction,
    ZeroProbabilityError,
    _g_terms,
    correlation_C_f,
    depolarizing_scale,
    deviation_of_ergodicity,
    deviation_of_ergodicity_exact,
    estimate_C_f,
    fidelity_from_de_depolarizing,
    linear_xeb,
    log_xeb,
    parse_scheme,
    sampled_probabilities,
)
from ergoxeb.noise import (
    NoiseModel,
    SampleSet,
    experimental_distribution,
    sample_bitstrings,
)
from ergoxeb.statevector import OutputDistribution, SystemDims

ALL_SCHEMES = [
    SchemeFunction.monomial(1),
    SchemeFunction.monomial(2),
    SchemeFunction.monomial(4),
    SchemeFunction.normalized_monomial(3),
    SchemeFunction.plogp(),
    SchemeFunction.neglog(),
    SchemeFunction.polynomial([1, -1, Fraction(1, 2)]),
]


def _haar_P(n, seed):
    rng = np.random.default_rng(seed)
    return OutputDistribution(SystemDims(n), haar_state_probs(1 << n, rng))


# -- scheme functions ---------------------------------------------------------

@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_g_is_f_over_Np(scheme):
    rng = np.random.default_rng(0)
    N = 64
    p = rng.dirichlet(np.ones(N))
    np.testing.assert_allclose(
        scheme.g(p, N), scheme.f(p, N) / (N * p), rtol=1e-12
    )


@pytest.mark.parametrize("i", [2, 3, 4, 5])
@pytest.mark.parametrize("mode", ["exact", "porter_thomas"])
def test_normalized_monomial_is_monomial_over_norm_bit_exact(i, mode):
    plain = SchemeFunction.monomial(i)
    normed = SchemeFunction.normalized_monomial(i)
    norm = math.factorial(i - 1) * (i - 1)
    assert normed.terms == ((i, Fraction(1, norm)),)
    assert plain.terms == ((i, 1),)
    N = 64
    p = np.random.default_rng(i).dirichlet(np.ones(N))
    assert np.array_equal(normed.f(p, N), plain.f(p, N) / norm)
    assert np.array_equal(normed.g(p, N), plain.g(p, N) / norm)
    # the mean is the exact E[(N P)^i] / norm, rounded once
    moment = Fraction(math.factorial(i))
    if mode == "exact":
        moment *= Fraction(N**i, math.prod(range(N, N + i)))
    assert normed.haar_mean(N, mode) == float(moment / norm)
    # the sigma is sqrt(E[(N P)^2i] - E[(N P)^i]^2) / norm, rounded once
    m = [Fraction(math.factorial(k) * (N**k if mode == "exact" else 1),
                  math.prod(range(N, N + k)) if mode == "exact" else 1)
         for k in (i, 2 * i)]
    var = m[1] - m[0] ** 2
    with mpmath.workprec(400):
        root = mpmath.sqrt(mpmath.mpf(var.numerator) / var.denominator)
        assert normed.sigma(N, mode) == float(root / norm)


def test_scheme_names_and_flags():
    assert SchemeFunction.monomial(2).name == "monomial2"
    assert SchemeFunction.normalized_monomial(3).name == "normalized-monomial3"
    assert SchemeFunction.plogp().logarithmic
    assert not SchemeFunction.monomial(2).logarithmic


def test_scheme_degree_guards():
    with pytest.raises(ValueError):
        SchemeFunction.monomial(0)
    with pytest.raises(ValueError):
        SchemeFunction.normalized_monomial(1)
    with pytest.raises(ValueError, match="^unknown scheme kind 'cubic'$"):
        SchemeFunction("cubic")


def test_sample_estimates_check_their_samples():
    P = _haar_P(3, 0)
    other = SampleSet(SystemDims(2), np.array([0, 1]))
    with pytest.raises(ValueError,
                       match="^sample set dimensions differ from P$"):
        sampled_probabilities(P, other)
    empty = SampleSet(P.dims, np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="^need at least one sample$"):
        estimate_C_f(P, empty, SchemeFunction.monomial(2))


def test_parse_scheme():
    assert parse_scheme("monomial3") == SchemeFunction.monomial(3)
    assert parse_scheme("normalized-monomial2") == (
        SchemeFunction.normalized_monomial(2)
    )
    assert parse_scheme("normalized_monomial2") == (
        SchemeFunction.normalized_monomial(2)
    )
    assert parse_scheme("PLogP") == SchemeFunction.plogp()
    with pytest.raises(ValueError, match="did you mean"):
        parse_scheme("monomal2")


def test_polynomial_names_round_trip():
    # a one-term vector takes its monomial spelling; any other is poly:
    assert parse_scheme("poly:0,1") == SchemeFunction.monomial(2)
    assert parse_scheme("poly:0,1").name == "monomial2"
    assert parse_scheme("poly:0,0,1/4").name == "normalized-monomial3"
    assert parse_scheme("poly:0,0,0.25") == (
        SchemeFunction.normalized_monomial(3)
    )
    # normalized-monomial2 is the vector e_2, under its own spelling
    normed = SchemeFunction.normalized_monomial(2)
    assert normed == SchemeFunction.monomial(2)
    assert normed.name == "normalized-monomial2"
    assert parse_scheme(" Poly: 1.5, 0, -2/6 ").name == "poly:3/2,0,-1/3"
    schemes = ALL_SCHEMES + [
        normed, SchemeFunction.normalized_monomial(5),
        SchemeFunction.polynomial([0, 0, Fraction(-7, 3)]),
        SchemeFunction.polynomial([2]),
    ]
    for scheme in schemes:
        parsed = parse_scheme(scheme.name)
        assert parsed == scheme and parsed.name == scheme.name
    assert [s.name for s in schemes[-3:]] == [
        "normalized-monomial5", "poly:0,0,-7/3", "poly:2"]


def test_polynomial_f_and_g_sum_their_terms():
    # f = (N p) - (N p)^2 + (N p)^3 / 2 term by term: D = 2 is divided
    # last, and a term with a_i = 1 is the monomial's own array
    N = 64
    p = np.random.default_rng(9).dirichlet(np.ones(N))
    scheme = SchemeFunction.polynomial([1, -1, Fraction(1, 2)])
    mono = [SchemeFunction.monomial(i) for i in (1, 2, 3)]
    f = (2 * mono[0].f(p, N) - 2 * mono[1].f(p, N) + mono[2].f(p, N)) / 2
    g = (2 * mono[0].g(p, N) - 2 * mono[1].g(p, N) + mono[2].g(p, N)) / 2
    assert np.array_equal(scheme.f(p, N), f)
    assert np.array_equal(scheme.g(p, N), g)


def test_polynomial_f_past_the_float_range():
    scheme = SchemeFunction.monomial(70)
    p = np.full(4, 1 / 65536)
    with pytest.raises(OverflowError,
                       match="^monomial70 at N=65536: N\\^69 is past"):
        scheme.g(p, 65536)
    assert scheme.g(p, 1024).shape == (4,)
    scheme = SchemeFunction.polynomial([0] * 199 + [3])
    with pytest.raises(OverflowError,
                       match="^poly:(0,){199}3 at N=256: 3 N\\^200 is past"):
        scheme.f(p, 256)


def test_polynomial_exact_C_f_averages_to_haar_mean():
    # 2000 Haar instances at n = 6: the mean exact C_f of a mixed-sign
    # vector lies within 5 standard errors of its exact Haar mean
    n, instances = 6, 2000
    scheme = SchemeFunction.polynomial([Fraction(1, 2), -3, Fraction(2, 3)])
    rng = np.random.Generator(np.random.PCG64(2024))
    dims = SystemDims(n)
    values = np.array([
        correlation_C_f(OutputDistribution(dims, probs),
                        OutputDistribution(dims, probs), scheme)
        for probs in haar_state_probs(dims.N, rng, size=instances)
    ])
    se = values.std(ddof=1) / math.sqrt(instances)
    assert abs(values.mean() - scheme.haar_mean(dims.N)) <= 5.0 * se


def test_plogp_f_finite_at_zero():
    scheme = SchemeFunction.plogp()
    assert scheme.f(0.0, 8) == 0.0
    with pytest.raises(ZeroProbabilityError):
        scheme.g(np.array([0.1, 0.0]), 8)


# -- exact correlation --------------------------------------------------------

def test_correlation_delta_monomial2():
    # P = Q = delta at one bitstring: C = g(1) = N
    dims = SystemDims(3)
    delta = np.zeros(8)
    delta[5] = 1.0
    P = OutputDistribution(dims, delta)
    val = correlation_C_f(P, P, SchemeFunction.monomial(2))
    assert val == pytest.approx(8.0, rel=1e-14, abs=0)


def test_correlation_uniform_Q_monomial2_exactly_one():
    # sum_x g(P(x))/N = sum_x P(x) = 1 for the degree-2 monomial
    P = _haar_P(5, 1)
    Q = OutputDistribution(P.dims, np.full(32, 1.0 / 32))
    val = correlation_C_f(P, Q, SchemeFunction.monomial(2))
    assert val == pytest.approx(1.0, abs=1e-13)


def test_correlation_self_noiseless_matches_moment_sum():
    P = _haar_P(4, 2)
    val = correlation_C_f(P, P, SchemeFunction.monomial(2))
    assert val == pytest.approx(
        16.0 * float(np.sum(P.probs**2)), rel=1e-13, abs=0
    )


def test_correlation_affine_in_Q():
    # C_f(P, F P + (1-F) U) = F C_f(P, P) + (1-F) C_f(P, U)
    P = _haar_P(6, 3)
    U = OutputDistribution(P.dims, np.full(64, 1.0 / 64))
    for scheme in ALL_SCHEMES:
        F = 0.37
        Q = experimental_distribution(P, NoiseModel.depolarizing(F))
        lhs = correlation_C_f(P, Q, scheme)
        rhs = (F * correlation_C_f(P, P, scheme)
               + (1 - F) * correlation_C_f(P, U, scheme))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_correlation_zero_P_site_rules():
    dims = SystemDims(2)
    P = OutputDistribution(dims, np.array([0.5, 0.5, 0.0, 0.0]))
    Q = OutputDistribution(dims, np.array([0.25, 0.25, 0.25, 0.25]))
    # monomial schemes are finite: g(0) = 0 for degree >= 2
    assert np.isfinite(correlation_C_f(P, Q, SchemeFunction.monomial(2)))
    with pytest.raises(ZeroProbabilityError, match="10"):
        correlation_C_f(P, Q, SchemeFunction.neglog())
    # if Q puts no weight there, logarithmic schemes are fine
    Q2 = OutputDistribution(dims, np.array([0.5, 0.5, 0.0, 0.0]))
    assert np.isfinite(correlation_C_f(P, Q2, SchemeFunction.neglog()))


@pytest.mark.parametrize("scheme", [SchemeFunction.monomial(3),
                                    SchemeFunction.neglog()])
def test_correlation_same_bits_with_and_without_zeros_in_Q(scheme):
    P = _haar_P(9, 41)
    N = P.dims.N
    full = experimental_distribution(P, NoiseModel.depolarizing(0.6))
    probs = full.probs.copy()
    probs[::7] = 0.0
    holes = OutputDistribution(P.dims, probs / probs.sum())
    assert full.probs.min() > 0.0 and holes.probs.min() == 0.0
    for Q in (full, holes):
        mask = Q.probs > 0.0
        gathered = scheme.g(P.probs[mask], N) * Q.probs[mask]
        expected = float(_accel.neumaier_sum(gathered))
        assert correlation_C_f(P, Q, scheme) == expected
    # the zero-P check still names the bitstring when Q has no zeros
    zero_P = P.probs.copy()
    zero_P[[3, 0]] = [0.0, zero_P[0] + zero_P[3]]
    P0 = OutputDistribution(P.dims, zero_P)
    if scheme.logarithmic:
        with pytest.raises(ZeroProbabilityError, match="000000011"):
            correlation_C_f(P0, full, scheme)
    else:
        assert np.isfinite(correlation_C_f(P0, full, scheme))


def test_correlation_dims_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        correlation_C_f(_haar_P(2, 0), _haar_P(3, 0),
                        SchemeFunction.monomial(2))


# -- the block fill of the terms ----------------------------------------------

BLOCK = _accel._BLOCK
# zeros of Q: none, a run across the first block boundary (or the middle
# of a single partial or exact block), one whole block, or lone zeros at
# the last site of the first block and the first site of the last block
Q_ZERO_LAYOUTS = [
    (n, layout)
    for n in (12, 14, 16)  # one partial block, one exact block, four blocks
    for layout in ("absent", "straddle", "whole_block", "lone")
    if layout != "whole_block" or (1 << n) > BLOCK
]


def _Q_with_zeros(P, layout):
    probs = experimental_distribution(P, NoiseModel.depolarizing(0.6)).probs
    N = P.dims.N
    if layout == "straddle":
        edge = BLOCK if N > BLOCK else N // 2
        probs[edge - 50:edge + 50] = 0.0
    elif layout == "whole_block":
        probs[BLOCK:2 * BLOCK] = 0.0
    elif layout == "lone":
        probs[[min(BLOCK, N) - 1, (N - 1) // BLOCK * BLOCK]] = 0.0
    return OutputDistribution(P.dims, probs / probs.sum())


@pytest.mark.parametrize("n, layout", Q_ZERO_LAYOUTS)
@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=lambda s: s.name)
def test_block_fill_bit_identical_to_one_shot_terms(n, layout, scheme):
    P = _haar_P(n, 50 + n)
    Q = _Q_with_zeros(P, layout)
    assert (Q.probs.min() == 0.0) == (layout != "absent")
    mask = Q.probs > 0.0
    one_shot = scheme.g(P.probs[mask], P.dims.N) * Q.probs[mask]
    terms, zero = _g_terms(P.probs, P.dims.N, scheme, Q.probs)
    assert zero is None
    # bit for bit, sign of zero included
    assert np.array_equal(terms.view(np.uint64), one_shot.view(np.uint64))
    assert correlation_C_f(P, Q, scheme) == math.fsum(one_shot)


@pytest.mark.parametrize("q_zeros", [False, True])
def test_block_fill_names_zero_P_site_in_a_later_block(q_zeros):
    P = _haar_P(16, 60)
    probs, q = P.probs.copy(), P.probs.copy()
    bad = BLOCK + 777  # in the second block
    zero_P = [bad]
    if q_zeros:
        # Q zeros before the site, in both blocks, shift its index among
        # the kept sites; a P = 0 site where Q = 0 is not an error
        q[[3, 100, BLOCK, BLOCK + 10]] = 0.0
        zero_P.append(100)
    probs[5] += probs[zero_P].sum()
    probs[zero_P] = 0.0
    P0 = OutputDistribution(P.dims, probs)
    Q = OutputDistribution(P.dims, q / q.sum())
    with pytest.raises(ZeroProbabilityError,
                       match=f"Q\\({bad:016b}\\) > 0"):
        correlation_C_f(P0, Q, SchemeFunction.neglog())
    assert np.isfinite(correlation_C_f(P0, Q, SchemeFunction.monomial(2)))
    # the sampled estimator names the bitstring of the first zero draw,
    # here in its third block
    draws = np.flatnonzero(probs > 0.0)[:3 * BLOCK]
    draws[2 * BLOCK + 1] = bad
    with pytest.raises(ZeroProbabilityError,
                       match=f"sampled bitstring {bad:016b} "):
        estimate_C_f(P0, SampleSet(P.dims, draws), SchemeFunction.neglog())


def test_correlation_peak_memory_one_terms_array():
    # bound fixed before the run: the N-float terms array plus 1 MiB of
    # block temporaries; four N-sized temporaries break it
    P = _haar_P(18, 61)
    N = P.dims.N
    tracemalloc.start()
    try:
        correlation_C_f(P, P, SchemeFunction.neglog())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * N + (1 << 20)


# -- sampled estimator --------------------------------------------------------

def test_estimate_single_sample():
    P = _haar_P(3, 4)
    s = SampleSet(P.dims, np.array([5]))
    est = estimate_C_f(P, s, SchemeFunction.monomial(2))
    assert est.value == pytest.approx(8.0 * P.probs[5], rel=1e-14, abs=0)
    assert est.std_error == 0.0


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_estimator_unbiased_against_exact_correlation(scheme):
    # mean over many independent sample sets approaches the exact C_f
    P = _haar_P(6, 5)
    Q = experimental_distribution(P, NoiseModel.depolarizing(0.8))
    exact = correlation_C_f(P, Q, scheme)
    vals = np.array([
        estimate_C_f(P, sample_bitstrings(Q, 2000, seed=k), scheme).value
        for k in range(60)
    ])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - exact) < 4 * se + 1e-12


def test_estimator_se_tracks_scatter():
    P = _haar_P(6, 6)
    Q = experimental_distribution(P, NoiseModel.depolarizing(0.5))
    scheme = SchemeFunction.monomial(2)
    ests = [estimate_C_f(P, sample_bitstrings(Q, 5000, seed=k), scheme)
            for k in range(40)]
    scatter = np.std([e.value for e in ests], ddof=1)
    reported = np.mean([e.std_error for e in ests])
    assert 0.5 < scatter / reported < 2.0


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_estimator_se_is_numpy_std_bit_for_bit(scheme):
    P = _haar_P(8, 62)
    Q = experimental_distribution(P, NoiseModel.depolarizing(0.5))
    for T in (2, 3, 1000, 70_001):
        samples = sample_bitstrings(Q, T, seed=T)
        est = estimate_C_f(P, samples, scheme)
        terms, _ = _g_terms(P.probs[samples.bitstrings], P.dims.N, scheme)
        assert est.std_error == float(np.std(terms, ddof=1)) / math.sqrt(T)


def test_estimator_holds_one_array_of_terms():
    # bound fixed before the run: the terms (8 T bytes) and 1 MiB for the
    # blocks of g; np.std's temporary of T floats breaks it
    P = _haar_P(12, 63)
    T = 500_000
    samples = sample_bitstrings(P, T, seed=64)
    pvals = P.probs[samples.bitstrings]
    tracemalloc.start()
    try:
        estimate_C_f(P, samples, SchemeFunction.monomial(2), pvals=pvals)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * T + (1 << 20), peak


def test_depolarizing_mean_shift():
    # E[<g>] under depolarizing Q: F * C(P,P) + (1-F) * C(P,uniform)
    P = _haar_P(10, 7)
    F = 0.5
    Q = experimental_distribution(P, NoiseModel.depolarizing(F))
    scheme = SchemeFunction.monomial(2)
    est = estimate_C_f(P, sample_bitstrings(Q, 100_000, seed=8), scheme)
    exact = correlation_C_f(P, Q, scheme)
    assert abs(est.value - exact) < 4 * est.std_error


def test_zero_probability_sampled_logs():
    dims = SystemDims(2)
    P = OutputDistribution(dims, np.array([1.0, 0.0, 0.0, 0.0]))
    s = SampleSet(dims, np.array([0, 2]))
    with pytest.raises(ZeroProbabilityError, match="10"):
        estimate_C_f(P, s, SchemeFunction.plogp())
    with pytest.raises(ZeroProbabilityError, match="10"):
        log_xeb(P, s)


# -- reports, XEB, fidelity ---------------------------------------------------

def test_exact_report_noiseless_small_deviation():
    P = _haar_P(8, 9)
    report = deviation_of_ergodicity_exact(
        P, P, SchemeFunction.neglog(), alpha=10.0
    )
    assert report.T == 0
    assert report.verdict == "within"
    assert report.threshold == pytest.approx(
        10.0 * SchemeFunction.neglog().sigma(256) / 16.0, rel=1e-12, abs=0
    )


def test_report_round_trip_dict():
    P = _haar_P(4, 10)
    report = deviation_of_ergodicity_exact(P, P, SchemeFunction.monomial(2))
    d = report.to_dict()
    assert d["scheme"] == "monomial2"
    assert d["N"] == 16
    assert d["verdict"] in ("within", "violated")


def test_linear_xeb_identity_with_monomial2():
    P = _haar_P(6, 11)
    samples = sample_bitstrings(P, 4000, seed=12)
    est = estimate_C_f(P, samples, SchemeFunction.monomial(2))
    lin = linear_xeb(P, samples)
    assert lin.F_hat == est.value - 1.0  # bit-exact by construction
    assert lin.std_error == est.std_error


def test_log_xeb_identity_with_plogp():
    # N times the plogp estimate equals the direct compensated mean of
    # ln P(x_i) bit for bit: N is a power of two, so scaling by it is exact
    for n in range(1, 15):
        P = _haar_P(n, 40 + n)
        for F in (1.0, 0.5, 0.0):
            Q = experimental_distribution(P, NoiseModel.depolarizing(F))
            samples = sample_bitstrings(Q, 500, seed=n)
            logs = np.log(P.probs[samples.bitstrings])
            direct = float(_accel.neumaier_sum(logs)) / samples.T
            assert log_xeb(P, samples) == direct


def test_linear_xeb_uniform_P_exact_zero():
    dims = SystemDims(4)
    P = OutputDistribution(dims, np.full(16, 1.0 / 16))
    samples = sample_bitstrings(P, 100, seed=13)
    assert linear_xeb(P, samples).F_hat == pytest.approx(0.0, abs=1e-13)


def test_log_xeb_uniform_P():
    dims = SystemDims(5)
    P = OutputDistribution(dims, np.full(32, 1.0 / 32))
    samples = sample_bitstrings(P, 50, seed=14)
    assert log_xeb(P, samples) == pytest.approx(
        -math.log(32), rel=1e-13, abs=0
    )


def test_log_xeb_empty_samples():
    P = _haar_P(3, 15)
    empty = SampleSet(P.dims, np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="at least one sample"):
        log_xeb(P, empty)


def test_fidelity_inversion():
    mono = SchemeFunction.monomial
    pt = "porter_thomas"
    est = fidelity_from_de_depolarizing(0.0, mono(2), 1024)
    assert est.F_hat == 1.0
    # Porter-Thomas: DE = (1-F)(i-1)!(i-1), so the i=3 scale is 4
    est = fidelity_from_de_depolarizing(2.0, mono(3), 1024, pt,
                                        std_error=0.4)
    assert est.F_hat == pytest.approx(0.5)
    assert est.std_error == pytest.approx(0.1)
    # the normalized monomial's Porter-Thomas DE is 1 - F itself
    est = fidelity_from_de_depolarizing(
        0.5, SchemeFunction.normalized_monomial(3), 1024, pt, std_error=0.1
    )
    assert (est.F_hat, est.std_error) == (0.5, 0.1)
    # the signed DE: a C_f above the Haar mean reads above 1
    est = fidelity_from_de_depolarizing(1.5, mono(2), 1024, pt)
    assert est.F_hat == -0.5
    est = fidelity_from_de_depolarizing(-0.5, mono(2), 1024, pt)
    assert est.F_hat == 1.5
    with pytest.raises(ValueError, match="vanishes"):
        fidelity_from_de_depolarizing(0.1, mono(1), 1024)
    with pytest.raises(ValueError, match="vanishes"):
        fidelity_from_de_depolarizing(0.1, mono(1), 1024, pt)
    # every vector of degree <= 1 has a vanishing scale
    linear = SchemeFunction.polynomial([Fraction(3, 2)])
    for mode in ("exact", pt):
        assert depolarizing_scale(linear, 1024, mode) == 0.0
        with pytest.raises(ValueError, match="^poly:3/2: .* vanishes"):
            fidelity_from_de_depolarizing(0.1, linear, 1024, mode)
    # the exact scales at N = 1024, against (i-1)!(i-1) = 1, 4, 18
    scales = [depolarizing_scale(mono(i), 1024) for i in (2, 3, 4)]
    assert scales == pytest.approx([0.99805, 3.98441, 17.87748],
                                   rel=0, abs=5e-6)


@pytest.mark.parametrize("scheme", [SchemeFunction.plogp(),
                                    SchemeFunction.neglog()])
def test_logarithmic_scheme_has_no_depolarizing_scale(scheme):
    message = (f"^{scheme.name}: no depolarizing scale exists for a "
               "logarithmic scheme$")
    for mode in ("exact", "porter_thomas"):
        with pytest.raises(ValueError, match=message):
            depolarizing_scale(scheme, 1024, mode)
        with pytest.raises(ValueError, match=message):
            fidelity_from_de_depolarizing(0.1, scheme, 1024, mode)


def test_normalized_monomial_pt_scale_is_one():
    # (i! - (i-1)!) / ((i-1)! (i-1)) = 1 exactly: rounding the numerator
    # before the division missed it by an ulp at degrees 23, 24, 28, ...
    for i in range(2, 171):
        scheme = SchemeFunction.normalized_monomial(i)
        for N in (1024, 1 << 24):
            assert depolarizing_scale(scheme, N, "porter_thomas") == 1.0


@pytest.mark.parametrize("N", [2, 16, 1024, 1 << 24])
def test_fidelity_inversion_exact_scale(N):
    # exact: DE = (1-F)(E_H[f_i] - E_H[f_{i-1}]), E_H[f_i] = N^i i!/(N)_i
    means = [Fraction(N**i * math.factorial(i), math.prod(range(N, N + i)))
             for i in range(5)]
    for i in (2, 3, 4):
        scale = float(means[i] - means[i - 1])
        assert depolarizing_scale(SchemeFunction.monomial(i), N) == \
            pytest.approx(scale, rel=1e-15, abs=0)
        est = fidelity_from_de_depolarizing(0.7 * scale,
                                            SchemeFunction.monomial(i), N,
                                            "exact", std_error=scale)
        assert est.F_hat == pytest.approx(0.3, rel=1e-14, abs=0)
        assert est.std_error == pytest.approx(1.0, rel=1e-15, abs=0)
        normed = SchemeFunction.normalized_monomial(i)
        norm = math.factorial(i - 1) * (i - 1)
        assert depolarizing_scale(normed, N) == pytest.approx(
            scale / norm, rel=1e-15, abs=0)
    with pytest.raises(ValueError, match="unknown mode"):
        depolarizing_scale(SchemeFunction.monomial(2), N, "typo")

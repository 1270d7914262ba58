import math

import numpy as np
import pytest

from ergoxeb import _accel, analytic
from ergoxeb.ensembles import haar_state_probs
from ergoxeb.estimators import (
    SchemeFunction,
    ZeroProbabilityError,
    chebyshev_violation_rate,
    correlation_C_f,
    deviation_of_ergodicity,
    deviation_of_ergodicity_exact,
    estimate_C_f,
    fidelity_from_de_depolarizing,
    linear_xeb,
    log_xeb,
    parse_scheme,
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
    assert normed.norm == norm and plain.norm == 1
    N = 64
    p = np.random.default_rng(i).dirichlet(np.ones(N))
    assert np.array_equal(normed.f(p, N), plain.f(p, N) / norm)
    assert np.array_equal(normed.g(p, N), plain.g(p, N) / norm)
    assert normed.haar_mean(N, mode) == plain.haar_mean(N, mode) / norm
    assert normed.sigma(N, mode) == plain.sigma(N, mode) / norm


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
    assert val == pytest.approx(8.0, rel=1e-14)


def test_correlation_uniform_Q_monomial2_exactly_one():
    # sum_x g(P(x))/N = sum_x P(x) = 1 for the degree-2 monomial
    P = _haar_P(5, 1)
    Q = OutputDistribution(P.dims, np.full(32, 1.0 / 32))
    val = correlation_C_f(P, Q, SchemeFunction.monomial(2))
    assert val == pytest.approx(1.0, abs=1e-13)


def test_correlation_self_noiseless_matches_moment_sum():
    P = _haar_P(4, 2)
    val = correlation_C_f(P, P, SchemeFunction.monomial(2))
    assert val == pytest.approx(16.0 * float(np.sum(P.probs**2)), rel=1e-13)


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


def test_correlation_dims_mismatch():
    with pytest.raises(ValueError, match="dimensions"):
        correlation_C_f(_haar_P(2, 0), _haar_P(3, 0),
                        SchemeFunction.monomial(2))


# -- sampled estimator --------------------------------------------------------

def test_estimate_single_sample():
    P = _haar_P(3, 4)
    s = SampleSet(P.dims, np.array([5]))
    est = estimate_C_f(P, s, SchemeFunction.monomial(2))
    assert est.value == pytest.approx(8.0 * P.probs[5], rel=1e-14)
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
        10.0 * SchemeFunction.neglog().sigma(256) / 16.0, rel=1e-12
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
    assert log_xeb(P, samples) == pytest.approx(-math.log(32), rel=1e-13)


def test_log_xeb_empty_samples():
    P = _haar_P(3, 15)
    empty = SampleSet(P.dims, np.empty(0, dtype=np.int64))
    with pytest.raises(ValueError, match="at least one sample"):
        log_xeb(P, empty)


def test_fidelity_inversion():
    mono = SchemeFunction.monomial
    est = fidelity_from_de_depolarizing(0.0, mono(2))
    assert est.F_hat == 1.0 and not est.out_of_range
    # DE = (1-F)(i-1)!(i-1): i=3 norm is 4
    est = fidelity_from_de_depolarizing(2.0, mono(3), std_error=0.4)
    assert est.F_hat == pytest.approx(0.5)
    assert est.std_error == pytest.approx(0.1)
    # the normalized monomial's DE is 1 - F itself
    est = fidelity_from_de_depolarizing(
        0.5, SchemeFunction.normalized_monomial(3), std_error=0.1
    )
    assert (est.F_hat, est.std_error) == (0.5, 0.1)
    est = fidelity_from_de_depolarizing(1.5, mono(2))
    assert est.out_of_range
    with pytest.raises(ValueError, match="vanishes"):
        fidelity_from_de_depolarizing(0.1, mono(1))


def test_violation_rate_needs_100():
    with pytest.raises(ValueError, match="100"):
        chebyshev_violation_rate([])


def test_violation_rate_counts():
    rate = chebyshev_violation_rate(["within"] * 95 + ["violated"] * 5)
    assert rate.rate == pytest.approx(0.05)
    assert rate.violations == 5
    assert rate.binomial_se() == pytest.approx(
        math.sqrt(0.05 * 0.95 / 100)
    )
    assert rate.binomial_se(p=0.01) == pytest.approx(
        math.sqrt(0.01 * 0.99 / 100)
    )

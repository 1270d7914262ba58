import math
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ergoxeb import analytic
from ergoxeb.ensembles import haar_state_probs, mix64
from ergoxeb.estimators import SchemeFunction, depolarizing_scale

mpmath.mp.dps = 40


# -- special functions vs an independent high-precision oracle ---------------

@pytest.mark.parametrize("z", [0.1, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0, 64.0,
                               1024.0, 1e6])
def test_log_gamma_vs_mpmath(z):
    # log Gamma(z) as the integrated log Gamma(z) - log Gamma(1)
    if z < 1.0:
        value = analytic._log_gamma_ratio(z, 1.0 - z)
    else:
        value = -analytic._log_gamma_ratio(1.0, z - 1.0)
    ref = float(mpmath.loggamma(z))
    assert value == pytest.approx(ref, rel=5e-15, abs=5e-15)


def test_log_gamma_known_values():
    assert analytic._log_gamma_ratio(1.0, 0.0) == pytest.approx(0.0, abs=1e-14)
    assert analytic._log_gamma_ratio(1.0, 4.0) == pytest.approx(
        -math.log(24.0), rel=1e-14, abs=0
    )
    assert analytic._log_gamma_ratio(0.5, 0.5) == pytest.approx(
        0.5 * math.log(math.pi), rel=1e-14, abs=0
    )


def test_log_gamma_recurrence():
    # Gamma(z+1) = z Gamma(z)
    for z in [0.3, 1.7, 3.7, 25.2, 2.0**24]:
        assert analytic._log_gamma_ratio(z, 1.0) == pytest.approx(
            -math.log(z), rel=1e-13, abs=1e-13
        )


@pytest.mark.parametrize("z", [0.2, 1.0, 2.0, 3.7, 12.5, 100.0, 4096.0])
def test_polygamma_vs_mpmath(z):
    assert analytic.polygamma(0, z) == pytest.approx(
        float(mpmath.digamma(z)), rel=2e-14, abs=2e-14
    )
    assert analytic.polygamma(1, z) == pytest.approx(
        float(mpmath.polygamma(1, z)), rel=2e-14, abs=2e-14
    )


def test_digamma_is_log_gamma_derivative():
    # central difference of math.lgamma matches digamma
    for z in [1.5, 4.2, 30.0]:
        h = 1e-6
        num = (math.lgamma(z + h) - math.lgamma(z - h)) / (2 * h)
        assert analytic.polygamma(0, z) == pytest.approx(num, rel=1e-8, abs=0)


def _polygamma_reference(m, z):
    # the recurrence and series one Python float at a time, with the
    # kernel's np.log (math.log differs by an ulp at some z)
    acc = 0.0
    while z < 12.0:
        acc += -1.0 / z if m == 0 else 1.0 / (z * z)
        z += 1.0
    if m == 0:
        inv2 = 1.0 / (z * z)
        head = acc + float(np.log(z)) - 0.5 / z
        power, tail = inv2, analytic._DIGAMMA_TAIL
    else:
        inv = 1.0 / z
        inv2 = inv * inv
        head = acc + inv + 0.5 * inv2
        power, tail = inv * inv2, analytic._TRIGAMMA_TAIL
    series = 0.0
    for c in tail:
        series += c * power
        power *= inv2
    return head + series


def test_polygamma_array_matches_scalar_recurrence():
    # the masked steps of the array kernel are the scalar loop's, bit for
    # bit, at the arguments the scheme means pass and across [1e-3, 1e8]
    rng = np.random.default_rng(3)
    z = np.concatenate([
        10.0 ** rng.uniform(-3.0, 8.0, 500), np.arange(1.0, 40.0),
        [2.0**k + d for k in range(25) for d in (0.0, 1.0, 2.0)],
    ])
    for m in (0, 1):
        values = analytic.polygamma(m, z)
        assert values.shape == z.shape
        assert values.tolist() == [_polygamma_reference(m, x)
                                   for x in z.tolist()]
        assert [analytic.polygamma(m, x) for x in z[:50].tolist()] \
            == values[:50].tolist()


def test_polygamma_domain():
    with pytest.raises(ValueError):
        analytic.polygamma(0, -1.0)
    with pytest.raises(ValueError):
        analytic.polygamma(2, 1.0)


# -- Haar moments and covariances --------------------------------------------

def test_joint_moment_integer_cases():
    # E[P^i] = Gamma(i+1) Gamma(N) / Gamma(i+N); i=1 must be exactly 1/N
    N = 16
    assert analytic.haar_joint_moment(1.0, 0.0, N) == pytest.approx(
        1.0 / N, rel=1e-14, abs=0
    )
    assert analytic.haar_joint_moment(2.0, 0.0, N) == pytest.approx(
        2.0 / (N * (N + 1)), rel=1e-13, abs=0
    )
    assert analytic.haar_joint_moment(1.0, 1.0, N) == pytest.approx(
        1.0 / (N * (N + 1)), rel=1e-13, abs=0
    )


def test_joint_moment_vs_beta_quadrature():
    # marginal check against direct integration of the Beta(1, N-1) law
    N = 32
    for q in [0.5, 1.0, 2.5]:
        ref, _ = quad(lambda p: p**q * analytic.beta_pdf(p, N), 0.0, 1.0)
        assert analytic.haar_joint_moment(q, 0.0, N) == pytest.approx(
            ref, rel=1e-9, abs=0
        )


@pytest.mark.parametrize("q", [3.0, 256.0, 257.0, 300.0])
def test_joint_moment_integer_orders_vs_mpmath(q):
    # the exact rational form up to total order 256, log-gamma above it
    N = 64
    ref = mpmath.factorial(q) * mpmath.gamma(N) / mpmath.gamma(q + N)
    assert analytic.haar_joint_moment(q, 0.0, N) == pytest.approx(
        float(ref), rel=1e-11, abs=0
    )


@pytest.mark.parametrize("log2_N", [10, 20, 24])
@pytest.mark.parametrize("q1, q2", [(0.5, 0.0), (1.5, 2.5), (2.5, 0.0)])
def test_joint_moment_non_integer_orders_vs_mpmath(q1, q2, log2_N):
    # the integrated digamma keeps 1e-12 where lgamma(N) - lgamma(q + N)
    # would cancel to ~1e-9 at N = 2^20
    N = 1 << log2_N
    a, b = mpmath.mpf(q1), mpmath.mpf(q2)
    ref = (mpmath.gamma(a + 1) * mpmath.gamma(b + 1) * mpmath.gamma(N)
           / mpmath.gamma(a + b + N))
    assert analytic.haar_joint_moment(q1, q2, N) == pytest.approx(
        float(ref), rel=1e-12, abs=0.0
    )


def test_covariance_hand_computable_values():
    # small-N cases computable by hand from the Gamma-ratio formula
    assert analytic.haar_covariance(1.0, 1.0, 4) == pytest.approx(
        1.0 / 20.0 - 1.0 / 16.0, rel=1e-12, abs=0
    )
    # Gamma(3)^2 [Gamma(2)/Gamma(6) - Gamma(2)^2/Gamma(4)^2] = -7/90
    assert analytic.haar_covariance(2.0, 2.0, 2) == pytest.approx(
        -7.0 / 90.0, rel=1e-12, abs=0
    )


def test_covariance_symmetry():
    for N in [2, 8, 100]:
        a = analytic.haar_covariance(0.7, 2.3, N)
        b = analytic.haar_covariance(2.3, 0.7, N)
        assert a == pytest.approx(b, rel=1e-14, abs=0)


def _covariance_reference(q1, q2, N):
    lg = mpmath.loggamma
    a, b = mpmath.mpf(q1), mpmath.mpf(q2)
    lead = lg(a + 1) + lg(b + 1) + lg(N)
    return mpmath.exp(lead - lg(a + b + N)) - mpmath.exp(
        lead + lg(N) - lg(a + N) - lg(b + N)
    )


@settings(max_examples=200, deadline=None)
@given(
    q1=st.floats(1e-3, 1e3),
    q2=st.floats(1e-3, 1e3),
    n=st.integers(1, 8),
)
def test_covariance_strictly_negative(q1, q2, n):
    value = analytic.haar_covariance(q1, q2, 1 << n)
    assert math.isfinite(value)
    if value == 0.0:
        # -0.0 only where the true covariance is below the normal range
        assert math.copysign(1.0, value) == -1.0
        assert abs(_covariance_reference(q1, q2, 1 << n)) < sys.float_info.min
    else:
        assert value < 0.0


def test_covariance_vs_mpmath_up_to_2_24():
    lg = mpmath.loggamma
    qs = (1e-3, 0.5, 1.0, 2.0, 3.0, 5.0)
    for k in range(1, 25):
        N = 1 << k
        for q1 in qs:
            for q2 in qs:
                a, b = mpmath.mpf(q1), mpmath.mpf(q2)
                lead = lg(a + 1) + lg(b + 1) + lg(N)
                ref = mpmath.exp(lead - lg(a + b + N)) - mpmath.exp(
                    lead + lg(N) - lg(a + N) - lg(b + N)
                )
                value = analytic.haar_covariance(q1, q2, N)
                assert value < 0.0, (N, q1, q2, value)
                assert abs(value / ref - 1) <= 1e-12, (N, q1, q2, value)


@pytest.mark.parametrize("N", [2, 3, 8, 256])
@pytest.mark.parametrize("q1, q2", [(10.0, 10.0), (100.0, 100.0),
                                    (1e-3, 60.0), (0.5, 60.0),
                                    (60.5, 90.5)])
def test_covariance_large_exponents_vs_mpmath(q1, q2, N):
    # exponents far above N bring the trigamma pole close to a single
    # 24-point rule over [0, q1] x [0, q2] (off by 1.3e-5 at (100, 100, 2));
    # the direct log-gamma delta was off by 1.8e-9 at (1e-3, 60, 256)
    lg = mpmath.loggamma
    a, b = mpmath.mpf(q1), mpmath.mpf(q2)
    lead = lg(a + 1) + lg(b + 1) + lg(N)
    ref = mpmath.exp(lead - lg(a + b + N)) - mpmath.exp(
        lead + lg(N) - lg(a + N) - lg(b + N)
    )
    value = analytic.haar_covariance(q1, q2, N)
    assert abs(value / ref - 1) <= 1e-12, (N, q1, q2, value)


@pytest.mark.parametrize("log2_N", [16, 20, 24])
@pytest.mark.parametrize("q1, q2", [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0),
                                    (1.5, 2.5)])
def test_covariance_large_n_vs_mpmath(q1, q2, log2_N):
    # the magnitude is haar_joint_moment's; exp(lgamma(N) - lgamma(q + N))
    # cancelled to 5.6e-8 relative at (2, 2) and N = 2^24
    N = 1 << log2_N
    a, b = mpmath.mpf(q1), mpmath.mpf(q2)
    lead = mpmath.gamma(a + 1) * mpmath.gamma(b + 1) * mpmath.gamma(N)
    ref = lead / mpmath.gamma(a + b + N) - lead * mpmath.gamma(N) / (
        mpmath.gamma(a + N) * mpmath.gamma(b + N)
    )
    assert analytic.haar_covariance(q1, q2, N) == pytest.approx(
        float(ref), rel=1e-12, abs=0.0
    )


def test_covariance_caps_exponents_at_2_20_n():
    # at most 21 panels a side; one step further is refused
    limit = 2.0**20 * 4
    assert analytic.haar_covariance(1e-3, limit, 4) < 0.0
    for q1, q2 in [(np.nextafter(limit, math.inf), 1.0), (1.0, 1e300)]:
        with pytest.raises(ValueError, match=r"need q1, q2 <= 2\^20 N"):
            analytic.haar_covariance(q1, q2, 4)


@pytest.mark.parametrize("q1, q2, N", [(600.0, 600.0, 2),
                                       (1000.0, 1000.0, 16),
                                       (2.0**22, 2.0**22, 4)])
def test_covariance_beyond_expm1_range_vs_mpmath(q1, q2, N):
    # the joint moment underflows and the log ratio delta passes expm1's
    # ~709.8; the last point is at the 2^20 N cap
    with mpmath.workdps(60):
        ref = _covariance_reference(q1, q2, N)
    value = analytic.haar_covariance(q1, q2, N)
    assert abs(value / ref - 1) <= 1e-12, (q1, q2, N, value)


@pytest.mark.parametrize("q1, q2", [(409.0, 258.0), (409.5, 258.25),
                                    (30.0, 700.5)])
def test_covariance_large_delta_vs_mpmath(q1, q2):
    # at N = 2 the moments are O(1/q), so the error of the log ratio delta
    # (1 <= delta < 709) is what remains; -joint * expm1(delta) carried it
    # in full, 3.4e-14 at (409, 258, 2); bound fixed before the run
    N = 2
    assert 1.0 <= analytic._mixed_difference(q1, q2, N) < 709.0
    with mpmath.workdps(50):
        ref = _covariance_reference(q1, q2, N)
    value = analytic.haar_covariance(q1, q2, N)
    assert abs(value / ref - 1) <= 1e-14, (q1, q2, N, value)


def test_covariance_large_n_no_overflow():
    v = analytic.haar_covariance(3.0, 3.0, 1 << 24)
    assert v < 0.0
    assert math.isfinite(v)


# -- Porter-Thomas limit ------------------------------------------------------

def test_pdfs_normalized():
    N = 48
    total, _ = quad(lambda p: analytic.beta_pdf(p, N), 0.0, 1.0)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("i", [2, 3, 5])
def test_exact_moment_approaches_pt(i):
    # i = 1 is excluded: both moments are exactly 1/N there
    # relative gap between exact and Porter-Thomas moments shrinks with N
    gaps = []
    for n in [5, 8, 11]:
        N = 1 << n
        exact = analytic.haar_joint_moment(float(i), 0.0, N)
        gaps.append(abs(exact * N**i / math.factorial(i) - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.05


# -- scheme means -------------------------------------------------------------

def test_scheme_means_exact_values():
    N = 256
    m2 = SchemeFunction.monomial(2)
    assert m2.haar_mean(N, "exact") == pytest.approx(
        2.0 * N / (N + 1), rel=1e-13, abs=0
    )
    assert m2.haar_mean(N, "porter_thomas") == pytest.approx(
        2.0, rel=1e-13, abs=0
    )
    nl = SchemeFunction.neglog()
    assert nl.haar_mean(N, "porter_thomas") == pytest.approx(
        math.log(N) + analytic.EULER_GAMMA, rel=1e-13, abs=0
    )
    pl = SchemeFunction.plogp()
    assert pl.haar_mean(N, "porter_thomas") == pytest.approx(
        (1.0 - analytic.EULER_GAMMA - math.log(N)) / N, rel=1e-12, abs=0
    )


@pytest.mark.parametrize("log2_N", [10, 16, 20, 24])
@pytest.mark.parametrize("i", [2, 3, 4])
def test_monomial_means_match_exact_fractions(i, log2_N):
    # E[(N P)^i] = i! N^i / (N (N+1) ... (N+i-1)), to within 4 ulp
    N = 1 << log2_N
    exact = Fraction(math.factorial(i) * N**i, math.prod(range(N, N + i)))
    mean = SchemeFunction.monomial(i).haar_mean(N, "exact")
    assert abs(Fraction(mean) - exact) <= 4 * math.ulp(float(exact))


def _check_monomials_against_fractions(N, mode, moment):
    # every degree whose E[(N P)^i] or standard deviation is a finite float
    # lies within 1 ulp of the exact value; past the float range, it fails
    # with a message naming the scheme and N
    top = Fraction(sys.float_info.max)
    for i in range(1, 200):
        scheme = SchemeFunction.monomial(i)
        mean = moment(i)
        var = moment(2 * i) - mean * mean
        if mean < top:
            value = scheme.haar_mean(N, mode)
            assert abs(Fraction(value) - mean) <= math.ulp(value)
        else:
            with pytest.raises(OverflowError,
                               match=f"^monomial{i} at N={N}: E"):
                scheme.haar_mean(N, mode)
        if var < top * top:
            value = scheme.sigma(N, mode)
            ref = mpmath.sqrt(mpmath.mpf(var.numerator) / var.denominator)
            assert abs(mpmath.mpf(value) - ref) <= math.ulp(value)
        else:
            with pytest.raises(OverflowError,
                               match=f"^monomial{i} at N={N}: the standard"):
                scheme.sigma(N, mode)
    # the loop reaches degrees past the float range
    assert mean >= top and var >= top * top


@pytest.mark.parametrize("log2_N", [16, 20, 24])
def test_exact_monomial_mean_and_sigma_match_fractions(log2_N):
    N = 1 << log2_N
    _check_monomials_against_fractions(
        N, "exact",
        lambda k: Fraction(math.factorial(k) * N**k,
                           math.prod(range(N, N + k))))


def test_pt_monomial_mean_and_sigma_match_fractions():
    # E[(N P)^i] -> i! at every N: the mean is finite to degree 170 and
    # the standard deviation sqrt((2i)! - (i!)^2) to degree 150
    _check_monomials_against_fractions(
        1024, "porter_thomas", lambda k: Fraction(math.factorial(k)))
    assert SchemeFunction.monomial(150).sigma(2, "porter_thomas") > 1e307


def _haar_moment(k, N, mode):
    if mode == "porter_thomas":
        return Fraction(math.factorial(k))
    return Fraction(math.factorial(k) * N**k, math.prod(range(N, N + k)))


@pytest.mark.parametrize("N", [2, 16, 1024])
@pytest.mark.parametrize("mode", ["exact", "porter_thomas"])
def test_polynomial_statistics_match_fractions(N, mode):
    # f = (N p) - (N p)^2 + (N p)^3 / 2, so D = 2; the mean and the scale
    # are exact rationals rounded once; the sigma is a rounded square root
    # divided by D and rounded again: within 2 ulp
    scheme = SchemeFunction.polynomial([1, -1, Fraction(1, 2)])
    c = dict(scheme.terms)
    m = {k: _haar_moment(k, N, mode) for k in range(7)}
    mean = sum(c[i] * m[i] for i in c)
    var = sum(c[i] * c[j] * (m[i + j] - m[i] * m[j]) for i in c for j in c)
    lagged = sum(c[i] * m[i - 1] for i in c)

    assert scheme.haar_mean(N, mode) == float(mean)
    value = scheme.sigma(N, mode)
    ref = mpmath.sqrt(mpmath.mpf(var.numerator) / var.denominator)
    assert abs(mpmath.mpf(value) - ref) <= 2 * math.ulp(value)
    assert depolarizing_scale(scheme, N, mode) == float(mean - lagged)


@pytest.mark.parametrize("log2_N", range(10, 25))
def test_exact_polynomial_means_are_rounded_once(log2_N):
    # poly:0,1,-1/5 (D = 5) and the normalized monomials (D = (i-1)!(i-1))
    N = 1 << log2_N
    m = {k: _haar_moment(k, N, "exact") for k in range(41)}
    cases = [(SchemeFunction.polynomial([0, 1, Fraction(-1, 5)]),
              m[2] - m[3] / 5)]
    cases += [(SchemeFunction.normalized_monomial(i),
               m[i] / (math.factorial(i - 1) * (i - 1))) for i in range(2, 41)]
    for scheme, mean in cases:
        assert scheme.haar_mean(N, "exact") == float(mean)


def test_scheme_means_vs_quadrature():
    # every closed form against brute-force Beta(1, N-1) integration
    N = 64
    cases = [
        (SchemeFunction.monomial(3), lambda p: (N * p) ** 3),
        (SchemeFunction.normalized_monomial(3),
         lambda p: (N * p) ** 3 / 4.0),
        (SchemeFunction.plogp(), lambda p: p * math.log(p) if p else 0.0),
        (SchemeFunction.neglog(), lambda p: -math.log(p)),
    ]
    for scheme, f in cases:
        ref, _ = quad(lambda p: f(p) * analytic.beta_pdf(p, N), 0.0, 1.0,
                      limit=200)
        assert scheme.haar_mean(N, "exact") == pytest.approx(
            ref, rel=1e-6, abs=0
        )


def test_scheme_sigmas_vs_quadrature():
    N = 64
    cases = [
        (SchemeFunction.monomial(2), lambda p: (N * p) ** 2),
        (SchemeFunction.plogp(), lambda p: p * math.log(p) if p else 0.0),
        (SchemeFunction.neglog(), lambda p: -math.log(p)),
    ]
    for scheme, f in cases:
        mean, _ = quad(lambda p: f(p) * analytic.beta_pdf(p, N), 0.0, 1.0,
                       limit=200)
        second, _ = quad(lambda p: f(p) ** 2 * analytic.beta_pdf(p, N),
                         0.0, 1.0, limit=200)
        ref = math.sqrt(second - mean * mean)
        assert scheme.sigma(N, "exact") == pytest.approx(ref, rel=1e-5, abs=0)


@pytest.mark.parametrize("i", range(1, 13))
def test_pt_monomial_mean_and_sigma_are_exact(i):
    # the mean i!/norm is a correctly rounded quotient of integers; the
    # sigma is the square root of the integer (2i)! - (i!)^2 over norm,
    # which mpmath puts within one ulp
    var = math.factorial(2 * i) - math.factorial(i) ** 2
    depolarizing_norm = math.factorial(i - 1) * (i - 1)
    schemes = [(SchemeFunction.monomial(i), 1)]
    if i >= 2:
        schemes.append((SchemeFunction.normalized_monomial(i),
                        depolarizing_norm))
    for scheme, norm in schemes:
        for N in (64, 1000, 1 << 24):
            mean = scheme.haar_mean(N, "porter_thomas")
            sigma = scheme.sigma(N, "porter_thomas")
            assert mean == float(Fraction(math.factorial(i), norm))
            assert sigma == math.sqrt(var) / norm
            ref = mpmath.sqrt(var) / norm
            assert abs(mpmath.mpf(sigma) - ref) <= math.ulp(sigma)
            if i >= 2:
                assert depolarizing_scale(scheme, N, "porter_thomas") == (
                    depolarizing_norm / norm
                )
    assert SchemeFunction.monomial(2).haar_mean(64, "porter_thomas") == 2.0
    assert SchemeFunction.monomial(2).sigma(64, "porter_thomas") == (
        4.47213595499958
    )


def _replica_covariance(i, N):
    # Cov of g_i(p) = (p^(1+i) - p)/i: a second difference of Haar
    # covariances over i^2, whose i -> 0 limit is plogp_covariance(N)
    cov = analytic.haar_covariance
    return (cov(1 + i, 1 + i, N) - 2.0 * cov(1 + i, 1.0, N)
            + cov(1.0, 1.0, N)) / (i * i)


def test_gi_covariance_converges_to_plogp():
    for N in [8, 16, 64]:
        target = analytic.plogp_covariance(N)
        rel = abs(_replica_covariance(1e-4, N) / target - 1.0)
        assert rel <= 1e-3


def test_gi_covariance_monotone_in_i():
    N = 32
    target = analytic.plogp_covariance(N)
    errs = [abs(_replica_covariance(i, N) / target - 1.0)
            for i in (0.1, 0.01, 1e-3, 1e-4)]
    assert errs[0] > errs[1] > errs[2] > errs[3]


def test_plogp_covariance_vs_mpmath_limit():
    # independent oracle: numerical replica limit at 40-digit precision
    for N in [8, 64, 256]:
        i = mpmath.mpf("1e-12")

        def cov(q1, q2):
            return (
                mpmath.gamma(q1 + 1) * mpmath.gamma(q2 + 1) * (
                    mpmath.gamma(N) / mpmath.gamma(q1 + q2 + N)
                    - mpmath.gamma(N) ** 2
                    / (mpmath.gamma(q1 + N) * mpmath.gamma(q2 + N))
                )
            )

        ref = float(
            (cov(i + 1, i + 1) - 2 * cov(i + 1, 1) + cov(1, 1)) / i**2
        )
        assert analytic.plogp_covariance(N) == pytest.approx(
            ref, rel=1e-9, abs=0
        )


def test_covariance_vs_haar_draws():
    # z-scores of 10 batch means of 200 000 Haar draws at N = 16 against
    # the closed forms, plogp_covariance's only draw-based check
    N = 16
    rng = np.random.Generator(np.random.PCG64(mix64(6, N)))
    probs = haar_state_probs(N, rng, size=200_000)
    u, v = probs[:, 0], probs[:, 1]
    queries = [
        (u, v, analytic.haar_covariance(1.0, 1.0, N)),
        (u**2.0, v**2.0, analytic.haar_covariance(2.0, 2.0, N)),
        (u * np.log(u), v * np.log(v), analytic.plogp_covariance(N)),
    ]
    for a, b, expected in queries:
        batches = np.array_split(np.stack([a, b], axis=1), 10)
        covs = np.array([np.mean(x[:, 0] * x[:, 1])
                         - np.mean(x[:, 0]) * np.mean(x[:, 1])
                         for x in batches])
        z = (covs.mean() - expected) / (covs.std(ddof=1) / math.sqrt(10))
        assert expected < 0.0
        assert abs(z) < 5.0


def test_plogp_covariance_asymptotic_agreement():
    # leading large-N form -(ln N + gamma - 2)^2 / N^3
    N = 1024
    exact = analytic.plogp_covariance(N)
    asym = -(math.log(N) + np.euler_gamma - 2.0) ** 2 / N**3
    assert abs(asym / exact - 1.0) < 0.01


def test_plogp_covariance_domain():
    with pytest.raises(ValueError, match="N >= 4"):
        analytic.plogp_covariance(2)

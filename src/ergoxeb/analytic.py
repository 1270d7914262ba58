"""Closed-form Haar / Porter-Thomas moments, covariances and densities.

All Gamma-ratio formulas are evaluated in log space with a single final
exponentiation, so they stay finite for any Hilbert dimension N.
"""

import math

import numpy as np

EULER_GAMMA = 0.5772156649015328606


def log_gamma(z):
    """Natural log of Gamma(z) for z > 0 (``math.lgamma``)."""
    z = float(z)
    if z <= 0.0:
        raise ValueError(f"log_gamma requires z > 0, got {z}")
    return math.lgamma(z)


# Bernoulli-number tails of the digamma/trigamma asymptotic series.
_DIGAMMA_TAIL = (
    -1.0 / 12.0,
    1.0 / 120.0,
    -1.0 / 252.0,
    1.0 / 240.0,
    -1.0 / 132.0,
    691.0 / 32760.0,
    -1.0 / 12.0,
)
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)
_ASYMPTOTIC_CUT = 12.0


def _digamma(z):
    acc = 0.0
    while z < _ASYMPTOTIC_CUT:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    series = 0.0
    power = inv2
    for c in _DIGAMMA_TAIL:
        series += c * power
        power *= inv2
    return acc + math.log(z) - 0.5 / z + series


def _trigamma(z):
    acc = 0.0
    while z < _ASYMPTOTIC_CUT:
        acc += 1.0 / (z * z)
        z += 1.0
    inv = 1.0 / z
    inv2 = inv * inv
    series = 0.0
    power = inv * inv2
    for c in _TRIGAMMA_TAIL:
        series += c * power
        power *= inv2
    return acc + inv + 0.5 * inv2 + series


def polygamma(m, z):
    """Polygamma function psi^(m)(z), m in {0, 1}, z > 0."""
    z = float(z)
    if z <= 0.0:
        raise ValueError(f"polygamma requires z > 0, got {z}")
    if m == 0:
        return _digamma(z)
    if m == 1:
        return _trigamma(z)
    raise ValueError(f"polygamma supports orders 0 and 1, got {m}")


# ---------------------------------------------------------------------------
# Haar output-probability moments (exact Beta law) and covariances
# ---------------------------------------------------------------------------

def haar_joint_moment(q1, q2, N):
    """E[P(x)^q1 * P(y)^q2] for x != y under Haar; q2=0 gives E[P^q1]."""
    q1, q2 = float(q1), float(q2)
    if q1 <= 0.0 or q2 < 0.0:
        raise ValueError(f"need q1 > 0 and q2 >= 0, got q1={q1}, q2={q2}")
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    return math.exp(
        log_gamma(N)
        + log_gamma(q1 + 1.0)
        + log_gamma(q2 + 1.0)
        - log_gamma(q1 + q2 + N)
    )


def haar_covariance(q1, q2, N):
    """Cov(P(x)^q1, P(y)^q2) for x != y under Haar; strictly negative."""
    q1, q2 = float(q1), float(q2)
    if q1 <= 0.0 or q2 <= 0.0:
        raise ValueError(f"need q1, q2 > 0, got q1={q1}, q2={q2}")
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    lg_n = log_gamma(N)
    lead = log_gamma(q1 + 1.0) + log_gamma(q2 + 1.0)
    log_joint = lg_n - log_gamma(q1 + q2 + N)
    # ratio of the product term to the joint term; >= 1 by log-convexity,
    # so expm1 keeps the sign exact even when the two terms nearly cancel
    delta = (
        lg_n + log_gamma(q1 + q2 + N) - log_gamma(q1 + N) - log_gamma(q2 + N)
    )
    return -math.exp(lead + log_joint) * math.expm1(delta)


def pt_moment(i, N):
    """Porter-Thomas moment approximation E[P^i] ~ i!/N^i."""
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    return math.exp(log_gamma(i + 1.0) - i * math.log(N))


def pt_sigma(i, N):
    """Porter-Thomas standard deviation of P^i: sqrt((2i)! - (i!)^2)/N^i."""
    if i < 1:
        raise ValueError(f"need i >= 1, got {i}")
    if i > 20:
        raise ValueError(f"factorial variance limited to i <= 20, got {i}")
    var = math.factorial(2 * i) - math.factorial(i) ** 2
    return math.exp(0.5 * math.log(var) - i * math.log(N))


def pt_pdf(p, N):
    """Porter-Thomas density N exp(-N p) on [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p must lie in [0, 1]")
    out = N * np.exp(-N * p)
    return float(out) if out.ndim == 0 else out


def beta_pdf(p, N):
    """Beta(1, N-1) density (N-1)(1-p)^(N-2) on [0, 1]."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("p must lie in [0, 1]")
    out = (N - 1) * (1.0 - p) ** (N - 2)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# scheme means under the exact Beta law and the Porter-Thomas limit
# ---------------------------------------------------------------------------

def monomial_mean(i, N, mode="exact"):
    """Mean of f(p) = N^i p^i over Haar output probabilities."""
    if mode == "exact":
        return math.exp(i * math.log(N)) * haar_joint_moment(i, 0.0, N)
    if mode == "porter_thomas":
        return math.exp(log_gamma(i + 1.0))
    raise ValueError(f"unknown mode {mode!r}")


def monomial_sigma(i, N, mode="exact"):
    """Standard deviation of f(p) = N^i p^i over Haar output probabilities."""
    if mode == "porter_thomas":
        return math.exp(i * math.log(N)) * pt_sigma(i, N)
    if mode == "exact":
        m1 = haar_joint_moment(i, 0.0, N)
        m2 = haar_joint_moment(2.0 * i, 0.0, N)
        return math.exp(i * math.log(N)) * math.sqrt(m2 - m1 * m1)
    raise ValueError(f"unknown mode {mode!r}")


def plogp_mean(N, mode="exact"):
    """Mean of f(p) = p ln p over Haar output probabilities.

    Exact value from differentiating the Beta moment Gamma(q+1)Gamma(N)/
    Gamma(q+N) at q = 1; the Porter-Thomas limit replaces psi(N+1) by ln N.
    """
    if mode == "exact":
        return (polygamma(0, 2.0) - polygamma(0, N + 1.0)) / N
    if mode == "porter_thomas":
        return (polygamma(0, 2.0) - math.log(N)) / N
    raise ValueError(f"unknown mode {mode!r}")


def plogp_sigma(N, mode="exact"):
    if mode == "exact":
        d = polygamma(0, 3.0) - polygamma(0, N + 2.0)
        second = (d * d + polygamma(1, 3.0) - polygamma(1, N + 2.0)) * (
            2.0 / (N * (N + 1.0))
        )
    elif mode == "porter_thomas":
        d = polygamma(0, 3.0) - math.log(N)
        second = (d * d + polygamma(1, 3.0)) * (2.0 / (N * N))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    mean = plogp_mean(N, mode)
    return math.sqrt(second - mean * mean)


def neglog_mean(N, mode="exact"):
    """Mean of f(p) = -ln p over Haar output probabilities."""
    if mode == "exact":
        return polygamma(0, float(N)) + EULER_GAMMA
    if mode == "porter_thomas":
        return math.log(N) + EULER_GAMMA
    raise ValueError(f"unknown mode {mode!r}")


def neglog_sigma(N, mode="exact"):
    if mode == "exact":
        return math.sqrt(polygamma(1, 1.0) - polygamma(1, float(N)))
    if mode == "porter_thomas":
        return math.sqrt(polygamma(1, 1.0))
    raise ValueError(f"unknown mode {mode!r}")


def haar_mean_of_scheme(scheme, N, mode="exact"):
    """Ensemble mean of a scheme function; dispatches on ``scheme.kind``."""
    kind = scheme.kind
    if kind == "monomial":
        return monomial_mean(scheme.degree, N, mode)
    if kind == "normalized_monomial":
        i = scheme.degree
        return monomial_mean(i, N, mode) / (math.factorial(i - 1) * (i - 1))
    if kind == "plogp":
        return plogp_mean(N, mode)
    if kind == "neglog":
        return neglog_mean(N, mode)
    raise ValueError(f"unsupported scheme kind {kind!r}")


def sigma_of_scheme(scheme, N, mode="exact"):
    """Ensemble standard deviation of a scheme function."""
    kind = scheme.kind
    if kind == "monomial":
        return monomial_sigma(scheme.degree, N, mode)
    if kind == "normalized_monomial":
        i = scheme.degree
        return monomial_sigma(i, N, mode) / (math.factorial(i - 1) * (i - 1))
    if kind == "plogp":
        return plogp_sigma(N, mode)
    if kind == "neglog":
        return neglog_sigma(N, mode)
    raise ValueError(f"unsupported scheme kind {kind!r}")


def pt_mean_quadrature(f, N):
    """Mean of an arbitrary f(p) against the Porter-Thomas density.

    Adaptive quadrature fallback for schemes without a closed form.
    """
    from scipy.integrate import quad

    val, _ = quad(lambda p: f(p) * N * math.exp(-N * p), 0.0, 1.0,
                  epsabs=1e-10, limit=200)
    return val


# ---------------------------------------------------------------------------
# replica-trick covariance for f(p) = p ln p
# ---------------------------------------------------------------------------

def gi_covariance(i, N):
    """Cov(g_i(P(x)), g_i(P(y))) with g_i(p) = (p^(i+1) - p)/i, x != y.

    The i -> 0 limit of this expression is plogp_covariance(N).
    """
    i = float(i)
    if not 0.0 < i <= 0.1:
        raise ValueError(f"replica exponent must lie in (0, 0.1], got {i}")
    if i < 1e-6:
        raise ValueError(
            f"replica exponent {i} below 1e-6: double-precision cancellation; "
            "use plogp_covariance instead"
        )
    c_hh = haar_covariance(i + 1.0, i + 1.0, N)
    c_hl = haar_covariance(i + 1.0, 1.0, N)
    c_ll = haar_covariance(1.0, 1.0, N)
    return (c_hh - 2.0 * c_hl + c_ll) / (i * i)


def plogp_covariance(N):
    """Cov(P(x) ln P(x), P(y) ln P(y)) for x != y under Haar (closed form)."""
    if N < 4:
        raise ValueError(f"need N >= 4, got {N}")
    N = float(N)
    a = polygamma(0, N + 2.0) + EULER_GAMMA - 1.0
    b = polygamma(0, N + 1.0) + EULER_GAMMA - 1.0
    joint = (a * a - polygamma(1, N + 2.0)) / (N * (N + 1.0))
    return joint - (b * b) / (N * N)


def plogp_covariance_asymptotic(N):
    """Leading large-N form: -(ln N + gamma - 2)^2 / N^3."""
    lnn = math.log(N)
    return (
        -lnn * lnn - 2.0 * EULER_GAMMA * lnn + 4.0 * lnn
        - EULER_GAMMA * EULER_GAMMA + 4.0 * EULER_GAMMA - 4.0
    ) / float(N) ** 3

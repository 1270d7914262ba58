"""Closed-form Haar / Porter-Thomas moments, covariances and densities.

Integer Haar moments of total order up to 256 are exact integer ratios.
Every other Gamma ratio is taken in log space, as -int_0^q digamma(a + s) ds
for log Gamma(a) - log Gamma(a + q): an integral of one sign, free of the
cancellation of an lgamma difference of size N ln N.  The covariance's
near-cancelling second difference is likewise integrated, as trigamma over a
rectangle.  Both run Gauss-Legendre panels through one array kernel,
``polygamma``.  The tests hold the moments and covariances within 1e-12
relative of mpmath up to N = 2^24, the largest N the ``oracle`` command
accepts.
"""

import contextlib
import functools
import math
import sys
from fractions import Fraction

import numpy as np

EULER_GAMMA = 0.5772156649015328606

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


def polygamma(m, z):
    """Polygamma function psi^(m)(z), m in {0, 1}, z > 0, elementwise; a
    float for a scalar z.

    The recurrence psi(z) = psi(z + 1) - 1/z (psi'(z) = psi'(z + 1) +
    1/z^2) lifts every z below 12 in at most 12 masked steps; the
    asymptotic series in 1/z^2 takes it from there.
    """
    z = np.asarray(z, dtype=np.float64)
    bad = z[z <= 0.0]
    if bad.size:
        raise ValueError(f"polygamma requires z > 0, got {bad[0]}")
    if m not in (0, 1):
        raise ValueError(f"polygamma supports orders 0 and 1, got {m}")
    acc = np.zeros_like(z)
    while (small := z < 12.0).any():
        acc += np.where(small, -1.0 / z if m == 0 else 1.0 / (z * z), 0.0)
        z = np.where(small, z + 1.0, z)
    if m == 0:
        # z * z overflows to inf past z ~ 1.3e154, where 1 / inf = 0 is right
        with np.errstate(over="ignore"):
            inv2 = 1.0 / (z * z)
        head, power, tail = acc + np.log(z) - 0.5 / z, inv2, _DIGAMMA_TAIL
    else:
        inv = 1.0 / z
        inv2 = inv * inv
        head, power, tail = acc + inv + 0.5 * inv2, inv * inv2, _TRIGAMMA_TAIL
    series = np.zeros_like(z)
    for c in tail:
        series += c * power
        power = power * inv2
    out = head + series
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Haar output-probability moments (exact Beta law) and covariances
# ---------------------------------------------------------------------------

# Integer exponents up to this total order take the exact rational form.
_EXACT_MOMENT_ORDER = 256


@functools.cache
def _gauss_legendre():
    """24-point Gauss-Legendre rule on [0, 1] as (nodes, weights) arrays.

    Built on first use: importing numpy.polynomial costs every process that
    imports this module ~1.4 MiB and ~10 ms."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(24)
    return 0.5 * (x + 1.0), 0.5 * w


def _quadrature(q, N):
    """Nodes and weights on [0, q] for an integrand with its pole at -N:
    the 24-point rule on panels each no longer than their distance
    N + start from the pole (one panel while q <= N, then doubling
    lengths), so exact to far below double precision."""
    points = [0.0]
    while points[-1] < q:
        points.append(min(q, 2.0 * points[-1] + N))
    x, w = _gauss_legendre()
    start, length = np.array(points[:-1])[:, None], np.diff(points)[:, None]
    return (start + length * x).ravel(), (length * w).ravel()


def _log_gamma_ratio(a, q):
    """log Gamma(a) - log Gamma(a + q) for a > 0 and q >= 0, as
    -int_0^q digamma(a + s) ds."""
    s, w = _quadrature(q, a)
    return -float(w @ polygamma(0, a + s))


def _log_moment(q1, q2, N):
    """log E[P(x)^q1 P(y)^q2] = log Gamma(q1+1) + log Gamma(q2+1)
    + log Gamma(N) - log Gamma(q1+q2+N).

    The largest numerator argument is paired with the denominator in
    ``_log_gamma_ratio``, so that the integral spans the shorter of q1 + q2
    and N - 1 + min(q1, q2), and no large lgamma(q + 1) cancels against it.
    """
    lo, hi = sorted((q1, q2))
    if N >= hi + 1.0:
        return (math.lgamma(q1 + 1.0) + math.lgamma(q2 + 1.0)
                + _log_gamma_ratio(N, q1 + q2))
    return (math.lgamma(N) + math.lgamma(lo + 1.0)
            + _log_gamma_ratio(hi + 1.0, lo + (N - 1.0)))


def haar_joint_moment(q1, q2, N):
    """E[P(x)^q1 * P(y)^q2] for x != y under Haar; q2=0 gives E[P^q1].

    For integer q1, q2 (total order up to 256) and integer N this is
    q1! q2! / (N (N+1) ... (N+q1+q2-1)), divided in integers and so
    correctly rounded.  Other exponents use Gamma(q1+1) Gamma(q2+1)
    Gamma(N) / Gamma(q1+q2+N) in log space (``_log_moment``).
    """
    q1, q2 = float(q1), float(q2)
    if q1 <= 0.0 or q2 < 0.0:
        raise ValueError(f"need q1 > 0 and q2 >= 0, got q1={q1}, q2={q2}")
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if (q1.is_integer() and q2.is_integer() and float(N).is_integer()
            and q1 + q2 <= _EXACT_MOMENT_ORDER):
        k1, k2, N = int(q1), int(q2), int(N)
        return (math.factorial(k1) * math.factorial(k2)
                / math.prod(range(N, N + k1 + k2)))
    return math.exp(_log_moment(q1, q2, float(N)))


#: haar_covariance takes exponents up to this multiple of N: at most 21
#: panels a side, so at most 504 x 504 trigamma values
_MAX_EXPONENT_PER_N = 2.0**20


def _mixed_difference(q1, q2, N):
    """log Gamma(N) + log Gamma(N+q1+q2) - log Gamma(N+q1) - log Gamma(N+q2)
    as the integral of trigamma(N+s+t) over [0, q1] x [0, q2]: a sum of
    positive terms, free of the cancellation of the direct form.
    """
    s, ws = _quadrature(q1, N)
    t, wt = _quadrature(q2, N)
    return float(ws @ polygamma(1, N + s[:, None] + t) @ wt)


def haar_covariance(q1, q2, N):
    """Cov(P(x)^q1, P(y)^q2) for x != y under Haar; negative, or -0.0
    where it underflows."""
    q1, q2 = float(q1), float(q2)
    if q1 <= 0.0 or q2 <= 0.0:
        raise ValueError(f"need q1, q2 > 0, got q1={q1}, q2={q2}")
    if N < 2:
        raise ValueError(f"need N >= 2, got {N}")
    if max(q1, q2) > _MAX_EXPONENT_PER_N * N:
        raise ValueError(
            f"need q1, q2 <= 2^20 N = {_MAX_EXPONENT_PER_N * N:g}, "
            f"got q1={q1:g}, q2={q2:g}"
        )
    # log of the ratio of the product term to the joint term; > 0 by
    # log-convexity, so expm1 keeps the sign exact even when the two terms
    # nearly cancel
    delta = _mixed_difference(q1, q2, float(N))
    if delta < 1.0:
        joint = haar_joint_moment(q1, q2, N)
        if joint >= sys.float_info.min:
            return -joint * math.expm1(delta)
    # a relative error e of delta becomes ~delta e in expm1(delta), but
    # delta e / (e^delta - 1) <= 0.58 e in expm1(-delta) once delta >= 1:
    # there, and where the joint term underflows, take the product term
    # E[P^q1] E[P^q2] = joint * e^delta from the two moments instead
    product = haar_joint_moment(q1, 0.0, N) * haar_joint_moment(q2, 0.0, N)
    return product * math.expm1(-delta)


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

#: E[(N P)^i] >= 2^i / (i + 1) at every N >= 2, and its standard deviation
#: is larger still from i = 3: past this degree both are past the float range
_MAX_FINITE_DEGREE = 1100


def _exact(mode):
    """True for the exact Beta law, False for its Porter-Thomas limit."""
    if mode not in ("exact", "porter_thomas"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode == "exact"


def _moment(k, N, exact):
    """E[(N P)^k], exactly: N^k k! / prod_{j<k} (N + j) under the Beta law,
    k! in its Porter-Thomas limit."""
    N = int(N)
    return Fraction(math.factorial(k) * (N**k if exact else 1),
                    math.prod(range(N, N + k)) if exact else 1)


def _in_float_range(scheme, N, statistic, value):
    """``value(D, terms)`` of ``scheme.integer_form``, or one line naming
    the scheme and N where the ``statistic`` is past the float range."""
    D, terms = scheme.integer_form
    if scheme.degree <= _MAX_FINITE_DEGREE:
        with contextlib.suppress(OverflowError):
            return value(D, terms)
    form = f"(N P)^{scheme.degree}" if terms == ((scheme.degree, 1),) else "f"
    raise OverflowError(f"{scheme.name} at N={int(N)}: "
                        f"{statistic.format(form)} is past the float range")


def moment_sum(scheme, N, mode="exact", lagged=False):
    """sum_i c_i E[(N P)^i] of ``scheme``, less sum_i c_i E[(N P)^(i-1)]
    if ``lagged``: the exact rational a_i sum over D, rounded once."""
    exact = _exact(mode)

    def value(D, terms):
        total = sum(a * _moment(i, N, exact) for i, a in terms)
        if lagged:
            total -= sum(a * _moment(i - 1, N, exact) for i, a in terms)
        return float(total / D)
    return _in_float_range(scheme, N, "E[{}]", value)


@functools.cache
def haar_mean_of_scheme(scheme, N, mode="exact"):
    """Ensemble mean of a scheme function over Haar output probabilities.

    ``mode`` "exact" uses the Beta(1, N-1) law of P(x); "porter_thomas" its
    large-N limit, which replaces psi(N + k) by ln N, psi'(N + k) by 0 and
    N + k by N; a polynomial's mean is its ``moment_sum``.  Cached:
    the value depends on (scheme, N, mode) only.
    """
    exact = _exact(mode)
    if scheme.kind == "plogp":
        # derivative of the Beta moment Gamma(q+1)Gamma(N)/Gamma(q+N) at q = 1
        tail = polygamma(0, N + 1.0) if exact else math.log(N)
        return (polygamma(0, 2.0) - tail) / N
    if scheme.kind == "neglog":
        return (polygamma(0, float(N)) if exact else math.log(N)) + EULER_GAMMA
    return moment_sum(scheme, N, mode)


@functools.cache
def sigma_of_scheme(scheme, N, mode="exact"):
    """Ensemble standard deviation of a scheme function; see
    ``haar_mean_of_scheme`` for ``mode`` and the cache.  A polynomial's is
    the square root of the exact variance of sum_i a_i (N P)^i over D^2,
    rounded once."""
    exact = _exact(mode)
    if scheme.kind == "plogp":
        # second moment: the second q-derivative of the Beta moment at q = 2
        if exact:
            psi, psi1 = polygamma(0, N + 2.0), polygamma(1, N + 2.0)
            pair = N * (N + 1.0)
        else:
            psi, psi1, pair = math.log(N), 0.0, N * N
        d = polygamma(0, 3.0) - psi
        second = (d * d + polygamma(1, 3.0) - psi1) * (2.0 / pair)
        mean = haar_mean_of_scheme(scheme, N, mode)
        return math.sqrt(second - mean * mean)
    if scheme.kind == "neglog":
        tail = polygamma(1, float(N)) if exact else 0.0
        return math.sqrt(polygamma(1, 1.0) - tail)

    def value(D, terms):
        var = (sum(a * b * _moment(i + j, N, exact)
                   for i, a in terms for j, b in terms)
               - sum(a * _moment(i, N, exact) for i, a in terms) ** 2)
        # r = floor(2^s sqrt(var) / D) has at least 55 bits, so r + 1/2
        # when the root is inexact (a sticky bit) rounds as the root does
        num, den = var.numerator, var.denominator * D * D
        s = max(0, (112 - num.bit_length() + den.bit_length()) // 2)
        q, rest = divmod(num << 2 * s, den)
        r = math.isqrt(q)
        return float(Fraction(2 * r + (rest != 0 or r * r != q), 1 << s + 1))
    return _in_float_range(scheme, N, "the standard deviation of {}", value)


# ---------------------------------------------------------------------------
# covariance of f(p) = p ln p
# ---------------------------------------------------------------------------

def plogp_covariance(N):
    """Cov(P(x) ln P(x), P(y) ln P(y)) for x != y under Haar (closed form)."""
    if N < 4:
        raise ValueError(f"need N >= 4, got {N}")
    N = float(N)
    a = polygamma(0, N + 2.0) + EULER_GAMMA - 1.0
    b = polygamma(0, N + 1.0) + EULER_GAMMA - 1.0
    joint = (a * a - polygamma(1, N + 2.0)) / (N * (N + 1.0))
    return joint - (b * b) / (N * N)

"""Scheme functions, correlation measures and fidelity estimators.

The companion g(p) = f(p)/(N p) of every scheme is its own closed form,
never a runtime division of f by p: this keeps monomial schemes finite at
p = 0 and makes the zero-probability failure of logarithmic schemes an
explicit error instead of silent garbage.
"""

import difflib
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _accel, analytic
from .noise import index_to_bitstring


class ZeroProbabilityError(ValueError):
    """A logarithmic scheme met weight on a bitstring with P(x) = 0."""


SCHEME_NAMES = (
    "monomial<i>", "normalized-monomial<i>", "plogp", "neglog",
)


def depolarizing_norm(i):
    """(i-1)!(i-1): DE of monomial i is (1-F) times this under global
    depolarizing noise of fidelity F."""
    if i < 2:
        raise ValueError(
            "degree must be >= 2: the depolarizing normalization "
            "(i-1)!(i-1) vanishes at i = 1"
        )
    return math.factorial(i - 1) * (i - 1)


@dataclass(frozen=True)
class SchemeFunction:
    """Benchmarking post-processing function f(p) and companion g(p).

    kinds: monomial (f = N^i p^i), normalized_monomial (the monomial
    divided by ``norm`` = (i-1)!(i-1)), plogp (f = p ln p), neglog
    (f = -ln p).
    """

    kind: str
    degree: int = 0

    def __post_init__(self):
        if self.kind == "monomial":
            if self.degree < 1:
                raise ValueError("monomial scheme needs degree >= 1")
        elif self.kind == "normalized_monomial":
            if self.degree < 2:
                raise ValueError("normalized monomial needs degree >= 2")
        elif self.kind not in ("plogp", "neglog"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")

    # -- constructors -------------------------------------------------------
    @classmethod
    def monomial(cls, i):
        return cls("monomial", i)

    @classmethod
    def normalized_monomial(cls, i):
        return cls("normalized_monomial", i)

    @classmethod
    def plogp(cls):
        return cls("plogp")

    @classmethod
    def neglog(cls):
        return cls("neglog")

    @property
    def name(self):
        if self.logarithmic:
            return self.kind
        return f"{self.kind.replace('_', '-')}{self.degree}"

    @property
    def logarithmic(self):
        return self.kind in ("plogp", "neglog")

    @property
    def norm(self):
        """Divisor of the monomial: (i-1)!(i-1) when normalized, else 1."""
        if self.kind == "normalized_monomial":
            return depolarizing_norm(self.degree)
        return 1

    def _over_norm(self, values):
        # no array operation for the plain monomial
        norm = self.norm
        return values if norm == 1 else values / norm

    # -- pointwise forms ----------------------------------------------------
    def f(self, p, N=None):
        p = np.asarray(p, dtype=np.float64)
        if self.kind == "plogp":
            # p ln p -> 0 as p -> 0; evaluate the log away from zero
            return p * np.log(np.where(p > 0.0, p, 1.0))
        if self.kind == "neglog":
            with np.errstate(divide="ignore"):
                return -np.log(p)
        return self._over_norm(float(N) ** self.degree * p**self.degree)

    def g(self, p, N):
        p = np.asarray(p, dtype=np.float64)
        N = float(N)
        i = self.degree
        if not self.logarithmic:
            if i == 1:
                return np.ones_like(p)
            return self._over_norm(N ** (i - 1) * p ** (i - 1))
        if np.any(p <= 0.0):
            raise ZeroProbabilityError(
                f"scheme {self.name} is undefined at zero ideal probability"
            )
        if self.kind == "plogp":
            return np.log(p) / N
        return -np.log(p) / (N * p)

    # -- analytic companions ------------------------------------------------
    def haar_mean(self, N, mode="exact"):
        return analytic.haar_mean_of_scheme(self, N, mode)

    def sigma(self, N, mode="exact"):
        return analytic.sigma_of_scheme(self, N, mode)


def parse_scheme(name):
    """Parse a scheme name like 'monomial2', 'plogp'; suggest on typos."""
    key = name.strip().lower().replace("_", "-")
    if key == "plogp":
        return SchemeFunction.plogp()
    if key == "neglog":
        return SchemeFunction.neglog()
    for prefix, ctor in (
        ("normalized-monomial", SchemeFunction.normalized_monomial),
        ("monomial", SchemeFunction.monomial),
    ):
        if key.startswith(prefix) and key[len(prefix):].isdigit():
            return ctor(int(key[len(prefix):]))
    candidates = ["plogp", "neglog", "monomial2", "monomial3",
                  "normalized-monomial2", "normalized-monomial3"]
    close = difflib.get_close_matches(key, candidates, n=3)
    hint = f"; did you mean {', '.join(close)}?" if close else ""
    raise ValueError(f"unknown scheme {name!r} (known: {SCHEME_NAMES}){hint}")


@dataclass(frozen=True)
class CorrelationEstimate:
    value: float
    std_error: float
    T: int


@dataclass(frozen=True)
class FidelityEstimate:
    F_hat: float
    method: str
    std_error: float = 0.0

    @property
    def out_of_range(self):
        return not 0.0 <= self.F_hat <= 1.0


@dataclass(frozen=True)
class ErgodicityReport:
    scheme: str
    n: int
    N: int
    T: int
    haar_mean: float
    haar_mean_mode: str
    c_f_estimate: float
    std_error: float
    deviation: float
    alpha: float
    threshold: float
    verdict: str  # within | violated

    def to_dict(self):
        """Fields in declaration order, which is the CSV column order."""
        return asdict(self)


def correlation_C_f(P, Q, scheme):
    """Exact correlation (1/N) sum_x [f(P(x))/P(x)] Q(x), via closed-form g.

    Sites with Q(x) = 0 contribute nothing regardless of P(x).
    """
    if P.dims != Q.dims:
        raise ValueError("P and Q dimensions differ")
    N = P.dims.N
    mask = Q.probs > 0.0
    if scheme.logarithmic and np.any(mask & (P.probs == 0.0)):
        bad = int(np.flatnonzero(mask & (P.probs == 0.0))[0])
        raise ZeroProbabilityError(
            f"Q({index_to_bitstring(bad, P.dims.n)}) > 0 but the ideal "
            "probability vanishes there; the correlation is undefined"
        )
    terms = scheme.g(P.probs[mask], N) * Q.probs[mask]
    return float(_accel.neumaier_sum(terms))


def estimate_C_f(P, samples, scheme):
    """Unbiased sample estimator (1/T) sum_i g(P(x_i)) with its SE."""
    if samples.dims != P.dims:
        raise ValueError("sample set dimensions differ from P")
    if samples.T < 1:
        raise ValueError("need at least one sample")
    pvals = P.probs[samples.bitstrings]
    if scheme.logarithmic and np.any(pvals == 0.0):
        bad = int(samples.bitstrings[np.flatnonzero(pvals == 0.0)[0]])
        raise ZeroProbabilityError(
            f"sampled bitstring {index_to_bitstring(bad, P.dims.n)} has zero "
            f"ideal probability; {scheme.name} estimator undefined"
        )
    gvals = scheme.g(pvals, P.dims.N)
    value = float(_accel.neumaier_sum(gvals)) / samples.T
    if samples.T > 1:
        se = float(np.std(gvals, ddof=1)) / math.sqrt(samples.T)
    else:
        se = 0.0
    return CorrelationEstimate(value=value, std_error=se, T=samples.T)


def _build_report(P, estimate, scheme, alpha, mean_mode):
    N = P.dims.N
    mean = scheme.haar_mean(N, mean_mode)
    sigma = scheme.sigma(N, mean_mode)
    deviation = abs(mean - estimate.value)
    threshold = alpha * sigma / math.sqrt(N)
    return ErgodicityReport(
        scheme=scheme.name,
        n=P.dims.n,
        N=N,
        T=estimate.T,
        haar_mean=mean,
        haar_mean_mode=mean_mode,
        c_f_estimate=estimate.value,
        std_error=estimate.std_error,
        deviation=deviation,
        alpha=alpha,
        threshold=threshold,
        verdict="within" if deviation <= threshold else "violated",
    )


def deviation_of_ergodicity(P, samples, scheme, alpha=10.0,
                            mean_mode="exact"):
    """Sampled deviation-of-ergodicity report for one circuit instance."""
    return _build_report(P, estimate_C_f(P, samples, scheme), scheme, alpha,
                         mean_mode)


def deviation_of_ergodicity_exact(P, Q, scheme, alpha=10.0,
                                  mean_mode="exact"):
    """Exact-correlation variant (no sampling noise); reports T = 0."""
    value = correlation_C_f(P, Q, scheme)
    est = CorrelationEstimate(value=value, std_error=0.0, T=0)
    return _build_report(P, est, scheme, alpha, mean_mode)


def fidelity_from_de_depolarizing(deviation, scheme, std_error=0.0):
    """Invert the depolarizing relation DE = (1-F)(i-1)!(i-1)/norm of a
    (normalized) monomial ``scheme`` of degree i for F."""
    scale = depolarizing_norm(scheme.degree) / scheme.norm
    return FidelityEstimate(
        F_hat=1.0 - deviation / scale,
        method="depolarizing_inversion",
        std_error=std_error / scale,
    )


def linear_xeb(P, samples):
    """Linear XEB fidelity (N/T) sum_i P(x_i) - 1.

    Computed as the monomial-2 correlation estimate minus one, so the
    identity linear_xeb + 1 == estimate_C_f(monomial2) holds bit-exactly.
    """
    est = estimate_C_f(P, samples, SchemeFunction.monomial(2))
    return FidelityEstimate(
        F_hat=est.value - 1.0, method="xeb_linear", std_error=est.std_error
    )


def log_xeb(P, samples):
    """Per-sample mean of ln P(x_i) (logarithmic cross-entropy summary).

    N times the plogp estimate, whose g is ln(p)/N: bit-exact because N is
    a power of two.
    """
    return P.dims.N * estimate_C_f(P, samples, SchemeFunction.plogp()).value


@dataclass(frozen=True)
class ViolationRate:
    rate: float
    violations: int
    instances: int

    def binomial_se(self, p=None):
        if p is None:
            p = self.rate
        return math.sqrt(p * (1.0 - p) / self.instances)


def chebyshev_violation_rate(verdicts):
    """Fraction of exact-correlation verdicts that are 'violated'.

    ``verdicts`` holds one ``ErgodicityReport.verdict`` string per instance.
    """
    if len(verdicts) < 100:
        raise ValueError(
            f"need at least 100 independent instances, got {len(verdicts)}"
        )
    violations = sum(v == "violated" for v in verdicts)
    return ViolationRate(
        rate=violations / len(verdicts),
        violations=violations,
        instances=len(verdicts),
    )

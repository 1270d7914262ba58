"""Scheme functions, correlation measures and fidelity estimators.

The companion g(p) = f(p)/(N p) of every scheme is its own closed form,
never a runtime division of f by p: this keeps monomial schemes finite at
p = 0 and makes the zero-probability failure of logarithmic schemes an
explicit error instead of silent garbage.
"""

import difflib
import functools
import math
import re
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import _accel, analytic
from .noise import index_to_bitstring


class ZeroProbabilityError(ValueError):
    """A logarithmic scheme met weight on a bitstring with P(x) = 0."""


SCHEME_NAMES = ("monomial<i>", "normalized-monomial<i>", "poly:c1,c2,...",
                "plogp", "neglog")
#: a poly: coefficient: an integer, a decimal, or a/b with b > 0
_COEFFICIENT = re.compile(r"[+-]?(\d+/0*[1-9]\d*|\d+\.?\d*|\.\d+)")


@dataclass(frozen=True)
class SchemeFunction:
    """Benchmarking post-processing function f(p) and companion g(p).

    kinds: polynomial (f = sum_i c_i (N p)^i; ``terms``: its nonzero (i, c_i)
    by increasing i, c_i a Fraction), plogp (f = p ln p), neglog (f = -ln p).
    ``name`` defaults to monomial<i> for e_i, normalized-monomial<i> for
    e_i/((i-1)!(i-1)), else poly:c1,...; equality ignores it.
    """

    kind: str
    terms: tuple = ()
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.kind not in ("polynomial", "plogp", "neglog"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.kind == "polynomial" and min(dict(self.terms), default=0) < 1:
            raise ValueError("polynomial scheme needs a nonzero coefficient "
                             f"of a power i >= 1, got {self.terms}")
        if not self.name:
            object.__setattr__(self, "name", self._spelling())

    # -- constructors -------------------------------------------------------
    @classmethod
    def polynomial(cls, coeffs):
        """f = sum_i c_i (N p)^i for ``coeffs`` c_1, c_2, ... (Fractions)."""
        coeffs = enumerate(map(Fraction, coeffs), 1)
        return cls("polynomial", tuple((i, c) for i, c in coeffs if c))

    @classmethod
    def monomial(cls, i):
        return cls("polynomial", ((i, Fraction(1)),))

    @classmethod
    def normalized_monomial(cls, i):
        """e_i / ((i-1)!(i-1)), whose DE under depolarizing noise of
        fidelity F tends to 1 - F."""
        if i < 2:
            raise ValueError("normalized monomial needs degree >= 2")
        c = Fraction(1, math.factorial(i - 1) * (i - 1))
        return cls("polynomial", ((i, c),), f"normalized-monomial{i}")

    @classmethod
    def plogp(cls):
        return cls("plogp")

    @classmethod
    def neglog(cls):
        return cls("neglog")

    def _spelling(self):
        if self.logarithmic:
            return self.kind
        i, c = self.terms[-1]
        if len(self.terms) == 1 and c == 1:
            return f"monomial{i}"
        if len(self.terms) == 1 and c * math.factorial(i - 1) * (i - 1) == 1:
            return f"normalized-monomial{i}"
        c = dict(self.terms)
        return "poly:" + ",".join(str(c.get(k, 0)) for k in range(1, i + 1))

    @property
    def logarithmic(self):
        return self.kind in ("plogp", "neglog")

    @property
    def degree(self):
        """The highest power with a nonzero coefficient; 0 if logarithmic."""
        return self.terms[-1][0] if self.terms else 0

    @functools.cached_property
    def integer_form(self):
        """(D, ((i, a_i), ...)): c_i = a_i / D, D the least common one."""
        D = math.lcm(*(c.denominator for _, c in self.terms))
        if D.bit_length() > 1023:
            raise ValueError(f"{self.name}: the common denominator of its "
                             "coefficients is past the float range")
        return D, tuple((i, int(c * D)) for i, c in self.terms)

    # -- pointwise forms ----------------------------------------------------
    def _power_sum(self, p, N, lag):
        """sum_i a_i N^k p^k / D, k = i - lag (f at lag 0, g at lag 1): a
        monomial's is the bare N^k p^k, with no further array operation."""
        D, terms = self.integer_form
        parts = []
        try:
            for i, a in terms:
                k = i - lag
                scale = a * float(N) ** k
                parts.append(scale * p**k if k else np.full_like(p, scale))
        except OverflowError:
            a = "" if a == 1 else f"{a} "
            raise OverflowError(f"{self.name} at N={int(N)}: {a}N^{k} is "
                                "past the float range") from None
        total = sum(parts[1:], parts[0])
        return total if D == 1 else total / D

    def f(self, p, N=None):
        p = np.asarray(p, dtype=np.float64)
        if self.kind == "plogp":
            # p ln p -> 0 as p -> 0; evaluate the log away from zero
            return p * np.log(np.where(p > 0.0, p, 1.0))
        if self.kind == "neglog":
            with np.errstate(divide="ignore"):
                return -np.log(p)
        return self._power_sum(p, N, 0)

    def g(self, p, N):
        p = np.asarray(p, dtype=np.float64)
        if not self.logarithmic:
            return self._power_sum(p, N, 1)
        # one reduction for a clean p; a NaN fails it but passes the
        # elementwise test, and is left to the log
        if not p.min(initial=np.inf) > 0.0 and (p <= 0.0).any():
            raise ZeroProbabilityError(
                f"scheme {self.name} is undefined at zero ideal probability"
            )
        if self.kind == "plogp":
            return np.log(p) / float(N)
        return -np.log(p) / (float(N) * p)

    # -- analytic companions ------------------------------------------------
    def haar_mean(self, N, mode="exact"):
        return analytic.haar_mean_of_scheme(self, N, mode)

    def sigma(self, N, mode="exact"):
        return analytic.sigma_of_scheme(self, N, mode)


def parse_scheme(name):
    """Parse 'monomial2', 'poly:0,1,-1/5', 'plogp', ...; suggest on typos."""
    key = name.strip().lower().replace("_", "-")
    if key in ("plogp", "neglog"):
        return SchemeFunction(key)
    if key.startswith("poly:"):
        items = [item.strip() for item in key[5:].split(",")]
        for item in items:
            if not _COEFFICIENT.fullmatch(item):
                raise ValueError(f"scheme {name!r}: coefficient {item!r} is "
                                 "not an integer, a decimal or a ratio a/b")
        return SchemeFunction.polynomial(items)
    if match := re.fullmatch(r"(normalized-)?monomial(\d+)", key):
        return (SchemeFunction.normalized_monomial if match[1]
                else SchemeFunction.monomial)(int(match[2]))
    candidates = ["plogp", "neglog", "monomial2", "monomial3",
                  "normalized-monomial2", "normalized-monomial3", "poly:0,1"]
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


def _g_terms(p, N, scheme, weights=None):
    """The terms g(p) * weights of the sites with weights > 0, or g(p) at
    every site when ``weights`` is None, in index order in one array.

    The terms are built one ``_accel._BLOCK`` of sites at a time, so every
    temporary of ``scheme.g`` is a block long and stays in cache.  A block
    whose weights have no zeros is checked by one reduction, and so are its
    kept p, inside ``scheme.g``; only a block that fails builds a mask or
    searches for the site.  Returns ``(terms, None)``, or ``(None, zero)``
    under a logarithmic scheme, with ``zero`` the index of the first kept
    site where p = 0.
    """
    terms = np.empty(p.size)
    filled = 0
    for start in range(0, p.size, _accel._BLOCK):
        block = slice(start, start + _accel._BLOCK)
        pb, kept = p[block], None
        if weights is not None:
            wb = weights[block]
            if not wb.min() > 0.0:
                kept = np.flatnonzero(wb > 0.0)
                pb, wb = pb[kept], wb[kept]
        k = pb.size
        if k == 0:
            continue
        out = terms[filled:filled + k]
        try:
            if weights is None:
                out[:] = scheme.g(pb, N)
            else:
                np.multiply(scheme.g(pb, N), wb, out=out)
        except ZeroProbabilityError:
            zeros = np.flatnonzero(pb == 0.0)
            if not zeros.size:
                raise
            first = zeros[0] if kept is None else kept[zeros[0]]
            return None, start + int(first)
        filled += k
    return terms[:filled], None


def correlation_C_f(P, Q, scheme):
    """Exact correlation (1/N) sum_x [f(P(x))/P(x)] Q(x), via closed-form g.

    Sites with Q(x) = 0 contribute nothing regardless of P(x).  The terms
    g(P(x)) Q(x) go into one array, filled and checked one cache-sized
    block at a time (``_g_terms``), and ``_accel.neumaier_sum`` rounds
    their sum once.
    """
    if P.dims != Q.dims:
        raise ValueError("P and Q dimensions differ")
    terms, zero = _g_terms(P.probs, P.dims.N, scheme, Q.probs)
    if zero is not None:
        raise ZeroProbabilityError(
            f"Q({index_to_bitstring(zero, P.dims.n)}) > 0 but the ideal "
            "probability vanishes there; the correlation is undefined"
        )
    return float(_accel.neumaier_sum(terms))


def sampled_probabilities(P, samples):
    """Ideal probabilities P(x_i) at the sampled bitstrings: one gather,
    which several ``estimate_C_f`` calls on the same samples can share."""
    if samples.dims != P.dims:
        raise ValueError("sample set dimensions differ from P")
    return P.probs[samples.bitstrings]


def estimate_C_f(P, samples, scheme, pvals=None):
    """Unbiased sample estimator (1/T) sum_i g(P(x_i)) with its SE.

    ``pvals`` is ``sampled_probabilities(P, samples)`` when the caller has
    it; it is gathered here otherwise.
    """
    if pvals is None:
        pvals = sampled_probabilities(P, samples)
    if samples.T < 1:
        raise ValueError("need at least one sample")
    gvals, zero = _g_terms(pvals, P.dims.N, scheme)
    if zero is not None:
        bad = int(samples.bitstrings[zero])
        raise ZeroProbabilityError(
            f"sampled bitstring {index_to_bitstring(bad, P.dims.n)} has zero "
            f"ideal probability; {scheme.name} estimator undefined"
        )
    value = float(_accel.neumaier_sum(gvals)) / samples.T
    if samples.T > 1:
        # np.std(gvals, ddof=1) in place on the terms, which are not used
        # again: its steps in its order, so the same bits, with no
        # temporary of T floats
        gvals -= np.add.reduce(gvals) / gvals.size
        np.multiply(gvals, gvals, out=gvals)
        var = float(np.add.reduce(gvals)) / (gvals.size - 1)
        se = math.sqrt(var) / math.sqrt(samples.T)
    else:
        se = 0.0
    return CorrelationEstimate(value=value, std_error=se, T=samples.T)


def _build_report(P, estimate, scheme, alpha, mean_mode):
    # both cached in ``analytic``: they depend only on (scheme, N, mode)
    N = P.dims.N
    mean, sigma = scheme.haar_mean(N, mean_mode), scheme.sigma(N, mean_mode)
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
                            mean_mode="exact", pvals=None):
    """Sampled deviation-of-ergodicity report for one circuit instance.

    ``pvals`` is ``sampled_probabilities(P, samples)``, for callers that
    already hold it; it is gathered here when None.
    """
    estimate = estimate_C_f(P, samples, scheme, pvals)
    return _build_report(P, estimate, scheme, alpha, mean_mode)


def deviation_of_ergodicity_exact(P, Q, scheme, alpha=10.0,
                                  mean_mode="exact"):
    """Exact-correlation variant (no sampling noise); reports T = 0."""
    value = correlation_C_f(P, Q, scheme)
    est = CorrelationEstimate(value=value, std_error=0.0, T=0)
    return _build_report(P, est, scheme, alpha, mean_mode)


@functools.cache
def depolarizing_scale(scheme, N, mode="exact"):
    """DE / (1 - F) of a polynomial ``scheme`` under depolarizing noise of
    fidelity F, cached: sum_i c_i (E_H[f_i] - E_H[f_{i-1}]), f_i = (N p)^i,
    as the numerators' moment sums at lags 0 and 1, each rounded once, over
    D.  It is 0 at degree <= 1; (i-1)!(i-1) for monomial i in Porter-Thomas."""
    sums = [analytic.moment_sum(scheme, N, mode, lag) for lag in (0, 1)]
    return (sums[0] - sums[1]) / scheme.integer_form[0]


def fidelity_from_de_depolarizing(deviation, scheme, N, mode="exact",
                                  std_error=0.0):
    """Invert DE = (1 - F) ``depolarizing_scale(scheme, N, mode)`` for F,
    with the deviation measured from the Haar mean of the same N and
    ``mode``."""
    scale = depolarizing_scale(scheme, N, mode)
    if scale == 0.0:
        raise ValueError(f"{scheme.name}: the depolarizing scale vanishes "
                         "(degree <= 1), so DE carries no fidelity")
    return FidelityEstimate(F_hat=1.0 - deviation / scale,
                            std_error=std_error / scale)


def linear_xeb(P, samples):
    """Linear XEB fidelity (N/T) sum_i P(x_i) - 1.

    Computed as the monomial-2 correlation estimate minus one, so the
    identity linear_xeb + 1 == estimate_C_f(monomial2) holds bit-exactly.
    """
    est = estimate_C_f(P, samples, SchemeFunction.monomial(2))
    return FidelityEstimate(F_hat=est.value - 1.0, std_error=est.std_error)


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

"""The exactly rounded sum kernel, and one compatibility name.

``neumaier_sum`` sums a float array with a single rounding, bit for bit as
``math.fsum`` does, in a few vectorised numpy passes per block of terms:
one error-free split (Rump, Ogita & Oishi, "Accurate floating-point
summation", SIAM J. Sci. Comput. 31, 2008), whose high part numpy sums
exactly, a float sum of the small remainders with a proven error bound,
and a check that the bound cannot move the rounded total.  Inputs the
check cannot settle go to ``math.fsum`` itself.  The function keeps its
historical name because ``estimators`` calls it through this module, so
that a caller (the benchmark's tracer) can wrap ``_accel.neumaier_sum``
by name to count summed terms.  ``using_numba()`` stays because benchmark
and environment reports record it; it is always ``False``.
"""

import math

import numpy as np

# Terms per block: one float64 buffer of this size is the kernel's only
# working memory, whatever the input length.  The estimators build their
# terms in blocks of the same size.
_BLOCK = 1 << 14

# Blocks whose largest term is at or below this go to math.fsum: below it,
# a block's remainder error bound could fall out of the normal range.
_TINY = 2.0**-900


def neumaier_sum(x):
    """Correctly rounded sum of the 1-D float array ``x``; equals
    ``math.fsum(x)`` bit for bit, sign of zero and raised error included.

    One block of m terms at a time, with top = max|x| < 2**e and
    sigma = 2**(e + bit_length(m) + 1) > 2 * m * top:

    - q = (x + sigma) - sigma is exact, as in FastTwoSum, since
      |x| < sigma; every q is a multiple of sigma * 2**-53, and
      sum|q| <= 2 * m * top < sigma, so every partial sum of q, in any
      order, is a multiple of sigma * 2**-53 below sigma and hence a
      float: numpy's ``q.sum()`` is exact;
    - r = x - q is exact too, with |r| <= sigma * 2**-53, so a float sum
      of the m remainders in any order (numpy's pairwise blocks included)
      errs by at most gamma(m - 1) * sum|r| < 1.01 * m**2 * 2**-106 *
      sigma (Higham, "Accuracy and Stability of Numerical Algorithms",
      2002, eq. 4.4; additions in the subnormal range are exact).  The
      kernel adds m**2 * 2**-104 * sigma per block to err, whose fourfold
      slack also covers the rounding of err's own float sum, and
      top > 2**-900 keeps every such bound a normal float.

    So the exact total lies within err of the exact sum of the parts.
    Rounding is monotone: when ``math.fsum`` rounds the parts less err
    and the parts plus err to the same float, the exact total rounds to
    it too, which is what ``math.fsum(x)`` returns.  While err > 0 the
    two never agree on zero, as a sum of floats rounds to zero only when
    it is zero, and the parts less err and plus err cannot both be; the
    test for zero keeps an empty input (err = 0) on fsum's own sign of
    zero.  Every other input, an ambiguous rounding or a block whose top
    is non-finite, at or below 2**-900, or at or above
    2**(1000 - bit_length(m)), where sigma could overflow, goes to
    ``math.fsum(x)`` itself.
    """
    x = np.asarray(x, dtype=np.float64)
    buf = np.empty(min(x.size, _BLOCK))
    parts, err = [], 0.0
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        m = block.size
        top = max(block.max(), -block.min())
        if not _TINY < top < math.ldexp(1.0, 1000 - m.bit_length()):
            return math.fsum(x)
        sigma = math.ldexp(1.0, math.frexp(top)[1] + m.bit_length() + 1)
        q = buf[:m]
        np.add(block, sigma, out=q)
        q -= sigma
        parts.append(float(q.sum()))
        np.subtract(block, q, out=q)
        parts.append(float(q.sum()))
        err += m * m * math.ldexp(sigma, -104)
    lo = math.fsum(parts + [-err])
    if lo != 0.0 and lo == math.fsum(parts + [err]):
        return lo
    return math.fsum(x)


def using_numba():
    """Always False: no jitted kernel path exists."""
    return False

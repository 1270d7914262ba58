"""The exactly rounded sum kernel, and one compatibility name.

``neumaier_sum`` sums a float array with a single rounding, bit for bit as
``math.fsum`` does, in a few vectorised numpy passes.  ``estimators`` calls
it through this module so that a caller can wrap it to count summed terms.
``using_numba()`` stays because benchmark and environment reports record
it; it is always ``False``.
"""

import math

import numpy as np

# Terms per block: two float64 buffers of this size are the kernel's only
# working memory, whatever the input length.
_BLOCK = 1 << 14


def neumaier_sum(x):
    """Correctly rounded sum of the 1-D float array ``x``; equals
    ``math.fsum(x)`` bit for bit.

    Error-free level splits (Rump, Ogita & Oishi, "Accurate floating-point
    summation", SIAM J. Sci. Comput. 31, 2008), one block of m terms at a
    time.  With top = max|r| < 2**e, take sigma = 2**(e + bit_length(m) + 1)
    and split every remainder r into q = (r + sigma) - sigma and r - q:

    - both operations are exact, as in FastTwoSum, since |r| < sigma;
    - every q is a multiple of sigma * 2**-53 and sum|q| <= 2 * m * top <
      sigma, so every partial sum of q, in any order, is a multiple of
      sigma * 2**-53 below sigma and hence a float: numpy's pairwise
      ``q.sum()`` is exact;
    - each level leaves remainders of at most sigma * 2**-53, so they
      reach zero.

    The level sums therefore add up to sum(x) exactly, and ``math.fsum``
    of them rounds that total once, which is what ``math.fsum(x)`` returns.
    An empty or all-zero input (fsum's sign of zero), a non-finite term, or
    a block with top >= 2**(1000 - bit_length(m)), where sigma could
    overflow, is left to ``math.fsum(x)`` itself.
    """
    x = np.asarray(x, dtype=np.float64)
    r_buf = np.empty(min(x.size, _BLOCK))
    q_buf = np.empty_like(r_buf)
    partials = []
    for start in range(0, x.size, _BLOCK):
        block = x[start:start + _BLOCK]
        m = block.size
        r, q = r_buf[:m], q_buf[:m]
        limit = math.ldexp(1.0, 1000 - m.bit_length())
        while True:
            top = float(np.abs(block, out=q).max())
            if not top < limit:  # inf, nan or near overflow
                return math.fsum(x)
            if top == 0.0:
                break
            sigma = math.ldexp(1.0, math.frexp(top)[1] + m.bit_length() + 1)
            np.add(block, sigma, out=q)
            q -= sigma
            np.subtract(block, q, out=r)
            block = r
            partials.append(float(q.sum()))
    if not partials:
        return math.fsum(x)
    return math.fsum(partials)


def using_numba():
    """Always False: no jitted kernel path exists."""
    return False

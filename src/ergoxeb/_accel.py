"""Compatibility names for the former kernel layer.

Every numeric kernel is now a single numpy or stdlib routine in the module
that uses it.  Two names stay here because code outside the package relies
on them: ``using_numba()`` (always ``False``; benchmark and environment
reports record it) and ``neumaier_sum``, the exactly rounded ``math.fsum``.
``estimators`` calls the sum through this module so that a caller can wrap
it to count summed terms.
"""

import math

neumaier_sum = math.fsum


def using_numba():
    """Always False: no jitted kernel path exists."""
    return False

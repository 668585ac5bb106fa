"""Modified Bessel functions K0, K1, K2 of positive argument, elementwise.

K0 and K1 are SciPy's exponentially scaled ``k0e``/``k1e`` times
exp(-x): one call evaluates a whole array of arguments, and the scaled
forms stay finite where exp(-x) underflows (x > ~745), so the product
goes to zero gracefully instead of through an overflow. K2 always goes
through the upward recurrence K_{n+1}(x) = K_{n-1}(x) + (2n/x) K_n(x),
which is stable for growing K_n. The tests check all three against an
independent quadrature oracle.

SciPy is imported at the first call, not with the module, so that the
package imports without it; nothing on the command-line paths calls
this function.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bessel_k"]


def bessel_k(n: int, x):
    """K_n(x) for n in {0, 1, 2} and x > 0.

    ``x`` may be a scalar, which gives a float, or an array of any shape,
    which gives an array of that shape.
    """
    from scipy.special import k0e, k1e

    if n not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {n}")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError(f"argument must be positive, got {np.min(x)}")
    if n == 0:
        scaled = k0e(x)
    elif n == 1:
        scaled = k1e(x)
    else:
        scaled = k0e(x) + 2.0 * k1e(x) / x
    out = scaled * np.exp(-x)
    return float(out) if out.ndim == 0 else out

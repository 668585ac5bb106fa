"""Modified Bessel functions K0, K1, K2 of positive argument, elementwise.

``bessel_k`` is SciPy's ``kn`` with the domain checked: one call evaluates
a whole array of arguments, and past K2's overflow (x below about 1e-154)
it returns inf with no warning. The tests check it against an independent
quadrature oracle.

SciPy is in the ``test`` extra, not an install dependency, and is imported
at the first call, so that the package imports without it; nothing on the
command-line paths calls this function.
"""

from __future__ import annotations

import numpy as np

__all__ = ["bessel_k"]


def bessel_k(n: int, x):
    """K_n(x) for n in {0, 1, 2} and x > 0.

    ``x`` may be a scalar, which gives a float, or an array of any shape,
    which gives an array of that shape.
    """
    from scipy.special import kn

    if n not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {n}")
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError(f"argument must be positive, got {np.min(x)}")
    out = kn(n, x)
    return float(out) if out.ndim == 0 else out

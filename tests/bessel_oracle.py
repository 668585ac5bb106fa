"""Quadrature oracle for the modified Bessel functions K0, K1, K2.

Slow but structurally independent of ``latticesum.specfun``: it shares no
code with SciPy's Bessel routines, so the tests use it as ground truth.
"""

import math

from scipy.integrate import quad


def bessel_k_oracle(n: int, x: float) -> float:
    """K_n(x) by adaptive quadrature of int_0^inf exp(-x cosh t) cosh(nt) dt.

    The upper limit is chosen so the discarded tail is ~exp(-80) relative
    to the integrand peak.
    """
    if n not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {n}")
    if not x > 0:
        raise ValueError(f"argument must be positive, got {x}")
    tmax = math.acosh(1.0 + 80.0 / x)
    val, _err = quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(n * t),
        0.0,
        tmax,
        epsabs=0.0,
        epsrel=1e-12,
        limit=200,
    )
    return val

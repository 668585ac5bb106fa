"""Analytic exterior tail of the window sum at k = 0: with the bare window
(``latticesum.direct_sum.window_tensors``) a reference for the zone-centre
tensors that shares no code with the Ewald kernel or the closed window.

At k = 0 the window truncation error is O(1/L) and does not oscillate
away; adding the continuum integral of the dyadic over the window exterior
(half-width M = L + 1/2) removes it to O(1/L^3)-level residuals.
Off-diagonal integrals vanish by parity, so the correction is a traceless
real diagonal.

For offset c the two exterior integrals are

    A = int_ext dA / (rho^2+c^2)^(3/2) = (8/c) atan(c / v0)
    B = int_ext dA / (rho^2+c^2)^(5/2)

with v0 = sqrt(2 M^2 + c^2), and the diagonal corrections are
T_xx = T_yy = -A/2 + (3/2) c^2 B and T_zz = A - 3 c^2 B.
"""

import math

import numpy as np


def k0_tail_correction(cutoff: int, offset: float) -> np.ndarray:
    """The (3, 3) tail to add to the half-width ``cutoff`` window at k = 0
    and plane offset ``offset`` (0 in the plane)."""
    M = cutoff + 0.5
    c = offset
    if c == 0.0:
        A = 4.0 * math.sqrt(2.0) / M
        txx = -0.5 * A
        tzz = A
    else:
        v0 = math.sqrt(2.0 * M * M + c * c)
        at = math.atan(c / v0)
        A = 8.0 * at / c
        B = (8.0 / 3.0) * (
            1.0 / (c * c * v0) + at / c**3 - 2.0 * v0 / (c * c * (v0 * v0 + c * c))
        )
        txx = -0.5 * A + 1.5 * c * c * B
        tzz = A - 3.0 * c * c * B
    return np.diag([txx, txx, tzz]).astype(complex)

"""Window sums of the Fourier-weighted dipole dyadic: the oracle the Ewald
kernel is tested against.

The sum runs over a square window lx, ly in [-L, L] (square, not circular:
window shape effects are folded into :func:`tail_bound`), with only the
origin excluded in the in-plane case. :func:`window_tensors` sums every k
and every plane offset of a call in one kernel pass,
``_core_py.window_sums``, whose docstring gives the algorithm and its
accuracy. Components that parity makes real or imaginary come out exactly
so, with the other lane 0.
"""

from __future__ import annotations

import math

import numpy as np

from . import _core_py
from .model import _check_count, check_offset, check_offsets, k_array, tensors_from_components

# the window kernel's name, as benchmark records report it
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "dyadic_term",
    "window_tensors",
    "tail_bound",
    "k0_tail_correction",
]

_AXES = {"x": 0, "y": 1, "z": 2, 0: 0, 1: 1, 2: 2}


def dyadic_term(lx: int, ly: int, lz_scaled: float, i, j) -> float:
    """One dipole-dyadic entry delta_ij/r^3 - 3 r_i r_j / r^5, r in units of a."""
    ii = _AXES[i]
    jj = _AXES[j]
    r = (float(lx), float(ly), float(lz_scaled))
    r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2]
    if r2 == 0.0:
        raise ValueError("zero separation: the self-interaction term is excluded")
    ir5 = 1.0 / (r2 * r2 * math.sqrt(r2))
    diag = r2 * ir5 if ii == jj else 0.0
    return diag - 3.0 * r[ii] * r[jj] * ir5


def window_tensors(ks, offsets, cutoff: int) -> np.ndarray:
    """Window sums of dyadic_term * exp(i k.l) at every k, each on its own,
    as a checked stack of the shape :func:`~latticesum.model.tensors_by_orbit`
    states; the s-th stack is bitwise that of ``offsets[s]`` alone, and at
    c = 0 the origin is left out. ``cutoff`` is the half-width L. Inter-plane
    xz and yz come out purely imaginary for real k (the coefficient is odd
    under l -> -l); the lower triangle is the conjugate of the upper one.
    """
    L = _check_count(cutoff, "cutoff")
    cs = check_offsets(offsets)
    out = tensors_from_components(*_core_py.window_sums(k_array(ks), L, cs))
    return out.reshape(np.shape(offsets) + out.shape[1:])


def tail_bound(cutoff: int, offset: float) -> float:
    """Truncation-error estimate for window_tensors at generic interior k.

    In-plane: the 1/r^3 pieces dominate and the exterior integral gives
    2 pi / L; the oscillatory phase makes this conservative, by about 10^3
    on the lattice axes and up to 10^7 at generic k (L = 1000). Between
    planes the 1/r^3 pieces cancel under the phase (summation by parts
    trades them for 1/r^5-type differences), leaving the 1/r^5 exterior
    integral 2 pi / (3 L^3); measured worst cases over generic directions
    sit near 8 / L^3, so 4 pi / L^3 keeps headroom.

    Validity: k should sit away from the reciprocal lattice and off the
    lattice axes. Along an axis one coordinate stops oscillating, and
    between planes the true error exceeds this estimate: at c = 1.5 and
    L = 200 by 38x at k = (1, 0) and by 497x at k = (0.05, 0). Exactly at
    k = 0 nothing oscillates at all, use k0_tail_correction.
    """
    L = _check_count(cutoff, "cutoff")
    if check_offset(offset) == 0.0:
        return 2.0 * math.pi / L
    return 4.0 * math.pi / L**3


def k0_tail_correction(cutoff: int, offset: float) -> np.ndarray:
    """Analytic exterior tail of the window sum at k = 0 exactly, a (3, 3) array.

    At k = 0 the window truncation error is O(1/L) and does not oscillate
    away; adding the continuum integral of the dyadic over the window
    exterior (half-width M = L + 1/2) removes it to O(1/L^3)-level
    residuals. Off-diagonal integrals vanish by parity, so the correction
    is a traceless real diagonal.

    For offset c the two exterior integrals are

        A = int_ext dA / (rho^2+c^2)^(3/2) = (8/c) atan(c / v0)
        B = int_ext dA / (rho^2+c^2)^(5/2)

    with v0 = sqrt(2 M^2 + c^2), and the diagonal corrections are
    T_xx = T_yy = -A/2 + (3/2) c^2 B and T_zz = A - 3 c^2 B.
    """
    M = _check_count(cutoff, "cutoff") + 0.5
    c = check_offset(offset)
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

"""Brute-force window sums of the Fourier-weighted dipole dyadic.

This is the slow oracle the accelerated series are tested against. The sum
runs over a square window lx, ly in [-L, L] (square, not circular: window
shape effects are folded into :func:`tail_bound`), with only the origin
excluded in the in-plane case; terms whose numerator happens to vanish are
kept, they cost nothing and simplify the exclusion rule to "no
self-interaction".

The kernel, ``_core_py.window_sums``, folds the window onto the quadrant
lx, ly >= 0 by the parity of each component, so every sum is a real
bilinear form over a quarter of the terms; it builds the quadrant in row
stripes of at most 2^14 elements, so its memory stays near 0.25 MB up to
L = 16383 and grows as O(L) beyond that. Components that parity makes
real or imaginary come out exactly so, with the other lane 0.
The tests hold the six sums to 1e-12 of a ``math.fsum`` loop over
:func:`dyadic_term` at L = 40, on and off the lattice axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _core_py
from .model import CouplingTensor, WaveVector

# the window kernel's name, as benchmark records report it
BACKEND = "numpy"

__all__ = [
    "BACKEND",
    "DirectSumConfig",
    "dyadic_term",
    "d_tensor_direct",
    "tail_bound",
    "k0_tail_correction",
]

_AXES = {"x": 0, "y": 1, "z": 2, 0: 0, 1: 1, 2: 2}


@dataclass(frozen=True)
class DirectSumConfig:
    """Window half-width L and plane offset (0 = in-plane)."""

    cutoff: int
    layer_offset: int = 0

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.layer_offset < 0:
            raise ValueError(f"layer_offset must be >= 0, got {self.layer_offset}")


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


def d_tensor_direct(k: WaveVector, cfg: DirectSumConfig, b_over_a: float) -> CouplingTensor:
    """Sum dyadic_term * exp(i k.l) over the window; Hermitian by assembly.

    The six independent sums fill the upper triangle; conjugates fill the
    lower one. Inter-plane xz and yz come out purely imaginary for real k
    (the coefficient is odd under l -> -l), which is exactly what the
    Hermitian assembly expects.
    """
    if not b_over_a > 0:
        raise ValueError(f"b_over_a must be positive, got {b_over_a}")
    lz_scaled = cfg.layer_offset * b_over_a
    xx, yy, zz, xy, xz, yz = _core_py.window_sums(
        k.kxa, k.kya, cfg.cutoff, lz_scaled, cfg.layer_offset == 0
    )
    return CouplingTensor.from_components(xx, yy, zz, xy, xz, yz)


def tail_bound(cfg: DirectSumConfig) -> float:
    """Truncation-error estimate for d_tensor_direct at generic interior k.

    In-plane: the 1/r^3 pieces dominate and the exterior integral gives
    2 pi / L; the oscillatory phase makes this quite conservative away
    from k = 0. Between planes the 1/r^3 pieces cancel under the phase
    (summation by parts trades them for 1/r^5-type differences), leaving
    the 1/r^5 exterior integral 2 pi / (3 L^3); measured worst cases over
    generic directions sit near 8 / L^3, so 4 pi / L^3 keeps headroom.

    Validity: k should sit away from the reciprocal lattice and off the
    lattice axes. Along an axis one coordinate stops oscillating and the
    true error can exceed this estimate by two orders of magnitude;
    exactly at k = 0 nothing oscillates at all, use k0_tail_correction.
    """
    L = cfg.cutoff
    if cfg.layer_offset == 0:
        return 2.0 * math.pi / L
    return 4.0 * math.pi / L**3


def k0_tail_correction(cfg: DirectSumConfig, b_over_a: float) -> CouplingTensor:
    """Analytic exterior tail of the window sum at k = 0 exactly.

    At k = 0 the window truncation error is O(1/L) and does not oscillate
    away; adding the continuum integral of the dyadic over the window
    exterior (half-width M = L + 1/2) removes it to O(1/L^3)-level
    residuals. Off-diagonal integrals vanish by parity, so the correction
    is a traceless real diagonal.

    For offset c = layer_offset * b_over_a the two exterior integrals are

        A = int_ext dA / (rho^2+c^2)^(3/2) = (8/c) atan(c / v0)
        B = int_ext dA / (rho^2+c^2)^(5/2)

    with v0 = sqrt(2 M^2 + c^2), and the diagonal corrections are
    T_xx = T_yy = -A/2 + (3/2) c^2 B and T_zz = A - 3 c^2 B.
    """
    if not b_over_a > 0:
        raise ValueError(f"b_over_a must be positive, got {b_over_a}")
    M = cfg.cutoff + 0.5
    c = cfg.layer_offset * b_over_a
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
    return CouplingTensor(np.diag([txx, txx, tzz]).astype(complex))

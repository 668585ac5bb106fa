"""Ewald evaluation of the dyadic lattice sums, and the in-plane constant F.

The tensor between a site and the plane at height c (in units of a;
c = 0 is the site's own plane, any other c is at least
:data:`~latticesum.model.MIN_OFFSET`) is

    D_ij(k) = sum_l' e^{i k.l} T_ij(l + c z),   T_ij = -d_i d_j (1/r),

over the square lattice l, less l = 0 in the plane.

Near planes, c < 2 (``_FAR``), take the closed Gaussian sum of
:func:`latticesum._core_py.window_sums`. It writes 1/r^5 as a sum of
Gaussians e^{-t r^2} (G. Beylkin and L. Monzon, Appl. Comput. Harmon. Anal.
28, 131 (2010)) and splits the lattice sum node by node, as Ewald's method
splits it at one eta (P. P. Ewald, Ann. Phys. 369, 253 (1921); for 2D
periodicity, A. Grzybowski, E. Gwozdz and A. Brodka, Phys. Rev. B 61, 6706
(2000)): a narrow Gaussian is summed in real space over |l_x|, |l_y| <= 8
(``_HALF_WIDTH``), a wide one by Poisson summation over reciprocal vectors,
so that both halves converge like Gaussians, each by its own width, and no
error function is evaluated. The in-plane sum leaves l = 0 out term by
term, so no self term is subtracted. Every k is defined, the
reciprocal-lattice points included; the kernel's docstring gives its
accuracy.

Far planes, c >= 2, take the plane-wave series, the 2D Fourier transform
of 1/r over the plane, 2 pi e^{-qc} / q, differentiated:

    D = 2 pi sum_q (q_a q_b / q, -i q_a, -q) e^{-qc}

over q = k + 2 pi n for the in-plane entries, xz and yz, and zz. It is
about twice as fast there as the Gaussian sum and converges by itself:
with k in the zone the first q past |n_x|, |n_y| <= 4 has |q| >= 9 pi, so
every omitted term is below 2 pi 9 pi e^{-18 pi}, about 5e-23 (k is first
folded into the zone exactly, below 2^29 periods of 2 pi, the most that
:func:`~latticesum.model.k_array` accepts). All far offsets of a call are
summed in one pass. The long-wave closed forms,
:class:`latticesum.dispersion.LongWave`, keep its (0, 0) term alone.

One call of :func:`lattice_tensors` sums each orbit of k once
(:func:`latticesum.model.tensors_by_orbit`) at any number of plane
offsets, one kernel call for the near ones and one pass for the far ones,
by the same operations as for one offset alone: each offset's tensors are
bitwise those of it alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import _core_py
from .model import (
    _fold_into_zone, check_offset, k_array, tensors_by_orbit, tensors_from_components,
)

# Unused here, but perfbench/tracing.py wraps ewald.bessel_k by name.
from .specfun import bessel_k  # noqa: F401

__all__ = ["lattice_tensors", "f_constant"]

# The closed Gaussian sum's real-space half-width below _FAR
_HALF_WIDTH = 8

# The plane-wave series runs over |n_x|, |n_y| <= _SHELLS, read at call time.
_SHELLS = 4

# k points per plane-wave pass, which bounds its work arrays to
# _BLOCK x (2 _SHELLS + 1)^2 elements per offset whatever the number of k.
_BLOCK = 64

# Offsets c >= _FAR take the plane-wave series (module docstring)
_FAR = 2.0


def lattice_tensors(ks, offsets) -> np.ndarray:
    """Tensors D(k) to the planes ``offsets`` above, as a checked stack
    (:func:`~latticesum.model.tensors_by_orbit`) whose s-th (K, 3, 3)
    stack is bitwise that of ``offsets[s]`` alone. The lower triangle is
    the conjugate of the upper one; xz and yz are imaginary."""
    return tensors_by_orbit(
        ks, offsets, lambda kxy, cs: tensors_from_components(*_sums(kxy, cs))
    )


def _lattice_sums(ks, offset: float, cap: int | None = None):
    """The six sums (xx, yy, zz, xy, xz, yz) of D(k), each of shape (K,),
    every k summed on its own and unchecked; ``cap`` truncates them
    (:func:`_sums`)."""
    return _sums(_fold_into_zone(k_array(ks)), [check_offset(offset)], cap)[:, 0]


def _terms(offset: float, shells: int) -> int:
    """Number of terms ``convergence`` states for ``shells`` = R: the
    (2R + 1)^2 real-space sites and as many reciprocal vectors below
    ``_FAR``, the (2R + 1)^2 plane waves alone from there up."""
    return (1 if offset >= _FAR else 2) * (2 * shells + 1) ** 2


def _sums(kxy: np.ndarray, cs: list[float], cap: int | None = None) -> np.ndarray:
    """The six sums of D at every k in the zone and offset, shape (6, S, K).

    ``cap`` = R truncates them at R shells: below ``_FAR`` the closed sum's
    real space at half-width R and each node's Poisson sum at |n| <= R,
    from there up the plane waves at |n_x|, |n_y| <= R.
    """
    near = [j for j, c in enumerate(cs) if c < _FAR]
    far = [j for j, c in enumerate(cs) if c >= _FAR]
    out = np.empty((6, len(cs), len(kxy)), dtype=complex)
    if near:
        out[:, near] = _core_py.window_sums(
            kxy, cap or _HALF_WIDTH, [cs[j] for j in near], True, cap=cap)
    if far:
        shells = cap or _SHELLS
        n = 2.0 * math.pi * np.arange(-shells, shells + 1)
        gx, gy = (a.ravel() for a in np.meshgrid(n, n, indexing="ij"))
        c_far = np.array([cs[j] for j in far])[:, None, None]
        for i in range(0, len(kxy), _BLOCK):
            k = kxy[i : i + _BLOCK]
            out[:, far, i : i + _BLOCK] = _plane_waves(k[:, :1] + gx, k[:, 1:] + gy, c_far)
    return out


def _plane_waves(qx, qy, c) -> list[np.ndarray]:
    """The six sums of the plane-wave series (module docstring) over the last
    axis of (qx, qy); ``c`` broadcasts against them."""
    q = np.hypot(qx, qy)
    with np.errstate(over="ignore"):  # q c past the floats: e^{-inf} = 0
        e = 2.0 * math.pi * np.exp(-q * c)
    # the kernel's rule: the terms carry q_a q_b, and at q <= 1e-300 they are 0
    psi = e / np.where(q > 1e-300, q, np.inf)
    return [
        np.sum(qx * qx * psi, axis=-1),
        np.sum(qy * qy * psi, axis=-1),
        -np.sum(q * e, axis=-1),
        np.sum(qx * qy * psi, axis=-1),
        -1j * np.sum(qx * e, axis=-1),
        -1j * np.sum(qy * e, axis=-1),
    ]


@functools.lru_cache(maxsize=None)
def f_constant() -> float:
    """Lattice constant F = -D_xx(k = 0) in the plane, about 4.517.

    Controls the k -> 0 in-plane tensor, diag(-F, -F, 2F); within half a
    percent of 9/2 (a nearest-neighbor-only sum would give exactly 4).
    The tests check it against the Bessel series
    F = 4 pi^2/9 + (32 pi^2/3) sum_{n,m>=1} n^2 K2(2 pi n m).
    """
    return -float(lattice_tensors(np.zeros((1, 2)), 0.0)[0, 0, 0].real)

"""Ewald evaluation of the dyadic lattice sums, and the in-plane constant F.

The tensor between a site and the plane at height c (in units of a;
c = 0 is the site's own plane, any other c is at least
:data:`~latticesum.model.MIN_OFFSET`) is

    D_ij(k) = sum_l' e^{i k.l} T_ij(l + c z),   T_ij = -d_i d_j (1/r),

over the square lattice l, less l = 0 in the plane. Ewald's split
1/r = erfc(eta r)/r + erf(eta r)/r turns it into two sums that converge
like Gaussians (P. P. Ewald, Ann. Phys. 369, 253 (1921); for 2D
periodicity, A. Grzybowski, E. Gwozdz and A. Brodka, Phys. Rev. B 61,
6706 (2000)):

- real space, over sites at distance s = |l + c z| with R = l + c z:
  A(s) delta_ij - B(s) R_i R_j, where
  A = [erfc(eta s) + (2 eta s/sqrt(pi)) e^{-eta^2 s^2}] / s^3 and
  B = [3 erfc(eta s) + (2 eta s/sqrt(pi)) (3 + 2 eta^2 s^2) e^{-eta^2 s^2}] / s^5;
- reciprocal space, over q = k + 2 pi n: q_a q_b psi for the in-plane
  entries, i q_a psi_z for xz and yz and -psi_zz for zz, where
  psi = (pi/q)(e+ + e-), psi_z = pi (e+ - e-),
  psi_zz = pi q (e+ + e-) - 4 sqrt(pi) eta W,
  e+- = e^{+-qc} erfc(q/2 eta +- eta c) and W = e^{-q^2/4 eta^2 - eta^2 c^2}.
  At q = 0 only zz survives, as 4 sqrt(pi) eta e^{-eta^2 c^2}, so every
  k is defined, the reciprocal-lattice points included.
- in the plane, the reciprocal sum also holds the site's own smooth
  part, removed by subtracting (4 eta^3 / 3 sqrt(pi)) delta_ij.

With eta = sqrt(pi) and both sums over |l|, |n| <= 4, every omitted term
is below 1e-21 at any offset and any k (D is periodic in k, and k is first
folded into the zone exactly, below 2^29 periods of 2 pi, the most that
:func:`~latticesum.model.k_array` accepts), so the truncation is fixed and
needs no option. erfc is the standard library's, one Python call per argument
(about 0.1 us), which keeps SciPy off the import path. Below c = 2 every
argument lies in (-3.6, 14.9), where it neither saturates nor underflows.

Far planes, c >= 2 (``_FAR``), take the split's eta -> infinity limit,
where e+ and W vanish, e- = 2 e^{-qc} and the real-space sum is 0: the
plane-wave series

    D = 2 pi sum_q (q_a q_b / q, -i q_a, -q) e^{-qc}

for the in-plane entries, xz and yz, and zz, with no erfc. It converges
by itself: with k in the zone the first omitted q has |q| >= 9 pi, so
every omitted term is below 2 pi 9 pi e^{-18 pi}, about 5e-23. All far
offsets of a call are summed in one pass. The long-wave closed forms,
:class:`latticesum.dispersion.LongWave`, keep its (0, 0) term alone.

One call of :func:`lattice_tensors` sums each orbit of k once
(:func:`latticesum.model.tensors_by_orbit`) at any number of plane
offsets, building the phase tables and q once and evaluating per offset
only the terms that depend on it, by the same operations as for one
offset alone: each offset's tensors are bitwise those of it alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import (
    _fold_into_zone, check_offset, k_array, tensors_by_orbit, tensors_from_components,
)

# Unused here, but perfbench/tracing.py wraps ewald.bessel_k by name.
from .specfun import bessel_k  # noqa: F401

__all__ = ["lattice_tensors", "f_constant"]

# Ewald splitting parameter in units of 1/a; sqrt(pi) balances the two
# sums on the square lattice.
_ETA = math.sqrt(math.pi)

# Both sums run over |l_x|, |l_y| <= _SHELLS (real space) and
# |n_x|, |n_y| <= _SHELLS (reciprocal space), read at call time.
_SHELLS = 4

# k points per reciprocal-space pass, which bounds its work arrays to
# _BLOCK x (2 _SHELLS + 1)^2 elements whatever the number of k.
_BLOCK = 64

# Offsets c >= _FAR take the plane-wave limit of the split (module docstring)
_FAR = 2.0


def _erfc(x: np.ndarray) -> np.ndarray:
    out = np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size)
    return out.reshape(x.shape)


def lattice_tensors(ks, offsets) -> np.ndarray:
    """Tensors D(k) to the planes ``offsets`` above, as a checked stack
    (:func:`~latticesum.model.tensors_by_orbit`) whose s-th (K, 3, 3)
    stack is bitwise that of ``offsets[s]`` alone. The lower triangle is
    the conjugate of the upper one; xz and yz are imaginary."""
    return tensors_by_orbit(
        ks, offsets, lambda kxy, cs: tensors_from_components(*_sums(kxy, cs, _SHELLS))
    )


def _lattice_sums(ks, offset: float, shells: int):
    """The six sums (xx, yy, zz, xy, xz, yz) of D(k), each of shape (K,).

    Every k is summed on its own. Unchecked: with too few shells the
    truncated tensor is not traceless.
    """
    return _sums(_fold_into_zone(k_array(ks)), [check_offset(offset)], shells)[:, 0]


def _terms(offset: float, shells: int) -> int:
    """Number of terms the kernel sums at one offset: both halves of the
    split below ``_FAR``, the reciprocal terms alone from there up."""
    return (1 if offset >= _FAR else 2) * (2 * shells + 1) ** 2


def _real_space(nx: np.ndarray, ny: np.ndarray, c: float) -> np.ndarray:
    """Coefficients (xx, yy, zz, xy, xz, yz) of every site at offset c, (6, sites)."""
    eta = _ETA
    s2 = nx * nx + ny * ny + c * c
    # the origin's coefficients are 0 in the plane
    site = s2 > 0.0
    s2 = np.where(site, s2, 1.0)
    s = np.sqrt(s2)
    ec = _erfc(eta * s)
    g = (2.0 * eta / math.sqrt(math.pi)) * s * np.exp(-eta * eta * s2)
    a = site * (ec + g) / (s2 * s)
    b = site * (3.0 * ec + g * (3.0 + 2.0 * eta * eta * s2)) / (s2 * s2 * s)
    return np.stack(
        [a - b * nx * nx, a - b * ny * ny, a - b * c * c,
         -b * nx * ny, -b * nx * c, -b * ny * c]
    )


def _sums(kxy: np.ndarray, cs: list[float], shells: int) -> np.ndarray:
    """The six sums of D at every k and offset, shape (6, S, K)."""
    eta = _ETA
    n = np.arange(-shells, shells + 1, dtype=float)
    nx, ny = (a.ravel() for a in np.meshgrid(n, n, indexing="ij"))
    near = [j for j, c in enumerate(cs) if c < _FAR]
    far = [j for j, c in enumerate(cs) if c >= _FAR]
    coefs = [_real_space(nx, ny, cs[j]) for j in near]
    c_far = np.array([cs[j] for j in far])[:, None, None]
    gx, gy = 2.0 * math.pi * nx, 2.0 * math.pi * ny

    out = np.empty((6, len(cs), len(kxy)), dtype=complex)
    for i in range(0, len(kxy), _BLOCK):
        # everything but the offset passes is independent of c
        k = kxy[i : i + _BLOCK]
        qx = k[:, :1] + gx
        qy = k[:, 1:] + gy
        qxx, qyy, qxy = qx * qx, qy * qy, qx * qy
        q = np.hypot(qx, qy)
        # the psi terms carry q_a q_b, so they are below 2 pi q; at
        # q <= 1e-300, where pi / q can overflow, they are dropped as 0
        q_div = np.where(q > 1e-300, q, np.inf)
        if far:
            out[:, far, i : i + _BLOCK] = _plane_waves(qx, qy, c_far)
        # e^{i k.l} on the site grid, from one table per axis
        ex = np.exp(1j * k[:, :1] * n)
        ey = np.exp(1j * k[:, 1:] * n)
        phase = (ex[:, :, None] * ey[:, None, :]).reshape(len(k), len(nx))
        cos_kl, sin_kl = phase.real[:, None], phase.imag[:, None]
        pi_q = math.pi * q
        x = q / (2.0 * eta)
        gauss = -(x * x)
        for j, coef in zip(near, coefs):
            c = cs[j]
            re = np.sum(cos_kl * coef[:4], axis=-1)
            im = np.sum(sin_kl * coef[4:], axis=-1)
            w = np.exp(gauss - (eta * c) ** 2)
            if c == 0.0:
                e_plus = e_minus = _erfc(x)
            else:
                e_minus = np.exp(-q * c) * _erfc(x - eta * c)
                # erfc(x + eta c) > 0 needs x + eta c < 27.3, so there
                # qc = 2 x eta c < 373 and e^{qc} is finite; elsewhere e+ is 0
                e_plus = _erfc(x + eta * c)
                hit = e_plus > 0.0
                e_plus[hit] *= np.exp(q[hit] * c)
            e_sum = e_plus + e_minus
            psi = math.pi * e_sum / q_div
            psi_z = math.pi * (e_plus - e_minus)
            psi_zz = pi_q * e_sum - 4.0 * math.sqrt(math.pi) * eta * w
            out[:, j, i : i + _BLOCK] = [
                re[:, 0] + np.sum(qxx * psi, axis=1),
                re[:, 1] + np.sum(qyy * psi, axis=1),
                re[:, 2] - np.sum(psi_zz, axis=1),
                re[:, 3] + np.sum(qxy * psi, axis=1),
                1j * (im[:, 0] + np.sum(qx * psi_z, axis=1)),
                1j * (im[:, 1] + np.sum(qy * psi_z, axis=1)),
            ]
    in_plane = np.array(cs) == 0.0
    # the site's own smooth part; T_xz and T_yz vanish term by term in the plane
    out[:3, in_plane] -= 4.0 * eta**3 / (3.0 * math.sqrt(math.pi))
    out[4:, in_plane] = 0.0
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

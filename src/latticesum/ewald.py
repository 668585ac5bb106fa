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
is below 1e-21 at any offset and any k (k is folded into the zone first,
since D is periodic in k), so the truncation is fixed and needs no
option. erfc is the standard library's, one Python call per argument
(about 0.1 us), which keeps SciPy off the import path.

The square lattice's mirrors and its x <-> y swap map D onto itself:
kx -> -kx flips xy and xz, ky -> -ky flips xy and yz, and swapping kx
and ky swaps xx with yy and xz with yz. :func:`lattice_tensors` therefore
sums each orbit of these eight maps once, at its member with
kx >= ky >= 0, and restores every k of the orbit from it exactly. The
long-wave closed forms are :class:`latticesum.dispersion.LongWave`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import WaveVector, check_offset, k_array, tensors_from_components

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


def _fold_into_zone(kxy: np.ndarray) -> np.ndarray:
    return kxy - 2.0 * math.pi * np.round(kxy / (2.0 * math.pi))


def _erfc(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def lattice_tensors(ks, offset: float) -> np.ndarray:
    """Tensors D(k) to the plane ``offset`` above, as a checked (K, 3, 3) stack.

    ``offset`` is the plane offset c in units of a, 0 for the site's own
    plane (see :func:`~latticesum.model.check_offset`). The lower triangle
    is the conjugate of the upper one; xz and yz are imaginary.
    """
    c = check_offset(offset)
    # D is periodic in k; folding k into the zone centres the reciprocal sum
    kxy = _fold_into_zone(k_array(ks))
    # one orbit member with kx >= ky >= 0 is summed, the others restored
    ax, ay = np.abs(kxy).T
    swap = ay > ax
    orbits, member = np.unique(
        np.stack([np.maximum(ax, ay), np.minimum(ax, ay)], axis=1),
        axis=0,
        return_inverse=True,
    )
    member = member.reshape(-1)  # NumPy 2.0.0 returns it as (K, 1)
    xx, yy, zz, xy, xz, yz = (s[member] for s in _sums(orbits, c, _SHELLS))
    sx = np.where(kxy[:, 0] < 0.0, -1.0, 1.0)
    sy = np.where(kxy[:, 1] < 0.0, -1.0, 1.0)
    return tensors_from_components(
        np.where(swap, yy, xx),
        np.where(swap, xx, yy),
        zz,
        sx * sy * xy,
        sx * np.where(swap, yz, xz),
        sy * np.where(swap, xz, yz),
    )


def _lattice_sums(ks, offset: float, shells: int):
    """The six sums (xx, yy, zz, xy, xz, yz) of D(k), each of shape (K,).

    Every k is summed on its own. Unchecked: with too few shells the
    truncated tensor is not traceless.
    """
    return _sums(_fold_into_zone(k_array(ks)), check_offset(offset), shells)


def _sums(kxy: np.ndarray, c: float, shells: int):
    eta = _ETA
    n = np.arange(-shells, shells + 1, dtype=float)
    nx, ny = (a.ravel() for a in np.meshgrid(n, n, indexing="ij"))

    # real-space coefficients of every site, shared by all k; the origin's
    # are 0 in the plane
    s2 = nx * nx + ny * ny + c * c
    site = s2 > 0.0
    s2 = np.where(site, s2, 1.0)
    s = np.sqrt(s2)
    ec = _erfc(eta * s)
    g = (2.0 * eta / math.sqrt(math.pi)) * s * np.exp(-eta * eta * s2)
    a = site * (ec + g) / (s2 * s)
    b = site * (3.0 * ec + g * (3.0 + 2.0 * eta * eta * s2)) / (s2 * s2 * s)
    coef = np.stack(
        [a - b * nx * nx, a - b * ny * ny, a - b * c * c,
         -b * nx * ny, -b * nx * c, -b * ny * c]
    )
    gx, gy = 2.0 * math.pi * nx, 2.0 * math.pi * ny

    blocks = []
    for i in range(0, max(len(kxy), 1), _BLOCK):
        k = kxy[i : i + _BLOCK]
        # e^{i k.l} on the site grid, from one table per axis
        ex = np.exp(1j * k[:, :1] * n)
        ey = np.exp(1j * k[:, 1:] * n)
        phase = (ex[:, :, None] * ey[:, None, :]).reshape(len(k), len(nx))
        re = np.sum(phase.real[:, None] * coef[:4], axis=-1)
        im = np.sum(phase.imag[:, None] * coef[4:], axis=-1)
        qx = k[:, :1] + gx
        qy = k[:, 1:] + gy
        q = np.hypot(qx, qy)
        x = q / (2.0 * eta)
        w = np.exp(-(x * x) - (eta * c) ** 2)
        if c == 0.0:
            e_plus = e_minus = _erfc(x)
        else:
            e_minus = np.exp(-q * c) * _erfc(x - eta * c)
            # erfc(x + eta c) > 0 needs x + eta c < 27.3, so there
            # qc = 2 x eta c < 373 and e^{qc} is finite; elsewhere e+ is 0
            e_plus = _erfc(x + eta * c)
            hit = e_plus > 0.0
            e_plus[hit] *= np.exp(q[hit] * c)
        # at q = 0 the psi terms carry a factor q_a and vanish
        psi = math.pi * (e_plus + e_minus) / np.where(q > 0.0, q, 1.0)
        psi_z = math.pi * (e_plus - e_minus)
        psi_zz = math.pi * q * (e_plus + e_minus) - 4.0 * math.sqrt(math.pi) * eta * w
        blocks.append(
            np.stack(
                [
                    re[:, 0] + np.sum(qx * qx * psi, axis=1),
                    re[:, 1] + np.sum(qy * qy * psi, axis=1),
                    re[:, 2] - np.sum(psi_zz, axis=1),
                    re[:, 3] + np.sum(qx * qy * psi, axis=1),
                    1j * (im[:, 0] + np.sum(qx * psi_z, axis=1)),
                    1j * (im[:, 1] + np.sum(qy * psi_z, axis=1)),
                ]
            )
        )
    xx, yy, zz, xy, xz, yz = np.concatenate(blocks, axis=1)
    if c == 0.0:
        own = 4.0 * eta**3 / (3.0 * math.sqrt(math.pi))
        xx, yy, zz = xx - own, yy - own, zz - own
        # T_xz and T_yz vanish term by term in the plane
        xz = yz = np.zeros_like(xz)
    return xx, yy, zz, xy, xz, yz


@functools.lru_cache(maxsize=None)
def f_constant() -> float:
    """Lattice constant F = -D_xx(k = 0) in the plane, about 4.517.

    Controls the k -> 0 in-plane tensor, diag(-F, -F, 2F); within half a
    percent of 9/2 (a nearest-neighbor-only sum would give exactly 4).
    The tests check it against the Bessel series
    F = 4 pi^2/9 + (32 pi^2/3) sum_{n,m>=1} n^2 K2(2 pi n m).
    """
    return -float(lattice_tensors([WaveVector(0.0, 0.0)], 0.0)[0, 0, 0].real)

"""Plane-wave sum of the inter-plane tensor: a reference that shares no code
with the Ewald kernel.

For a plane at height c > 0 the lattice sum is absolutely convergent in
reciprocal space,

    D(k) = 2 pi sum_G (q_a q_b / q, -i q_a, -q) e^{-q c},   q = k + G,

for the in-plane entries, xz and yz, and zz. The G-window is widened until
its first omitted terms fall below e^{-50} of the leading nonzero one.
"""

import math

import numpy as np


def plane_wave_tensor(kxa, kya, c):
    """3 x 3 inter-plane tensor at k = (kxa, kya) and plane offset c > 0."""
    # the leading nonzero q is at most 2 pi; the first omitted one is
    # 50 / c beyond that
    n_max = math.ceil(math.hypot(kxa, kya) / (2.0 * math.pi)) + 1
    n_max += math.ceil(50.0 / (2.0 * math.pi * c))
    g = 2.0 * math.pi * np.arange(-n_max, n_max + 1)
    qx = kxa + g[:, None]
    qy = kya + g[None, :]
    q = np.hypot(qx, qy)
    e = 2.0 * math.pi * np.exp(-q * c)
    # the q = 0 term, on the reciprocal lattice, vanishes in every entry
    over_q = e / np.where(q > 0.0, q, 1.0)
    xx = np.sum(qx * qx * over_q)
    yy = np.sum(qy * qy * over_q)
    xy = np.sum(qx * qy * over_q)
    xz = -1j * np.sum(qx * e)
    yz = -1j * np.sum(qy * e)
    zz = -np.sum(q * e)
    return np.array(
        [[xx, xy, xz], [xy, yy, yz], [np.conj(xz), np.conj(yz), zz]], dtype=complex
    )

"""Parity-folded NumPy kernel for the window sums, batched over k.

Every dyadic component is even or odd in lx and in ly, and so is each half
of the phase exp(i q l) = cos(q l) + i sin(q l). Folding the window
[-L, L]^2 onto the quadrant lx, ly >= 0 turns each sum into a real bilinear
form ``x^T R y`` with R = 1/r^5 and multiplicity-weighted tables
(m(0) = 1, m(l > 0) = 2):

    xx, yy, zz  even/even  real       from cos(qx lx) and cos(qy ly)
    xy          odd/odd    real       from (i sin)(i sin) = -sin sin
    xz          odd/even   imaginary  from i sin(qx lx) cos(qy ly)
    yz          even/odd   imaginary  from i cos(qx lx) sin(qy ly)

so the lanes that would only gather roundoff are exact zeros. The diagonal
terms are written as (ly^2 + c^2 - 2 lx^2)/r^5 and its permutations, so all
six sums are entries of one 3x3 matrix G = X R Y^T per k and the trace
cancels to roundoff.

R does not depend on k: it is built once per block of ``_BLOCK`` k, in
row stripes of at most ``_STRIPE`` elements (0.125 MB) in two reused
buffers, and each stripe is applied to the tables of every k of the block
while it is in cache. The tables take O(_BLOCK L) memory whatever the
number of k. Beyond L = 16383 (L + 1 = _STRIPE) a stripe is one row.
The sums agree with a ``math.fsum`` loop over ``dyadic_term`` to 1e-12
(tests/test_direct_sum.py).
"""

from __future__ import annotations

import numpy as np

# elements per stripe of the quadrant
_STRIPE = 1 << 14

# k per pass over the quadrant: bounds the tables' memory, untuned (README)
_BLOCK = 16


def window_sums(kxy, L, c):
    """Six independent dyadic sums over the window at every k, shape (6, K).

    ``kxy`` is a (K, 2) float array of (kx a, ky a), ``L`` the half-width
    and ``c`` the plane offset in units of a; c = 0 excludes the origin
    term. Rows are (xx, yy, zz, xy, xz, yz) with the phase factor
    exp(i (qx lx + qy ly)) applied termwise; xx, yy, zz and xy come back
    with imaginary part 0, xz and yz with real part 0.
    """
    l = np.arange(L + 1, dtype=float)
    l2 = l * l
    m = np.full(L + 1, 2.0)
    m[0] = 1.0
    c2 = c**2

    def tables(q):
        cos = m * np.cos(q * l)
        sin = m * np.sin(q * l)
        return np.stack([cos, cos * l2, sin * l])

    ly2c2 = l2 + c2
    rows = max(1, _STRIPE // (L + 1))
    r2 = np.empty((rows, L + 1))
    R = np.empty((rows, L + 1))
    out = np.zeros((6, len(kxy)), dtype=complex)
    for k0 in range(0, len(kxy), _BLOCK):
        block = kxy[k0 : k0 + _BLOCK]
        Y = [tables(qy) for qy in block[:, 1]]
        RY = np.empty((len(block), 3, L + 1))
        for start in range(0, L + 1, rows):
            n = min(rows, L + 1 - start)
            r2s, Rs = r2[:n], R[:n]
            np.add(l2[start : start + n, None], ly2c2, out=r2s)
            if c == 0.0 and start == 0:
                r2s[0, 0] = np.inf  # 1/r^5 becomes 0: no self-interaction
            np.sqrt(r2s, out=Rs)
            Rs *= r2s
            Rs *= r2s
            np.divide(1.0, Rs, out=Rs)
            # matrix-vector products and dots only: OpenBLAS's matrix-matrix
            # product touches a 0.25 MB buffer on first use, which would raise
            # the process's peak RSS
            for y3, ry3 in zip(Y, RY):
                for y, ry in zip(y3, ry3):
                    np.matmul(Rs, y, out=ry[start : start + n])
        for j, (qx, ry3) in enumerate(zip(block[:, 0], RY), start=k0):
            G = np.array([[np.dot(x, ry) for ry in ry3] for x in tables(qx)])
            # P = sum lx^2 C/r^5, Q = sum ly^2 C/r^5, S = sum c^2 C/r^5 over
            # the cos/cos products C
            P, Q, S = G[1, 0], G[0, 1], c2 * G[0, 0]
            out.real[:4, j] = Q + S - 2 * P, P + S - 2 * Q, P + Q - 2 * S, 3 * G[2, 2]
            out.imag[4:, j] = -3.0 * c * G[2, 0], -3.0 * c * G[0, 2]
    return out

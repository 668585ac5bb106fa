"""Parity-folded NumPy kernel for the window sums.

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
six sums are entries of one 3x3 matrix G = X R Y^T and the trace cancels
to roundoff. R is built in row stripes of at most ``_STRIPE`` elements in
two reused buffers, which keeps the working set near 0.25 MB up to
L = 16383 (L + 1 = _STRIPE). Beyond that a stripe is a single row of L + 1
elements, and the working set grows as O(L), like the six phase tables of
length L + 1 beside it.
The sums agree with a ``math.fsum`` loop over ``dyadic_term`` to 1e-12
(tests/test_direct_sum.py).
"""

from __future__ import annotations

import numpy as np

# elements per stripe of the quadrant, like ewald._BLOCK for k
_STRIPE = 1 << 14


def window_sums(qx, qy, cutoff, lz_scaled, exclude_origin):
    """Six independent dyadic sums over the window, as complex scalars.

    Returns (xx, yy, zz, xy, xz, yz) with the phase factor
    exp(i (qx lx + qy ly)) applied termwise. ``lz_scaled`` is the plane
    offset in units of a; ``exclude_origin`` must be True when it is zero.
    xx, yy, zz and xy come back with imaginary part 0, xz and yz with real
    part 0.
    """
    L = int(cutoff)
    l = np.arange(L + 1, dtype=float)
    l2 = l * l
    m = np.full(L + 1, 2.0)
    m[0] = 1.0
    c2 = float(lz_scaled) ** 2

    def tables(q):
        cos = m * np.cos(q * l)
        sin = m * np.sin(q * l)
        return np.stack([cos, cos * l2, sin * l])

    X = tables(qx)
    Y = tables(qy)
    ly2c2 = l2 + c2
    rows = max(1, _STRIPE // (L + 1))
    r2 = np.empty((rows, L + 1))
    R = np.empty((rows, L + 1))
    RY = np.empty((3, L + 1))
    for start in range(0, L + 1, rows):
        n = min(rows, L + 1 - start)
        r2s, Rs = r2[:n], R[:n]
        np.add(l2[start : start + n, None], ly2c2, out=r2s)
        if exclude_origin and start == 0:
            r2s[0, 0] = np.inf  # 1/r^5 becomes 0: no self-interaction
        np.sqrt(r2s, out=Rs)
        Rs *= r2s
        Rs *= r2s
        np.divide(1.0, Rs, out=Rs)
        # matrix-vector products and dots only: OpenBLAS's matrix-matrix
        # product touches a 0.25 MB buffer on first use, which would raise
        # the process's peak RSS
        for y, ry in zip(Y, RY):
            np.matmul(Rs, y, out=ry[start : start + n])
    G = np.array([[np.dot(x, ry) for ry in RY] for x in X])
    # P = sum lx^2 C/r^5, Q = sum ly^2 C/r^5, S = sum c^2 C/r^5 over the
    # cos/cos products C
    P, Q, S = G[1, 0], G[0, 1], c2 * G[0, 0]
    c3 = 3.0 * float(lz_scaled)
    return (
        complex(Q + S - 2.0 * P, 0.0),
        complex(P + S - 2.0 * Q, 0.0),
        complex(P + Q - 2.0 * S, 0.0),
        complex(3.0 * G[2, 2], 0.0),
        complex(0.0, -c3 * G[2, 0]),
        complex(0.0, -c3 * G[0, 2]),
    )

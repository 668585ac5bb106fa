"""Parity-folded NumPy kernel for the window sums, batched over k and offsets.

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

R(lx, ly) = (lx^2 + ly^2 + c^2)^(-5/2) is symmetric, so R = U + U^T with
U its triangle ly >= lx, halved on the diagonal, and
G = X U Y^T + (Y U X^T)^T: only the triangle is built. Each k's six tables
(cos, cos l^2 and sin l, along x and then along y) are the columns of one
(L + 1, 6) array T, and W = U T is one stacked ``np.matmul`` per block,
which NumPy runs as one product per k with the same 6 columns whatever the
number of k, so each k's sums do not depend on its neighbours. The 6x6
matrix T^T W holds X U Y^T in one corner and Y U X^T in the other.

U does not depend on k: it is built once per offset and block of
``_BLOCK`` k, in row stripes of at most ``_STRIPE`` elements (0.125 MB)
in two reused buffers, and each stripe is applied to the tables of every
k of the block while it is in cache. A stripe holds rows [s, s + n) and
columns [s, L]; its leading n x n block is weighted 0 below the diagonal
and 1/2 on it. The tables are built once per block for every offset of
the call, and take O(_BLOCK L) memory whatever the number of k. Beyond
L = 16383 (L + 1 = _STRIPE) a stripe is one row. The sums agree with a
``math.fsum`` loop over ``dyadic_term`` to 1e-12 (tests/test_direct_sum.py).
"""

from __future__ import annotations

import numpy as np

# elements per stripe of the triangle
_STRIPE = 1 << 14

# k per pass over the triangle: bounds the tables' memory, untuned (README)
_BLOCK = 16


def _stripes(L):
    """(first row, rows) of each stripe of the triangle ly >= lx >= 0."""
    stripes, s = [], 0
    while s <= L:
        width = L + 1 - s
        n = min(width, max(1, _STRIPE // width))
        stripes.append((s, n))
        s += n
    return stripes


def window_sums(kxy, L, offsets):
    """Six independent dyadic sums over the window at every k and offset.

    ``kxy`` is a (K, 2) float array of (kx a, ky a), ``L`` the half-width
    and ``offsets`` one plane offset c in units of a, giving shape (6, K),
    or a 1-D sequence of S of them, giving (6, S, K); c = 0 excludes the
    origin term. Rows are (xx, yy, zz, xy, xz, yz) with the phase factor
    exp(i (qx lx + qy ly)) applied termwise; xx, yy, zz and xy come back
    with imaginary part 0, xz and yz with real part 0.
    """
    cs = np.reshape(offsets, -1).tolist()
    l = np.arange(L + 1, dtype=float)
    l2 = l * l
    m = np.full(L + 1, 2.0)
    m[0] = 1.0

    stripes = _stripes(L)
    size = max(n * (L + 1 - s) for s, n in stripes)
    r2_buf, R_buf = np.empty(size), np.empty(size)
    # weights of a stripe's leading block: 0 below the diagonal, 1/2 on it
    n_max = max(n for _, n in stripes)
    diag = np.triu(np.ones((n_max, n_max)))
    np.fill_diagonal(diag, 0.5)

    out = np.zeros((6, len(cs), len(kxy)), dtype=complex)
    for k0 in range(0, len(kxy), _BLOCK):
        block = kxy[k0 : k0 + _BLOCK]
        ks = slice(k0, k0 + len(block))
        T = np.empty((len(block), L + 1, 6))
        for axis in (0, 1):
            ql = block[:, axis, None] * l
            cos = m * np.cos(ql)
            T[:, :, 3 * axis] = cos
            T[:, :, 3 * axis + 1] = cos * l2
            T[:, :, 3 * axis + 2] = m * np.sin(ql) * l
        W = np.empty_like(T)
        for j, c in enumerate(cs):
            ly2c2 = l2 + c * c
            for s, n in stripes:
                width = L + 1 - s
                r2s = r2_buf[: n * width].reshape(n, width)
                Rs = R_buf[: n * width].reshape(n, width)
                np.add(l2[s : s + n, None], ly2c2[s:], out=r2s)
                if c == 0.0 and s == 0:
                    r2s[0, 0] = np.inf  # 1/r^5 becomes 0: no self-interaction
                np.sqrt(r2s, out=Rs)
                Rs *= r2s
                Rs *= r2s
                np.divide(1.0, Rs, out=Rs)
                Rs[:, :n] *= diag[:n, :n]
                # OpenBLAS touches work buffers on first use: a direct-window
                # CLI run (L = 1000) peaks 0.3 MB higher in VmHWM, and 0.1 to
                # 0.3 MB more for the product stacked over a block of k
                np.matmul(Rs, T[:, s:], out=W[:, s : s + n])
            M = np.matmul(T.transpose(0, 2, 1), W)
            G = M[:, :3, 3:] + M[:, 3:, :3].transpose(0, 2, 1)
            # P = sum lx^2 C/r^5, Q = sum ly^2 C/r^5, S = sum c^2 C/r^5 over
            # the cos/cos products C
            P, Q, S = G[:, 1, 0], G[:, 0, 1], c * c * G[:, 0, 0]
            out.real[:4, j, ks] = (
                Q + S - 2 * P, P + S - 2 * Q, P + Q - 2 * S, 3 * G[:, 2, 2]
            )
            out.imag[4:, j, ks] = -3.0 * c * G[:, 2, 0], -3.0 * c * G[:, 0, 2]
    return out.reshape((6,) + np.shape(offsets) + (len(kxy),))

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

R is separable as a sum of Gaussians (G. Beylkin and L. Monzon, Appl.
Comput. Harmon. Anal. 28, 131 (2010)). The trapezoid rule with step h on
r^-5 = Gamma(5/2)^-1 int exp(5 s/2 - r^2 e^s) ds, at s_j = j h spanning
[-ln(2 L^2 + c^2) - 15, 4 - ln r2_min] (r2_min = c^2, or 1 at c = 0), gives
R = sum_j w_j exp(-t_j lx^2) exp(-t_j ly^2) with t_j = e^(s_j) and
w_j = h exp(5 s_j/2 - t_j c^2) / Gamma(5/2), one exponent that neither
over- nor underflows at large c. Over the window's r^2 its relative error
is 7.9e-17 from aliasing at h = 7/32 (2 |Gamma(5/2 - 2 pi i / h)| /
Gamma(5/2)), 2.0e-17 and 1e-20 from the nodes below and above the span,
and 5.6e-19 from Gaussians past t l^2 = 50, set to exactly 0 to keep
``np.exp`` off its slow underflow path; h and 5 s_j/2 are exact in binary,
and with roundoff the sum is within 4e-15 of mpmath. At c = 0 the origin's
term is finite and reaches only G[0, 0], which is multiplied by c^2 = 0.

With each k's tables (cos, cos l^2 and sin l, along x and then y) as the
rows of a (6, L + 1) array T and E = exp(-t l^2), U = T E^T gives
G = U_x diag(w) U_y^T: O(M L) per k for M nodes (about 150 at L = 1000),
where R has O(L^2) terms. Offsets go in blocks of ``_C_BLOCK`` on one lattice
of nodes, k in blocks of ``_BLOCK`` and l in blocks of ``_L_BLOCK``, whose
tables and Gaussians serve all the offsets of a block, leaving out the nodes
whose Gaussians are 0 over the whole block. ``np.matmul`` runs each block's
product as one per k and offset, of the same shape whatever the neighbours,
so each k's and offset's sums are bitwise those of a call with it alone,
and memory is bounded whatever L and the number of k and offsets. The sums
agree with a ``math.fsum`` loop over single dyadic terms to 1e-12 (tests).

The closed sums, which the Ewald kernel's near planes take at half-width 8,
sum each node over the whole lattice, the lattice sum itself at every k: a
node with Gaussians left past the window takes its tables from Poisson
summation (:func:`_poisson`), so L only chooses which nodes run in real
space, and each k's nodes start at its own floor (:func:`_floors`).
"""

from __future__ import annotations

import math

import numpy as np

# trapezoid step in s = ln t, the t l^2 past which Gaussians are 0, and
# the e^-_TAIL below which a closed sum's floor and Poisson shells leave terms out
_H = 7 / 32
_FAR = 50.0
_TAIL = 40.0

# k, offsets and l per block: they bound the memory (README)
_BLOCK = 64
_C_BLOCK = 16
_L_BLOCK = 256


def _nodes(L, cs, floor=None):
    """Ascending nodes t on the lattice s_j = j h spanning every offset in ``cs``,
    from index ``floor`` or, without one, from the half-width L window's own
    lower end, and per offset the slice of its own nodes and their weights."""
    spans = []
    for c in cs:
        ln_c2 = 2.0 * math.log(c) if c else -math.inf
        lo = floor if floor is not None else math.ceil(
            (-np.logaddexp(math.log(2.0 * L * L), ln_c2) - 15.0) / _H)
        spans.append((lo, math.floor((4.0 - (ln_c2 if c else 0.0)) / _H)))
    first = min(lo for lo, _ in spans)
    s = np.arange(first, max(hi for _, hi in spans) + 1) * _H
    t = np.exp(s)
    own = [slice(lo - first, max(lo, hi + 1) - first) for lo, hi in spans]
    w = [_H / math.gamma(2.5) * np.exp(2.5 * s[o] - t[o] * (c * c)) for o, c in zip(own, cs)]
    return t, own, w


def _floors(kxy):
    """Per k in the zone, the index of its lowest node in a closed sum:
    s = max(-80, ln(|k|^2 / 4 _TAIL)), below which each node's sum, led by
    t^(1/2) e^(-|k|^2/4t), is under e^-_TAIL, rounded down to a multiple of
    32 nodes, about what one more block costs, so that k of nearby |k| share
    blocks. Unrounded the highest floor in the zone is t = 0.14, so at every
    half-width L <= 17 Poisson summation takes the floor nodes and the
    rounding adds no l rows."""
    k2 = np.maximum(np.sum(kxy * kxy, axis=1) / (4.0 * _TAIL), math.exp(-80.0))
    return (np.ceil(np.log(k2) / _H) // 32 * 32).astype(int)


def _gaussians(t, l2):
    """exp(-t l^2) for ascending nodes t (rows) and ascending squares l2
    (columns), exactly 0 past t l^2 = _FAR, which only the rows from the
    first one to pass it within l2 reach."""
    E = -t[:, None] * l2
    part = E[np.count_nonzero(t * l2[-1] <= _FAR) :]
    far = part < -_FAR
    np.exp(np.maximum(E, -_FAR, out=E), out=E)
    part[far] = 0.0
    return E


def _poisson(q, t, cap=None):
    """The window's U at nodes t over the whole lattice, (B, 6, len(t)): half
    of sum_l e^(-t l^2) (cos q l, l^2 cos q l, l sin q l) per k and axis, by
    Poisson summation, sqrt(pi/t) sum_n e^(-w^2/4t) (1, 1/2t - w^2/4t^2, w/2t)
    over w = q + 2 pi n, |n| <= n(t), the least n with ((2n + 1) pi)^2 >=
    4 _TAIL t: for q in [-pi, pi] every term left out is below e^-_TAIL. A
    ``cap`` cuts n(t) to at most ``cap``. The terms are added in the fixed
    order n = 0, -1, 1, -2, ..., each exactly 0 past w^2/4t = _FAR, so each
    node's sums do not depend on its neighbours."""
    if not len(t):
        return np.zeros((len(q), 6, 0))
    n_t = np.maximum(np.ceil((np.sqrt(4.0 * _TAIL * t) / math.pi - 1.0) / 2.0), 0.0)
    if cap is not None:
        n_t = np.minimum(n_t, cap)
    sums = np.zeros((3,) + q.shape + t.shape)
    for n in sorted(range(-int(n_t[-1]), int(n_t[-1]) + 1), key=abs):
        # n(t) ascends with t: the nodes that take this n are the last ones
        j = np.searchsorted(n_t, abs(n))
        tj = t[j:]
        w = (q + 2.0 * math.pi * n)[..., None]
        x = w * w / (4.0 * tj)
        e = np.exp(-np.minimum(x, _FAR))
        e[x > _FAR] = 0.0
        sums[..., j:] += (e, (0.5 - x) / tj * e, w / (2.0 * tj) * e)
    sums *= 0.5 * np.sqrt(math.pi / t)
    return sums.transpose(1, 2, 0, 3).reshape(len(q), 6, len(t))


def window_sums(kxy, L, offsets, closed=False, cap=None):
    """Six independent dyadic sums over the window at every k and offset.

    ``kxy`` is a (K, 2) float array of (kx a, ky a), ``L`` the half-width
    and ``offsets`` one plane offset c in units of a, giving shape (6, K),
    or a 1-D sequence of S of them, giving (6, S, K); c = 0 excludes the
    origin term. Rows are (xx, yy, zz, xy, xz, yz) with the phase factor
    exp(i (qx lx + qy ly)) applied termwise; xx, yy, zz and xy come back
    with imaginary part 0, xz and yz with real part 0. ``closed`` sums the
    whole lattice instead, for k in the zone (|kx|, |ky| <= pi): nodes from
    each k's floor, those with t (L + 1)^2 < _FAR by :func:`_poisson`, whose
    shells a ``cap`` cuts.
    """
    cs = np.reshape(offsets, -1).tolist()
    out = np.zeros((6, len(cs), len(kxy)), dtype=complex)
    # a closed sum's nodes start at each k's floor: k of one floor share blocks
    floors, group = np.unique(_floors(kxy), return_inverse=True) if closed else (
        [None], np.zeros(len(kxy), dtype=int))
    for c0 in range(0, len(cs), _C_BLOCK):
        chunk = cs[c0 : c0 + _C_BLOCK]
        for g, floor in enumerate(floors):
            t, own, weights = _nodes(L, chunk, floor)
            wide = np.count_nonzero(t * (L + 1) ** 2 < _FAR) if closed else 0
            # l runs to the last l where the widest real-space node has a Gaussian left
            stop = min(L + 1, int(math.sqrt(_FAR / t[wide])) + 1) if wide < len(t) else 0
            members = np.flatnonzero(group == g)
            for k0 in range(0, len(members), _BLOCK):
                ks = members[k0 : k0 + _BLOCK]
                block = kxy[ks]
                # only a closed sum has wide nodes, and its offsets share one
                # floor (o.start = 0): each U holds them first
                poisson = _poisson(block, t[:wide], cap)
                Us = [np.zeros((len(block), 6, o.stop - o.start)) for o in own]
                for U, o in zip(Us, own):
                    U[:, :, :wide] = poisson[:, :, o]
                for l0 in range(0, stop, _L_BLOCK):
                    l = np.arange(l0, min(l0 + _L_BLOCK, stop), dtype=float)
                    l2 = l * l
                    ql = block[:, :, None] * l
                    cos = np.cos(ql)
                    T = np.stack([cos, cos * l2, np.sin(ql) * l], 2).reshape(len(block), 6, -1)
                    # t ascends: the nodes with a Gaussian left in the block come first
                    E = _gaussians(t[wide : np.count_nonzero(t * l0 * l0 <= _FAR)], l2)
                    E[:, l == 0] = 0.5  # the multiplicity m(0) = 1, halved
                    for U, o in zip(Us, own):
                        e = E[o.start : max(o.stop - wide, 0)]
                        U[:, :, wide : wide + len(e)] += np.matmul(T, e.T)
                for j, (c, U, w) in enumerate(zip(chunk, Us, weights), c0):
                    # E carries m(l) / 2 on each axis, so G = 4 U_x diag(w) U_y^T
                    G = 4.0 * np.matmul(U[:, :3] * w, U[:, 3:].transpose(0, 2, 1))
                    # P = sum lx^2 C/r^5, Q = sum ly^2 C/r^5, S = sum c^2 C/r^5
                    # over the cos/cos products C
                    P, Q, S = G[:, 1, 0], G[:, 0, 1], c * c * G[:, 0, 0]
                    out.real[:4, j, ks] = (
                        Q + S - 2 * P, P + S - 2 * Q, P + Q - 2 * S, 3 * G[:, 2, 2]
                    )
                    out.imag[4:, j, ks] = -3.0 * c * G[:, 2, 0], -3.0 * c * G[:, 0, 2]
    return out.reshape((6,) + np.shape(offsets) + (len(kxy),))

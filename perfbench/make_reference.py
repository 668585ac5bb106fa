"""Write perfbench/reference.npz, the values behind max_err_j0.

The reference takes a route independent of the package defaults it checks:

- in-plane tensors: the package's Bessel series for S_x, S_y, but through
  SciPy's ``k0e``/``k1e``, with the orders raised until successive values
  move by less than ``TOL``; a series column whose Bessel argument is
  exactly 0 (the lattice axes) is summed in closed form,
  sum_l cos(q l) / l^2 = pi^2/6 - pi |q|/2 + q^2/4 for |q| <= pi;
- inter-plane tensors: the plane-wave series with its order raised the
  same way;
- k = 0: a window of half-width ``K0_CUTOFF`` (the CLI uses 500) summed
  here in NumPy, plus the analytic exterior-tail integral.

Only xx and zz are stored: every CSV value is a contraction with the
dipole (sin t, 0, cos t), which has no y component, and the imaginary xz
part cancels against its conjugate, so J = sin^2 t xx + cos^2 t zz.

Run from the repository root (takes about ten seconds):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy.special import k0e, k1e

import workloads as wl

TOL = 1e-12
K0_CUTOFF = 4000
OUT = Path(__file__).with_name("reference.npz")


def _intra_axis(q_par, q_perp, l, n):
    """S_x-type series (8/3) sum cos(q_par l)/l^2 [(lam^2/2) K0 + lam K1]."""
    w = math.pi * n + 0.5 * q_perp
    lam = 2.0 * l * np.abs(w)
    safe = np.where(lam > 0, lam, 1.0)
    f = (0.5 * safe * safe * k0e(safe) + safe * k1e(safe)) * np.exp(-safe)
    terms = (8.0 / 3.0) * np.cos(q_par * l) / (l * l) * f
    total = float(np.sum(np.where(lam > 0, terms, 0.0)))
    if np.any(w == 0.0):
        q = abs(math.remainder(q_par, 2.0 * math.pi))
        total += (8.0 / 3.0) * (math.pi**2 / 6.0 - math.pi * q / 2.0 + q * q / 4.0)
    return total


def _intra_terms(kx, ky, l_max, n_max):
    l = np.arange(1, l_max + 1, dtype=float)[:, None]
    n = np.arange(-n_max, n_max + 1, dtype=float)[None, :]
    sx = _intra_axis(kx, ky, l, n)
    sy = _intra_axis(ky, kx, l, n)
    return np.array([-2.0 * sx + sy, sx + sy])


def intra(kx, ky):
    """(xx, zz) of the in-plane tensor at k != 0."""
    l_max, n_max = 30, 6
    prev = _intra_terms(kx, ky, l_max, n_max)
    while True:
        l_max, n_max = 2 * l_max, n_max + 4
        cur = _intra_terms(kx, ky, l_max, n_max)
        if np.max(np.abs(cur - prev)) < TOL:
            return cur
        prev = cur


def _inter_terms(kx, ky, b, n_max):
    n = np.arange(-n_max, n_max + 1, dtype=float)
    u = (math.pi * n + 0.5 * kx)[:, None]
    v = (math.pi * n + 0.5 * ky)[None, :]
    g = np.hypot(u, v)
    beta = 2.0 * b
    e = np.exp(-beta * g)
    s = np.sum((1.0 + beta * g) * e)
    fxx = -0.25 * beta**2 * np.sum((1.0 - beta * u * u / g) * e)
    fyy = -0.25 * beta**2 * np.sum((1.0 - beta * v * v / g) * e)
    pref = 2.0 * math.pi / (3.0 * b**3)
    return pref * np.array(
        [2.0 * fxx - fyy + b * b * s, -fxx - fyy - 2.0 * b * b * s]
    )


def inter(kx, ky, b):
    """(xx, zz) of the tensor to the plane b away, k off the reciprocal
    lattice."""
    n_max = 6
    prev = _inter_terms(kx, ky, b, n_max)
    while True:
        n_max *= 2
        cur = _inter_terms(kx, ky, b, n_max)
        if np.max(np.abs(cur - prev)) < TOL:
            return cur
        prev = cur


def window_k0(cutoff, c):
    """(xx, zz) at k = 0: window lx, ly in [-L, L] at offset c,
    plus the exterior integral of the dyadic beyond half-width L + 1/2."""
    ly = np.arange(-cutoff, cutoff + 1, dtype=float)
    rows = np.zeros((2 * cutoff + 1, 2))
    for i, lx in enumerate(range(-cutoff, cutoff + 1)):
        r2 = lx * lx + ly * ly + c * c
        with np.errstate(divide="ignore"):
            ir5 = r2**-2.5
        if c == 0.0 and lx == 0:
            ir5[cutoff] = 0.0
        ir3 = r2 * ir5
        rows[i] = (
            np.sum(ir3 - 3.0 * lx * lx * ir5),
            np.sum(ir3 - 3.0 * c * c * ir5),
        )
    xx, zz = np.sum(rows, axis=0)
    m = cutoff + 0.5
    if c == 0.0:
        a = 4.0 * math.sqrt(2.0) / m
        txx, tzz = -0.5 * a, a
    else:
        v0 = math.sqrt(2.0 * m * m + c * c)
        at = math.atan(c / v0)
        a = 8.0 * at / c
        bb = (8.0 / 3.0) * (
            1.0 / (c * c * v0) + at / c**3 - 2.0 * v0 / (c * c * (v0 * v0 + c * c))
        )
        txx = -0.5 * a + 1.5 * c * c * bb
        tzz = a - 3.0 * c * c * bb
    return np.array([xx + txx, zz + tzz])


def stack_grid():
    """[p + h, q + h, separation, (xx, zz)] on the full grid, h = side/2."""
    side = wl.GRID_SIDE["full"]
    half = side // 2
    step = 2.0 * math.pi / side
    n_planes = wl.STACK_PLANES["full"]
    out = np.zeros((side + 1, side + 1, n_planes, 2))
    for p in range(-half, half + 1):
        for q in range(-half, half + 1):
            kx, ky = step * p, step * q
            for sep in range(n_planes):
                if p == 0 and q == 0:
                    val = window_k0(K0_CUTOFF, sep * wl.STACK_B)
                elif sep == 0:
                    val = intra(kx, ky)
                else:
                    val = inter(kx, ky, sep * wl.STACK_B)
                out[p + half, q + half, sep] = val
    return out


def sweep_phi():
    """[ka candidate, phi index, (xx, zz)] at b = SWEEP_B."""
    n_phi = wl.PHI_POINTS["full"]
    out = np.zeros((len(wl.KA_CANDIDATES), n_phi, 2))
    for a, ka in enumerate(wl.KA_CANDIDATES):
        for i in range(n_phi):
            phi = 2.0 * math.pi * i / n_phi
            out[a, i] = inter(ka * math.cos(phi), ka * math.sin(phi), wl.SWEEP_B)
    return out


def direct_window():
    """[mirror, ka index, (in-plane, inter-plane), (xx, zz)]."""
    out = np.zeros((len(wl.MIRRORS), len(wl.DIRECT_KA), 2, 2))
    for m in range(len(wl.MIRRORS)):
        phi, _theta = wl.direct_direction(m)
        for j, ka in enumerate(wl.DIRECT_KA):
            kx, ky = ka * math.cos(phi), ka * math.sin(phi)
            out[m, j, 0] = intra(kx, ky)
            out[m, j, 1] = inter(kx, ky, wl.DIRECT_B)
    return out


def main() -> int:
    coarse = window_k0(K0_CUTOFF // 2, 0.0)
    fine = window_k0(K0_CUTOFF, 0.0)
    print(f"k = 0 window, L = {K0_CUTOFF // 2} vs {K0_CUTOFF}: "
          f"{np.max(np.abs(coarse - fine)):.2e}")
    np.savez(
        OUT,
        stack_grid=stack_grid(),
        sweep_phi=sweep_phi(),
        direct_window=direct_window(),
    )
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

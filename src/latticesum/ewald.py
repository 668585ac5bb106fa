"""Exponentially convergent evaluation of the dyadic lattice sums.

The slowly convergent Fourier sums over lattice sites are traded for sums
over the reciprocal window (n, m): between planes every term carries
exp(-2 (b/a) Gamma_nm) with Gamma_nm = |(pi n + kxa/2, pi m + kya/2)|, so
a handful of terms replace millions of direct-sum terms; in the plane the
corresponding series runs over one real-space direction and a reciprocal
one, with modified Bessel factors K0, K1 providing the exponential decay.

The full tensor between planes comes from applying the derivative
operators to the scalar series term by term: with beta = 2 b/a,
u = pi n + kxa/2, v = pi m + kya/2, Gamma = |(u, v)| and
f = (1 + beta Gamma) exp(-beta Gamma),

    df/d(kxa)    = -(beta^2/2) u exp(-beta Gamma)
    d2f/d(kxa)^2 = -(beta^2/4) (1 - beta u^2 / Gamma) exp(-beta Gamma)
    d2f/dkx dky  =  (beta^3/4) (u v / Gamma) exp(-beta Gamma)

All derivatives were cross-validated against finite differences and the
assembled tensors against the brute-force window sums.

Each series has one NumPy kernel that evaluates a block of k points at
once: :func:`intra_series` for the in-plane sums and :func:`inter_series`
for the inter-plane sum and its derivatives. The ``*_tensors`` functions
assemble checked (K, 3, 3) stacks from them, and the single-k functions
(``d_intra_ewald``, ``s_inter_series``, ...) are slices of those.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import CouplingTensor, WaveVector, k_array, tensors_from_components
from .specfun import bessel_k

__all__ = [
    "EwaldConfig",
    "inter_series",
    "inter_tensors",
    "s_inter_series",
    "s_inter_partials",
    "d_inter_ewald",
    "inter_longwave_tensors",
    "d_inter_longwave",
    "intra_series",
    "intra_tensors",
    "s_intra_axis",
    "d_xy_intra",
    "d_intra_ewald",
    "f_constant",
]

# Bessel/exp arguments beyond this cannot contribute at double precision.
_ARG_CUTOFF = 700.0

# Below this the K_n products are replaced by their x -> 0 limits
# (x K1 -> 1, x^2 K0 -> 0); the switch error is O(x^2 log x) ~ 1e-11.
_LAM_EPS = 1e-6

# k points per kernel call. It bounds the in-plane work arrays, of shape
# (2, _BLOCK, l_max, 2 n_max + 1), to about 200 kB each at the default
# orders, so peak memory does not grow with the number of k.
_BLOCK = 32


@dataclass(frozen=True)
class EwaldConfig:
    """Truncation orders for the reciprocal and mixed series.

    Defaults keep every omitted term below ~1e-12 of the leading one for
    b >= a and ka <= pi.
    """

    n_max: int = 6
    l_max: int = 30
    bessel_n_max: int = 8

    def __post_init__(self):
        if self.n_max < 1 or self.l_max < 1 or self.bessel_n_max < 1:
            raise ValueError("all truncation orders must be >= 1")


def _by_block(kernel, ks, *args) -> list[np.ndarray]:
    """Run ``kernel`` on blocks of at most _BLOCK wave vectors.

    The kernel takes a (B, 2) array of (kxa, kya) and returns arrays whose
    last axis runs over the block; they are joined along that axis.
    """
    kxy = k_array(ks)
    parts = [
        kernel(kxy[i : i + _BLOCK], *args)
        for i in range(0, max(len(kxy), 1), _BLOCK)
    ]
    return [np.concatenate(arrays, axis=-1) for arrays in zip(*parts)]


def _check_spacing(b_over_a: float) -> None:
    if not b_over_a > 0:
        raise ValueError(f"b_over_a must be positive, got {b_over_a}")


def _inter_block(kxy: np.ndarray, beta: float, n_max: int):
    n = np.arange(-n_max, n_max + 1, dtype=float)
    u = (math.pi * n + 0.5 * kxy[:, 0, None])[:, :, None]  # (B, N, 1)
    v = (math.pi * n + 0.5 * kxy[:, 1, None])[:, None, :]  # (B, 1, N)
    g = np.hypot(u, v)
    bg = beta * g
    e = np.where(bg <= _ARG_CUTOFF, np.exp(-bg), 0.0)
    on_lattice = g < 1e-12
    g = np.where(on_lattice, 1.0, g)  # those terms only feed rows rejected later
    # constant factors pulled out of the sums:
    #   first derivative  -(beta^2/2) sum u e
    #   second derivative -(beta^2/4) sum (1 - beta u^2/g) e
    #   mixed derivative   (beta^3/4) sum (u v / g) e
    rows = np.stack(
        [
            np.sum((1.0 + bg) * e, axis=(1, 2)),
            -0.5 * beta * beta * np.sum(u * e, axis=(1, 2)),
            -0.5 * beta * beta * np.sum(v * e, axis=(1, 2)),
            -0.25 * beta * beta * np.sum((1.0 - beta * u * u / g) * e, axis=(1, 2)),
            -0.25 * beta * beta * np.sum((1.0 - beta * v * v / g) * e, axis=(1, 2)),
            0.25 * beta**3 * np.sum((u * v / g) * e, axis=(1, 2)),
        ]
    )
    return rows, np.any(on_lattice, axis=(1, 2))


def inter_series(
    ks, b_over_a: float, cfg: EwaldConfig = EwaldConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """The scalar series and its term-wise k-derivatives at every k of ``ks``.

    Returns a (6, K) array with rows (St, dSt/dkxa, dSt/dkya,
    d2St/dkxa^2, d2St/dkya^2, d2St/dkxa dkya), and a (K,) mask of the k
    that sit on a reciprocal-lattice point (including k = 0). St is
    defined everywhere; the derivative rows are meaningless where the mask
    is set, because the series is non-analytic there.
    """
    _check_spacing(b_over_a)
    return tuple(_by_block(_inter_block, ks, 2.0 * b_over_a, cfg.n_max))


def _require_off_lattice(on_lattice: np.ndarray) -> None:
    if np.any(on_lattice):
        raise ValueError(
            "k sits on a reciprocal-lattice point (this includes ka = 0); "
            "the series derivatives are non-analytic there, use the direct "
            "sum for that single point"
        )


def s_inter_series(k: WaveVector, b_over_a: float, cfg: EwaldConfig = EwaldConfig()) -> float:
    """Dimensionless scalar series St(k) = sum (1 + beta Gamma) exp(-beta Gamma).

    Normalization: St = (3 a^2 b^3 / 2 pi) * S. Well defined for every k
    including k = 0, where the (0,0) term contributes exactly 1.
    """
    rows, _on_lattice = inter_series([k], b_over_a, cfg)
    return float(rows[0, 0])


def s_inter_partials(
    k: WaveVector, b_over_a: float, cfg: EwaldConfig = EwaldConfig()
) -> tuple[float, float, float]:
    """(St, dSt/d kxa, d2St/d kxa^2), all evaluated term-analytically."""
    rows, on_lattice = inter_series([k], b_over_a, cfg)
    _require_off_lattice(on_lattice)
    return float(rows[0, 0]), float(rows[1, 0]), float(rows[3, 0])


def inter_tensors(ks, b_over_a: float, cfg: EwaldConfig = EwaldConfig()) -> np.ndarray:
    """Inter-plane tensors at every k of ``ks`` as a checked (K, 3, 3) stack.

    Assembled from the term-wise derivatives of the scalar series; every k
    must lie off the reciprocal lattice.
    """
    (sf, fx, fy, fxx, fyy, fxy), on_lattice = inter_series(ks, b_over_a, cfg)
    _require_off_lattice(on_lattice)
    rho = b_over_a
    pref = 2.0 * math.pi / (3.0 * rho**3)
    rho2 = rho * rho
    return tensors_from_components(
        pref * (2.0 * fxx - fyy + rho2 * sf),
        pref * (2.0 * fyy - fxx + rho2 * sf),
        pref * (-fxx - fyy - 2.0 * rho2 * sf),
        3.0 * pref * fxy,
        1j * (2.0 * math.pi / rho2) * fx,
        1j * (2.0 * math.pi / rho2) * fy,
    )


def d_inter_ewald(
    k: WaveVector, b_over_a: float, cfg: EwaldConfig = EwaldConfig()
) -> CouplingTensor:
    """Full inter-plane tensor from term-wise derivatives of the series."""
    return CouplingTensor(inter_tensors([k], b_over_a, cfg)[0])


def inter_longwave_tensors(ks, b_over_a: float) -> np.ndarray:
    """Closed-form ka << 1 tensors at every k of ``ks``, a checked (K, 3, 3) stack.

    Only the (0,0) reciprocal term survives:
    Dt_xx = 2 pi (kxa)^2/(ka) e^{-kb},  Dt_zz = -2 pi (ka) e^{-kb},
    Dt_xz = -2 pi i (kxa) e^{-kb}, and the obvious y-partners. Rejected at
    ka = 0, where the limit depends on the approach direction.
    """
    _check_spacing(b_over_a)
    kx, ky = k_array(ks).T
    q = np.hypot(kx, ky)
    if np.any(q == 0.0):
        raise ValueError(
            "ka = 0 is a non-analytic point (the limit depends on direction); "
            "use the direct sum there"
        )
    two_pi_e = 2.0 * math.pi * np.exp(-q * b_over_a)
    return tensors_from_components(
        two_pi_e * kx * kx / q,
        two_pi_e * ky * ky / q,
        -two_pi_e * q,
        two_pi_e * kx * ky / q,
        -1j * two_pi_e * kx,
        -1j * two_pi_e * ky,
    )


def d_inter_longwave(k: WaveVector, b_over_a: float) -> CouplingTensor:
    """Closed-form ka << 1 tensor at one k; see :func:`inter_longwave_tensors`."""
    return CouplingTensor(inter_longwave_tensors([k], b_over_a)[0])


def _intra_block(kxy: np.ndarray, cfg: EwaldConfig):
    l = np.arange(1, cfg.l_max + 1, dtype=float)[:, None]  # (L, 1)
    n = np.arange(-cfg.n_max, cfg.n_max + 1, dtype=float)  # (N,)
    # leading axis: S_x (q_par = kxa, q_perp = kya), then S_y (swapped)
    q = np.stack([kxy, kxy[:, ::-1]])  # (2, B, 2)
    w = math.pi * n + 0.5 * q[:, :, 1, None, None]  # (2, B, 1, N)
    lam = 2.0 * l * np.abs(w)  # (2, B, L, N)
    mid = (lam >= _LAM_EPS) & (lam <= _ARG_CUTOFF)
    x = lam[mid]
    lam_k1 = (lam < _LAM_EPS).astype(float)  # lam K1(lam) -> 1 as lam -> 0
    lam_k1[mid] = x * bessel_k(1, x)
    lam2_k0 = np.zeros_like(lam)  # lam^2 K0(lam) -> 0 as lam -> 0
    lam2_k0[mid] = x * x * bessel_k(0, x)
    cl = (8.0 / 3.0) * np.cos(q[:, :, 0, None, None] * l) / (l * l)
    s = np.sum(cl * (0.5 * lam2_k0 + lam_k1), axis=(2, 3))
    sl = 4.0 * np.sin(kxy[:, 0, None, None] * l) / (l * l)
    # lam^2 K1(lam) carries the sign of w; +-n pairs cancel at kya = 0
    xy = np.sum(sl * np.copysign(lam[0] * lam_k1[0], w[0]), axis=(1, 2))
    return s[0], s[1], xy


def intra_series(ks, cfg: EwaldConfig = EwaldConfig()) -> np.ndarray:
    """In-plane series (S_x, S_y, Dt_xy) at every k of ``ks``, as a (3, K) array.

    S_x = (8/3) sum_{l>=1} sum_{|n|<=n_max} cos(kxa l) / l^2
          * [ (Lam^2/2) K0(Lam) + Lam K1(Lam) ],   Lam = 2 l |pi n + kya/2|,

    and S_y with the roles of kxa and kya swapped. Dt_xy, real by
    construction, sums 4 sign(w) (Lam^2/l^2) sin(kxa l) K1(Lam) with
    w = pi n + kya/2 over the same terms as S_x: the derivation produces
    an odd power of w, so its sign is carried explicitly while K1 only
    ever sees a positive argument.

    Convergence in l is exponential as long as the transverse component
    stays away from multiples of 2 pi; at k -> 0 the n = 0 column degrades
    to the bare (8/3) cos(kxa l)/l^2 sum and the truncation error grows to
    O(1/l_max), so limits taken literally at k = 0 need a raised l_max.
    """
    return np.stack(_by_block(_intra_block, ks, cfg))


def intra_tensors(ks, cfg: EwaldConfig = EwaldConfig()) -> np.ndarray:
    """In-plane tensors at every k of ``ks`` as a checked (K, 3, 3) stack.

    Dt_xx = -2 S_x + S_y, Dt_yy = -2 S_y + S_x, Dt_zz = S_x + S_y, so the
    trace vanishes identically; xz and yz are zero in the plane.
    """
    sx, sy, xy = intra_series(ks, cfg)
    return tensors_from_components(
        -2.0 * sx + sy, -2.0 * sy + sx, sx + sy, xy, 0.0, 0.0
    )


def s_intra_axis(k: WaveVector, axis: str, cfg: EwaldConfig = EwaldConfig()) -> float:
    """In-plane scalar series S_x (axis="x") or S_y (axis="y") at one k."""
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return float(intra_series([k], cfg)[0 if axis == "x" else 1, 0])


def d_xy_intra(k: WaveVector, cfg: EwaldConfig = EwaldConfig()) -> float:
    """In-plane Dt_xy series at one k; see :func:`intra_series`."""
    return float(intra_series([k], cfg)[2, 0])


def d_intra_ewald(k: WaveVector, cfg: EwaldConfig = EwaldConfig()) -> CouplingTensor:
    """In-plane tensor at one k; see :func:`intra_tensors`."""
    return CouplingTensor(intra_tensors([k], cfg)[0])


@functools.lru_cache(maxsize=None)
def f_constant(cfg: EwaldConfig = EwaldConfig()) -> float:
    """Lattice constant F = 4 pi^2/9 + (32 pi^2/3) sum_{n,m>=1} n^2 K2(2 pi n m).

    Controls the k -> 0 in-plane tensor, diag(-F, -F, 2F); about 4.517,
    i.e. within half a percent of 9/2 (a nearest-neighbor-only sum would
    give exactly 4).
    """
    n = np.arange(1, cfg.bessel_n_max + 1, dtype=float)
    x = 2.0 * math.pi * n[:, None] * n[None, :]
    weight = np.broadcast_to(n[:, None] * n[:, None], x.shape)
    keep = x <= _ARG_CUTOFF
    terms = weight[keep] * bessel_k(2, x[keep])
    return 4.0 * math.pi**2 / 9.0 + 32.0 * math.pi**2 / 3.0 * float(np.sum(terms))

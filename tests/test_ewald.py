"""Ewald kernel and closed forms: plane-wave, real-space/Poisson switch and
window references, frozen values and symmetries."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latticesum import _core_py, ewald
from latticesum.direct_sum import window_tensors
from latticesum.dispersion import Direct, LongWave
from latticesum.ewald import f_constant, lattice_tensors
from latticesum.model import (
    make_k_grid,
    tensors_from_components,
)
from latticesum.specfun import bessel_k

from mpmath import mp, mpf, nint
from mpmath_oracle import ewald_components
from plane_wave_oracle import plane_wave_tensor

ORIGIN = (0.0, 0.0)
TWO_PI = 2.0 * math.pi

# the failing points of the fixed-order series this kernel replaced: the
# lattice axes, the zone centre and a reciprocal-lattice point
IN_PLANE_POINTS = [
    (0.8, 0.0), (0.0, -1.7), (0.2, 1.9), (0.05, 0.02), (1e-3, 0.0), (TWO_PI, TWO_PI),
]


def test_config_validation():
    # the plane offset is the kernel's only input besides k, and every
    # offset of a sequence is checked
    k = (0.5, 0.2)
    for bad in (-1e-12, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            lattice_tensors([k], bad)
        with pytest.raises(ValueError):
            lattice_tensors([k], [0.0, 1.5, bad])
    with pytest.raises(ValueError, match="1-D"):
        lattice_tensors([k], [[0.0, 1.5]])


def test_offset_sequence_shapes():
    ks = [(0.5, 0.2), (-0.2, 0.5)]
    assert lattice_tensors(ks, 1.5).shape == (2, 3, 3)
    assert lattice_tensors(ks, [1.5]).shape == (1, 2, 3, 3)
    assert lattice_tensors(ks, np.array([0.0, 1.5, 3.0])).shape == (3, 2, 3, 3)
    assert lattice_tensors(ks, []).shape == (0, 2, 3, 3)
    assert lattice_tensors([], (0.0, 1.5)).shape == (2, 0, 3, 3)


# (kx, ky, c): generic k at offsets down to MIN_OFFSET and up to 300, with
# |k| c near 1 on the far planes so that their entries are not far below
# the bound's floor of 1; the near planes up to the float below _FAR, where
# the closed Gaussian sum serves them; in the plane, an axis, |k| = 1e-8,
# the zone corner and a reciprocal-lattice point; and far outside the zone,
# in the plane and one spacing up
MPMATH_POINTS = [
    (0.8, 0.3, 1e-3), (0.8, 0.3, 0.01), (0.8, 0.3, 0.03),
    *((0.8, 0.3, c) for c in (0.5, np.nextafter(1.0, 0.0), 1.0, 1.5, np.nextafter(2.0, 0.0))),
    *((ka * math.cos(0.36), ka * math.sin(0.36), c)
      for ka, c in ((0.1, 10.0), (0.02, 50.0), (0.005, 300.0))),
    (0.8, 0.0, 0.0), (1e-8 * math.cos(0.6), 1e-8 * math.sin(0.6), 0.0),
    (math.pi, math.pi, 0.0), (TWO_PI, 0.0, 0.0),
    *((1.0000001 * ka, 0.3 * ka + 0.1, c) for ka in (1e3, 1e6, 1e9) for c in (0.0, 1.0)),
]


def _reduced(k):
    """k folded into the zone by mpmath at 60 digits, apart from the kernel's
    fold: the oracle sums an unfolded k out to |k| / 2 pi shells."""
    with mp.workdps(60):
        k = mpf(k)
        return k - 2 * mp.pi * nint(k / (2 * mp.pi))


@pytest.mark.parametrize("kx,ky,c", MPMATH_POINTS)
def test_kernel_matches_mpmath_split(kx, ky, c):
    # measured within 8.2e-16 of max(1, largest entry)
    want = np.array(ewald_components(_reduced(kx), _reduced(ky), c))
    t = lattice_tensors([(kx, ky)], c)[0]
    got = t[[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
    assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))


def test_scalar_series_frozen_values():
    # b = 10 a, k = 0: a uniform dipole sheet has no field outside it, up to
    # the e^{-2 pi b/a} images
    assert np.max(np.abs(lattice_tensors([ORIGIN], 10.0))) <= 1e-25
    # b = a, k = 0: the images the long-wave form drops (criterion 05)
    diag = lattice_tensors([ORIGIN], 1.0)[0].real.diagonal()
    want = [0.16373231415904563, 0.16373231415904563, -0.32746462831809153]
    assert diag == pytest.approx(want, rel=1e-12)
    t = lattice_tensors([(0.8, 0.3)], 0.0)[0]
    assert t[0, 0].real == pytest.approx(-0.3585670242621526, rel=1e-12)
    assert t[0, 1].real == pytest.approx(1.2337696066654136, rel=1e-12)
    t = lattice_tensors([(0.8, 0.3)], 1.0)[0]
    assert t[2, 2].real == pytest.approx(-2.6460881566980143, rel=1e-12)
    assert t[0, 2].imag == pytest.approx(-2.0422538122098532, rel=1e-12)


def test_series_truncation_settled(monkeypatch):
    # doubling the closed sum's window and its Poisson shells, with its
    # Gaussians taken to e^-100 so that the added terms are not 0, and the
    # plane waves' shells, moves nothing
    ks = [(0.7, -0.3), (math.pi, 0.0), (1e-3, 0.0), ORIGIN]
    offsets = (0.0, 0.05, 1.0, 10.0)
    default = [lattice_tensors(ks, c) for c in offsets]
    monkeypatch.setattr(ewald, "_HALF_WIDTH", 2 * ewald._HALF_WIDTH)
    monkeypatch.setattr(_core_py, "_TAIL", 4.0 * _core_py._TAIL)  # n(t) ~ sqrt(_TAIL)
    monkeypatch.setattr(_core_py, "_FAR", 2.0 * _core_py._FAR)
    monkeypatch.setattr(ewald, "_SHELLS", 8)
    for c, lo in zip(offsets, default):
        hi = lattice_tensors(ks, c)
        scale = np.max(np.abs(hi), axis=(1, 2), keepdims=True)
        assert np.max(np.abs(lo - hi) / np.maximum(scale, 1e-300)) <= 1e-13


def test_partials_match_series_and_finite_differences():
    # term by term, d/dkx D_xz - d/dky D_yz = i c (D_xx - D_yy) and
    # d/dky D_xz = d/dkx D_yz = i c D_xy, since D_xz carries -3 l_x c / r^5
    kx, ky, h = 0.9, 0.4, 1e-5
    ks = [(kx, ky), (kx + h, ky), (kx - h, ky), (kx, ky + h), (kx, ky - h)]
    for c in (0.3, 1.0):
        t, xp, xm, yp, ym = lattice_tensors(ks, c)
        dxz_dx = (xp[0, 2] - xm[0, 2]) / (2 * h)
        dyz_dy = (yp[1, 2] - ym[1, 2]) / (2 * h)
        dxz_dy = (yp[0, 2] - ym[0, 2]) / (2 * h)
        dyz_dx = (xp[1, 2] - xm[1, 2]) / (2 * h)
        scale = np.max(np.abs(t))
        assert abs(dxz_dx - dyz_dy - 1j * c * (t[0, 0] - t[1, 1])) <= 1e-7 * scale
        assert abs(dxz_dy - 1j * c * t[0, 1]) <= 1e-7 * scale
        assert abs(dyz_dx - 1j * c * t[0, 1]) <= 1e-7 * scale


def test_reciprocal_lattice_points_equal_zone_centre():
    # D is periodic in k, and every k is defined, in a batch too; at
    # subnormal |k|, where pi / |k| overflows, the kernel gives D(0)
    ks = [ORIGIN, (TWO_PI, 0.0), (-TWO_PI, 2.0 * TWO_PI),
          (3e-308, 0.0), (1e-310, 0.0), (5e-324, 5e-324)]
    for c in (0.0, 1.0, 1.5):
        origin, *lattice = lattice_tensors([(0.5, 0.2)] + ks, c)[1:]
        scale = np.max(np.abs(origin))
        for t in lattice:
            assert np.max(np.abs(t - origin)) <= 1e-15 * scale


@pytest.mark.parametrize("half_width", [1, 3, 8, 30])
def test_kernel_is_independent_of_the_poisson_switch(monkeypatch, half_width):
    # the real-space half-width L moves each Gaussian node between real space
    # (t (L + 1)^2 >= 50) and Poisson summation: any error in either half
    # makes the sum depend on L
    offsets = [0.0, 1e-3, 0.5, 1.5]
    want = lattice_tensors(IN_PLANE_POINTS, offsets)
    monkeypatch.setattr(ewald, "_HALF_WIDTH", half_width)
    got = lattice_tensors(IN_PLANE_POINTS, offsets)
    scale = np.max(np.abs(want), axis=(2, 3))
    assert np.all(np.max(np.abs(got - want), axis=(2, 3)) <= 1e-13 * scale)


@pytest.mark.parametrize("b", [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 2.5, 6.0, 14.0, 50.0, 300.0])
def test_kernel_matches_plane_wave_sum_between_planes(b):
    points = [(0.8, 0.3), (0.8, 0.0), (0.0, -1.7), (0.05, 0.02), (1e-3, 0.0),
              (0.0, 0.0), (TWO_PI, 0.0)]
    got = lattice_tensors(points, b)
    for (kx, ky), g in zip(points, got):
        want = plane_wave_tensor(kx, ky, b)
        assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))


FAR_POINTS = [(0.8, 0.3), (0.8, 0.0), (0.0, -1.7), (1e-3, 0.0), (1e-8, 0.0), (0.0, 0.0),
              (math.pi, math.pi), (TWO_PI, 0.0), (-2.9, 1.3)]


def test_far_planes_match_full_split(monkeypatch):
    # the plane-wave pass at c >= _FAR and the closed Gaussian sum that
    # serves the near planes give the same tensors there
    offsets = (2.0, 3.0, 6.0, 14.0)
    default = lattice_tensors(FAR_POINTS, offsets)
    monkeypatch.setattr(ewald, "_FAR", math.inf)
    closed = lattice_tensors(FAR_POINTS, offsets)
    scale = np.maximum(1.0, np.max(np.abs(closed), axis=(2, 3), keepdims=True))
    assert np.max(np.abs(default - closed) / scale) <= 1e-14


def test_no_jump_at_far_threshold():
    # just below _FAR the closed Gaussian sum, at _FAR the plane-wave pass
    below, at = lattice_tensors(FAR_POINTS, [np.nextafter(ewald._FAR, 0.0), ewald._FAR])
    scale = np.maximum(1.0, np.max(np.abs(at), axis=(1, 2), keepdims=True))
    assert np.max(np.abs(below - at) / scale) <= 1e-15


def test_kernel_matches_corrected_window_at_k0():
    # 1e-10 is the L = 2000 window's own residual after its tail correction
    window = Direct(cutoff=2000)
    intra = lattice_tensors([ORIGIN], 0.0)[0]
    assert np.max(np.abs(intra - window.tensors([ORIGIN], 0.0)[0])) <= 1e-10
    inter = lattice_tensors([ORIGIN], 1.0)[0]
    assert np.max(np.abs(inter - window.tensors([ORIGIN], 1.0)[0])) <= 1e-10


def test_longwave_closed_form_components():
    t = LongWave().tensors([(1e-3, 0.0)], 10.0)[0]
    e = 2.0 * math.pi * 1e-3 * math.exp(-0.01)
    assert t[0, 0].real == pytest.approx(e, rel=1e-15)
    assert t[1, 1] == 0.0
    assert t[2, 2].real == pytest.approx(-e, rel=1e-15)
    assert t[0, 2] == pytest.approx(-1j * e, rel=1e-15)


def test_longwave_matches_series_at_small_k():
    # the edges of the stated domain c >= 10, ka <= 1, on the axis, the
    # diagonal and a generic direction
    ks = [(ka * math.cos(phi), ka * math.sin(phi))
          for ka in (1e-3, 1.0) for phi in (0.0, math.pi / 4.0, 0.6)]
    for lw, ew in zip(LongWave().tensors(ks, 10.0), lattice_tensors(ks, 10.0)):
        assert np.max(np.abs(lw - ew)) <= 1e-10 * np.max(np.abs(ew))


def test_inter_series_matches_window():
    k = (1.3 * math.cos(0.6), 1.3 * math.sin(0.6))
    for b in (1.0, 2.0):
        kernel = lattice_tensors([k], b)[0]
        window = window_tensors([k], b, 300)[0]
        assert np.max(np.abs(kernel - window)) <= 1e-6


@settings(max_examples=15, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.5, 4.0))
def test_inter_conjugation_symmetry(kx, ky, b):
    assume(math.hypot(kx, ky) > 1e-3)
    plus, minus = lattice_tensors([(kx, ky), (-kx, -ky)], b)
    scale = max(1.0, float(np.max(np.abs(plus))))
    assert np.max(np.abs(minus - np.conj(plus))) <= 1e-12 * scale


def _images(kx, ky):
    """The eight images (k', s, p) of k under the lattice's mirrors and
    x <-> y swap, with D(k')_ij = s_i s_j D(k)_{p(i) p(j)}."""
    out = []
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            s = np.array([sx, sy, 1.0])
            out.append(((sx * kx, sy * ky), s, [0, 1, 2]))
            out.append(((sy * ky, sx * kx), s[[1, 0, 2]], [1, 0, 2]))
    return out


def test_intra_axis_swap_symmetry():
    # lattice_tensors sums one member of each orbit and restores the others
    # by sign flips and the swap: exactly so off the symmetry lines, and
    # within roundoff of summing every k on its own everywhere
    generic = [(0.8, 0.3), (-2.9, 1.3)]
    special = [(1.1, 0.0), (0.0, -1.7), (0.9, 0.9), (-0.6, 0.6), (math.pi, 0.4),
               (-math.pi, math.pi), (0.0, 0.0), (TWO_PI, 0.0)]
    for c, (kx, ky) in itertools.product((0.0, 1e-3, 1.5), generic + special):
        images = _images(kx, ky)
        ks = [k for k, _, _ in images]
        got = lattice_tensors(ks, c)
        unreduced = tensors_from_components(*ewald._lattice_sums(ks, c))
        scale = np.max(np.abs(unreduced), axis=(1, 2))
        assert np.all(np.max(np.abs(got - unreduced), axis=(1, 2)) <= 1e-14 * scale)
        for t, (_, s, p) in zip(got, images):
            want = np.outer(s, s) * got[0][np.ix_(p, p)]
            if (kx, ky) in generic:
                assert np.array_equal(t, want)
            else:
                assert np.max(np.abs(t - want)) <= 1e-14 * scale[0]


def _residuals(m):
    """Largest Hermitian residual and |trace| over a tensor stack."""
    herm = np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2))))
    return herm, np.max(np.abs(m[..., 0, 0] + m[..., 1, 1] + m[..., 2, 2]))


def test_orbit_check_guards_every_k():
    # only the orbit stack is checked; every k is a signed permutation of
    # its orbit's tensor, whose residuals are those of the orbit's bit for bit
    grid = make_k_grid(400)
    members = grid[(grid[:, 0] >= grid[:, 1]) & (grid[:, 1] >= 0.0)]
    offsets = [0.0, 1e-3, 1.5, 2.0, 14.0]
    got = lattice_tensors(grid, offsets)
    orbits = lattice_tensors(members, offsets)
    assert len(members) == 66
    for s in range(len(offsets)):
        assert _residuals(got[s]) == _residuals(orbits[s])


def test_kernel_fault_is_refused_after_the_orbit_reduction(monkeypatch):
    sums = ewald._sums
    xx = np.zeros((6, 1, 1))
    xx[0] = 1e-6
    monkeypatch.setattr(ewald, "_sums", lambda *args: sums(*args) + xx)
    grid = make_k_grid(400)
    for offsets in (0.0, [0.0, 1.5, 6.0]):
        with pytest.raises(ValueError, match="not traceless"):
            lattice_tensors(grid, offsets)


def test_intra_xy_vanishes_on_axis():
    assert abs(lattice_tensors([(1.1, 0.0)], 0.0)[0, 0, 1]) <= 1e-12


def test_intra_xy_matches_window():
    k = (1.0, 1.0)
    window = window_tensors([k], 0.0, 2000)[0]
    assert lattice_tensors([k], 0.0)[0, 0, 1].real == pytest.approx(
        window[0, 1].real, abs=1e-6
    )


def test_intra_tensor_matches_window():
    k = (1.9 * math.cos(0.45), 1.9 * math.sin(0.45))
    kernel = lattice_tensors([k], 0.0)[0]
    window = window_tensors([k], 0.0, 400)[0]
    assert np.max(np.abs(kernel - window)) <= 1e-5


def f_bessel_series() -> float:
    """F = 4 pi^2/9 + (32 pi^2/3) sum_{n,m>=1} n^2 K2(2 pi n m), n, m <= 8.

    Independent of the Ewald kernel; the first omitted terms (n or m = 9)
    are about 3e-21 of the sum.
    """
    n = np.arange(1, 9, dtype=float)
    terms = n[:, None] ** 2 * bessel_k(2, 2.0 * math.pi * n[:, None] * n[None, :])
    return 4.0 * math.pi**2 / 9.0 + 32.0 * math.pi**2 / 3.0 * float(np.sum(terms))


def test_intra_k_to_zero_approaches_isotropic_form():
    # exact at k = 0: the in-plane tensor there is diag(-F, -F, 2F)
    f = f_bessel_series()
    t = lattice_tensors([ORIGIN], 0.0)[0]
    assert np.max(np.abs(t - np.diag([-f, -f, 2.0 * f]))) <= 1e-13


def test_f_constant_value():
    f = f_constant()
    assert abs(f - f_bessel_series()) <= 1e-14 * f
    assert f == pytest.approx(4.516810841550474, rel=1e-12)
    assert 4.51 <= f <= 4.52
    assert abs(f - 4.5) / 4.5 < 5e-3

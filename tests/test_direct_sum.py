"""Window-sum oracle: dyadic terms, the kernel, tail estimates, k = 0."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticesum import _core_py
from latticesum.direct_sum import (
    DirectSumConfig,
    d_tensor_direct,
    dyadic_term,
    k0_tail_correction,
    tail_bound,
)
from latticesum.ewald import f_constant
from latticesum.model import WaveVector

ORIGIN = WaveVector(0.0, 0.0)


def test_dyadic_term_nearest_neighbors():
    # r = (1,0,0): diag(1,1,1) - 3 diag(1,0,0)
    assert dyadic_term(1, 0, 0.0, "x", "x") == -2.0
    assert dyadic_term(1, 0, 0.0, "y", "y") == 1.0
    assert dyadic_term(1, 0, 0.0, "z", "z") == 1.0
    assert dyadic_term(1, 0, 0.0, "x", "y") == 0.0
    # r = (0,0,c): the 1/c^3 scaling
    assert dyadic_term(0, 0, 2.0, "z", "z") == pytest.approx(-0.25)
    assert dyadic_term(0, 0, 2.0, "x", "x") == pytest.approx(0.125)


def test_dyadic_term_accepts_axis_indices():
    assert dyadic_term(1, 2, 0.5, 0, 1) == dyadic_term(1, 2, 0.5, "x", "y")


def test_dyadic_term_zero_separation():
    with pytest.raises(ValueError):
        dyadic_term(0, 0, 0.0, "x", "x")


def test_config_validation():
    with pytest.raises(ValueError):
        DirectSumConfig(0)
    with pytest.raises(ValueError):
        DirectSumConfig(5, -1)


def _window_sums_by_loop(qx, qy, cutoff, lz_scaled, exclude_origin):
    """The six window sums, one dyadic_term at a time, summed with fsum."""
    pairs = ("xx", "yy", "zz", "xy", "xz", "yz")
    parts = [([], []) for _ in pairs]
    for lx in range(-cutoff, cutoff + 1):
        for ly in range(-cutoff, cutoff + 1):
            if exclude_origin and lx == ly == 0:
                continue
            phase = cmath.exp(1j * (qx * lx + qy * ly))
            for (re, im), (i, j) in zip(parts, pairs):
                term = dyadic_term(lx, ly, lz_scaled, i, j) * phase
                re.append(term.real)
                im.append(term.imag)
    return np.array([complex(math.fsum(re), math.fsum(im)) for re, im in parts])


@pytest.mark.parametrize(
    "layer_offset,b_over_a", [(0, 1.0), (1, 1.0), (1, 10.0), (2, 3.0)]
)
def test_backends_agree(layer_offset, b_over_a):
    # a generic k, both lattice axes and the zone corner; k = 0 in-plane,
    # where nothing oscillates and the window is closest to the 1/L tail
    ks = [(0.83, -1.37), (0.9, 0.0), (0.0, -1.2), (math.pi, math.pi)]
    if layer_offset == 0:
        ks.append((0.0, 0.0))
    for qx, qy in ks:
        args = (qx, qy, 40, layer_offset * b_over_a, layer_offset == 0)
        sums = _core_py.window_sums(*args)
        loop = _window_sums_by_loop(*args)
        assert np.max(np.abs(np.array(sums) - loop)) <= 1e-12
        # parity makes xx, yy, zz and xy real and xz, yz imaginary exactly
        xx, yy, zz, xy, xz, yz = sums
        assert xx.imag == yy.imag == zz.imag == xy.imag == 0.0
        assert xz.real == yz.real == 0.0


@pytest.mark.parametrize("lz_scaled", [0.0, 1.5])
def test_stripe_seams(monkeypatch, lz_scaled):
    # L = 37 has 38 quadrant rows: twelve stripes of 3 and a last one of 2
    args = (0.83, -1.37, 37, lz_scaled, lz_scaled == 0.0)
    whole = np.array(_core_py.window_sums(*args))
    monkeypatch.setattr(_core_py, "_STRIPE", 3 * 38)
    striped = np.array(_core_py.window_sums(*args))
    assert np.max(np.abs(striped - whole)) <= 1e-13


def test_minus_k_conjugates_exactly():
    k = WaveVector(0.6, 1.1)
    cfg = DirectSumConfig(25, 1)
    plus = d_tensor_direct(k, cfg, 2.0)
    minus = d_tensor_direct(-k, cfg, 2.0)
    assert np.array_equal(minus.entries, np.conj(plus.entries))


def test_intra_diagonal_real_inter_xz_imaginary():
    k = WaveVector(0.9, 0.4)
    intra = d_tensor_direct(k, DirectSumConfig(50, 0), 1.0)
    assert abs(intra.xx.imag) <= 1e-12 * abs(intra.xx)
    assert abs(intra.xz) == 0.0
    inter = d_tensor_direct(k, DirectSumConfig(50, 1), 1.0)
    assert abs(inter.xz.real) <= 1e-12 * abs(inter.xz)
    assert abs(inter.yz.real) <= 1e-12 * abs(inter.yz)


def test_tail_bound_values():
    assert tail_bound(DirectSumConfig(100, 0)) == pytest.approx(2.0 * math.pi / 100.0)
    assert tail_bound(DirectSumConfig(100, 1)) == pytest.approx(4.0 * math.pi / 1e6)
    assert tail_bound(DirectSumConfig(1, 1)) > 0.0


def test_window_error_within_tail_bound():
    # generic interior k (off-axis); L = 800 stands in for the full sum
    k = WaveVector(0.8 * math.cos(0.45), 0.8 * math.sin(0.45))
    for off in (0, 1):
        ref = d_tensor_direct(k, DirectSumConfig(800, off), 1.5).entries
        errs = []
        for L in (100, 200, 400):
            cfg = DirectSumConfig(L, off)
            err = float(np.max(np.abs(d_tensor_direct(k, cfg, 1.5).entries - ref)))
            assert err <= tail_bound(cfg)
            errs.append(err)
        assert errs[0] > errs[-1]


def test_doubling_difference_within_tail_bound():
    k = WaveVector(1.3 * math.cos(0.6), 1.3 * math.sin(0.6))
    for off in (0, 1):
        for L in (100, 200):
            a = d_tensor_direct(k, DirectSumConfig(L, off), 1.0).entries
            b = d_tensor_direct(k, DirectSumConfig(2 * L, off), 1.0).entries
            assert np.max(np.abs(a - b)) <= tail_bound(DirectSumConfig(L, off))


def test_k0_correction_cancels_window_tail():
    # bare window error at k = 0 is O(1/L); the corrected value settles
    # orders of magnitude faster
    for off, b in ((0, 1.0), (1, 10.0), (1, 1.0)):
        coarse, fine = DirectSumConfig(60, off), DirectSumConfig(240, off)
        bare = d_tensor_direct(ORIGIN, coarse, b).entries
        corr = (d_tensor_direct(ORIGIN, coarse, b) + k0_tail_correction(coarse, b)).entries
        ref = (d_tensor_direct(ORIGIN, fine, b) + k0_tail_correction(fine, b)).entries
        bare_err = np.max(np.abs(bare - ref))
        corr_err = np.max(np.abs(corr - ref))
        assert corr_err < 1e-3 * bare_err


def test_k0_in_plane_matches_lattice_constant():
    cfg = DirectSumConfig(2000, 0)
    t = d_tensor_direct(ORIGIN, cfg, 1.0) + k0_tail_correction(cfg, 1.0)
    f = f_constant()
    assert t.xx.real == pytest.approx(-f, abs=1e-9)
    assert t.yy.real == pytest.approx(-f, abs=1e-9)
    assert t.zz.real == pytest.approx(2.0 * f, abs=1e-9)


def test_k0_inter_plane_far_separation_vanishes():
    # b = 10 a: the corrected k = 0 tensor is zero up to discreteness
    # corrections of order e^{-2 pi b/a}
    cfg = DirectSumConfig(2000, 1)
    t = d_tensor_direct(ORIGIN, cfg, 10.0) + k0_tail_correction(cfg, 10.0)
    assert abs(t.zz) <= 1e-10
    assert abs(t.xx) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(0, 2))
def test_window_tensors_hermitian_traceless(kx, ky, off):
    # construction enforces Hermiticity and zero trace at 1e-10; getting
    # a tensor back at all means the sums satisfied both
    t = d_tensor_direct(WaveVector(kx, ky), DirectSumConfig(15, off), 1.25)
    m = t.entries
    scale = max(1.0, float(np.max(np.abs(m))))
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12 * scale
    assert abs(np.trace(m)) <= tail_bound(DirectSumConfig(15, off))


def test_rejects_nonpositive_spacing():
    with pytest.raises(ValueError):
        d_tensor_direct(ORIGIN, DirectSumConfig(5, 1), 0.0)
    with pytest.raises(ValueError):
        k0_tail_correction(DirectSumConfig(5, 1), -1.0)

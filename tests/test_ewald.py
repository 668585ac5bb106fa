"""Accelerated series: frozen values, closed forms, window-oracle checks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latticesum.direct_sum import DirectSumConfig, d_tensor_direct
from latticesum.ewald import (
    EwaldConfig,
    d_inter_ewald,
    d_inter_longwave,
    d_intra_ewald,
    d_xy_intra,
    f_constant,
    inter_series,
    inter_tensors,
    s_inter_partials,
    s_inter_series,
    s_intra_axis,
)
from latticesum.model import WaveVector

ORIGIN = WaveVector(0.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        EwaldConfig(n_max=0)
    with pytest.raises(ValueError):
        EwaldConfig(l_max=0)
    with pytest.raises(ValueError):
        EwaldConfig(bessel_n_max=0)


def test_scalar_series_frozen_values():
    # b = a: all reciprocal terms contribute visibly
    assert s_inter_series(ORIGIN, 1.0) == pytest.approx(1.060161164136149, rel=1e-12)
    # b = 10 a: every (n,m) != (0,0) term is below double precision
    assert s_inter_series(ORIGIN, 10.0) == 1.0
    # single surviving term (1 + kb) e^{-kb}
    k = WaveVector(1e-3, 0.0)
    want = (1.0 + 0.01) * math.exp(-0.01)
    assert s_inter_series(k, 10.0) == pytest.approx(want, rel=1e-15)


def test_series_truncation_settled():
    # raising n_max from 4 to 8 moves the sum below the omitted-term
    # scale; at b = a the n = 5 ring still contributes ~1e-11
    k = WaveVector(0.7, -0.3)
    for b, tol in ((1.0, 1e-10), (2.0, 1e-12), (10.0, 1e-12)):
        lo = s_inter_series(k, b, EwaldConfig(n_max=4))
        hi = s_inter_series(k, b, EwaldConfig(n_max=8))
        assert abs(lo - hi) <= tol


def test_partials_match_series_and_finite_differences():
    k = WaveVector(0.9, 0.4)
    s, sx, sxx = s_inter_partials(k, 1.0)
    assert s == pytest.approx(s_inter_series(k, 1.0), rel=1e-14)
    h = 1e-5
    kp, km = WaveVector(k.kxa + h, k.kya), WaveVector(k.kxa - h, k.kya)
    fd1 = (s_inter_series(kp, 1.0) - s_inter_series(km, 1.0)) / (2.0 * h)
    assert sx == pytest.approx(fd1, rel=1e-7)
    # second derivative: difference the analytic first derivative, not
    # the double difference of s itself (noise floor)
    fd2 = (s_inter_partials(kp, 1.0)[1] - s_inter_partials(km, 1.0)[1]) / (2.0 * h)
    assert sxx == pytest.approx(fd2, rel=1e-7)


def test_partials_reject_reciprocal_lattice_points():
    # the scalar series stays defined there, in a batch too; only the
    # derivative slices reject the point
    generic = WaveVector(0.5, 0.2)
    rows, on_lattice = inter_series([generic, ORIGIN], 1.0)
    assert on_lattice.tolist() == [False, True]
    assert rows[0, 1] == s_inter_series(ORIGIN, 1.0)
    assert rows[0, 0] == s_inter_series(generic, 1.0)
    with pytest.raises(ValueError):
        inter_tensors([generic, ORIGIN], 1.0)
    with pytest.raises(ValueError):
        s_inter_partials(ORIGIN, 1.0)
    with pytest.raises(ValueError):
        s_inter_partials(WaveVector(2.0 * math.pi, 0.0), 1.0)
    with pytest.raises(ValueError):
        d_inter_ewald(ORIGIN, 1.0)


def test_longwave_closed_form_components():
    k = WaveVector(1e-3, 0.0)
    t = d_inter_longwave(k, 10.0)
    e = 2.0 * math.pi * 1e-3 * math.exp(-0.01)
    assert t.xx.real == pytest.approx(e, rel=1e-15)
    assert t.yy == 0.0
    assert t.zz.real == pytest.approx(-e, rel=1e-15)
    assert t.xz == pytest.approx(-1j * e, rel=1e-15)


def test_longwave_matches_series_at_small_k():
    k = WaveVector(1e-3 * math.cos(0.6), 1e-3 * math.sin(0.6))
    lw = d_inter_longwave(k, 10.0).entries
    ew = d_inter_ewald(k, 10.0).entries
    assert np.max(np.abs(lw - ew)) <= 1e-10 * np.max(np.abs(ew))


def test_longwave_rejects_k0():
    with pytest.raises(ValueError):
        d_inter_longwave(ORIGIN, 10.0)


def test_inter_series_matches_window():
    k = WaveVector(1.3 * math.cos(0.6), 1.3 * math.sin(0.6))
    for b in (1.0, 2.0):
        series = d_inter_ewald(k, b).entries
        window = d_tensor_direct(k, DirectSumConfig(300, 1), b).entries
        assert np.max(np.abs(series - window)) <= 1e-6


@settings(max_examples=15, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.5, 4.0))
def test_inter_conjugation_symmetry(kx, ky, b):
    assume(math.hypot(kx, ky) > 1e-3)
    plus = d_inter_ewald(WaveVector(kx, ky), b).entries
    minus = d_inter_ewald(WaveVector(-kx, -ky), b).entries
    scale = max(1.0, float(np.max(np.abs(plus))))
    assert np.max(np.abs(minus - np.conj(plus))) <= 1e-12 * scale


def test_intra_axis_swap_symmetry():
    k = WaveVector(0.8, 0.3)
    swapped = WaveVector(0.3, 0.8)
    assert s_intra_axis(k, "x") == pytest.approx(s_intra_axis(swapped, "y"), rel=1e-14)
    with pytest.raises(ValueError):
        s_intra_axis(k, "z")


def test_intra_xy_vanishes_on_axis():
    # +-n pairing cancels at kya = 0, up to accumulation roundoff
    assert abs(d_xy_intra(WaveVector(1.1, 0.0))) <= 1e-12


def test_intra_xy_matches_window():
    k = WaveVector(1.0, 1.0)
    window = d_tensor_direct(k, DirectSumConfig(2000, 0), 1.0)
    assert d_xy_intra(k, EwaldConfig(n_max=8, l_max=60)) == pytest.approx(
        window.xy.real, abs=1e-6
    )


def test_intra_tensor_matches_window():
    k = WaveVector(1.9 * math.cos(0.45), 1.9 * math.sin(0.45))
    series = d_intra_ewald(k, EwaldConfig(n_max=8, l_max=60)).entries
    window = d_tensor_direct(k, DirectSumConfig(400, 0), 1.0).entries
    assert np.max(np.abs(series - window)) <= 1e-5


def test_intra_k_to_zero_approaches_isotropic_form():
    # exactly at k = 0 the l-sum loses its exponential factor and its
    # truncation error is the bare tail (8/3) sum_{l>l_max} 1/l^2, about
    # 1.3e-3 per axis sum at l_max = 2000 (doubled in the zz assembly)
    f = f_constant()
    t = d_intra_ewald(ORIGIN, EwaldConfig(l_max=2000))
    assert t.xx.real == pytest.approx(-f, abs=2e-3)
    assert t.yy.real == pytest.approx(-f, abs=2e-3)
    assert t.zz.real == pytest.approx(2.0 * f, abs=4e-3)


def test_f_constant_value():
    f = f_constant()
    assert f == pytest.approx(4.516810841550474, rel=1e-12)
    assert 4.51 <= f <= 4.52
    assert abs(f - 4.5) / 4.5 < 5e-3


def test_rejects_nonpositive_spacing():
    k = WaveVector(0.5, 0.2)
    with pytest.raises(ValueError):
        s_inter_series(k, 0.0)
    with pytest.raises(ValueError):
        d_inter_ewald(k, -1.0)
    with pytest.raises(ValueError):
        d_inter_longwave(k, 0.0)

"""Accelerated series: frozen values, closed forms, window-oracle checks."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from latticesum.direct_sum import DirectSumConfig, d_tensor_direct
from latticesum.ewald import (
    EwaldConfig,
    f_constant,
    inter_longwave_tensors,
    inter_series,
    inter_tensors,
    intra_series,
    intra_tensors,
)
from latticesum.model import WaveVector

ORIGIN = WaveVector(0.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        EwaldConfig(n_max=0)
    with pytest.raises(ValueError):
        EwaldConfig(l_max=0)


def test_scalar_series_frozen_values():
    # b = a: all reciprocal terms contribute visibly
    assert inter_series([ORIGIN], 1.0)[0][0, 0] == pytest.approx(
        1.060161164136149, rel=1e-12
    )
    # b = 10 a: every (n,m) != (0,0) term is below double precision, so
    # k = 0 gives exactly 1 and ka = 1e-3 the single term (1 + kb) e^{-kb}
    st = inter_series([ORIGIN, WaveVector(1e-3, 0.0)], 10.0)[0][0]
    assert st[0] == 1.0
    want = (1.0 + 0.01) * math.exp(-0.01)
    assert st[1] == pytest.approx(want, rel=1e-15)


def test_series_truncation_settled():
    # raising n_max from 4 to 8 moves the sum below the omitted-term
    # scale; at b = a the n = 5 ring still contributes ~1e-11
    k = WaveVector(0.7, -0.3)
    for b, tol in ((1.0, 1e-10), (2.0, 1e-12), (10.0, 1e-12)):
        lo = inter_series([k], b, EwaldConfig(n_max=4))[0][0, 0]
        hi = inter_series([k], b, EwaldConfig(n_max=8))[0][0, 0]
        assert abs(lo - hi) <= tol


def test_partials_match_series_and_finite_differences():
    k = WaveVector(0.9, 0.4)
    h = 1e-5
    ks = [k, WaveVector(k.kxa + h, k.kya), WaveVector(k.kxa - h, k.kya)]
    (s, sx, _sy, sxx, _syy, _sxy), _ = inter_series(ks, 1.0)
    fd1 = (s[1] - s[2]) / (2.0 * h)
    assert sx[0] == pytest.approx(fd1, rel=1e-7)
    # second derivative: difference the analytic first derivative, not
    # the double difference of s itself (noise floor)
    fd2 = (sx[1] - sx[2]) / (2.0 * h)
    assert sxx[0] == pytest.approx(fd2, rel=1e-7)


def test_partials_reject_reciprocal_lattice_points():
    # the scalar series stays defined there, in a batch too; only the
    # tensors, built from the derivative rows, reject the point
    generic = WaveVector(0.5, 0.2)
    lattice_point = WaveVector(2.0 * math.pi, 0.0)
    rows, on_lattice = inter_series([generic, ORIGIN, lattice_point], 1.0)
    assert on_lattice.tolist() == [False, True, True]
    assert rows[0, 1] == inter_series([ORIGIN], 1.0)[0][0, 0]
    assert rows[0, 0] == inter_series([generic], 1.0)[0][0, 0]
    for ks in ([generic, ORIGIN], [ORIGIN], [lattice_point]):
        with pytest.raises(ValueError):
            inter_tensors(ks, 1.0)


def test_longwave_closed_form_components():
    t = inter_longwave_tensors([WaveVector(1e-3, 0.0)], 10.0)[0]
    e = 2.0 * math.pi * 1e-3 * math.exp(-0.01)
    assert t[0, 0].real == pytest.approx(e, rel=1e-15)
    assert t[1, 1] == 0.0
    assert t[2, 2].real == pytest.approx(-e, rel=1e-15)
    assert t[0, 2] == pytest.approx(-1j * e, rel=1e-15)


def test_longwave_matches_series_at_small_k():
    k = WaveVector(1e-3 * math.cos(0.6), 1e-3 * math.sin(0.6))
    lw = inter_longwave_tensors([k], 10.0)[0]
    ew = inter_tensors([k], 10.0)[0]
    assert np.max(np.abs(lw - ew)) <= 1e-10 * np.max(np.abs(ew))


def test_longwave_rejects_k0():
    with pytest.raises(ValueError):
        inter_longwave_tensors([ORIGIN], 10.0)


def test_inter_series_matches_window():
    k = WaveVector(1.3 * math.cos(0.6), 1.3 * math.sin(0.6))
    for b in (1.0, 2.0):
        series = inter_tensors([k], b)[0]
        window = d_tensor_direct(k, DirectSumConfig(300, 1), b).entries
        assert np.max(np.abs(series - window)) <= 1e-6


@settings(max_examples=15, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.5, 4.0))
def test_inter_conjugation_symmetry(kx, ky, b):
    assume(math.hypot(kx, ky) > 1e-3)
    plus, minus = inter_tensors([WaveVector(kx, ky), WaveVector(-kx, -ky)], b)
    scale = max(1.0, float(np.max(np.abs(plus))))
    assert np.max(np.abs(minus - np.conj(plus))) <= 1e-12 * scale


def test_intra_axis_swap_symmetry():
    sx, sy, _xy = intra_series([WaveVector(0.8, 0.3), WaveVector(0.3, 0.8)])
    assert sx[0] == pytest.approx(sy[1], rel=1e-14)


def test_intra_xy_vanishes_on_axis():
    # +-n pairing cancels at kya = 0, up to accumulation roundoff
    assert abs(intra_series([WaveVector(1.1, 0.0)])[2, 0]) <= 1e-12


def test_intra_xy_matches_window():
    k = WaveVector(1.0, 1.0)
    window = d_tensor_direct(k, DirectSumConfig(2000, 0), 1.0)
    assert intra_series([k], EwaldConfig(n_max=8, l_max=60))[2, 0] == pytest.approx(
        window.xy.real, abs=1e-6
    )


def test_intra_tensor_matches_window():
    k = WaveVector(1.9 * math.cos(0.45), 1.9 * math.sin(0.45))
    series = intra_tensors([k], EwaldConfig(n_max=8, l_max=60))[0]
    window = d_tensor_direct(k, DirectSumConfig(400, 0), 1.0).entries
    assert np.max(np.abs(series - window)) <= 1e-5


def test_intra_k_to_zero_approaches_isotropic_form():
    # exactly at k = 0 the l-sum loses its exponential factor and its
    # truncation error is the bare tail (8/3) sum_{l>l_max} 1/l^2, about
    # 1.3e-3 per axis sum at l_max = 2000 (doubled in the zz assembly)
    f = f_constant()
    t = intra_tensors([ORIGIN], EwaldConfig(l_max=2000))[0].real
    assert t[0, 0] == pytest.approx(-f, abs=2e-3)
    assert t[1, 1] == pytest.approx(-f, abs=2e-3)
    assert t[2, 2] == pytest.approx(2.0 * f, abs=4e-3)


def test_f_constant_value():
    f = f_constant()
    assert f == pytest.approx(4.516810841550474, rel=1e-12)
    assert 4.51 <= f <= 4.52
    assert abs(f - 4.5) / 4.5 < 5e-3


def test_rejects_nonpositive_spacing():
    k = WaveVector(0.5, 0.2)
    with pytest.raises(ValueError):
        inter_series([k], 0.0)
    with pytest.raises(ValueError):
        inter_tensors([k], -1.0)
    with pytest.raises(ValueError):
        inter_longwave_tensors([k], 0.0)

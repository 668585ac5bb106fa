"""Domain types: validation, unit conventions, k-grid construction."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.constants import elementary_charge, epsilon_0

from latticesum.model import (
    COULOMB_EV_ANGSTROM,
    CouplingTensor,
    EnergyScale,
    LatticeGeometry,
    TransitionDipole,
    WaveVector,
    check_tensors,
    dipole_from_theta,
    j0_scale,
    make_k_grid,
)


def test_coulomb_constant():
    # e^2/(4 pi eps0) in eV A: the literal is the CODATA expression, bit for bit
    assert COULOMB_EV_ANGSTROM == elementary_charge / (4.0 * math.pi * epsilon_0) * 1e10


def test_j0_reference_point():
    # mu = 1 e A, a = 1000 A
    assert j0_scale(1.0, 1000.0) == pytest.approx(1.4399645468667816e-8, rel=1e-12)


def test_j0_scaling_laws():
    assert j0_scale(1.0, 10.0) == pytest.approx(8.0 * j0_scale(1.0, 20.0), rel=1e-12)
    assert j0_scale(2.0, 10.0) == pytest.approx(4.0 * j0_scale(1.0, 10.0), rel=1e-12)


@pytest.mark.parametrize("mu,a", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_j0_rejects_nonpositive(mu, a):
    with pytest.raises(ValueError):
        j0_scale(mu, a)


def test_geometry_validation():
    LatticeGeometry(10.0, n_sites=49, n_planes=3)
    with pytest.raises(ValueError):
        LatticeGeometry(0.0)
    with pytest.raises(ValueError):
        LatticeGeometry(10.0, n_sites=50)
    with pytest.raises(ValueError):
        LatticeGeometry(10.0, n_planes=0)


@given(st.floats(-10.0, 10.0))
def test_dipole_from_theta_is_unit(theta):
    dip = dipole_from_theta(theta)
    assert math.hypot(*dip.direction) == pytest.approx(1.0, abs=1e-12)
    assert dip.direction[1] == 0.0


def test_dipole_from_theta_poles():
    assert dipole_from_theta(0.0).direction == (0.0, 0.0, 1.0)
    mx, _, mz = dipole_from_theta(math.pi / 2.0).direction
    assert mx == pytest.approx(1.0, abs=1e-15)
    assert mz == pytest.approx(0.0, abs=1e-15)


def test_dipole_validation():
    with pytest.raises(ValueError):
        TransitionDipole((1.0, 1.0, 0.0))


def test_wave_vector():
    k = WaveVector(3.0, 4.0)
    assert k.ka == pytest.approx(5.0)
    assert (-k).kxa == -3.0 and (-k).kya == -4.0
    with pytest.raises(ValueError):
        WaveVector(math.nan, 0.0)
    with pytest.raises(ValueError):
        WaveVector(0.0, math.inf)


def test_tensor_from_components_layout():
    t = CouplingTensor.from_components(1.0, 2.0, -3.0, 0.5, 0.25j, -0.125j)
    assert (t.xx, t.yy, t.zz) == (1.0, 2.0, -3.0)
    assert (t.xy, t.xz, t.yz) == (0.5, 0.25j, -0.125j)
    assert t.entries[1, 0] == np.conj(t.xy)
    assert t.entries[2, 0] == np.conj(t.xz)
    assert t.entries[2, 1] == np.conj(t.yz)


def test_tensor_rejects_non_hermitian():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 1] = 1.0
    with pytest.raises(ValueError):
        CouplingTensor(m)


def test_tensor_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        CouplingTensor(np.eye(3, dtype=complex))


def test_tensor_rejects_wrong_shape():
    with pytest.raises(ValueError):
        CouplingTensor(np.zeros((2, 2), dtype=complex))


def test_tensor_entries_read_only():
    t = CouplingTensor.from_components(1.0, 1.0, -2.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        t.entries[0, 0] = 5.0


def test_tensor_addition():
    t = CouplingTensor.from_components(1.0, 1.0, -2.0, 0.0, 1j, 0.0)
    assert np.array_equal((t + t).entries, 2.0 * t.entries)


_finite = st.floats(-5.0, 5.0)


@given(_finite, _finite, _finite, _finite, _finite, _finite)
def test_tensor_assembly_is_hermitian_traceless(xx, yy, re_xy, im_xy, xz, yz):
    # zz balances the trace; xz, yz enter purely imaginary as the
    # inter-plane sums do
    t = CouplingTensor.from_components(
        xx, yy, -(xx + yy), re_xy + 1j * im_xy, 1j * xz, 1j * yz
    )
    m = t.entries
    assert np.max(np.abs(m - m.conj().T)) == 0.0
    assert abs(np.trace(m)) <= 1e-12


def test_energy_scale_validation():
    assert EnergyScale(1e-8).ea_ev == 1.0
    with pytest.raises(ValueError):
        EnergyScale(0.0)


def test_k_grid_single_site():
    [k] = make_k_grid(LatticeGeometry(1.0, n_sites=1))
    assert (k.kxa, k.kya) == (0.0, 0.0)


def test_k_grid_even_root_keeps_both_edges():
    ks = make_k_grid(LatticeGeometry(1.0, n_sites=4))
    assert len(ks) == 9
    assert sorted({k.kxa for k in ks}) == pytest.approx([-math.pi, 0.0, math.pi])


def test_k_grid_spacing():
    ks = make_k_grid(LatticeGeometry(1.0, n_sites=100))
    assert len(ks) == 121
    xs = sorted({k.kxa for k in ks})
    assert np.diff(xs) == pytest.approx(np.full(10, 2.0 * math.pi / 10.0))
    assert max(xs) == pytest.approx(math.pi)


def test_invariant_checks_are_relative():
    # a trace of 1e-12 of the largest entry passes however large the
    # entries are, and one of 1e-8 of it fails; below 1 the bound is an
    # absolute 1e-10, so subnormal entries with a few ulps of trace pass;
    # a non-finite entry fails
    big = np.diag([1e9, -1e9 + 1e-3, 0.0])
    assert check_tensors(big[None]).shape == (1, 3, 3)
    with pytest.raises(ValueError):
        check_tensors(np.diag([1e3, 1e3, -2e3 + 2e-5]))
    ulp = np.nextafter(0.0, 1.0)
    tiny = np.diag([2000 * ulp, 2000 * ulp, -3999 * ulp])
    assert check_tensors(tiny).shape == (3, 3)
    with pytest.raises(ValueError):
        check_tensors(np.diag([1.0, 1.0, -2.0 + 1e-9]))
    with pytest.raises(ValueError):
        check_tensors(np.diag([math.nan, 0.0, 0.0]))

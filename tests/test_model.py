"""Domain types: validation, unit conventions, k-grid construction."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf, nint
from scipy.constants import elementary_charge, epsilon_0

from latticesum.dispersion import couplings
from latticesum.model import (
    COULOMB_EV_ANGSTROM,
    MAX_FOLD,
    _fold_into_zone,
    check_tensors,
    dipole_from_theta,
    j0_scale,
    k_array,
    make_k_grid,
    tensors_from_components,
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


@pytest.mark.parametrize("mu", [1e-200, 1e200])
def test_j0_refuses_a_scale_that_is_not_positive_finite(mu):
    # J0 underflows to 0 or overflows to inf at a = 1
    with pytest.raises(ValueError, match="positive finite"):
        j0_scale(mu, 1.0)


def test_geometry_validation():
    # a plane of N sites is sqrt(N) x sqrt(N), N >= 1
    assert make_k_grid(49).shape == (49, 2)
    assert np.array_equal(make_k_grid(np.int64(9)), make_k_grid(9))
    with pytest.raises(ValueError, match="perfect square >= 1"):
        make_k_grid(50)
    # a count like a plane count or a cutoff: no floats, bools or n < 1
    for n_sites in (0, -4, 2.5, 4.0, True):
        with pytest.raises(ValueError, match="n_sites must be an integer >= 1"):
            make_k_grid(n_sites)


@given(st.floats(-10.0, 10.0))
def test_dipole_from_theta_is_unit(theta):
    dip = dipole_from_theta(theta)
    assert math.hypot(*dip) == pytest.approx(1.0, abs=1e-12)
    assert dip[1] == 0.0


def test_dipole_from_theta_poles():
    assert dipole_from_theta(0.0) == (0.0, 0.0, 1.0)
    mx, _, mz = dipole_from_theta(math.pi / 2.0)
    assert mx == pytest.approx(1.0, abs=1e-15)
    assert mz == pytest.approx(0.0, abs=1e-15)


def test_dipole_validation():
    with pytest.raises(ValueError, match="unit dipole direction"):
        couplings(np.zeros((1, 3, 3)), (1.0, 1.0, 0.0))


def test_tensor_from_components_layout():
    m = tensors_from_components(1.0, 2.0, -3.0, 0.5, 0.25j, -0.125j)
    assert (m[0, 0], m[1, 1], m[2, 2]) == (1.0, 2.0, -3.0)
    assert (m[0, 1], m[0, 2], m[1, 2]) == (0.5, 0.25j, -0.125j)
    assert m[1, 0] == np.conj(m[0, 1])
    assert m[2, 0] == np.conj(m[0, 2])
    assert m[2, 1] == np.conj(m[1, 2])


def test_tensor_rejects_non_hermitian():
    # one matrix of the stack off by more than 1e-10 of its largest entry
    m = np.zeros((2, 3, 3), dtype=complex)
    m[1, 0, 1] = 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        check_tensors(m)


_finite = st.floats(-5.0, 5.0)


@given(_finite, _finite, _finite, _finite, _finite, _finite)
def test_tensor_assembly_is_hermitian_traceless(xx, yy, re_xy, im_xy, xz, yz):
    # zz balances the trace; xz, yz enter purely imaginary as the
    # inter-plane sums do
    m = tensors_from_components(xx, yy, -(xx + yy), re_xy + 1j * im_xy, 1j * xz, 1j * yz)
    assert np.max(np.abs(m - m.conj().T)) == 0.0
    assert abs(np.trace(m)) <= 1e-12


def test_k_array_takes_pairs_or_a_real_array():
    want = np.array([[0.5, -1.0], [-0.0, 3.0]])
    ks = [(0.5, -1.0), (-0.0, 3.0)]
    for kxy in (ks, tuple(ks), [[0.5, -1], [0, 3]], want, want.astype(np.float32)):
        got = k_array(kxy)
        assert got.shape == (2, 2) and got.dtype == float
        assert np.array_equal(got, want)
    assert np.signbit(k_array(ks)[1, 0])  # -0.0 kept, bit for bit
    assert np.array_equal(k_array(np.array([[1, -2]])), [[1.0, -2.0]])
    assert k_array(np.empty((0, 2))).shape == (0, 2)
    assert k_array([]).shape == (0, 2)
    out = k_array(want)
    out[0, 0] = 9.0
    assert want[0, 0] == 0.5  # a copy, not the caller's array
    for bad in (np.zeros(2), np.zeros((3, 3)), np.zeros((1, 2, 2)),
                np.zeros((2, 2), complex), np.array([["0", "1"]]), np.empty((0, 3)),
                [(0.5, 0.0, 1.0)], [(0.5 + 1j, 0.0)], [("0.5", "0.0")], [[]], 0.5,
                iter([(0.5, 0.0)])):
        with pytest.raises(ValueError, match=r"\(K, 2\) real array"):
            k_array(bad)
    with pytest.raises(ValueError):  # ragged: NumPy refuses it
        k_array([(0.5, 0.0), (1.0,)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            k_array(np.array([[0.5, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError, match="finite"):
            k_array([(0.5, 0.0), (bad, 0.0)])
        with pytest.raises(ValueError, match="finite"):
            k_array([(0.0, bad)])


def test_k_array_refuses_k_past_the_fold_bound():
    # |round(k / 2 pi)| must stay below 2^29, where the fold is exact
    edge = (MAX_FOLD - 0.5) * 2.0 * math.pi  # about 3.37e9
    assert MAX_FOLD == 2**29
    inside = np.nextafter(edge, 0.0)
    assert np.array_equal(k_array([(inside, -inside)]), [[inside, -inside]])
    for bad in (edge * (1.0 + 1e-15), 1e17, -1e300):
        for ks in ([(bad, 0.0)], [(0.5, 0.0), (0.0, bad)]):
            with pytest.raises(ValueError, match="2\\^29 periods of 2 pi"):
                k_array(ks)


def test_fold_is_exact_out_to_the_bound():
    # within half an ulp of pi of k reduced at 60 digits, anywhere below the
    # bound; in the zone k itself, bit for bit
    rng = np.random.default_rng(5)
    ks = np.concatenate([rng.uniform(-s, s, 200) for s in (10.0, 1e3, 1e6, 1e9, 3.3e9)])
    got = _fold_into_zone(ks)
    with mp.workdps(60):
        want = [mpf(k) - 2 * mp.pi * nint(mpf(k) / (2 * mp.pi)) for k in ks.tolist()]
        err = max(abs(float(mpf(g) - w)) for g, w in zip(got.tolist(), want))
    assert err <= 2.3e-16
    inside = rng.uniform(-math.pi, math.pi, 10**4)
    assert _fold_into_zone(inside).tobytes() == inside.tobytes()
    # k written as n times the double 2 pi is the reciprocal-lattice point n
    lattice = 2.0 * math.pi * np.array([1.0, -3.0, 1e6, 2.0**28])
    assert not _fold_into_zone(lattice).any()


def test_k_grid_single_site():
    [k] = make_k_grid(1)
    assert (k[0], k[1]) == (0.0, 0.0)


def test_k_grid_even_root_keeps_both_edges():
    ks = make_k_grid(4)
    assert len(ks) == 9
    assert sorted(set(ks[:, 0].tolist())) == pytest.approx([-math.pi, 0.0, math.pi])


def test_k_grid_spacing():
    ks = make_k_grid(100)
    assert len(ks) == 121
    xs = sorted(set(ks[:, 0].tolist()))
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


@pytest.mark.parametrize("shape", [(3,), (2, 2)])
def test_check_tensors_refuses_a_shape_that_is_not_a_3x3_stack(shape):
    with pytest.raises(ValueError, match="expected a 3x3 matrix, got shape"):
        check_tensors(np.zeros(shape))

"""Couplings, two-plane hybrid modes, N-plane stacks, eigen-solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticesum.dispersion import (
    Direct,
    Ewald,
    LongWave,
    ModeSpectrum,
    couplings,
    pair_energies,
    polarization_splitting,
    splitting,
    stack_matrices,
    symmetric_eigen,
)
from latticesum import dispersion, ewald
from latticesum.direct_sum import k0_tail_correction, window_tensors
from latticesum.ewald import f_constant
from latticesum.model import (
    MIN_OFFSET,
    CouplingTensor,
    EnergyScale,
    LatticeGeometry,
    TransitionDipole,
    WaveVector,
    dipole_from_theta,
)


def test_coupling_contraction():
    t = [CouplingTensor.from_components(1.0, 1.0, -2.0, 0.5, 0.0, 0.0).entries]
    assert couplings(t, TransitionDipole((1.0, 0.0, 0.0)))[0] == 1.0
    s = math.sqrt(0.5)
    diag = TransitionDipole((s, s, 0.0))
    assert couplings(t, diag)[0] == pytest.approx(1.5)


@pytest.mark.parametrize("method", [Ewald(), LongWave(), Direct(cutoff=6)])
@pytest.mark.parametrize("offset", [0.0, 1.5])
def test_engines_take_any_iterable_and_return_writable_stacks(method, offset):
    ks = [WaveVector(0.8, 0.3), WaveVector(0.0, 0.0), WaveVector(-0.3, 0.8)]
    empty = method.tensors([], offset)
    assert empty.shape == (0, 3, 3) and empty.flags.writeable
    got = method.tensors((k for k in ks), offset)
    assert got.shape == (len(ks), 3, 3) and got.flags.writeable
    assert np.array_equal(got, method.tensors(ks, offset))


@pytest.mark.parametrize("method", [Ewald(), LongWave(), Direct(cutoff=6)])
def test_batched_engines_match_single_k(method):
    # lattice axes, near the zone centre, the zone edges, k = 0, a
    # reciprocal-lattice point and generic k, more than two kernel blocks
    # the diagonal, and mirror and swap images (one orbit of the lattice's
    # symmetries) that the Ewald engine sums once
    special = [
        (1e-3, 0.0), (0.0, 1e-3), (0.8, 0.0), (0.0, -1.7), (math.pi, 0.3),
        (-math.pi, -math.pi), (0.4, math.pi), (-math.pi, 0.0), (0.0, 0.0),
        (2.0 * math.pi, 0.0), (0.9, 0.9), (-0.9, 0.9), (0.8, 0.3), (-0.8, 0.3),
        (0.8, -0.3), (-0.3, -0.8), (0.3, 0.8),
    ]
    rng = np.random.default_rng(11)
    generic = rng.uniform(-math.pi, math.pi, size=(2 * ewald._BLOCK + 5, 2))
    ks = [WaveVector(float(x), float(y)) for x, y in special + generic.tolist()]
    for c in (0.0, 1e-3, 1.5):
        batch = method.tensors(ks, c)
        assert batch.shape == (len(ks), 3, 3)
        for k, got in zip(ks, batch):
            assert np.array_equal(got, method.tensors([k], c)[0])
    # in the plane, k = (2 pi, 0) is k = 0 for every engine
    intra = method.tensors(ks, 0.0)
    origin, lattice = (intra[special.index(k)] for k in ((0.0, 0.0), (2.0 * math.pi, 0.0)))
    assert np.max(np.abs(lattice - origin)) <= 1e-14 * np.max(np.abs(origin))


def test_direct_takes_corrected_window_on_reciprocal_lattice():
    # the bare window misses its O(1/L) tail wherever no phase oscillates
    method = Direct(cutoff=6)
    ks = [WaveVector(0.0, 0.0), WaveVector(2.0 * math.pi, 0.0),
          WaveVector(-2.0 * math.pi, 4.0 * math.pi)]
    for c, got in [(0.0, method.tensors(ks, 0.0)), (1.5, method.tensors(ks, 1.5))]:
        want = window_tensors([ks[0]], c, 6)[0] + k0_tail_correction(6, c)
        assert np.array_equal(method.tensors(ks[:1], c)[0], want)
        for tensor in got:
            assert np.array_equal(tensor, want)


def test_direct_checks_the_corrected_window(monkeypatch):
    # the tail is added after the window's own check; the sum is checked too
    monkeypatch.setattr(dispersion, "k0_tail_correction", lambda *_: np.eye(3))
    with pytest.raises(ValueError, match="traceless"):
        Direct(cutoff=6).tensors([WaveVector(2.0 * math.pi, 0.0)], 0.0)
    with pytest.raises(ValueError, match="traceless"):
        Direct(cutoff=6).tensors([WaveVector(0.0, 0.0)], 1.5)


def test_longwave_intra_and_polarization_gap():
    f = f_constant()
    # diag(-F, -F, 2F) at every k, and exactly so at k = 0
    origin = LongWave().tensors([WaveVector(0.0, 0.0)], 0.0)[0]
    assert np.array_equal(origin, np.diag([-f, -f, 2.0 * f]))
    tensors = LongWave().tensors([WaveVector(1e-4, 0.0)], 0.0)
    j_par = couplings(tensors, dipole_from_theta(math.pi / 2.0))[0]
    j_z = couplings(tensors, dipole_from_theta(0.0))[0]
    assert j_par == pytest.approx(-f, rel=1e-12)
    assert j_z == pytest.approx(2.0 * f, rel=1e-12)
    assert polarization_splitting(f) == pytest.approx(j_z - j_par, rel=1e-12)
    with pytest.raises(ValueError):
        polarization_splitting(0.0)


def test_j_inter_longwave_closed_form():
    ka, b, phi = 0.5, 2.0, 0.7
    k = WaveVector(ka * math.cos(phi), ka * math.sin(phi))
    tensors = LongWave().tensors([k], b)
    for theta in (0.0, 0.6, math.pi / 2.0):
        want = (
            2.0 * math.pi * ka * math.exp(-ka * b)
            * (math.sin(theta) ** 2 * math.cos(phi) ** 2 - math.cos(theta) ** 2)
        )
        got = couplings(tensors, dipole_from_theta(theta))[0]
        assert got == pytest.approx(want, abs=1e-14)
    # k = 0, where the closed form has no limit, takes the Ewald kernel
    origin = [WaveVector(0.0, 0.0)]
    assert np.array_equal(LongWave().tensors(origin, b), ewald.lattice_tensors(origin, b))


def test_engines_agree_on_couplings():
    k = WaveVector(2.0 * math.cos(0.75), 2.0 * math.sin(0.75))
    dip = dipole_from_theta(0.9)
    kernel, window = Ewald(), Direct(cutoff=200)
    assert couplings(kernel.tensors([k], 0.0), dip)[0] == pytest.approx(
        couplings(window.tensors([k], 0.0), dip)[0], abs=5e-6
    )
    assert couplings(kernel.tensors([k], 1.0), dip)[0] == pytest.approx(
        couplings(window.tensors([k], 1.0), dip)[0], abs=5e-6
    )


def test_pair_energies_and_splitting():
    k = WaveVector(0.5 * math.cos(0.3), 0.5 * math.sin(0.3))
    dip = dipole_from_theta(math.pi / 3.0)
    scale = EnergyScale(2e-8, ea_ev=1.0)
    j = couplings(Ewald().tensors([k], 0.0), dip)[0]
    jp = couplings(Ewald().tensors([k], 2.0), dip)[0]
    modes = pair_energies(k, dip, 2.0, Ewald(), scale)
    assert modes.energies_j0 == pytest.approx(sorted((j - jp, j + jp)), abs=1e-14)
    assert modes.energies_ev[0] == pytest.approx(1.0 + 2e-8 * modes.energies_j0[0])
    assert splitting(k, dip, 2.0, Ewald()) == pytest.approx(2.0 * abs(jp), rel=1e-12)


def test_plane_offset_rule():
    # offset 0 is the site's own plane; any other offset is finite and at
    # least MIN_OFFSET, 1e-3 a (9e-4 sits below it)
    ks = [WaveVector(0.5, 0.2), WaveVector(0.0, 0.0)]
    for method in (Ewald(), LongWave(), Direct(cutoff=5)):
        for c in (-1.0, 9e-4, math.nan, math.inf):
            with pytest.raises(ValueError):
                method.tensors(ks, c)
        assert method.tensors(ks, 0.0).shape == (2, 3, 3)
        assert method.tensors(ks, MIN_OFFSET).shape == (2, 3, 3)
    assert np.array_equal(Ewald().tensors(ks, 0.0), ewald.lattice_tensors(ks, 0.0))
    # a plane spacing must not be 0 either: offset 0 is the in-plane tensor
    dip = dipole_from_theta(0.4)
    for b in (0.0, 9e-4, math.nan):
        with pytest.raises(ValueError):
            pair_energies(ks[0], dip, b, Ewald(), EnergyScale(1e-3))
        with pytest.raises(ValueError):
            splitting(ks[0], dip, b, Ewald())
        with pytest.raises(ValueError):
            LatticeGeometry(b)
    assert LatticeGeometry(MIN_OFFSET).b_over_a == MIN_OFFSET


def test_mode_spectrum_validation():
    k = WaveVector(0.0, 0.1)
    with pytest.raises(ValueError):
        ModeSpectrum(k, (1.0, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        ModeSpectrum(k, (0.0, 1.0), (0.0,))


def test_stack_matrix_structure():
    k = WaveVector(0.5 * math.cos(0.3), 0.5 * math.sin(0.3))
    dip = dipole_from_theta(math.pi / 2.0)
    geom = LatticeGeometry(10.0, n_planes=4)
    m = stack_matrices([k], dip, geom, LongWave())[2][0]
    assert m.shape == (4, 4)
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == m[0, 0])
    # each extra plane of separation costs e^{-kb}
    decay = math.exp(-0.5 * 10.0)
    assert m[0, 2] / m[0, 1] == pytest.approx(decay, rel=1e-12)
    assert m[0, 3] / m[0, 2] == pytest.approx(decay, rel=1e-12)
    near = stack_matrices([k], dip, geom, LongWave(), nearest_only=True)[2][0]
    assert near[0, 2] == 0.0 and near[0, 3] == 0.0
    assert near[0, 1] == m[0, 1]
    assert np.array_equal(np.diag(near), np.diag(m))


def test_two_plane_stack_matches_pair_formula():
    k = WaveVector(0.8, -0.2)
    dip = dipole_from_theta(0.4)
    geom = LatticeGeometry(5.0, n_planes=2)
    evals = symmetric_eigen(stack_matrices([k], dip, geom, Ewald())[2][0])
    j = couplings(Ewald().tensors([k], 0.0), dip)[0]
    jp = couplings(Ewald().tensors([k], 5.0), dip)[0]
    assert evals == pytest.approx(sorted((j - jp, j + jp)), abs=1e-12)


def test_nearest_only_error_has_second_neighbor_scale():
    # dropping the plane pairs two apart perturbs eigenvalues by about
    # |Jt'(2b)| ~ pi e^{-2 k b}; here pi e^{-10}
    k = WaveVector(0.5 * math.cos(0.3), 0.5 * math.sin(0.3))
    dip = dipole_from_theta(math.pi / 2.0)
    geom = LatticeGeometry(10.0, n_planes=5)
    _j, _jps, full = stack_matrices([k], dip, geom, Ewald())
    _j, _jps, near = stack_matrices([k], dip, geom, Ewald(), nearest_only=True)
    full, near = symmetric_eigen(full[0]), symmetric_eigen(near[0])
    gap = float(np.max(np.abs(full - near)))
    scale = math.pi * math.exp(-10.0)
    assert 0.2 * scale < gap < 5.0 * scale


def test_eigen_known_eigenvalues():
    tri = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    want = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    assert symmetric_eigen(tri) == pytest.approx(want, abs=1e-12)
    assert symmetric_eigen(np.diag([3.0, -1.0, 2.0])) == pytest.approx([-1.0, 2.0, 3.0])
    [lone] = symmetric_eigen([[7.0]])
    assert lone == 7.0


def test_eigen_2x2_closed_form():
    a, b, c = 1.3, -0.7, 0.4
    mid = 0.5 * (a + c)
    rad = math.hypot(0.5 * (a - c), b)
    got = symmetric_eigen(np.array([[a, b], [b, c]]))
    assert got == pytest.approx([mid - rad, mid + rad], abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.data())
def test_eigen_preserves_trace_and_frobenius(n, data):
    vals = data.draw(
        st.lists(st.floats(-10.0, 10.0), min_size=n * n, max_size=n * n)
    )
    m = np.array(vals).reshape(n, n)
    m = 0.5 * (m + m.T)
    lam = symmetric_eigen(m)
    assert np.all(np.diff(lam) >= 0.0)
    # similarity transforms preserve the trace and the Frobenius norm;
    # together these pin the first two eigenvalue moments
    assert np.sum(lam) == pytest.approx(np.trace(m), abs=1e-9)
    assert np.sum(lam * lam) == pytest.approx(np.sum(m * m), rel=1e-10, abs=1e-9)


def test_jacobi_handles_tiny_pivot():
    # an off-diagonal 1e-300 of the diagonal must not upset the solve
    m = np.array([[10.0, 1e-300], [1e-300, -10.0]])
    assert symmetric_eigen(m) == pytest.approx([-10.0, 10.0], abs=1e-12)


def test_jacobi_rejects_bad_input():
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        symmetric_eigen(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        symmetric_eigen(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_eigen_accepts_large_and_stacked_input():
    # no size cap: a 65-plane stack is a 65 x 65 matrix
    tri = np.diag(np.full(65, 2.0)) + np.diag(np.ones(64), 1) + np.diag(np.ones(64), -1)
    want = 2.0 + 2.0 * np.cos(np.pi * np.arange(65, 0, -1) / 66.0)
    assert symmetric_eigen(tri) == pytest.approx(want, abs=1e-12)
    # a (K, n, n) stack gives the same (K, n) values as one solve per matrix
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 4, 4))
    m = m + np.swapaxes(m, -1, -2)
    stacked = symmetric_eigen(m)
    assert stacked.shape == (5, 4)
    for one, lam in zip(m, stacked):
        assert np.array_equal(symmetric_eigen(one), lam)

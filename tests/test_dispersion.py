"""Couplings, N-plane stacks and their two-plane limit."""

import math
import tracemalloc

import numpy as np
import pytest

from latticesum.dispersion import (
    Direct,
    Ewald,
    LongWave,
    coupling_table,
    couplings,
    stack_matrices,
)
from latticesum import _core_py, ewald
from latticesum.ewald import f_constant
from latticesum.model import (
    MIN_OFFSET,
    dipole_from_theta,
    make_k_grid,
    tensors_from_components,
)


def test_coupling_contraction():
    t = tensors_from_components(1.0, 1.0, -2.0, 0.5, 0.0, 0.0)[None]
    assert couplings(t, (1.0, 0.0, 0.0))[0] == 1.0
    s = math.sqrt(0.5)
    diag = (s, s, 0.0)
    assert couplings(t, diag)[0] == pytest.approx(1.5)


def test_each_coupling_of_a_stack_equals_its_tensor_alone():
    # bit for bit, in any stack shape, order or memory layout, so no CSV value
    # depends on which other k share the run; a batched matmul would differ in
    # the last bit for about a third of these k
    ks = np.random.default_rng(0).uniform(-math.pi, math.pi, size=(200, 2))
    stack = Ewald().tensors(ks, [0.0, 1.3, 3.0])
    for theta in (0.0, 0.4, 1.1, math.pi / 2.0):
        dip = dipole_from_theta(theta)
        got = couplings(stack, dip)
        alone = [[couplings(t[None], dip)[0] for t in row] for row in stack]
        assert got.tobytes() == np.array(alone).tobytes()
        assert couplings(stack[0, 7], dip) == got[0, 7]
        assert couplings(stack[:, ::-1], dip)[:, ::-1].tobytes() == got.tobytes()
        swapped = np.asfortranarray(stack.transpose(1, 0, 2, 3))
        assert couplings(swapped, dip).T.tobytes() == got.tobytes()


def test_couplings_refuse_a_dipole_that_is_not_a_real_unit_3_vector():
    # NaN and inf |m|^2 are refused as well as a plain non-unit one
    tensors = Ewald().tensors([(0.8, 0.3)], [0.0, 1.5])
    for bad in [(math.nan, 0.0, 1.0), (math.inf, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 0.0),
                (1.0, 0.0, 0.0, 0.0), [[1.0, 0.0, 0.0]], (True, False, False),
                (1.0 + 0j, 0.0, 0.0), (1e200, 0.0, 0.0), (1e154, 1e154, 1e154)]:
        with pytest.raises(ValueError, match="unit dipole direction of shape"):
            couplings(tensors, bad)
    for theta in (0.0, 0.3, math.pi / 4.0, 1.2, math.pi / 2.0, math.pi):
        m = dipole_from_theta(theta)
        assert np.array_equal(couplings(tensors, m), couplings(tensors, np.array(m)))
        assert couplings(tensors, m).shape == (2, 1)
    assert couplings(tensors, (0, 0, 1)) == pytest.approx(tensors[..., 2, 2].real)


@pytest.mark.parametrize("method", [Ewald(), LongWave(), Direct(cutoff=6)])
@pytest.mark.parametrize("offset", [0.0, 1.5])
def test_engines_take_any_iterable_and_return_writable_stacks(method, offset):
    ks = [(0.8, 0.3), (0.0, 0.0), (-0.3, 0.8)]
    empty = method.tensors([], offset)
    assert empty.shape == (0, 3, 3) and empty.flags.writeable
    got = method.tensors(tuple(ks), offset)
    assert got.shape == (len(ks), 3, 3) and got.flags.writeable
    assert np.array_equal(got, method.tensors(ks, offset))
    # or a (K, 2) array of (kxa, kya)
    kxy = np.array(ks)
    assert np.array_equal(got, method.tensors(kxy, offset))
    assert method.tensors(np.empty((0, 2)), offset).shape == (0, 3, 3)
    # or no offsets, k = 0 among the k
    assert method.tensors(ks, []).shape == (0, len(ks), 3, 3)


@pytest.mark.parametrize("method", [Ewald(), LongWave(), Direct(cutoff=6)])
def test_batched_engines_match_single_k(method):
    # lattice axes, near the zone centre, the zone edges, k = 0, a
    # reciprocal-lattice point and generic k, more than two kernel blocks
    # the diagonal, and mirror and swap images (one orbit of the lattice's
    # symmetries) that the Ewald engine sums once, and subnormal |k|
    special = [
        (1e-3, 0.0), (0.0, 1e-3), (0.8, 0.0), (0.0, -1.7), (math.pi, 0.3),
        (-math.pi, -math.pi), (0.4, math.pi), (-math.pi, 0.0), (0.0, 0.0),
        (2.0 * math.pi, 0.0), (0.9, 0.9), (-0.9, 0.9), (0.8, 0.3), (-0.8, 0.3),
        (0.8, -0.3), (-0.3, -0.8), (0.3, 0.8), (3e-308, 0.0), (1e-310, 0.0),
        (5e-324, 5e-324),
    ]
    rng = np.random.default_rng(11)
    generic = rng.uniform(-math.pi, math.pi, size=(2 * ewald._BLOCK + 5, 2))
    ks = np.array(special + generic.tolist())
    for c in (0.0, 1e-3, 1.5):
        batch = method.tensors(ks, c)
        assert batch.shape == (len(ks), 3, 3)
        for k, got in zip(ks, batch):
            assert np.array_equal(got, method.tensors([k], c)[0])
    # a sequence of offsets gives, offset by offset, the stack of each alone
    offsets = (0.0, 1e-3, 1.5, 14.0, 300.0)
    stacked = method.tensors(ks, offsets)
    assert stacked.shape == (len(offsets), len(ks), 3, 3)
    for c, got in zip(offsets, stacked):
        assert got.tobytes() == method.tensors(ks, c).tobytes()
    # in the plane, k = (2 pi, 0) is k = 0 for every engine
    intra = method.tensors(ks, 0.0)
    origin, lattice = (intra[special.index(k)] for k in ((0.0, 0.0), (2.0 * math.pi, 0.0)))
    assert np.max(np.abs(lattice - origin)) <= 1e-14 * np.max(np.abs(origin))


def test_direct_takes_corrected_window_on_reciprocal_lattice():
    # the bare window misses its O(1/L) tail wherever no phase oscillates;
    # every reciprocal-lattice point folds onto k = 0, where the closed
    # window is the lattice sum
    method = Direct(cutoff=6)
    ks = [(0.0, 0.0), (2.0 * math.pi, 0.0), (-2.0 * math.pi, 4.0 * math.pi)]
    for c in (0.0, 1.5):
        got = method.tensors(ks, c)
        want = ewald.lattice_tensors(ks[:1], c)[0]
        assert np.max(np.abs(got[0] - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
        for tensor in got:
            assert np.array_equal(tensor, got[0])


def test_direct_checks_the_corrected_window(monkeypatch):
    # the closed sums are checked as every window is: a trace of 1 is refused
    sums = _core_py.window_sums
    monkeypatch.setattr(_core_py, "window_sums",
                        lambda *args: sums(*args) + np.eye(6, 1)[:, :, None])
    with pytest.raises(ValueError, match="traceless"):
        Direct(cutoff=6).tensors([(2.0 * math.pi, 0.0)], 0.0)
    with pytest.raises(ValueError, match="traceless"):
        Direct(cutoff=6).tensors([(0.0, 0.0)], 1.5)


def test_longwave_intra_and_polarization_gap():
    f = f_constant()
    # diag(-F, -F, 2F) at every k, and exactly so at k = 0
    origin = LongWave().tensors([(0.0, 0.0)], 0.0)[0]
    assert np.array_equal(origin, np.diag([-f, -f, 2.0 * f]))
    tensors = LongWave().tensors([(1e-4, 0.0)], 0.0)
    j_par = couplings(tensors, dipole_from_theta(math.pi / 2.0))[0]
    j_z = couplings(tensors, dipole_from_theta(0.0))[0]
    assert j_par == pytest.approx(-f, rel=1e-12)
    assert j_z == pytest.approx(2.0 * f, rel=1e-12)
    # the k = 0 gap between the z-polarized and in-plane branches is 3F
    assert j_z - j_par == pytest.approx(3.0 * f, rel=1e-12)


def test_j_inter_longwave_closed_form():
    ka, b, phi = 0.5, 2.0, 0.7
    k = (ka * math.cos(phi), ka * math.sin(phi))
    tensors = LongWave().tensors([k], b)
    for theta in (0.0, 0.6, math.pi / 2.0):
        want = (
            2.0 * math.pi * ka * math.exp(-ka * b)
            * (math.sin(theta) ** 2 * math.cos(phi) ** 2 - math.cos(theta) ** 2)
        )
        got = couplings(tensors, dipole_from_theta(theta))[0]
        assert got == pytest.approx(want, abs=1e-14)
    # k = 0, where the closed form has no limit, takes the Ewald kernel
    origin = [(0.0, 0.0)]
    assert np.array_equal(LongWave().tensors(origin, b), ewald.lattice_tensors(origin, b))


def test_longwave_reciprocal_lattice_point_is_zone_centre():
    # between planes (2 pi, 0) folds onto k = 0, where LongWave takes the
    # Ewald kernel
    dipole = dipole_from_theta(0.3)
    for b in (0.5, 2.0):
        origin = ewald.lattice_tensors([(0.0, 0.0)], b)
        tensors = LongWave().tensors([(2.0 * math.pi, 0.0)], b)
        assert np.array_equal(tensors, origin)
        assert couplings(tensors, dipole)[0] == couplings(origin, dipole)[0]


def test_engines_agree_on_couplings():
    k = (2.0 * math.cos(0.75), 2.0 * math.sin(0.75))
    dip = dipole_from_theta(0.9)
    kernel, window = Ewald(), Direct(cutoff=200)
    assert couplings(kernel.tensors([k], 0.0), dip)[0] == pytest.approx(
        couplings(window.tensors([k], 0.0), dip)[0], abs=5e-6
    )
    assert couplings(kernel.tensors([k], 1.0), dip)[0] == pytest.approx(
        couplings(window.tensors([k], 1.0), dip)[0], abs=5e-6
    )


def test_plane_offset_rule():
    # offset 0 is the site's own plane; any other offset is finite and at
    # least MIN_OFFSET, 1e-3 a (9e-4 sits below it)
    ks = [(0.5, 0.2), (0.0, 0.0)]
    for method in (Ewald(), LongWave(), Direct(cutoff=5)):
        for c in (-1.0, 9e-4, math.nan, math.inf):
            with pytest.raises(ValueError):
                method.tensors(ks, c)
        assert method.tensors(ks, 0.0).shape == (2, 3, 3)
        assert method.tensors(ks, MIN_OFFSET).shape == (2, 3, 3)
    assert np.array_equal(Ewald().tensors(ks, 0.0), ewald.lattice_tensors(ks, 0.0))
    # a stack's plane spacing must not be 0 either: offset 0 is the in-plane
    # tensor; nor may it have fewer than one plane
    dip = dipole_from_theta(0.6)
    for b in (0.0, 9e-4, math.nan, math.inf):
        with pytest.raises(ValueError, match="plane spacing"):
            coupling_table(ks, dip, b, 2, Ewald())
    with pytest.raises(ValueError, match="n_planes"):
        coupling_table(ks, dip, 1.5, 0, Ewald())
    assert np.array_equal(coupling_table(ks, dip, MIN_OFFSET, 2, Ewald()),
                          couplings(Ewald().tensors(ks, [0.0, MIN_OFFSET]), dip).T)


def test_stack_matrix_structure():
    k = (0.5 * math.cos(0.3), 0.5 * math.sin(0.3))
    dip = dipole_from_theta(math.pi / 2.0)
    m = stack_matrices(coupling_table([k], dip, 10.0, 4, LongWave()), 4)[0]
    assert m.shape == (4, 4)
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == m[0, 0])
    # each extra plane of separation costs e^{-kb}
    decay = math.exp(-0.5 * 10.0)
    assert m[0, 2] / m[0, 1] == pytest.approx(decay, rel=1e-12)
    assert m[0, 3] / m[0, 2] == pytest.approx(decay, rel=1e-12)
    # nearest-only: the two-plane table, padded with zeros to four planes
    near = stack_matrices(coupling_table([k], dip, 10.0, 2, LongWave()), 4)[0]
    assert near[0, 2] == 0.0 and near[0, 3] == 0.0
    assert near[0, 1] == m[0, 1]
    assert np.array_equal(np.diag(near), np.diag(m))


@pytest.mark.parametrize("nearest_only", [False, True])
@pytest.mark.parametrize("n_planes", [1, 2, 8])
def test_stack_matrices_equal_a_loop_over_separations(n_planes, nearest_only):
    # the Toeplitz view of the coupling table puts Jt' at separation s in
    # every entry |alpha - beta| = s, and +0.0 past the table, bit for bit
    ks = make_k_grid(16)
    dip = dipole_from_theta(0.6)
    seps = min(n_planes - 1, 1) if nearest_only else n_planes - 1
    got = coupling_table(ks, dip, 1.5, seps + 1, Ewald())
    mats = stack_matrices(got, n_planes)
    offsets = [1.5 * s for s in range(seps + 1)]
    table = couplings(Ewald().tensors(ks, offsets), dip).T
    assert np.array_equal(got, table)
    want = np.zeros((len(ks), n_planes, n_planes))
    for a in range(n_planes):
        for b in range(n_planes):
            if abs(a - b) <= seps:
                want[:, a, b] = table[:, abs(a - b)]
    assert mats.tobytes() == want.tobytes()


def _dense_stack(table, n_planes):
    # the (K, N, N) gather of column |alpha - beta|, 0 past the table
    padded = np.concatenate([table, np.zeros((len(table), 1))], axis=1)
    sep = np.abs(np.subtract.outer(np.arange(n_planes), np.arange(n_planes)))
    return padded[:, np.minimum(sep, table.shape[1])]


@pytest.mark.parametrize("n_planes", [1, 2, 8, 65])
@pytest.mark.parametrize("k_points", [0, 1, 121])
def test_stack_view_equals_the_dense_gather(n_planes, k_points):
    rng = np.random.default_rng(n_planes + k_points)
    for columns in (1, 2, n_planes, n_planes + 3):
        table = rng.standard_normal((k_points, columns))
        view, dense = stack_matrices(table, n_planes), _dense_stack(table, n_planes)
        assert np.array_equal(view, dense)
        assert not view.flags.writeable
        # eigvalsh copies each matrix into its own buffer: the same bits
        assert np.array_equal(np.linalg.eigvalsh(view), np.linalg.eigvalsh(dense))


def test_stack_view_holds_one_row_per_k():
    # 2 k x 2000 planes: the dense stack would take 64 MB, the rows 64 kB
    tracemalloc.start()
    try:
        stack_matrices(np.ones((2, 3)), 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_two_plane_stack_matches_pair_formula():
    k = (0.8, -0.2)
    dip = dipole_from_theta(0.4)
    table = coupling_table([k], dip, 5.0, 2, Ewald())
    evals = np.linalg.eigvalsh(stack_matrices(table, 2)[0])
    j = couplings(Ewald().tensors([k], 0.0), dip)[0]
    jp = couplings(Ewald().tensors([k], 5.0), dip)[0]
    assert evals == pytest.approx(sorted((j - jp, j + jp)), abs=1e-12)


def test_nearest_only_error_has_second_neighbor_scale():
    # dropping the plane pairs two apart perturbs eigenvalues by about
    # |Jt'(2b)| ~ pi e^{-2 k b}; here pi e^{-10}
    k = (0.5 * math.cos(0.3), 0.5 * math.sin(0.3))
    dip = dipole_from_theta(math.pi / 2.0)
    full = stack_matrices(coupling_table([k], dip, 10.0, 5, Ewald()), 5)
    near = stack_matrices(coupling_table([k], dip, 10.0, 2, Ewald()), 5)
    full, near = np.linalg.eigvalsh(full[0]), np.linalg.eigvalsh(near[0])
    gap = float(np.max(np.abs(full - near)))
    scale = math.pi * math.exp(-10.0)
    assert 0.2 * scale < gap < 5.0 * scale


def test_stack_matrices_refuse_a_table_that_is_not_finite_real_2d():
    # the matrices are exactly symmetric and finite only from such a table
    for bad in (
        [[0.0, np.nan]],
        [[np.inf, 1.0]],
        [[1.0 + 0.0j, 0.5]],
        [1.0, 0.5],
        np.zeros((1, 2, 1)),
        [["1.0", "0.5"]],
    ):
        with pytest.raises(ValueError, match="real array of finite couplings"):
            stack_matrices(bad, 3)
    assert stack_matrices([[1, 2]], 2).tolist() == [[[1.0, 2.0], [2.0, 1.0]]]


@pytest.mark.parametrize("bad", [0, -3, 2.5, 2.0, True, "2", None])
def test_coupling_table_refuses_a_plane_count_that_is_not_an_integer_from_1(bad):
    with pytest.raises(ValueError, match="n_planes must be an integer >= 1"):
        coupling_table([(0.5, 0.0)], dipole_from_theta(0.6), 1.5, bad, Ewald())
    table = coupling_table([(0.5, 0.0)], dipole_from_theta(0.6), 1.5, np.int64(3), Ewald())
    assert table.shape == (1, 3)


@pytest.mark.parametrize("bad", [0, -3, 2.5, 2.0, True, "2", None])
def test_stack_matrices_refuse_a_plane_count_that_is_not_an_integer_from_1(bad):
    with pytest.raises(ValueError, match="n_planes must be an integer >= 1"):
        stack_matrices([[1.0, 0.5]], bad)
    assert stack_matrices([[1.0, 0.5]], np.int64(3)).shape == (1, 3, 3)


def test_couplings_refuse_an_imaginary_residual():
    # a Hermitian-looking tensor whose zz entry is not real leaves an
    # imaginary part in m.D.m that is not roundoff
    t = np.diag([1.0, 1.0, -2.0 + 1e-9j])
    with pytest.raises(ArithmeticError, match="imaginary residual 1.000e-09"):
        couplings(t, (0.0, 0.0, 1.0))
    assert couplings(t, (1.0, 0.0, 0.0)) == 1.0

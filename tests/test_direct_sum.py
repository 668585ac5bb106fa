"""Window sums: dyadic terms, the kernel, the closed window, k = 0."""

import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticesum import _core_py
from latticesum.direct_sum import window_tensors
from latticesum.dispersion import Direct, Ewald
from latticesum.ewald import f_constant
from latticesum.model import MIN_OFFSET

from k0_tail_oracle import k0_tail_correction

ORIGIN = (0.0, 0.0)
_AXES = {"x": 0, "y": 1, "z": 2, 0: 0, 1: 1, 2: 2}


def dyadic_term(lx: int, ly: int, lz_scaled: float, i, j) -> float:
    """One dipole-dyadic entry delta_ij/r^3 - 3 r_i r_j / r^5, r in units of a:
    the term the window kernel is checked against, one at a time."""
    ii = _AXES[i]
    jj = _AXES[j]
    r = (float(lx), float(ly), float(lz_scaled))
    r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2]
    if r2 == 0.0:
        raise ValueError("zero separation: the self-interaction term is excluded")
    ir5 = 1.0 / (r2 * r2 * math.sqrt(r2))
    diag = r2 * ir5 if ii == jj else 0.0
    return diag - 3.0 * r[ii] * r[jj] * ir5


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
        window_tensors([ORIGIN], 0.0, 0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            window_tensors([ORIGIN], bad, 5)
        with pytest.raises(ValueError):
            Direct(5).tensors([ORIGIN], bad)


@pytest.mark.parametrize("bad", [2.5, 500.0, True, 0])
def test_cutoff_is_an_integer_from_1(bad):
    # the bare and the closed window read the same integer L
    calls = [
        lambda L: window_tensors([ORIGIN], 1.5, L),
        lambda L: Direct(L).tensors([ORIGIN], 0.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="cutoff must be an integer >= 1"):
            call(bad)
        assert np.array_equal(call(np.int64(3)), call(3))


def _window_sums_by_loop(qx, qy, cutoff, lz_scaled):
    """The six window sums, one dyadic_term at a time, summed with fsum."""
    pairs = ("xx", "yy", "zz", "xy", "xz", "yz")
    parts = [([], []) for _ in pairs]
    for lx in range(-cutoff, cutoff + 1):
        for ly in range(-cutoff, cutoff + 1):
            if lz_scaled == 0.0 and lx == ly == 0:
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
    c = layer_offset * b_over_a
    sums = _core_py.window_sums(np.array(ks), 40, c)
    assert sums.shape == (6, len(ks))
    for (qx, qy), col in zip(ks, sums.T):
        loop = _window_sums_by_loop(qx, qy, 40, c)
        assert np.max(np.abs(col - loop)) <= 1e-12
        # parity makes xx, yy, zz and xy real and xz, yz imaginary exactly
        assert not np.any(col[:4].imag)
        assert not np.any(col[4:].real)


@pytest.mark.parametrize("lz_scaled", [0.0, 1.5])
def test_l_block_seams(monkeypatch, lz_scaled):
    # L = 37 has 38 values of l. Blocks of 5 are seven of 5 and one of 3,
    # blocks of 16 are 16, 16 and 6; past the first block the nodes whose
    # Gaussians vanish over the whole block are left out
    args = (np.array([[0.83, -1.37]]), 37, lz_scaled)
    whole = _core_py.window_sums(*args)
    for width in (5, 16):
        monkeypatch.setattr(_core_py, "_L_BLOCK", width)
        blocked = _core_py.window_sums(*args)
        assert np.max(np.abs(blocked - whole)) <= 1e-13


@pytest.mark.parametrize("offset", [0.0, MIN_OFFSET, 1.5])
@pytest.mark.parametrize("cutoff", [1, 1000, 10**5])
def test_node_sum_matches_mpmath(cutoff, offset):
    # the kernel's Gaussians in rho^2 = lx^2 + ly^2, weighted with the
    # offset's exp(-t c^2), sum to r^-5 at every r^2 = rho^2 + c^2 of the
    # window: from the nearest site (c^2, or 1 at c = 0) to the far corner
    # 2 L^2 + c^2, at 400 r^2 spaced evenly in ln r^2 with both ends, and 64
    # more across one period h of the node lattice
    t, (own,), (w,) = _core_py._nodes(cutoff, [offset])
    c2 = offset * offset
    lo, hi = math.log(c2 or 1.0), math.log(2.0 * cutoff * cutoff + c2)
    period = lo + 1.0 + np.linspace(0.0, _core_py._H, 64)
    r2 = np.exp(np.concatenate([np.linspace(lo, hi, 400), period]))
    rho2 = np.sort(r2 - c2)
    rho2[[0, -1]] = 0.0 if offset else 1.0, 2.0 * cutoff * cutoff
    sums = w @ _core_py._gaussians(t[own], rho2)
    with mpmath.workdps(30):
        for x, got in zip(rho2.tolist(), sums.tolist()):
            want = (mpmath.mpf(x) + mpmath.mpf(offset) ** 2) ** -2.5
            assert abs(got - want) <= 4e-15 * want, x


@pytest.mark.parametrize("lz_scaled", [0.0, 1.5])
@pytest.mark.parametrize("cutoff", [1, 2, 3])
def test_small_windows_match_fsum_loop(cutoff, lz_scaled):
    # the whole window is one block of l
    ks = [(0.83, -1.37), (0.9, 0.0), (0.0, -1.2), (math.pi, math.pi), (0.0, 0.0)]
    sums = _core_py.window_sums(np.array(ks), cutoff, lz_scaled)
    for (qx, qy), col in zip(ks, sums.T):
        loop = _window_sums_by_loop(qx, qy, cutoff, lz_scaled)
        assert np.max(np.abs(col - loop)) <= 1e-12


@pytest.mark.parametrize("lz_scaled", [1e-3, 10.0])
def test_extreme_offsets_match_fsum_loop(lz_scaled):
    # the entries are smallest against roundoff here: at c = 1e-3 the
    # origin column's -2/c^3 = -2e9 swamps every other term, and at c = 10
    # the oscillating sums fall to 5e-6, below the nearest term's 2/c^3
    ks = [(0.83, -1.37), (0.9, 0.0), (0.0, -1.2), (math.pi, math.pi), (0.0, 0.0)]
    sums = _core_py.window_sums(np.array(ks), 40, lz_scaled)
    for (qx, qy), col in zip(ks, sums.T):
        loop = _window_sums_by_loop(qx, qy, 40, lz_scaled)
        assert np.max(np.abs(col - loop)) <= 1e-15 * max(1.0, np.max(np.abs(loop)))


@pytest.mark.parametrize("offset", [1e63, 1e64, 1e100, 1e300])
def test_window_refuses_an_offset_whose_fifth_power_overflows(offset):
    # the Gaussian weights scale as c^-5 and underflow past c^5 = inf: at
    # c = 1e64 the sums came back 2e-4 off, from 1e65 as zeros
    with pytest.raises(ValueError, match=r"c\^5 finite .*got " + re.escape(repr(offset))):
        window_tensors([(0.7, 0.3)], offset, 2)
    with pytest.raises(ValueError, match=r"c\^5 finite"):
        window_tensors([(0.7, 0.3)], [1.5, offset], 2)


def test_window_matches_fsum_loop_below_the_largest_offset():
    # c^5 = 1.65e308 at c = 4.4e61: the largest weights are subnormal, and
    # every upper-triangle entry is still within 1.4e-14 of the loop
    c = 4.4e61
    # xx, yy, zz, xy, xz, yz, the loop's order
    got = window_tensors([(0.7, 0.3)], c, 2)[0][[0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]]
    loop = _window_sums_by_loop(0.7, 0.3, 2, c)
    assert np.all(np.abs(got - loop) <= 1e-13 * np.abs(loop))


@pytest.mark.parametrize("offset", [0.0, 1.5])
def test_k_block_seams(monkeypatch, offset):
    # 7 k in blocks of 3: two full blocks and a last one of 1; each k's sums
    # are independent of its neighbours, so the split changes no bit
    ks = np.random.default_rng(3).uniform(-math.pi, math.pi, size=(7, 2))
    whole = _core_py.window_sums(ks, 23, offset)
    monkeypatch.setattr(_core_py, "_BLOCK", 3)
    assert np.array_equal(_core_py.window_sums(ks, 23, offset), whole)


def test_direct_batch_equals_single_k():
    # a generic k, both axes, near the zone centre, the zone corner, k = 0
    # and a reciprocal-lattice point, which folds onto k = 0; each has its
    # own node floor
    ks = [
        (0.83, -1.37), (0.9, 0.0), (0.0, -1.2), (1e-3, 0.0),
        (math.pi, math.pi), (0.0, 0.0), (2.0 * math.pi, 0.0),
    ]
    method = Direct(cutoff=40)
    for tensors, alone in (
        (method.tensors(ks, 0.0), lambda k: method.tensors([k], 0.0)[0]),
        (method.tensors(ks, 1.5), lambda k: method.tensors([k], 1.5)[0]),
    ):
        for k, got in zip(ks, tensors):
            assert np.array_equal(got, alone(k))
    # more than one block of l, and more than one block of k
    many = np.random.default_rng(5).uniform(-math.pi, math.pi, (_core_py._BLOCK + 6, 2))
    assert 300 + 1 > _core_py._L_BLOCK and len(many) > _core_py._BLOCK
    method = Direct(cutoff=300)
    stacked = method.tensors(many, [0.0, 1.5])
    for i, k in enumerate(many):
        assert np.array_equal(stacked[:, i], method.tensors(k[None], [0.0, 1.5])[:, 0])


def test_direct_offsets_in_one_call_equal_one_at_a_time():
    # a generic k, an axis and k = 0, whose nodes reach down to the floor
    ks = [(0.83, -1.37), (0.9, 0.0), (0.0, 0.0)]
    offsets = [0.0, 1.5, 3.0]
    method = Direct()
    stacked = method.tensors(ks, offsets)
    assert stacked.shape == (3, len(ks), 3, 3)
    for c, got in zip(offsets, stacked):
        assert got.tobytes() == method.tensors(ks, c).tobytes()


@pytest.mark.parametrize("cutoff", [1, 3, 10, 100, 1000])
def test_direct_matches_ewald_at_every_k(cutoff):
    # the closed window is the lattice sum: k = 0 and a hair off it, near
    # the zone centre, the zone edge and corner, the diagonal and generic k,
    # in the plane and from MIN_OFFSET to 10 planes away; the bare window
    # is 1.1e-2 off at (1e-12, 0) and L = 500
    generic = np.random.default_rng(31).uniform(-math.pi, math.pi, (6, 2)).tolist()
    ks = [ORIGIN, (1e-12, 0.0), (1e-3, 0.0), (0.05, 0.0), (math.pi, 0.0),
          (math.pi, math.pi), (0.7, 0.7)] + generic
    offsets = [0.0, MIN_OFFSET, 0.5, 1.5, 10.0]
    want = Ewald().tensors(ks, offsets)
    err = np.max(np.abs(Direct(cutoff).tensors(ks, offsets) - want), axis=(2, 3))
    assert np.all(err <= 1e-14 * np.maximum(1.0, np.max(np.abs(want), axis=(2, 3))))


@pytest.mark.parametrize("q", [0.0, 0.3, -2.0, math.pi])
def test_poisson_tables_match_the_lattice_sums(q):
    # half of sum_l e^(-t l^2) (cos ql, l^2 cos ql, l sin ql) out to where
    # the Gaussian is past e^-60, at nodes from n(t) = 0 up to 7
    t = np.exp(np.arange(-24, 12) * _core_py._H)
    got = _core_py._poisson(np.array([[q, q]]), t)[0, :3]
    for tj, col in zip(t.tolist(), got.T):
        edge = math.ceil(math.sqrt(60.0 / tj))
        for got_sum, f in zip(col.tolist(), (lambda l: math.cos(q * l),
                                             lambda l: l * l * math.cos(q * l),
                                             lambda l: l * math.sin(q * l))):
            terms = [0.5 * math.exp(-tj * l * l) * f(l) for l in range(-edge, edge + 1)]
            # the terms cancel to roundoff away from q = 0: scale by their size
            size = math.fsum(map(abs, terms))
            assert abs(got_sum - math.fsum(terms)) <= 1e-14 * max(1.0, size), tj


def test_minus_k_conjugates_exactly():
    kxy = np.array([0.6, 1.1])
    plus, minus = window_tensors([kxy, -kxy], 2.0, 25)
    assert np.array_equal(minus, np.conj(plus))


def test_intra_diagonal_real_inter_xz_imaginary():
    k = (0.9, 0.4)
    intra = window_tensors([k], 0.0, 50)[0]
    assert abs(intra[0, 0].imag) <= 1e-12 * abs(intra[0, 0])
    assert abs(intra[0, 2]) == 0.0
    inter = window_tensors([k], 1.0, 50)[0]
    assert abs(inter[0, 2].real) <= 1e-12 * abs(inter[0, 2])
    assert abs(inter[1, 2].real) <= 1e-12 * abs(inter[1, 2])


def _corrected_k0(cutoff, c):
    return window_tensors([ORIGIN], c, cutoff)[0] + k0_tail_correction(cutoff, c)


def test_k0_correction_cancels_window_tail():
    # bare window error at k = 0 is O(1/L); the corrected value settles
    # orders of magnitude faster
    for c in (0.0, 10.0, 1.0):
        bare = window_tensors([ORIGIN], c, 60)[0]
        ref = _corrected_k0(240, c)
        bare_err = np.max(np.abs(bare - ref))
        corr_err = np.max(np.abs(_corrected_k0(60, c) - ref))
        assert corr_err < 1e-3 * bare_err


def test_k0_in_plane_matches_lattice_constant():
    t = _corrected_k0(2000, 0.0)
    f = f_constant()
    assert t[0, 0].real == pytest.approx(-f, abs=1e-9)
    assert t[1, 1].real == pytest.approx(-f, abs=1e-9)
    assert t[2, 2].real == pytest.approx(2.0 * f, abs=1e-9)


def test_k0_inter_plane_far_separation_vanishes():
    # b = 10 a: the corrected k = 0 tensor is zero up to discreteness
    # corrections of order e^{-2 pi b/a}
    t = _corrected_k0(2000, 10.0)
    assert abs(t[2, 2]) <= 1e-10
    assert abs(t[0, 0]) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.integers(0, 2))
def test_window_tensors_hermitian_traceless(kx, ky, off):
    # the stack is checked Hermitian and traceless relative to each
    # tensor's largest entry; getting one back means the sums passed
    m = window_tensors([(kx, ky)], off * 1.25, 15)[0]
    scale = max(1.0, float(np.max(np.abs(m))))
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12 * scale
    # the dyadic is traceless term by term
    assert abs(np.trace(m)) <= 1e-12 * scale


def test_rejects_nonpositive_spacing():
    with pytest.raises(ValueError):
        window_tensors([ORIGIN], -1.0, 5)
    with pytest.raises(ValueError):
        Direct(5).tensors([ORIGIN], -1.0)

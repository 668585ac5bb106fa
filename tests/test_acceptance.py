"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL
line on the real stdout (bypassing capture) so the verdicts are visible
in any pytest run. Tensors produced along the way are collected so the
Hermiticity/trace criterion can audit every one of them.
"""

import csv
import json
import math
import random
import sys
import time
from contextlib import contextmanager

import numpy as np

from latticesum.cli import main
from latticesum.direct_sum import DirectSumConfig, d_tensor_direct, k0_tail_correction
from latticesum.dispersion import (
    Ewald,
    couplings,
    pair_energies,
    splitting,
    stack_matrices,
    symmetric_eigen,
)
from latticesum.ewald import (
    EwaldConfig,
    f_constant,
    inter_longwave_tensors,
    inter_series,
    inter_tensors,
    intra_tensors,
)
from latticesum.model import (
    EnergyScale,
    LatticeGeometry,
    WaveVector,
    dipole_from_theta,
    j0_scale,
)
from latticesum.specfun import bessel_k

from bessel_oracle import bessel_k_oracle

# every tensor computed in criteria 3-6 lands here, as a 3 x 3 array, for
# criterion 9
_TENSORS = []

# verdict lines, re-emitted by conftest once capture is released
_LINES = []


def _report(line):
    _LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(
            f"CRITERION {number:02d} FAIL: {label}"
            f" ({time.perf_counter() - start:.2f} s)"
        )
        raise
    _report(
        f"CRITERION {number:02d} PASS: {label}"
        f" ({time.perf_counter() - start:.2f} s)"
    )


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_01():
    with criterion(1, "zone-centre constant vs direct window oracle and 9/2"):
        # oracle: plain window sum at k = 0 plus the analytic tail of the
        # missing exterior, no shared code with the accelerated series;
        # built before the clock starts, so the limit times f_constant
        cfg = DirectSumConfig(cutoff=2000, layer_offset=0)
        oracle = d_tensor_direct(WaveVector(0.0, 0.0), cfg, 1.0)
        oracle = oracle + k0_tail_correction(cfg, 1.0)
        f_direct = 0.5 * float(oracle.zz.real)
        start = time.perf_counter()
        f = f_constant()
        elapsed = time.perf_counter() - start
        assert 4.51 <= f <= 4.52
        assert abs(f - f_direct) <= 5e-3
        assert abs(f - 4.5) / 4.5 <= 0.005
        assert elapsed < 1.0


def test_criterion_02():
    with criterion(2, "coupling scale for a unit dipole on a 1000 A lattice"):
        start = time.perf_counter()
        got = j0_scale(1.0, 1000.0)
        elapsed = time.perf_counter() - start
        assert abs(got - 1.440e-8) <= 0.005 * 1.440e-8
        assert elapsed < 1.0


def test_criterion_03():
    with criterion(3, "inter-plane series vs 500-cutoff window, 48 pairs"):
        start = time.perf_counter()
        window = DirectSumConfig(cutoff=500, layer_offset=1)
        worst = 0.0
        ks = [
            WaveVector(ka * math.cos(ang), ka * math.sin(ang))
            for ka in (0.7, 1.2, 2.0, math.pi)
            for ang in (0.35, 0.75, 1.05, 1.35)
        ]
        for b_over_a in (1.0, 2.0, 10.0):
            for k, got in zip(ks, inter_tensors(ks, b_over_a)):
                ref = d_tensor_direct(k, window, b_over_a).entries
                _TENSORS.extend([got, ref])
                worst = max(worst, float(np.max(np.abs(got - ref))))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-6, f"worst component gap {worst:.3g}"
        assert elapsed < 10.0


def test_criterion_04():
    with criterion(4, "in-plane series vs 2000-cutoff window, 8 generic k"):
        start = time.perf_counter()
        window = DirectSumConfig(cutoff=2000, layer_offset=0)
        series = EwaldConfig(n_max=8, l_max=60)
        worst = 0.0
        points = [
            (0.8, 0.45), (0.8, 1.12), (1.3, 0.6), (1.3, 0.95),
            (1.9, 0.45), (1.9, 1.12), (2.6, 0.7), (2.9, 0.85),
        ]
        ks = [WaveVector(ka * math.cos(ang), ka * math.sin(ang)) for ka, ang in points]
        for k, got in zip(ks, intra_tensors(ks, series)):
            ref = d_tensor_direct(k, window, 1.0).entries
            _TENSORS.extend([got, ref])
            worst = max(worst, float(np.max(np.abs(got - ref))))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-5, f"worst component gap {worst:.3g}"
        assert elapsed < 30.0


def test_criterion_05():
    with criterion(5, "long-wave closed form at b = 10a and b = a"):
        # at b = a the reciprocal-lattice images the closed form drops
        # leave a finite k -> 0 tensor (zz about -0.327) while the closed
        # form decays like ka; the corrected k = 0 window gives those
        # images with no code shared with either series
        window = DirectSumConfig(cutoff=200, layer_offset=1)
        images = (d_tensor_direct(WaveVector(0.0, 0.0), window, 1.0)
                  + k0_tail_correction(window, 1.0)).entries
        start = time.perf_counter()
        k = WaveVector(1e-3 * math.cos(0.6), 1e-3 * math.sin(0.6))

        def closed_and_series(b_over_a):
            got = inter_longwave_tensors([k], b_over_a)[0]
            ref = inter_tensors([k], b_over_a)[0]
            _TENSORS.extend([got, ref])
            return got, ref

        got, ref = closed_and_series(10.0)
        far = float(np.max(np.abs(got - ref) / np.abs(ref)))
        got, ref = closed_and_series(1.0)
        near = float(np.max(np.abs((ref - got) - images))
                     / np.max(np.abs(images)))
        elapsed = time.perf_counter() - start
        assert far <= 1e-10, f"b = 10a relative gap {far:.3g}"
        assert elapsed < 1.0
        # the series minus the closed form is the dropped images, up to
        # their O(ka) xz and yz part (3e-4 of the images' scale at ka = 1e-3)
        assert near <= 5e-3, f"b = a gap to the dropped images {near:.3g}"


def test_criterion_06(tmp_path):
    with criterion(6, "sweep-phi CSV matches the closed-form angular factor"):
        start = time.perf_counter()
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "sweep.csv"
        cfg.write_text("{}")
        assert main(["sweep-phi", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _rows(out)
        assert len(rows) == 6 * 360
        worst = 0.0
        flat = []
        peak = -1.0
        for row in rows:
            theta = float(row["theta"])
            phi = float(row["phi"])
            ka = float(row["ka"])
            kb = ka * float(row["b_over_a"])
            got = float(row["jprime_over_j0"])
            ref = (2.0 * math.pi * ka * math.exp(-kb)
                   * (math.sin(theta) ** 2 * math.cos(phi) ** 2
                      - math.cos(theta) ** 2))
            worst = max(worst, abs(got - ref))
            if theta == 0.0:
                flat.append(got)
            if theta == math.pi / 2:
                peak = max(peak, got)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst closed-form gap {worst:.3g}"
        assert max(flat) - min(flat) <= 1e-12
        assert abs(flat[0] - (-6.2206e-3)) <= 2e-7
        assert abs(peak - 6.2206e-3) <= 2e-7
        assert elapsed < 1.0
        # tensors behind a few of the swept rows, audited by criterion 9
        angles = (0.0, 0.7, 1.4, 2.1, 2.8, 3.5)
        kvecs = [WaveVector(1e-3 * math.cos(a), 1e-3 * math.sin(a)) for a in angles]
        _TENSORS.extend(inter_tensors(kvecs, 10.0))


def test_criterion_07():
    with criterion(7, "two-plane eigenvalues are the pair couplings J +- J'"):
        start = time.perf_counter()
        k = WaveVector(0.9 * math.cos(0.7), 0.9 * math.sin(0.7))
        dipole = dipole_from_theta(math.pi / 5)
        method = Ewald()
        j = couplings(method.intra([k]), dipole)[0]
        jp = couplings(method.inter([k], 2.0), dipole)[0]
        geometry = LatticeGeometry(a=1000.0, b_over_a=2.0, n_planes=2)
        evals = symmetric_eigen(stack_matrices([k], dipole, geometry, method)[2][0])
        expect = np.sort([j - jp, j + jp])
        assert float(np.max(np.abs(evals - expect))) <= 1e-12
        gap = splitting(k, dipole, 2.0, method)
        assert abs((evals[1] - evals[0]) - gap) <= 1e-12
        assert abs(gap - 2.0 * abs(jp)) <= 1e-12
        scale = EnergyScale(j0_ev=j0_scale(1.0, 1000.0))
        spectrum = pair_energies(k, dipole, 2.0, method, scale)
        for got, e in zip(spectrum.energies_ev, expect):
            assert abs(got - (scale.ea_ev + scale.j0_ev * e)) <= 1e-12 * scale.j0_ev
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_criterion_08():
    with criterion(8, "inter-plane coupling decays like exp(-ka b/a)"):
        start = time.perf_counter()
        ka = 0.5
        k = WaveVector(ka * math.cos(0.3), ka * math.sin(0.3))
        dipole = dipole_from_theta(math.pi / 2)
        spacings = np.linspace(5.0, 15.0, 11)
        logs = [
            math.log(abs(couplings(Ewald().inter([k], b), dipole)[0]))
            for b in spacings
        ]
        slope = np.polyfit(spacings, logs, 1)[0]
        elapsed = time.perf_counter() - start
        assert abs(slope + ka) / ka <= 1e-3, f"slope {slope:.12g}"
        assert elapsed < 1.0


def test_criterion_09():
    with criterion(9, "every collected tensor is Hermitian and traceless"):
        assert len(_TENSORS) >= 100
        worst_h = 0.0
        worst_t = 0.0
        for m in _TENSORS:
            worst_h = max(worst_h, float(np.max(np.abs(m - m.conj().T))))
            worst_t = max(worst_t, abs(complex(np.trace(m))))
        assert worst_h <= 1e-10, f"worst Hermiticity residual {worst_h:.3g}"
        assert worst_t <= 1e-10, f"worst trace residual {worst_t:.3g}"


def test_criterion_10():
    with criterion(10, "Bessel K values vs quadrature oracle and recurrence"):
        start = time.perf_counter()
        xs = np.logspace(math.log10(0.05), math.log10(30.0), 50)
        worst = 0.0
        worst_rec = 0.0
        # the production path evaluates whole argument arrays at once
        k0s, k1s, k2s = (bessel_k(n, xs) for n in (0, 1, 2))
        for x, k0, k1, k2 in zip(xs, k0s, k1s, k2s):
            for n, got in ((0, k0), (1, k1), (2, k2)):
                ref = bessel_k_oracle(n, float(x))
                worst = max(worst, abs(got - ref) / ref)
            rec = abs(k2 - (k0 + 2.0 / x * k1)) / k2
            worst_rec = max(worst_rec, rec)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"worst oracle gap {worst:.3g}"
        assert worst_rec <= 1e-10, f"worst recurrence residual {worst_rec:.3g}"
        assert elapsed < 1.0


def test_criterion_11(tmp_path):
    with criterion(11, "series beats the window by >= 1000x at b = a"):
        start = time.perf_counter()
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "conv.csv"
        cfg.write_text(json.dumps({
            "b_over_a": 1.0,
            "ka_values": [0.06103277807866852],
            "k_direction": 0.6107259643892087,
        }))
        assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
        direct_terms = None
        ewald_terms = None
        for row in _rows(out):
            terms = int(row["terms"])
            err = float(row["abs_err_vs_reference"])
            if row["engine"] == "direct" and err <= 1e-6 and direct_terms is None:
                direct_terms = terms
            if row["engine"] == "ewald" and err <= 1e-10 and ewald_terms is None:
                ewald_terms = terms
        elapsed = time.perf_counter() - start
        assert direct_terms is not None and direct_terms >= 10**6
        assert ewald_terms is not None and ewald_terms <= 169
        assert direct_terms / ewald_terms >= 1e3
        assert elapsed < 30.0


def test_criterion_12():
    with criterion(12, "analytic kx-derivatives match central differences"):
        start = time.perf_counter()
        rng = random.Random(7)
        points = []
        while len(points) < 10:
            kx = rng.uniform(-2.5, 2.5)
            ky = rng.uniform(-2.5, 2.5)
            if math.hypot(kx, ky) < 0.2:
                continue
            points.append((kx, ky))
        h = 1e-5

        def rows(shift):
            return inter_series([WaveVector(kx + shift, ky) for kx, ky in points], 1.0)

        (_, sx, _, sxx, _, _), on_lattice = rows(0.0)
        assert not on_lattice.any()
        (s_hi, sx_hi, *_), _ = rows(h)
        (s_lo, sx_lo, *_), _ = rows(-h)
        fd1 = (s_hi - s_lo) / (2 * h)
        # second derivative differenced from the analytic first, which
        # keeps the subtraction above the roundoff floor
        fd2 = (sx_hi - sx_lo) / (2 * h)
        worst1 = float(np.max(np.abs(sx - fd1) / np.maximum(np.abs(sx), np.abs(fd1))))
        worst2 = float(np.max(np.abs(sxx - fd2) / np.maximum(np.abs(sxx), np.abs(fd2))))
        elapsed = time.perf_counter() - start
        assert worst1 <= 1e-7, f"first derivative gap {worst1:.3g}"
        assert worst2 <= 1e-7, f"second derivative gap {worst2:.3g}"
        assert elapsed < 1.0

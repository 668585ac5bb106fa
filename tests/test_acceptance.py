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
from latticesum.direct_sum import window_tensors
from latticesum.dispersion import coupling_table, couplings, stack_matrices
from latticesum.ewald import f_constant, lattice_tensors, long_wave_tensors
from latticesum.model import (
    dipole_from_theta,
    j0_scale,
)
from latticesum.specfun import bessel_k

from bessel_oracle import bessel_k_oracle
from k0_tail_oracle import k0_tail_correction
from plane_wave_oracle import plane_wave_tensor

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
        # missing exterior, no shared code with the Bessel sum;
        # built before the clock starts, so the limit times f_constant
        oracle = window_tensors([(0.0, 0.0)], 0.0, 2000)[0]
        oracle = oracle + k0_tail_correction(2000, 0.0)
        f_direct = 0.5 * float(oracle[2, 2].real)
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
    with criterion(3, "inter-plane Ewald kernel vs 500-cutoff window, 48 pairs"):
        start = time.perf_counter()
        worst = 0.0
        ks = [
            (ka * math.cos(ang), ka * math.sin(ang))
            for ka in (0.7, 1.2, 2.0, math.pi)
            for ang in (0.35, 0.75, 1.05, 1.35)
        ]
        for b_over_a in (1.0, 2.0, 10.0):
            refs = window_tensors(ks, b_over_a, 500)
            for got, ref in zip(lattice_tensors(ks, b_over_a), refs):
                _TENSORS.extend([got, ref])
                worst = max(worst, float(np.max(np.abs(got - ref))))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-6, f"worst component gap {worst:.3g}"
        assert elapsed < 10.0


def test_criterion_04():
    with criterion(4, "in-plane Ewald kernel vs 2000-cutoff window, 8 generic k"):
        start = time.perf_counter()
        worst = 0.0
        points = [
            (0.8, 0.45), (0.8, 1.12), (1.3, 0.6), (1.3, 0.95),
            (1.9, 0.45), (1.9, 1.12), (2.6, 0.7), (2.9, 0.85),
        ]
        ks = [(ka * math.cos(ang), ka * math.sin(ang)) for ka, ang in points]
        for got, ref in zip(lattice_tensors(ks, 0.0), window_tensors(ks, 0.0, 2000)):
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
        # images with no code shared with the kernel or the closed form
        images = (window_tensors([(0.0, 0.0)], 1.0, 200)[0]
                  + k0_tail_correction(200, 1.0))
        start = time.perf_counter()
        k = (1e-3 * math.cos(0.6), 1e-3 * math.sin(0.6))

        def closed_and_kernel(b_over_a):
            got = long_wave_tensors([k], b_over_a)[0]
            ref = lattice_tensors([k], b_over_a)[0]
            _TENSORS.extend([got, ref])
            return got, ref

        got, ref = closed_and_kernel(10.0)
        far = float(np.max(np.abs(got - ref) / np.abs(ref)))
        got, ref = closed_and_kernel(1.0)
        near = float(np.max(np.abs((ref - got) - images))
                     / np.max(np.abs(images)))
        elapsed = time.perf_counter() - start
        assert far <= 1e-10, f"b = 10a relative gap {far:.3g}"
        assert elapsed < 1.0
        # the kernel minus the closed form is the dropped images, up to
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
        kvecs = [(1e-3 * math.cos(a), 1e-3 * math.sin(a)) for a in angles]
        _TENSORS.extend(lattice_tensors(kvecs, 10.0))


def test_criterion_07():
    with criterion(7, "two-plane eigenvalues are the pair couplings J +- J'"):
        start = time.perf_counter()
        k = (0.9 * math.cos(0.7), 0.9 * math.sin(0.7))
        dipole = dipole_from_theta(math.pi / 5)
        j = couplings(lattice_tensors([k], 0.0), dipole)[0]
        jp = couplings(lattice_tensors([k], 2.0), dipole)[0]
        table = coupling_table([k], dipole, 2.0, 2)
        evals = np.linalg.eigvalsh(stack_matrices(table, 2)[0])
        expect = np.sort([j - jp, j + jp])
        assert float(np.max(np.abs(evals - expect))) <= 1e-12
        assert abs((evals[1] - evals[0]) - 2.0 * abs(jp)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0


def test_criterion_08():
    with criterion(8, "inter-plane coupling decays like exp(-ka b/a)"):
        start = time.perf_counter()
        ka = 0.5
        k = (ka * math.cos(0.3), ka * math.sin(0.3))
        dipole = dipole_from_theta(math.pi / 2)
        spacings = np.linspace(5.0, 15.0, 11)
        logs = [
            math.log(abs(couplings(lattice_tensors([k], b), dipole)[0]))
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
    with criterion(11, "Ewald kernel beats the window by >= 1000x at b = a"):
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
    with criterion(12, "inter-plane xz, yz, xx, yy vs the plane-wave sum"):
        start = time.perf_counter()
        rng = random.Random(7)
        points = []
        while len(points) < 10:
            kx = rng.uniform(-2.5, 2.5)
            ky = rng.uniform(-2.5, 2.5)
            if math.hypot(kx, ky) < 0.2:
                continue
            points.append((kx, ky))
        got = lattice_tensors(points, 1.0)
        ref = np.array([plane_wave_tensor(kx, ky, 1.0) for kx, ky in points])
        worst = {}
        entries = {"xz": (0, 2), "yz": (1, 2), "xx": (0, 0), "yy": (1, 1)}
        for name, (i, j) in entries.items():
            a, b = got[:, i, j], ref[:, i, j]
            gap = np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))
            worst[name] = float(np.max(gap))
        elapsed = time.perf_counter() - start
        for name, gap in worst.items():
            assert gap <= 1e-7, f"{name} relative gap {gap:.3g}"
        assert elapsed < 1.0

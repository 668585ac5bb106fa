"""Check a CLI CSV against the stored reference.

Every expected row is one operation. A row fails when it is missing, does
not parse, is not finite, or deviates from the reference by more than the
workload's row bound; duplicated or unexpected rows count as failures too.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.constants import elementary_charge, epsilon_0

import workloads as wl

REFERENCE = Path(__file__).with_name("reference.npz")
COULOMB_EV_ANGSTROM = elementary_charge / (4.0 * math.pi * epsilon_0) * 1e10
# k and phi in a CSV are matched to the reference grid within this
MATCH_TOL = 1e-9


@dataclass
class Outcome:
    attempted: int
    failed: int
    max_err_j0: float  # largest deviation over rows that parsed, in J0


def load_reference():
    with np.load(REFERENCE) as ref:
        return {name: ref[name] for name in ref.files}


def _index(value, step, what):
    i = round(value / step)
    if abs(value - i * step) > MATCH_TOL:
        raise ValueError(f"{what} {value!r} is not on the reference grid")
    return i


def _couplings(pair, theta):
    """J = sin^2 t xx + cos^2 t zz for the dipole (sin t, 0, cos t)."""
    return math.sin(theta) ** 2 * pair[..., 0] + math.cos(theta) ** 2 * pair[..., 1]


def _expected_stack(cfg, ref):
    side = math.isqrt(cfg["n_sites"])
    half = side // 2
    full_half = wl.GRID_SIDE["full"] // 2
    stride = wl.GRID_SIDE["full"] // side
    n = cfg["n_planes"]
    sep = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    out = {}
    for p in range(-half, half + 1):
        for q in range(-half, half + 1):
            pair = ref["stack_grid"][full_half + stride * p, full_half + stride * q, :n]
            j = _couplings(pair, cfg["theta"])
            for mode, lam in enumerate(np.linalg.eigvalsh(j[sep])):
                out[(p, q, mode)] = (lam,)
    return out


def _parse_stack(row, cfg):
    side = math.isqrt(cfg["n_sites"])
    step = 2.0 * math.pi / side
    kx, ky, mode, value = row
    key = (_index(float(kx), step, "kxa"), _index(float(ky), step, "kya"), int(mode))
    return key, (float(value),)


def _sweep_thetas(cfg):
    theta = cfg.get("theta", [0.0, math.pi / 6, math.pi / 5, math.pi / 4, math.pi / 3,
                              math.pi / 2])
    return theta if isinstance(theta, list) else [theta]


def _expected_sweep(cfg, ref):
    stride = wl.PHI_POINTS["full"] // cfg["phi_points"]
    out = {}
    for t, theta in enumerate(_sweep_thetas(cfg)):
        for ka in cfg["ka_values"]:
            a = wl.KA_CANDIDATES.index(ka)
            j = _couplings(ref["sweep_phi"][a, ::stride], theta)
            for i in range(cfg["phi_points"]):
                out[(t, a, i)] = (j[i],)
    return out


def _parse_sweep(row, cfg):
    theta, phi, ka, b, value = (float(x) for x in row)
    thetas = _sweep_thetas(cfg)
    t = min(range(len(thetas)), key=lambda i: abs(thetas[i] - theta))
    a = min(range(len(wl.KA_CANDIDATES)), key=lambda i: abs(wl.KA_CANDIDATES[i] - ka))
    if abs(thetas[t] - theta) > MATCH_TOL or abs(wl.KA_CANDIDATES[a] - ka) > MATCH_TOL:
        raise ValueError(f"theta {theta!r} or ka {ka!r} is not in the config")
    if abs(b - cfg["b_over_a"]) > MATCH_TOL:
        raise ValueError(f"b_over_a {b!r} differs from the config")
    i = _index(phi, 2.0 * math.pi / cfg["phi_points"], "phi")
    return (t, a, i), (value,)


def _mirror(cfg):
    for m in range(len(wl.MIRRORS)):
        phi, theta = wl.direct_direction(m)
        if phi == cfg["k_direction"] and theta == cfg["theta"]:
            return m
    raise ValueError("k_direction is not one of the reference mirror images")


def _expected_direct(cfg, ref):
    pair = _couplings(ref["direct_window"][_mirror(cfg)], cfg["theta"])
    out = {}
    for j in range(len(cfg["ka_values"])):
        jt, jp = pair[j]
        for mode, lam in enumerate(sorted((jt - jp, jt + jp))):
            out[(j, mode)] = (jt, jp, lam)
    return out


def _parse_direct(row, cfg):
    kx, ky, jt, jp, mode, energy = row
    kx, ky = float(kx), float(ky)
    d = cfg["k_direction"]
    j = min(range(len(cfg["ka_values"])),
            key=lambda i: math.hypot(kx - cfg["ka_values"][i] * math.cos(d),
                                     ky - cfg["ka_values"][i] * math.sin(d)))
    ka = cfg["ka_values"][j]
    if math.hypot(kx - ka * math.cos(d), ky - ka * math.sin(d)) > MATCH_TOL:
        raise ValueError(f"k ({kx!r}, {ky!r}) is not in the config")
    j0 = COULOMB_EV_ANGSTROM / cfg["a_angstrom"] ** 3
    return (j, int(mode)), (float(jt), float(jp), (float(energy) - 1.0) / j0)


_RULES = {
    "stack-grid": (_expected_stack, _parse_stack, 4),
    "sweep-phi": (_expected_sweep, _parse_sweep, 5),
    "direct-window": (_expected_direct, _parse_direct, 6),
}


def check_csv(workload, cfg, path, ref) -> Outcome:
    """Count failed rows of one CSV and find its largest deviation.

    A corrupted row both fails to parse and leaves its expected row
    missing; it is counted once, as the larger of the bad and the missing
    rows.
    """
    expected_of, parse, width = _RULES[workload]
    expected = expected_of(cfg, ref)
    bound = wl.row_bound(workload, cfg)
    good = set()
    bad = 0
    max_err = 0.0
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
    except OSError:
        rows = []
    for row in rows:
        try:
            if len(row) != width:
                raise ValueError(f"expected {width} fields, got {len(row)}")
            key, values = parse(row, cfg)
        except ValueError:
            bad += 1
            continue
        if key not in expected or key in good or not all(map(math.isfinite, values)):
            bad += 1
            continue
        err = max(abs(v - r) for v, r in zip(values, expected[key]))
        max_err = max(max_err, err)
        if err > bound:
            bad += 1
            continue
        good.add(key)
    failed = max(bad, len(expected) - len(good))
    return Outcome(attempted=len(expected), failed=min(failed, len(expected)),
                   max_err_j0=max_err)

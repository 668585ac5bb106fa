"""JSON-configured command-line front end writing CSV reports.

Four subcommands: ``sweep-phi`` (anisotropy curves J'(phi)), ``dispersion``
(stack eigenmodes along a k path or grid), ``convergence`` (direct-window
vs accelerated-series error/cost table) and ``stack`` (N-plane spectra).
Output is deliberately plain CSV with fixed headers; floats are written
with shortest round-trip formatting and LF line endings so identical
configs produce byte-identical files (the wall-time column of
``convergence`` is the documented exception).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace

from .direct_sum import DirectSumConfig, d_tensor_direct
from .dispersion import (
    Direct,
    Ewald,
    LongWave,
    Method,
    couplings,
    stack_matrices,
    symmetric_eigen,
)
from .ewald import EwaldConfig, inter_tensors
from .model import (
    EnergyScale,
    LatticeGeometry,
    TransitionDipole,
    WaveVector,
    dipole_from_theta,
    j0_scale,
    make_k_grid,
)

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "cmd_sweep_phi",
    "cmd_dispersion",
    "cmd_convergence",
    "cmd_stack",
    "main",
]

_DEFAULT_THETAS = (
    0.0,
    math.pi / 6.0,
    math.pi / 5.0,
    math.pi / 4.0,
    math.pi / 3.0,
    math.pi / 2.0,
)

_DIRECT_CONVERGENCE_CUTOFFS = (10, 30, 100, 300, 1000)
_EWALD_CONVERGENCE_ORDERS = range(1, 9)


class ConfigError(Exception):
    """Invalid run configuration; message names the offending key path."""


@dataclass(frozen=True)
class RunConfig:
    a_angstrom: float = 1000.0
    b_over_a: float = 10.0
    mu_e_angstrom: float = 1.0
    ea_ev: float = 1.0
    theta: tuple[float, ...] = _DEFAULT_THETAS
    phi_points: int = 360
    ka_values: tuple[float, ...] = (1e-3,)
    k_direction: float | str = 0.0  # angle in rad, or "grid"
    n_sites: int = 100  # grid size when k_direction == "grid"
    n_planes: int = 2
    method: str = "ewald"
    direct_cutoff: int = 500
    ewald: EwaldConfig = EwaldConfig()
    nearest_only: bool = False
    output_path: str = "out.csv"


def _want_real(path, value, positive=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{path}: must be finite, got {value!r}")
    if positive and not v > 0:
        raise ConfigError(f"{path}: must be positive, got {value!r}")
    return v


def _want_int(path, value, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _want_theta(path, value):
    v = _want_real(path, value)
    if not 0.0 <= v <= math.pi:
        raise ConfigError(f"{path}: must lie in [0, pi], got {value!r}")
    return v


def _parse_ewald(value) -> EwaldConfig:
    if not isinstance(value, dict):
        raise ConfigError(f"ewald: expected an object, got {value!r}")
    known = {"n_max", "l_max"}
    for key in value:
        if key not in known:
            raise ConfigError(f"ewald.{key}: unknown key")
    kwargs = {key: _want_int(f"ewald.{key}", v, 1) for key, v in value.items()}
    return EwaldConfig(**kwargs)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; unknown keys are rejected.

    Defaults are the reference setup: a = 1000 A, b = 10 a, mu = 1 e A,
    E_A = 1 eV, ka = [1e-3], accelerated-series engine.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")

    out = {}
    for key, value in raw.items():
        if key in ("a_angstrom", "b_over_a", "mu_e_angstrom", "ea_ev"):
            out[key] = _want_real(key, value, positive=True)
        elif key == "theta":
            if isinstance(value, list):
                if not value:
                    raise ConfigError("theta: must not be empty")
                out[key] = tuple(
                    _want_theta(f"theta[{i}]", v) for i, v in enumerate(value)
                )
            else:
                out[key] = (_want_theta(key, value),)
        elif key == "phi_points":
            out[key] = _want_int(key, value, 1)
        elif key == "ka_values":
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{key}: expected a non-empty list")
            out[key] = tuple(
                _want_real(f"{key}[{i}]", v, positive=True)
                for i, v in enumerate(value)
            )
        elif key == "k_direction":
            if value == "grid":
                out[key] = "grid"
            else:
                out[key] = _want_real(key, value)
        elif key == "n_sites":
            v = _want_int(key, value, 1)
            root = math.isqrt(v)
            if root * root != v:
                raise ConfigError(f"{key}: must be a perfect square, got {v}")
            out[key] = v
        elif key == "n_planes":
            out[key] = _want_int(key, value, 1)
        elif key == "method":
            if value not in ("direct", "ewald", "longwave"):
                raise ConfigError(
                    f"method: expected direct, ewald or longwave, got {value!r}"
                )
            out[key] = value
        elif key == "direct_cutoff":
            out[key] = _want_int(key, value, 1)
        elif key == "ewald":
            out[key] = _parse_ewald(value)
        elif key == "nearest_only":
            if not isinstance(value, bool):
                raise ConfigError(f"{key}: expected true or false, got {value!r}")
            out[key] = value
        elif key == "output_path":
            if not isinstance(value, str) or not value:
                raise ConfigError(f"{key}: expected a non-empty string")
            out[key] = value
        else:
            raise ConfigError(f"{key}: unknown key")
    return RunConfig(**out)


def _fmt(x) -> str:
    v = float(x)
    if not math.isfinite(v):
        raise ArithmeticError(f"refusing to write non-finite value {x!r}")
    return repr(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _engine(cfg: RunConfig) -> Method:
    if cfg.method == "direct":
        return Direct(cfg.direct_cutoff)
    if cfg.method == "ewald":
        return Ewald(cfg.ewald, cfg.direct_cutoff)
    return LongWave(cfg.direct_cutoff)


def _scale(cfg: RunConfig) -> EnergyScale:
    return EnergyScale(j0_scale(cfg.mu_e_angstrom, cfg.a_angstrom), cfg.ea_ev)


def _k_list(cfg: RunConfig) -> list[WaveVector]:
    if cfg.k_direction == "grid":
        geom = LatticeGeometry(
            cfg.a_angstrom, cfg.b_over_a, n_sites=cfg.n_sites, n_planes=cfg.n_planes
        )
        return make_k_grid(geom)
    d = float(cfg.k_direction)
    return [WaveVector(ka * math.cos(d), ka * math.sin(d)) for ka in cfg.ka_values]


def _spectra(cfg: RunConfig, ks: list[WaveVector], dipole: TransitionDipole, method):
    """(Jt, Jt' at the nearest separation, stack eigenvalues) at every k.

    One coupling table per plane separation, one batched eigen-solve. Jt'
    is zero for a single plane.
    """
    geom = LatticeGeometry(
        cfg.a_angstrom, cfg.b_over_a, n_sites=1, n_planes=cfg.n_planes
    )
    j, jps, mats = stack_matrices(ks, dipole, geom, method, cfg.nearest_only)
    return j, (jps[0] if jps else [0.0] * len(ks)), symmetric_eigen(mats)


def cmd_sweep_phi(cfg: RunConfig) -> str:
    """J'(phi)/J0 on a closed-open [0, 2 pi) grid, one curve per theta."""
    points = [
        (ka, 2.0 * math.pi * i / cfg.phi_points)
        for ka in cfg.ka_values
        for i in range(cfg.phi_points)
    ]
    ks = [WaveVector(ka * math.cos(phi), ka * math.sin(phi)) for ka, phi in points]
    tensors = _engine(cfg).inter(ks, cfg.b_over_a)
    rows = []
    for theta in cfg.theta:
        jps = couplings(tensors, dipole_from_theta(theta, cfg.mu_e_angstrom))
        for (ka, phi), jp in zip(points, jps):
            rows.append(
                [_fmt(theta), _fmt(phi), _fmt(ka), _fmt(cfg.b_over_a), _fmt(jp)]
            )
    _write_csv(cfg.output_path, "theta,phi,ka,b_over_a,jprime_over_j0", rows)
    return cfg.output_path


def cmd_dispersion(cfg: RunConfig) -> str:
    """Stack eigenmodes per k; one row per mode, energies in eV.

    Uses the first theta entry as the dipole orientation. jprime_over_j0
    is the nearest-plane coupling (0 for a single plane).
    """
    method = _engine(cfg)
    scale = _scale(cfg)
    dip = dipole_from_theta(cfg.theta[0], cfg.mu_e_angstrom)
    ks = _k_list(cfg)
    js, jps, evals = _spectra(cfg, ks, dip, method)
    rows = []
    for k, j, jp, lams in zip(ks, js, jps, evals):
        for idx, lam in enumerate(lams):
            rows.append(
                [
                    _fmt(k.kxa),
                    _fmt(k.kya),
                    _fmt(j),
                    _fmt(jp),
                    str(idx),
                    _fmt(scale.ea_ev + scale.j0_ev * lam),
                ]
            )
    _write_csv(
        cfg.output_path, "kxa,kya,j_over_j0,jprime_over_j0,mode_index,energy_ev", rows
    )
    return cfg.output_path


def cmd_convergence(cfg: RunConfig) -> str:
    """Error/cost table: direct windows vs series orders at one k.

    Reference is the series at n_max = 12. Also checks the headline cost
    claim: where both engines reach their target accuracy (1e-10 for the
    series, 1e-6 for the window), the term-count ratio must be >= 1000.
    """
    if cfg.k_direction == "grid":
        raise ConfigError("k_direction: convergence needs a single direction, not grid")
    d = float(cfg.k_direction)
    ka = cfg.ka_values[0]
    k = WaveVector(ka * math.cos(d), ka * math.sin(d))
    ref = inter_tensors([k], cfg.b_over_a, replace(cfg.ewald, n_max=12))[0, 2, 2].real

    rows = []
    direct_ok = None
    for L in _DIRECT_CONVERGENCE_CUTOFFS:
        t0 = time.perf_counter_ns()
        val = d_tensor_direct(k, DirectSumConfig(L, 1), cfg.b_over_a).zz.real
        elapsed = time.perf_counter_ns() - t0
        terms = (2 * L + 1) ** 2
        err = abs(val - ref)
        if direct_ok is None and err <= 1e-6:
            direct_ok = terms
        rows.append(["direct", str(terms), _fmt(val), _fmt(err), str(elapsed)])
    ewald_ok = None
    for n_max in _EWALD_CONVERGENCE_ORDERS:
        t0 = time.perf_counter_ns()
        orders = replace(cfg.ewald, n_max=n_max)
        val = inter_tensors([k], cfg.b_over_a, orders)[0, 2, 2].real
        elapsed = time.perf_counter_ns() - t0
        terms = (2 * n_max + 1) ** 2
        err = abs(val - ref)
        if ewald_ok is None and err <= 1e-10:
            ewald_ok = terms
        rows.append(["ewald", str(terms), _fmt(val), _fmt(err), str(elapsed)])

    if direct_ok is not None and ewald_ok is not None:
        ratio = direct_ok / ewald_ok
        if ratio < 1000.0:
            raise ArithmeticError(
                f"term-count ratio {ratio:.1f} below 1000; acceleration claim broken"
            )
    _write_csv(
        cfg.output_path, "engine,terms,value_dzz,abs_err_vs_reference,wall_time_ns", rows
    )
    return cfg.output_path


def cmd_stack(cfg: RunConfig) -> str:
    """N-plane eigenvalues per k in J0 units (relative to E_A)."""
    if cfg.n_planes < 2:
        raise ConfigError(f"n_planes: stack needs at least 2 planes, got {cfg.n_planes}")
    method = _engine(cfg)
    dip = dipole_from_theta(cfg.theta[0], cfg.mu_e_angstrom)
    ks = _k_list(cfg)
    _js, _jps, evals = _spectra(cfg, ks, dip, method)
    rows = []
    for k, lams in zip(ks, evals):
        for idx, lam in enumerate(lams):
            rows.append([_fmt(k.kxa), _fmt(k.kya), str(idx), _fmt(lam)])
    _write_csv(cfg.output_path, "kxa,kya,mode_index,energy_over_j0", rows)
    return cfg.output_path


_COMMANDS = {
    "sweep-phi": cmd_sweep_phi,
    "dispersion": cmd_dispersion,
    "convergence": cmd_convergence,
    "stack": cmd_stack,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latticesum",
        description="Dipolar lattice sums and exciton dispersion for stacked "
        "square monolayers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__.splitlines()[0])
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", help="output CSV path (overrides output_path)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = parse_config(text)
        if args.out:
            cfg = replace(cfg, output_path=args.out)
        path = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError) as exc:
        # an accepted config the numerics cannot serve (a reciprocal-lattice
        # k, an unconverged series): one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

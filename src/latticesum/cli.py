"""JSON-configured command-line front end writing CSV reports.

Four commands: ``sweep-phi`` (anisotropy curves J'(phi)), ``dispersion``
(stack eigenmodes along a k path or grid, one matrix and eigen-solve per
distinct coupling row), ``convergence`` (direct-window vs Ewald-kernel
error/cost table) and ``stack`` (N-plane spectra), each with k as a (K, 2)
array. Output is plain CSV with fixed headers; floats are written with
shortest round-trip formatting, once per distinct value, and LF line
endings so identical configs produce byte-identical files (the wall-time
column of ``convergence`` excepted).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace

import numpy as np
from numpy.linalg import eigvalsh

from .direct_sum import _in_window_range, window_tensors
from .dispersion import coupling_table, couplings, stack_matrices
from .ewald import _lattice_sums, _terms, lattice_tensors
from .model import (
    COULOMB_EV_ANGSTROM, MAX_FOLD, MIN_OFFSET, dipole_from_theta, j0_scale, make_k_grid,
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

# The most CSV rows a command may write, a stack's matrix entries counting
# 1/32 of a row each. By peak RSS a row costs at most 0.73 kB (sweep-phi,
# one tilt). The n^2/32 term dates from 16 B per matrix entry; only the matrix
# LAPACK solves is now held whole, at 8 B an entry, so it over-counts (ROADMAP
# item 9 re-derives it).
MAX_SIZE = 2 * 10**6

_DIRECT_CONVERGENCE_CUTOFFS = (10, 30, 100, 300, 1000)
_EWALD_CONVERGENCE_SHELLS = range(1, 7)


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
    method: str = "ewald"  # validated for old configs; selects nothing
    direct_cutoff: int = 500  # validated for old configs; selects nothing
    nearest_only: bool = False
    output_path: str = "out.csv"


def _want(ok, path, expected, value):
    """``value`` if ``ok``, else a ConfigError naming ``path``, what it
    expected and what it got."""
    if ok:
        return value
    raise ConfigError(f"{path}: {expected}, got {_shown(value)}")


def _want_real(path, value, positive=True):
    _want(isinstance(value, (int, float)) and not isinstance(value, bool), path,
          "expected a number", value)
    try:
        v = float(value)
    except OverflowError:  # an integer of hundreds of digits
        v = math.inf
    _want(math.isfinite(v), path, "must be finite", value)
    _want(v > 0 or not positive, path, "must be positive", value)
    return v


def _shown(value) -> str:
    """repr of a rejected value for an error message. Past 40 characters,
    which would swamp the line, an integer is named by its digit count and
    anything else by its first 40 characters and its length."""
    text = repr(value)
    if len(text) <= 40:
        return text
    if isinstance(value, int):
        return f"an integer of {len(text.lstrip('-'))} digits"
    return f"{text[:40]}... ({len(text)} characters)"


def _named(key: str) -> str:
    """A config key for an error message, bare, or shortened like a value
    past 40 characters."""
    return key if len(key) <= 40 else _shown(key)


def _want_int(path, value):
    _want(isinstance(value, int) and not isinstance(value, bool), path,
          "expected an integer", value)
    return _want(value >= 1, path, "must be >= 1", value)


def _want_theta(path, value):
    v = _want_real(path, value, positive=False)
    return _want(0.0 <= v <= math.pi, path, "must lie in [0, pi]", v)


def _want_list(path, value, want):
    _want(isinstance(value, list) and value, path, "expected a non-empty list", value)
    return tuple(want(f"{path}[{i}]", v) for i, v in enumerate(value))


# each RunConfig field's validator, called as want(key, value)
_VALIDATORS = {
    "a_angstrom": _want_real,
    "b_over_a": lambda k, v: _want(
        _want_real(k, v) >= MIN_OFFSET, k, f"must be >= {MIN_OFFSET}", float(v)
    ),
    "mu_e_angstrom": _want_real,
    "ea_ev": _want_real,
    "theta": lambda k, v: (
        _want_list(k, v, _want_theta) if isinstance(v, list) else (_want_theta(k, v),)
    ),
    "phi_points": _want_int,
    "ka_values": lambda k, v: _want_list(k, v, lambda path, ka: float(_want(
        round(_want_real(path, ka) / (2.0 * math.pi)) < MAX_FOLD, path,
        "must lie fewer than 2^29 periods of 2 pi from the zone (below about 3.37e9)", ka))),
    "k_direction": lambda k, v: "grid" if v == "grid" else _want_real(k, v, positive=False),
    "n_sites": lambda k, v: _want(
        math.isqrt(_want_int(k, v)) ** 2 == v, k, "must be a perfect square", v
    ),
    "n_planes": _want_int,
    "method": lambda k, v: _want(
        v in ("ewald", "direct"), k, 'expected "ewald" or "direct"', v
    ),
    "direct_cutoff": _want_int,
    "nearest_only": lambda k, v: _want(isinstance(v, bool), k, "expected true or false", v),
    "output_path": lambda k, v: _want(
        isinstance(v, str) and v, k, "expected a non-empty string", v
    ),
}


def parse_config(text: str | bytes) -> RunConfig:
    """Parse and validate a JSON config; unknown keys are rejected. Each
    command bounds the sizes it writes.

    Defaults are the reference setup: a = 1000 A, b = 10 a, mu = 1 e A,
    E_A = 1 eV, ka = [1e-3].
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, bytes that are not UTF-8/16/32, or an integer
        # literal past Python's digit limit
        raise ConfigError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    out = {}
    for key, value in raw.items():
        if key not in _VALIDATORS:
            raise ConfigError(f"{_named(key)}: unknown key")
        out[key] = _VALIDATORS[key](key, value)
    return RunConfig(**out)


def _column(values) -> np.ndarray:
    """Text of every value, in the shape of ``values``, formatted once per
    distinct value: ints and strings by ``str``, floats by shortest
    round-trip ``repr`` per bit pattern (0.0 and -0.0 apart). Non-finite
    floats are refused."""
    v = np.asarray(values)
    fmt = str
    if v.dtype.kind == "f":
        v, fmt = v.astype(float), repr
        finite = np.isfinite(v)
        if not finite.all():
            bad = v[~finite][0].item()
            raise ArithmeticError(f"refusing to write non-finite value {bad!r}")
        distinct, at = np.unique(v.view(np.int64), return_inverse=True)
        distinct = distinct.view(float)
    else:
        distinct, at = np.unique(v, return_inverse=True)
    text = np.array(list(map(fmt, distinct.tolist())), dtype=object)
    return text[at.ravel()].reshape(v.shape)


def _write_csv(path, header, *columns):
    """Write ``path``: the header, then one row per element of the columns
    broadcast together, in C order, so each column's axes are row axes."""
    texts = [_column(col) for col in columns]
    shape = np.broadcast_shapes(*(text.shape for text in texts))
    cells = [np.broadcast_to(text, shape).ravel().tolist() for text in texts]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([header, *map(",".join, zip(*cells))]) + "\n")
    return path


def _modes(cfg: RunConfig):
    """((K, 2) k points, Jt, Jt' at the nearest separation, stack eigenvalues).

    One coupling table, of two planes with nearest_only, and one batched
    eigen-solve over the distinct table rows, for the dipole of the first
    theta entry. Jt' is zero for a single plane.
    """
    grid = cfg.k_direction == "grid"
    # a grid of even side keeps both zone edges
    side = math.isqrt(cfg.n_sites) // 2 * 2 + 1
    ks = side * side if grid else len(cfg.ka_values)
    _want(ks <= MAX_SIZE, "n_sites" if grid else "ka_values",
          f"asks for more than {MAX_SIZE} k points", ks)
    size = ks * (cfg.n_planes + cfg.n_planes**2 // 32)
    _want(size <= MAX_SIZE, "n_planes", f"asks for more than {MAX_SIZE} rows "
          "(k points x (n_planes + n_planes^2 / 32))", size)
    if grid:
        kxy = make_k_grid(cfg.n_sites)
    else:
        d = float(cfg.k_direction)
        kxy = np.array(cfg.ka_values)[:, None] * [math.cos(d), math.sin(d)]
    dip = dipole_from_theta(cfg.theta[0])
    offsets = min(cfg.n_planes, 2) if cfg.nearest_only else cfg.n_planes
    farthest = (offsets - 1) * cfg.b_over_a
    _want(math.isfinite(farthest), "b_over_a", "needs c finite at the farthest plane offset c",
          farthest)
    table = coupling_table(kxy, dip, cfg.b_over_a, offsets)
    # equal table rows (by bits) give equal matrices: build and solve each once
    rows = table.view(f"V{table.itemsize * table.shape[1]}").ravel()
    _, first, at = np.unique(rows, return_index=True, return_inverse=True)
    evals = eigvalsh(stack_matrices(table[first], cfg.n_planes))[at]
    jp = table[:, 1] if table.shape[1] > 1 else np.zeros(len(kxy))
    return kxy, table[:, 0], jp, evals


def cmd_sweep_phi(cfg: RunConfig) -> str:
    """J'(phi)/J0 on a closed-open [0, 2 pi) grid, one curve per theta."""
    rows = cfg.phi_points * len(cfg.ka_values) * len(cfg.theta)
    _want(rows <= MAX_SIZE, "phi_points", f"asks for more than {MAX_SIZE} rows "
          "(phi_points x len(ka_values) x len(theta))", rows)
    phi = 2.0 * math.pi * np.arange(cfg.phi_points) / cfg.phi_points
    unit = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    kxy = (np.array(cfg.ka_values)[:, None, None] * unit).reshape(-1, 2)
    tensors = lattice_tensors(kxy, cfg.b_over_a)
    jps = [couplings(tensors, dipole_from_theta(theta)) for theta in cfg.theta]
    # rows run over theta, then ka, then phi: one array axis each
    return _write_csv(
        cfg.output_path, "theta,phi,ka,b_over_a,jprime_over_j0",
        np.reshape(cfg.theta, (-1, 1, 1)), phi, np.reshape(cfg.ka_values, (-1, 1)),
        cfg.b_over_a, np.reshape(jps, (len(cfg.theta), len(cfg.ka_values), -1)),
    )


def _blame(cfg: RunConfig, fits) -> str:
    """The key a J0 refusal names: a_angstrom if the a-only factor C / a^3
    (mu = 1 e A) already fails ``fits``, else mu_e_angstrom."""
    try:
        by_a = COULOMB_EV_ANGSTROM / cfg.a_angstrom**3
    except ArithmeticError:  # a^3 overflows, or underflows to 0
        return "a_angstrom"
    return "mu_e_angstrom" if fits(by_a) else "a_angstrom"


def _j0(cfg: RunConfig) -> float:
    """J0 in eV. Outside the positive finite floats it is refused by
    :func:`_blame`."""
    try:
        return j0_scale(cfg.mu_e_angstrom, cfg.a_angstrom)
    except (ValueError, ArithmeticError) as exc:
        key = _blame(cfg, lambda j: 0.0 < j < math.inf)
        raise ConfigError(
            f"{key}: puts J0 = mu^2 / (4 pi eps0 a^3) outside the positive "
            f"finite floats, got {_shown(getattr(cfg, key))}"
        ) from exc


def cmd_dispersion(cfg: RunConfig) -> str:
    """Stack eigenmodes per k; one row per mode, energies in eV.

    Uses the first theta entry as the dipole orientation. jprime_over_j0
    is the nearest-plane coupling (0 for a single plane).
    """
    j0 = _j0(cfg)
    kxy, js, jps, evals = _modes(cfg)
    with np.errstate(over="ignore"):
        energy = j0 * evals
        key = "ea_ev" if np.isfinite(energy).all() else _blame(
            cfg, lambda j: np.isfinite(j * evals).all())
        energy += cfg.ea_ev
    _want(np.isfinite(energy).all(), key, "overflows E_A + J0 x eigenvalue", getattr(cfg, key))
    # rows run over k, then mode: per-k columns are (K, 1)
    return _write_csv(
        cfg.output_path, "kxa,kya,j_over_j0,jprime_over_j0,mode_index,energy_ev",
        *np.column_stack([kxy, js, jps]).T[..., None], np.arange(evals.shape[1]), energy,
    )


def cmd_convergence(cfg: RunConfig) -> str:
    """Error/cost table: direct windows vs Ewald shells at one k.

    Compares the inter-plane zz entry of direct windows of half-width L,
    (2L + 1)^2 terms, with the Ewald kernel truncated at R shells. Below
    b = 2a that is its closed Gaussian sum with real space at half-width R
    and each Gaussian's Poisson sum at |n| <= R, 2 (2R + 1)^2 terms; from
    2a up the plane waves at |n_x|, |n_y| <= R, (2R + 1)^2 terms. The
    reference is the kernel at R = 10. The rows are unchecked sums.
    """
    _want(cfg.k_direction != "grid", "k_direction", "convergence needs one direction", "grid")
    d = float(cfg.k_direction)
    k = cfg.ka_values[0] * np.array([[math.cos(d), math.sin(d)]])
    b = _want(_in_window_range(cfg.b_over_a), "b_over_a",
              "needs c^5 finite at the plane offset c", cfg.b_over_a)
    ref = _lattice_sums(k, b, 10)[2][0].real

    runs = [
        ("direct", (2 * L + 1) ** 2, lambda L=L: window_tensors(k, b, L)[0, 2, 2])
        for L in _DIRECT_CONVERGENCE_CUTOFFS
    ] + [
        ("ewald", _terms(b, R), lambda R=R: _lattice_sums(k, b, R)[2][0])
        for R in _EWALD_CONVERGENCE_SHELLS
    ]
    vals, elapsed = [], []
    for *_, evaluate in runs:
        t0 = time.perf_counter_ns()
        vals.append(evaluate().real)
        elapsed.append(time.perf_counter_ns() - t0)
    engines, terms, _ = zip(*runs)
    errs = [abs(val - ref) for val in vals]
    return _write_csv(
        cfg.output_path, "engine,terms,value_dzz,abs_err_vs_reference,wall_time_ns",
        engines, terms, vals, errs, elapsed,
    )


def cmd_stack(cfg: RunConfig) -> str:
    """N-plane eigenvalues per k in J0 units (relative to E_A)."""
    _want(cfg.n_planes >= 2, "n_planes", "stack needs at least 2 planes", cfg.n_planes)
    kxy, _j, _jp, evals = _modes(cfg)
    return _write_csv(
        cfg.output_path, "kxa,kya,mode_index,energy_over_j0",
        *kxy.T[..., None], np.arange(evals.shape[1]), evals,
    )


_COMMANDS = {
    "sweep-phi": cmd_sweep_phi,
    "dispersion": cmd_dispersion,
    "convergence": cmd_convergence,
    "stack": cmd_stack,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="latticesum",
        usage="%(prog)s <command> --config cfg.json [--out path.csv]",
        description="Dipolar lattice sums and exciton dispersion for stacked "
        "square monolayers.",
        epilog="commands:\n" + "\n".join(  # python -OO strips the docstrings
            f"  {name:<13}{(fn.__doc__ or ' ').splitlines()[0]}"
            for name, fn in _COMMANDS.items()
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, help="one of the commands below")
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", help="output CSV path (overrides output_path)")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = parse_config(text)
        if args.out is not None:
            cfg = replace(cfg, output_path=_VALIDATORS["output_path"]("--out", args.out))
        path = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, MemoryError) as exc:
        # an accepted config the numerics cannot serve: one line, no traceback;
        # MemoryError usually comes without a message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

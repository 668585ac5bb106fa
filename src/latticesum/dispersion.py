"""Exciton couplings and stack spectra built on the tensor engines.

Each engine (:class:`Direct`, :class:`Ewald`, :class:`LongWave`) returns
the tensors of a whole list of k to the plane at offset c (c = 0 for the
site's own plane) as one (K, 3, 3) stack through its ``tensors(ks, offset)``
method. Contracting them with the transition dipole gives J(k) at c = 0
and J'(k) at c = b, in units of J0; N-plane stack matrices are assembled
from one coupling table per plane separation s b, s = 0 included, and
diagonalized in one batched LAPACK call (``np.linalg.eigvalsh``).

Sign conventions: the symmetric two-plane mode carries +J', so the pair
energies are E_A + J0 (Jt +- Jt') and the splitting is 2 |Jt'|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .direct_sum import k0_tail_correction, window_tensors
from .ewald import _fold_into_zone, f_constant, lattice_tensors
from .model import (
    EnergyScale,
    LatticeGeometry,
    TransitionDipole,
    WaveVector,
    check_offset,
    check_tensors,
    k_array,
    tensors_from_components,
)

__all__ = [
    "Direct",
    "Ewald",
    "LongWave",
    "Method",
    "ModeSpectrum",
    "couplings",
    "pair_energies",
    "splitting",
    "polarization_splitting",
    "stack_matrices",
    "symmetric_eigen",
]

_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class Direct:
    """Brute-force window engine: one window sum of half-width ``cutoff``
    per k and offset, all k of a call in one kernel pass. On the
    reciprocal lattice, k = 0 included, no phase oscillates and the bare
    window misses an O(1/L) tail, so there it takes the k = 0 window with
    its tail correction (:func:`~latticesum.direct_sum.k0_tail_correction`)."""

    cutoff: int = 500

    def tensors(self, ks, offset: float) -> np.ndarray:
        """(K, 3, 3) tensors to the plane ``offset`` away at every k of ``ks``."""
        ks = list(ks)
        on_lattice = ~_fold_into_zone(k_array(ks)).any(axis=1)
        batch = [WaveVector(0.0, 0.0) if on else k for k, on in zip(ks, on_lattice)]
        out = window_tensors(batch, offset, self.cutoff)
        if on_lattice.any():
            tail = k0_tail_correction(self.cutoff, offset)
            out[on_lattice] = check_tensors(out[on_lattice] + tail)
        return out


@dataclass(frozen=True)
class Ewald:
    """2D Ewald engine: every k goes to :func:`~latticesum.ewald.lattice_tensors`."""

    def tensors(self, ks, offset: float) -> np.ndarray:
        """(K, 3, 3) tensors to the plane ``offset`` away at every k of ``ks``."""
        return lattice_tensors(ks, offset)


@dataclass(frozen=True)
class LongWave:
    """Closed forms valid for ka << 1. In the plane: the constant tensor
    diag(-F, -F, 2F), exact at k = 0, where the Ewald kernel gives F.
    Between planes, at k folded into the zone, only the (0, 0) reciprocal
    term survives:
    Dt_xx = 2 pi (kxa)^2/(ka) e^{-kc},  Dt_zz = -2 pi (ka) e^{-kc},
    Dt_xz = -2 pi i (kxa) e^{-kc}, and the obvious y-partners. At k = 0,
    where the limit depends on the approach direction, it takes the Ewald
    kernel's value."""

    def tensors(self, ks, offset: float) -> np.ndarray:
        """(K, 3, 3) tensors to the plane ``offset`` away at every k of ``ks``."""
        c = check_offset(offset)
        # D is periodic in k, and the closed form holds near the zone centre
        kx, ky = _fold_into_zone(k_array(ks)).T
        if c == 0.0:
            f = f_constant()
            return np.tile(np.diag([-f, -f, 2.0 * f]).astype(complex), (len(kx), 1, 1))
        q = np.hypot(kx, ky)
        two_pi_e = 2.0 * math.pi * np.exp(-q * c)
        # every entry carries a factor of k; the k = 0 rows are replaced below
        at_origin = q == 0.0
        q_div = np.where(at_origin, 1.0, q)
        out = tensors_from_components(
            two_pi_e * kx * kx / q_div,
            two_pi_e * ky * ky / q_div,
            -two_pi_e * q,
            two_pi_e * kx * ky / q_div,
            -1j * two_pi_e * kx,
            -1j * two_pi_e * ky,
        )
        if at_origin.any():
            out[at_origin] = lattice_tensors([WaveVector(0.0, 0.0)], c)
        return out


Method = Union[Direct, Ewald, LongWave]


@dataclass(frozen=True)
class ModeSpectrum:
    """Eigenvalues at one k, ascending, in J0 units (relative to E_A) and eV."""

    k: WaveVector
    energies_j0: tuple[float, ...]
    energies_ev: tuple[float, ...]

    def __post_init__(self):
        if len(self.energies_j0) != len(self.energies_ev):
            raise ValueError("energy lists must have equal length")
        for seq in (self.energies_j0, self.energies_ev):
            if any(b < a for a, b in zip(seq, seq[1:])):
                raise ValueError("energies must be sorted ascending")


def couplings(tensors, dipole: TransitionDipole) -> np.ndarray:
    """sum_ij m_i m_j Dt_ij for every tensor of a (K, 3, 3) stack, as (K,).

    Real for Hermitian tensors and real m: the imaginary residual is
    asserted below 1e-12 and then discarded. Between planes the xz and yz
    entries are purely imaginary, so the m_x m_z and m_y m_z cross terms
    drop out; the long-wave forms give Jt' = 2 pi (ka) e^{-kb}
    [(m_par . khat)^2 - m_z^2].
    """
    m = np.asarray(dipole.direction)
    vals = (m @ np.asarray(tensors)) @ m
    resid = float(np.max(np.abs(vals.imag), initial=0.0))
    if resid > _IMAG_TOL:
        raise ArithmeticError(f"contraction has imaginary residual {resid:.3e}")
    return vals.real


def pair_energies(
    k: WaveVector,
    dipole: TransitionDipole,
    b_over_a: float,
    method: Method,
    scale: EnergyScale,
) -> ModeSpectrum:
    """Two-plane hybrid modes E_A + J0 (Jt +- Jt'), value-sorted."""
    b = check_offset(b_over_a, spacing=True)
    j, jp = (float(couplings(method.tensors([k], c), dipole)[0]) for c in (0.0, b))
    lo, hi = sorted((j - jp, j + jp))
    return ModeSpectrum(
        k=k,
        energies_j0=(lo, hi),
        energies_ev=(scale.ea_ev + scale.j0_ev * lo, scale.ea_ev + scale.j0_ev * hi),
    )


def splitting(
    k: WaveVector, dipole: TransitionDipole, b_over_a: float, method: Method
) -> float:
    """Two-plane splitting 2 |Jt'(k)| in units of J0."""
    b = check_offset(b_over_a, spacing=True)
    return 2.0 * abs(float(couplings(method.tensors([k], b), dipole)[0]))


def polarization_splitting(f: float) -> float:
    """k = 0 gap between the z-polarized branch (2F) and the in-plane
    branches (-F), i.e. 3F in units of J0 (dipole magnitude included in J0)."""
    if not f > 0:
        raise ValueError(f"F must be positive, got {f}")
    return 3.0 * f


def stack_matrices(
    ks,
    dipole: TransitionDipole,
    geometry: LatticeGeometry,
    method: Method,
    nearest_only: bool = False,
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Coupling tables and N-plane stack matrices over ``ks``, in J0 units.

    Returns Jt at every k, shape (K,); one (K,) table of Jt' per plane
    separation s b that the stack needs, s = 1 .. N-1 (only s = 1 with
    nearest_only); and the (K, N, N) matrices, diagonal relative to E_A,
    with Jt' at separation |alpha - beta| b in entry (alpha, beta) and
    zero beyond the tables. Each tensor is evaluated once per k and
    separation s, at plane offset s b; the Hamiltonian is pairwise and
    nothing else enters.
    """
    n = geometry.n_planes
    last = min(n - 1, 1) if nearest_only else n - 1
    j, *jps = [
        couplings(method.tensors(ks, sep * geometry.b_over_a), dipole)
        for sep in range(last + 1)
    ]
    mats = np.zeros((len(j), n, n))
    idx = np.arange(n)
    mats[:, idx, idx] = j[:, None]
    for sep, jp in enumerate(jps, start=1):
        mats[:, idx[:-sep], idx[sep:]] = jp[:, None]
        mats[:, idx[sep:], idx[:-sep]] = jp[:, None]
    return j, jps, mats


def symmetric_eigen(matrix) -> np.ndarray:
    """Eigenvalues of real symmetric matrices, ascending.

    Takes one (n, n) matrix or a (..., n, n) stack and returns (n,) or
    (..., n) from one LAPACK call (``np.linalg.eigvalsh``). Non-finite
    input and asymmetry beyond 1e-10 are rejected; the remaining
    asymmetry is averaged out before the solve.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    at = np.swapaxes(a, -1, -2)
    asym = float(np.max(np.abs(a - at), initial=0.0))
    if asym > 1e-10:
        raise ValueError(f"matrix is not symmetric: residual {asym:.3e}")
    return np.linalg.eigvalsh(0.5 * (a + at))

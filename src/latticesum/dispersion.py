"""Exciton couplings and stack spectra built on the tensor engines.

Each engine (:class:`Direct`, :class:`Ewald`, :class:`LongWave`) returns
the in-plane and inter-plane tensors of a whole list of k as (K, 3, 3)
stacks through its ``intra(ks)`` and ``inter(ks, b_over_a)`` methods.
Contracting them with the transition dipole gives J(k) and J'(k) in units
of J0; N-plane stack matrices are assembled from one coupling table per
plane separation and diagonalized in one batched LAPACK call
(``np.linalg.eigvalsh``).

Sign conventions: the symmetric two-plane mode carries +J', so the pair
energies are E_A + J0 (Jt +- Jt') and the splitting is 2 |Jt'|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .direct_sum import k0_tail_correction, window_tensors
from .ewald import (
    _check_spacing,
    _fold_into_zone,
    f_constant,
    inter_longwave_tensors,
    lattice_tensors,
)
from .model import (
    EnergyScale,
    LatticeGeometry,
    TransitionDipole,
    WaveVector,
    check_tensors,
    k_array,
)

__all__ = [
    "Direct",
    "Ewald",
    "LongWave",
    "Method",
    "ModeSpectrum",
    "origin_tensor",
    "couplings",
    "pair_energies",
    "splitting",
    "polarization_splitting",
    "stack_matrices",
    "symmetric_eigen",
]

_IMAG_TOL = 1e-12


def origin_tensor(cutoff: int, offset: float) -> np.ndarray:
    """Tensor at k = 0 exactly, (3, 3): the window sum plus its exterior tail."""
    return Direct(cutoff)._tensors([WaveVector(0.0, 0.0)], offset)[0]


@dataclass(frozen=True)
class Direct:
    """Brute-force window engine: one window sum of half-width ``cutoff``
    per k and separation, all k of a call in one kernel pass. On the
    reciprocal lattice, k = 0 included, no phase oscillates and the bare
    window misses an O(1/L) tail, so there it takes the k = 0 window with
    its tail correction (:func:`origin_tensor`)."""

    cutoff: int = 500

    def intra(self, ks) -> np.ndarray:
        """In-plane tensors at every k of ``ks``, a (K, 3, 3) stack."""
        return self._tensors(ks, 0.0)

    def inter(self, ks, b_over_a: float) -> np.ndarray:
        """Tensors to the plane b_over_a away at every k, a (K, 3, 3) stack."""
        _check_spacing(b_over_a)
        return self._tensors(ks, b_over_a)

    def _tensors(self, ks, offset):
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

    def intra(self, ks) -> np.ndarray:
        """In-plane tensors at every k of ``ks``, a (K, 3, 3) stack."""
        return lattice_tensors(ks, 0.0)

    def inter(self, ks, b_over_a: float) -> np.ndarray:
        """Tensors to the plane b_over_a away at every k, a (K, 3, 3) stack."""
        _check_spacing(b_over_a)
        return lattice_tensors(ks, b_over_a)


@dataclass(frozen=True)
class LongWave:
    """Closed forms valid for ka << 1: the constant in-plane tensor
    diag(-F, -F, 2F), exact at k = 0, and the single-term inter-plane
    forms at k folded into the zone, which k = 0 replaces by the Ewald
    kernel's value."""

    def intra(self, ks) -> np.ndarray:
        """In-plane tensors at every k of ``ks``, a (K, 3, 3) stack."""
        f = f_constant()
        diag = np.diag([-f, -f, 2.0 * f]).astype(complex)
        return np.broadcast_to(diag, (len(ks), 3, 3))

    def inter(self, ks, b_over_a: float) -> np.ndarray:
        """Tensors to the plane b_over_a away at every k, a (K, 3, 3) stack."""
        _check_spacing(b_over_a)
        # D is periodic in k, and the closed form holds near the zone centre
        kxy = _fold_into_zone(k_array(ks))
        at_origin = ~kxy.any(axis=1)
        out = np.empty((len(kxy), 3, 3), dtype=complex)
        if not at_origin.all():
            rest = [WaveVector(*k) for k in kxy[~at_origin]]
            out[~at_origin] = inter_longwave_tensors(rest, b_over_a)
        if at_origin.any():
            out[at_origin] = lattice_tensors([WaveVector(0.0, 0.0)], b_over_a)
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
    j = float(couplings(method.intra([k]), dipole)[0])
    jp = float(couplings(method.inter([k], b_over_a), dipole)[0])
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
    return 2.0 * abs(float(couplings(method.inter([k], b_over_a), dipole)[0]))


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
    separation; the inter-plane engine is reused with a scaled separation,
    because the Hamiltonian is pairwise and nothing else enters.
    """
    n = geometry.n_planes
    j = couplings(method.intra(ks), dipole)
    last = min(n - 1, 1) if nearest_only else n - 1
    jps = [
        couplings(method.inter(ks, sep * geometry.b_over_a), dipole)
        for sep in range(1, last + 1)
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

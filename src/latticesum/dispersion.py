"""Exciton couplings and stack spectra built on the tensor engines.

Each engine (:class:`Direct`, :class:`Ewald`, :class:`LongWave`) returns
the tensors of a whole list of k to the planes at offsets c (c = 0 for the
site's own plane) through its ``tensors(ks, offsets)`` method, summed once
per orbit of k (:func:`~latticesum.model.tensors_by_orbit`). Contracting
them with the transition dipole gives J(k) at c = 0 and J'(k) at c = b,
in units of J0. A stack's (K, S) coupling table holds one column per plane
separation s b, s = 0 included, all from one engine call; its N-plane
matrices are one gather from that table, exactly symmetric, and their
modes are ``np.linalg.eigvalsh(stack_matrices(table, n_planes))``.

Sign conventions: the symmetric two-plane mode carries +J', so a
two-plane stack's eigenvalues are Jt +- Jt' (energies E_A + J0 (Jt +- Jt'))
and the splitting is 2 |Jt'|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .direct_sum import k0_tail_correction, window_tensors
from .ewald import _plane_waves, f_constant, lattice_tensors
from .model import (_check_count, check_offset, check_tensors, tensors_by_orbit,
                    tensors_from_components)

__all__ = [
    "Direct",
    "Ewald",
    "LongWave",
    "Method",
    "coupling_table",
    "couplings",
    "stack_matrices",
]

_IMAG_TOL = 1e-12


@dataclass(frozen=True)
class Direct:
    """Brute-force window engine: one window sum of half-width ``cutoff``
    per offset and orbit of k (:func:`~latticesum.model.tensors_by_orbit`),
    all in one kernel pass; the window gives every other member of an orbit
    bit for bit. On the reciprocal lattice, the k = 0 orbit, no phase
    oscillates and the bare window misses an O(1/L) tail, so there it adds
    :func:`~latticesum.direct_sum.k0_tail_correction`."""

    cutoff: int = 500

    def tensors(self, ks, offsets) -> np.ndarray:
        """(K, 3, 3) or (S, K, 3, 3) tensors to the planes ``offsets`` away."""
        return tensors_by_orbit(ks, offsets, self._orbit_tensors)

    def _orbit_tensors(self, kxy, cs):
        out = window_tensors(kxy, cs, self.cutoff)
        if len(kxy) and not kxy[0].any():  # the k = 0 orbit sorts first
            tails = np.reshape([k0_tail_correction(self.cutoff, c) for c in cs], (-1, 3, 3))
            out[:, 0] = check_tensors(out[:, 0] + tails)
        return out


@dataclass(frozen=True)
class Ewald:
    """2D Ewald engine: every k goes to :func:`~latticesum.ewald.lattice_tensors`."""

    def tensors(self, ks, offsets) -> np.ndarray:
        """(K, 3, 3) or (S, K, 3, 3) tensors to the planes ``offsets`` away."""
        return lattice_tensors(ks, offsets)


@dataclass(frozen=True)
class LongWave:
    """Closed forms valid for ka << 1. In the plane: the constant tensor
    diag(-F, -F, 2F), exact only at k = 0, where the Ewald kernel gives F.
    Between planes, at k folded into the zone, only the (0, 0) term of the
    kernel's plane-wave series survives:
    Dt_xx = 2 pi (kxa)^2/(ka) e^{-kc},  Dt_zz = -2 pi (ka) e^{-kc},
    Dt_xz = -2 pi i (kxa) e^{-kc}, and the obvious y-partners. At k = 0,
    where the limit depends on the approach direction, it takes the Ewald
    kernel's value. Between planes it is within 1e-10 relative of the
    kernel for c >= 10 and ka <= 1. Outside, over directions 0 to pi/4,
    the dropped terms reach 2.6e-10 at ka = 2, 2.7e-9 at c = 5 and ka = 1
    and 1.6e-4 at c = 3 and ka = 1e-3."""

    def tensors(self, ks, offsets) -> np.ndarray:
        """(K, 3, 3) or (S, K, 3, 3) tensors to the planes ``offsets`` away."""
        return tensors_by_orbit(ks, offsets, self._orbit_tensors)

    @staticmethod
    def _orbit_tensors(kxy, cs):
        c = np.array(cs)[:, None, None]
        out = tensors_from_components(*_plane_waves(kxy[:, :1], kxy[:, 1:], c))
        # every entry carries a factor of k, and the limit at k = 0 has none
        if len(kxy) and not kxy[0].any():  # the k = 0 orbit sorts first
            out[:, :1] = lattice_tensors(kxy[:1], cs)
        if 0.0 in cs:
            f = f_constant()
            out[c[:, 0, 0] == 0.0] = np.diag([-f, -f, 2.0 * f])
        return out


Method = Union[Direct, Ewald, LongWave]


def couplings(tensors, dipole) -> np.ndarray:
    """sum_ij m_i m_j Dt_ij for every tensor of a (..., 3, 3) stack, as (...).

    ``dipole`` is the real unit direction (m_x, m_y, m_z), |m|^2 within
    1e-12 of 1; the magnitude enters through J0. Real for Hermitian tensors
    and real m: the imaginary residual is asserted below 1e-12 and then
    discarded. Between planes the xz and yz entries are purely imaginary,
    so the m_x m_z and m_y m_z cross terms drop out; the long-wave forms
    give Jt' = 2 pi (ka) e^{-kb} [(m_par . khat)^2 - m_z^2].
    """
    m = np.asarray(dipole)
    # |m|^2 in Python floats overflows to inf silently; NaN and inf fail the test
    if (m.shape != (3,) or m.dtype.kind not in "iuf"
            or not abs(sum(x * x for x in m.tolist()) - 1.0) <= 1e-12):
        raise ValueError(f"expected a real unit dipole direction of shape (3,), got {m!r}")
    vals = (m @ np.asarray(tensors)) @ m
    resid = float(np.max(np.abs(vals.imag), initial=0.0))
    if resid > _IMAG_TOL:
        raise ArithmeticError(f"contraction has imaginary residual {resid:.3e}")
    return vals.real


def coupling_table(ks, dipole, b_over_a: float, n_planes: int, method: Method) -> np.ndarray:
    """The (K, S) couplings between ``n_planes`` >= 1 planes at spacing
    ``b_over_a``, in J0: column s holds Jt'(k) at plane separation s b,
    s = 0 .. n_planes - 1, column 0 Jt(k) in the plane. All offsets s b go
    to one engine call. A nearest-only stack of N planes is
    ``stack_matrices(coupling_table(ks, dipole, b, 2, method), N)``. The
    spacing must pass :func:`~latticesum.model.check_offset` as a spacing,
    so b = 0 is refused.
    """
    b = check_offset(b_over_a, spacing=True)
    offsets = [sep * b for sep in range(_check_count(n_planes, "n_planes"))]
    return np.ascontiguousarray(couplings(method.tensors(ks, offsets), dipole).T)


def stack_matrices(table, n_planes: int) -> np.ndarray:
    """(K, N, N) stack matrices relative to E_A from a (K, S)
    :func:`coupling_table`, in one gather: entry (alpha, beta) is column
    |alpha - beta|, or 0 past S. A finite real table gives exactly
    symmetric finite matrices, ready for ``np.linalg.eigvalsh``; any other
    table is refused."""
    table = np.asarray(table)
    if table.ndim != 2 or table.dtype.kind not in "iuf" or not np.isfinite(table).all():
        raise ValueError(f"expected a (K, S) real array of finite couplings, "
                         f"got {table.dtype} {table.shape}")
    padded = np.concatenate([table, np.zeros((len(table), 1))], axis=1)
    planes = np.arange(_check_count(n_planes, "n_planes"))
    sep = np.abs(np.subtract.outer(planes, planes))
    return padded[:, np.minimum(sep, table.shape[1], out=sep)]

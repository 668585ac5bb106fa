"""Exciton couplings and stack spectra built on the tensor engines.

Each engine (:class:`Direct`, :class:`Ewald`, :class:`LongWave`) returns
the tensors of a whole list of k to the planes at offsets c (c = 0 for the
site's own plane) through its ``tensors(ks, offsets)`` method, summed once
per orbit of k (:func:`~latticesum.model.tensors_by_orbit`). Contracting
them with the transition dipole gives J(k) at c = 0 and J'(k) at c = b,
in units of J0. A stack's (K, S) coupling table holds one column per plane
separation s b, s = 0 included, all from one engine call; its N-plane
matrices are a read-only Toeplitz view of that table, exactly symmetric,
and their modes are ``np.linalg.eigvalsh(stack_matrices(table, n_planes))``.

Sign conventions: the symmetric two-plane mode carries +J', so a
two-plane stack's eigenvalues are Jt +- Jt' (energies E_A + J0 (Jt +- Jt'))
and the splitting is 2 |Jt'|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .direct_sum import window_tensors
from .ewald import _plane_waves, f_constant, lattice_tensors
from .model import _check_count, check_offset, tensors_by_orbit, tensors_from_components

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
    """Closed window engine: one closed window sum of half-width ``cutoff``
    (:func:`~latticesum.direct_sum.window_tensors`) per offset and orbit of
    k (:func:`~latticesum.model.tensors_by_orbit`), all in one kernel pass;
    it gives every other member of an orbit bit for bit. The kernel's
    Gaussians wide past the window are summed over the whole lattice by
    Poisson summation, so the tensors hold at every k, k = 0 included."""

    cutoff: int = 500

    def tensors(self, ks, offsets) -> np.ndarray:
        """(K, 3, 3) or (S, K, 3, 3) tensors to the planes ``offsets`` away."""
        return tensors_by_orbit(ks, offsets, self._orbit_tensors)

    def _orbit_tensors(self, kxy, cs):
        return window_tensors(kxy, cs, self.cutoff, closed=True)


@dataclass(frozen=True)
class Ewald:
    """2D Ewald engine: every k goes to :func:`~latticesum.ewald.lattice_tensors`,
    which takes the closed Gaussian sum of ``Direct``'s kernel at a fixed
    half-width of 8 below c = 2 and the plane-wave series from there up."""

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
    """sum_ij m_i m_j Dt_ij for every tensor of a (..., 3, 3) stack, as (...),
    its nine terms added elementwise in one fixed order, unlike a batched
    matmul, so its bits do not depend on the rest of the stack. ``dipole`` is
    the real unit direction m, |m|^2 within 1e-12 of 1; an imaginary residual
    past 1e-12 is refused. Between planes the xz and yz entries are purely
    imaginary, so the m_x m_z and m_y m_z cross terms drop out; the long-wave
    forms give Jt' = 2 pi (ka) e^{-kb} [(m_par . khat)^2 - m_z^2].
    """
    m = np.asarray(dipole)
    # |m|^2 in Python floats overflows to inf silently; NaN and inf fail the test
    if (m.shape != (3,) or m.dtype.kind not in "iuf"
            or not abs(sum(x * x for x in m.tolist()) - 1.0) <= 1e-12):
        raise ValueError(f"expected a real unit dipole direction of shape (3,), got {m!r}")
    t = np.asarray(tensors)
    vals = sum(m[i] * m[j] * t[..., i, j] for i in range(3) for j in range(3))
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
    :func:`coupling_table`: entry (alpha, beta) is column |alpha - beta|,
    or 0 past S, as a read-only view of K rows of 2N - 1 floats, since
    ``np.linalg.eigvalsh`` copies each matrix into its own buffer. A finite
    real table gives exactly symmetric finite matrices; any other is refused."""
    table = np.asarray(table)
    if table.ndim != 2 or table.dtype.kind not in "iuf" or not np.isfinite(table).all():
        raise ValueError(f"expected a (K, S) real array of finite couplings, "
                         f"got {table.dtype} {table.shape}")
    n = _check_count(n_planes, "n_planes")
    rows = np.zeros((len(table), 2 * n - 1))  # r_{N-1} .. r_1 r_0 r_1 .. r_{N-1}
    rows[:, n - 1 : n - 1 + table.shape[1]] = table[:, :n]
    rows[:, : n - 1] = rows[:, : n - 1 : -1]
    # window alpha is r_|alpha + beta - (N - 1)|; reversed, row alpha is r_|beta - alpha|
    return sliding_window_view(rows, n, axis=1)[:, ::-1]

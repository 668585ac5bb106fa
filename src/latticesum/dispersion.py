"""Exciton couplings and stack spectra built on the tensor functions.

:func:`~latticesum.ewald.lattice_tensors` (the kernel) and
:func:`~latticesum.ewald.long_wave_tensors` (the long-wave closed forms)
return the tensors of a whole list of k to the planes at offsets c (c = 0
for the site's own plane), summed once per orbit of k
(:func:`~latticesum.model.tensors_by_orbit`). Contracting them with the
transition dipole gives J(k) at c = 0 and J'(k) at c = b, in units of J0.
A stack's (K, S) coupling table holds one column per plane separation s b,
s = 0 included, all from one kernel call; its N-plane matrices are a
read-only Toeplitz view of that table, exactly symmetric, and their modes
are ``np.linalg.eigvalsh(stack_matrices(table, n_planes))``.

Sign conventions: the symmetric two-plane mode carries +J', so a
two-plane stack's eigenvalues are Jt +- Jt' (energies E_A + J0 (Jt +- Jt'))
and the splitting is 2 |Jt'|.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .ewald import lattice_tensors
from .model import _check_count, check_offset

__all__ = ["coupling_table", "couplings", "stack_matrices"]

_IMAG_TOL = 1e-12


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


def coupling_table(ks, dipole, b_over_a: float, n_planes: int) -> np.ndarray:
    """The (K, S) couplings between ``n_planes`` >= 1 planes at spacing
    ``b_over_a``, in J0: column s holds Jt'(k) at plane separation s b,
    s = 0 .. n_planes - 1, column 0 Jt(k) in the plane. All offsets s b go
    to one :func:`~latticesum.ewald.lattice_tensors` call. A nearest-only
    stack of N planes is ``stack_matrices(coupling_table(ks, dipole, b, 2),
    N)``. The spacing must pass :func:`~latticesum.model.check_offset` as a
    spacing, so b = 0 is refused.
    """
    b = check_offset(b_over_a, spacing=True)
    offsets = [sep * b for sep in range(_check_count(n_planes, "n_planes"))]
    return np.ascontiguousarray(couplings(lattice_tensors(ks, offsets), dipole).T)


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

"""Domain types and unit conventions for dipolar lattice-sum calculations.

Everything internal is dimensionless: wave vectors are stored as k*a,
coupling tensors follow the convention Dt_ij = a^3 * D_ij, and couplings
are reported in units of J0 = mu^2 / (4 pi eps0 a^3). Physical eV values
appear only at the output boundary, J0 from :func:`j0_scale`. Keeping a
single convention avoids the factor-of-a bookkeeping bugs that creep in
when some expressions carry 1/a^2 and others 1/a^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "COULOMB_EV_ANGSTROM",
    "MIN_OFFSET",
    "MAX_FOLD",
    "CouplingTensor",
    "check_offset",
    "check_offsets",
    "check_tensors",
    "tensors_from_components",
    "dipole_from_theta",
    "j0_scale",
    "make_k_grid",
    "k_array",
    "tensors_by_orbit",
]

# e^2/(4 pi eps0) expressed in eV * Angstrom: the CODATA expression
# elementary_charge / (4 pi epsilon_0) * 1e10 of scipy.constants, bit for bit
# (a test pins it), written out so that importing the package needs no SciPy.
COULOMB_EV_ANGSTROM = 14.399645468667815

# largest Hermitian residual and |trace| per unit of max(1, largest entry)
_INVARIANT_TOL = 1e-10

# Smallest accepted nonzero plane offset c/a, and so plane spacing b/a. The
# tensors scale as 2/c^3 at small c and their roundoff with them: at
# c = 1e-3 the trace residual is 4.8e-7 J0 (2.4e-16 of the largest entry),
# at c = 3e-4 already 3e-5 J0.
MIN_OFFSET = 1e-3

# Every k must lie fewer than MAX_FOLD periods of 2 pi from the zone (|k| below
# about 3.37e9): up to there :func:`_fold_into_zone` subtracts n 2 pi exactly.
MAX_FOLD = 2**29


def check_offset(offset: float, *, spacing: bool = False) -> float:
    """The plane offset c in units of a, as a float, once it is accepted.

    c = 0 is the site's own plane; any other c must be finite and at least
    MIN_OFFSET. A plane ``spacing`` must not be 0 either, since offset 0
    would silently give the in-plane tensor.
    """
    c = float(offset)
    if (c == 0.0 and not spacing) or (math.isfinite(c) and c >= MIN_OFFSET):
        return c
    name = "plane spacing" if spacing else "nonzero plane offset"
    raise ValueError(f"{name} must be finite and >= {MIN_OFFSET}, got {offset}")


def _check_count(value, name: str) -> int:
    """``value`` as an int if it is an integer >= 1, NumPy's included and
    bools not, else a ValueError naming ``name``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def check_offsets(offsets) -> list[float]:
    """:func:`check_offset` applied to one offset or to a 1-D sequence of them."""
    if np.ndim(offsets) > 1:
        raise ValueError(
            f"expected one offset or a 1-D sequence, got shape {np.shape(offsets)}"
        )
    return [check_offset(c) for c in np.reshape(offsets, -1).tolist()]


def check_tensors(m) -> np.ndarray:
    """Validate a (..., 3, 3) stack of coupling tensors; return it as complex.

    The dipole dyadic delta_ij/r^3 - 3 r_i r_j / r^5 is traceless term by
    term, so any lattice sum of it must be traceless too. Every matrix of
    the stack must be finite, and Hermitian and traceless to within 1e-10
    of the larger of 1 and its largest entry: entries and roundoff grow as
    1/c^3 at small plane offsets c, and decay to subnormals at large ones.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-2:] != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if m.size == 0:
        return m
    if not np.all(np.isfinite(m)):
        raise ValueError("tensor has non-finite entries")
    bound = _INVARIANT_TOL * np.maximum(np.max(np.abs(m), axis=(-2, -1)), 1.0)
    herm = np.max(np.abs(m - np.conj(np.swapaxes(m, -1, -2))), axis=(-2, -1))
    if np.any(herm > bound):
        raise ValueError(f"tensor is not Hermitian: residual {np.max(herm):.3e}")
    tr = np.abs(m[..., 0, 0] + m[..., 1, 1] + m[..., 2, 2])
    if np.any(tr > bound):
        raise ValueError(f"tensor is not traceless: |trace| = {np.max(tr):.3e}")
    return m


def tensors_from_components(xx, yy, zz, xy, xz, yz) -> np.ndarray:
    """Checked (..., 3, 3) Hermitian stack from the six independent sums.

    The arguments broadcast against each other. The lower triangle is the
    conjugate of the upper one by convention, so off-diagonal sums that
    come out purely imaginary (the xz and yz inter-plane components) still
    yield Hermitian matrices.
    """
    xx, yy, zz, xy, xz, yz = np.broadcast_arrays(xx, yy, zz, xy, xz, yz)
    m = np.empty(xx.shape + (3, 3), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 0, 2] = xx, xy, xz
    m[..., 1, 0], m[..., 1, 1], m[..., 1, 2] = np.conj(xy), yy, yz
    m[..., 2, 0], m[..., 2, 1], m[..., 2, 2] = np.conj(xz), np.conj(yz), zz
    return check_tensors(m)


@dataclass(frozen=True)
class CouplingTensor:
    """Complex Hermitian 3x3 dynamical matrix, convention Dt_ij = a^3 D_ij.

    The validated single-k view of one matrix of a tensor stack: Hermiticity
    and the vanishing trace are enforced on construction by
    :func:`check_tensors`.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        check_tensors(m)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @classmethod
    def from_components(cls, xx, yy, zz, xy, xz, yz) -> "CouplingTensor":
        """Build the Hermitian matrix from the six independent sums."""
        return cls(tensors_from_components(xx, yy, zz, xy, xz, yz))

    def __add__(self, other: "CouplingTensor") -> "CouplingTensor":
        return CouplingTensor(self.entries + other.entries)

    @property
    def xx(self):
        return self.entries[0, 0]

    @property
    def yy(self):
        return self.entries[1, 1]

    @property
    def zz(self):
        return self.entries[2, 2]

    @property
    def xy(self):
        return self.entries[0, 1]

    @property
    def xz(self):
        return self.entries[0, 2]

    @property
    def yz(self):
        return self.entries[1, 2]


def dipole_from_theta(theta: float) -> tuple[float, float, float]:
    """Dipole tilted by theta from the plane normal: (sin t, 0, cos t).

    The in-plane projection is fixed along x; anisotropy scans rotate the
    wave vector instead. Angle wrapping is the caller's business. Only the
    unit direction is returned; the magnitude enters through J0.
    """
    return (math.sin(theta), 0.0, math.cos(theta))


def j0_scale(mu: float, a: float) -> float:
    """J0 = mu^2 / (4 pi eps0 a^3) in eV, for mu in e*Angstrom and a in Angstrom;
    a J0 that is not a positive finite float is refused."""
    if not mu > 0:
        raise ValueError(f"dipole magnitude must be positive, got {mu}")
    if not a > 0:
        raise ValueError(f"lattice constant must be positive, got {a}")
    j0 = mu * mu * COULOMB_EV_ANGSTROM / a**3
    if not 0.0 < j0 < math.inf:
        raise ValueError(f"J0 must be a positive finite float, got {j0!r} eV")
    return j0


def make_k_grid(n_sites: int) -> np.ndarray:
    """Allowed wave vectors of a sqrt(N) x sqrt(N) plane of N = ``n_sites``
    sites with periodic BCs, as a (K, 2) array of (kxa, kya), kxa varying
    slowest. N must be an integer perfect square of at least 1.

    k_{x,y} a = 2 pi p / sqrt(N) with p = 0, +-1, ..., +-floor(sqrt(N)/2).
    Both signed edge values are kept, so for even sqrt(N) the grid has
    (sqrt(N)+1)^2 points and the zone-edge rows appear twice; nothing
    downstream needs uniqueness.
    """
    root = math.isqrt(_check_count(n_sites, "n_sites"))
    if root * root != n_sites:
        raise ValueError(f"n_sites must be a perfect square >= 1, got {n_sites}")
    half = root // 2
    axis = (2.0 * math.pi / root) * np.arange(-half, half + 1)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def k_array(ks) -> np.ndarray:
    """(K, 2) float array of (kxa, kya) from a (K, 2) real array or a
    sequence of (kxa, kya) pairs, whose entries must be finite and fewer
    than MAX_FOLD periods of 2 pi from the zone."""
    kxy = np.asarray(ks)
    if kxy.shape == (0,):
        kxy = kxy.reshape(0, 2)
    if kxy.shape[1:] != (2,) or kxy.dtype.kind not in "iuf" or not np.isfinite(kxy).all():
        raise ValueError(
            f"expected a (K, 2) real array of finite (kxa, kya), got {kxy.dtype} {kxy.shape}"
        )
    kxy = kxy.astype(float)
    if np.any(np.abs(np.round(kxy / (2.0 * math.pi))) >= MAX_FOLD):
        raise ValueError("k must lie fewer than 2^29 periods of 2 pi from the zone "
                         f"(|k| below about 3.37e9), got |k| = {np.max(np.abs(kxy))!r}")
    return kxy


def _fold_into_zone(kxy: np.ndarray) -> np.ndarray:
    """k - 2 pi round(k / 2 pi), subtracting n 2 pi in three parts (Cody and
    Waite, 1980) whose first two products with |n| < MAX_FOLD are exact. A k
    equal to n times the double 2 pi is the lattice point n and folds to 0."""
    n = np.round(kxy / (2.0 * math.pi))
    folded = (kxy - n * 6.283185005187988 - n * 3.0199157663446385e-07
              - n * 2.1561211432632476e-14)
    return np.where(kxy == n * (2.0 * math.pi), 0.0, folded)


def tensors_by_orbit(ks, offsets, sums) -> np.ndarray:
    """D(k) to the planes ``offsets`` away, summed once per orbit of k.

    D is periodic in k, so k is folded into the zone, and the square
    lattice's mirrors and x <-> y swap map D onto itself: kx -> -kx flips
    xy and xz, ky -> -ky flips xy and yz, and swapping kx and ky swaps xx
    with yy and xz with yz. ``sums(reps, cs)`` returns the checked
    (S, O, 3, 3) tensors of the orbits' members with kx >= ky >= 0, (O, 2)
    in ascending order (k = 0 first), at the S offsets ``cs`` checked by
    :func:`check_offsets`. Each k is restored as s_i s_j D_p(i)p(j), which
    leaves the checked residuals bitwise unchanged. One offset gives a
    (K, 3, 3) stack, a 1-D sequence of S offsets (S, K, 3, 3).
    """
    cs = check_offsets(offsets)
    kxy = _fold_into_zone(k_array(ks))
    # a complex key sorts by kx, then ky, like the member's (kx, ky) row
    ax, ay = np.abs(kxy).T
    key = np.maximum(ax, ay) + 1j * np.minimum(ax, ay)
    orbits, member = np.unique(key, return_inverse=True)
    orb = sums(orbits.view(float).reshape(-1, 2), cs)
    # each k is s_i s_j orb[p(i), p(j)] of its checked orbit, p the x <-> y swap
    # where ky > kx: one gather of the flattened entries 3 p(i) + p(j)
    p = np.where((ay > ax)[:, None], [4, 3, 5, 1, 0, 2, 7, 6, 8], np.arange(9))
    flat = orb.reshape(len(cs), 9 * len(orbits))
    out = np.take(flat, 9 * member[:, None] + p, axis=1).reshape(len(cs), len(kxy), 3, 3)
    s = np.ones((len(kxy), 3))
    s[:, :2][kxy < 0.0] = -1.0
    out *= s[:, :, None] * s[:, None, :]
    return out.reshape(np.shape(offsets) + out.shape[1:])

"""Domain types and unit conventions for dipolar lattice-sum calculations.

Everything internal is dimensionless: wave vectors are stored as k*a,
coupling tensors follow the convention Dt_ij = a^3 * D_ij, and couplings
are reported in units of J0 = mu^2 / (4 pi eps0 a^3). Physical eV values
appear only at the output boundary through :class:`EnergyScale`. Keeping a
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
    "LatticeGeometry",
    "TransitionDipole",
    "WaveVector",
    "CouplingTensor",
    "EnergyScale",
    "check_offset",
    "check_tensors",
    "tensors_from_components",
    "dipole_from_theta",
    "j0_scale",
    "make_k_grid",
    "k_array",
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


@dataclass(frozen=True)
class LatticeGeometry:
    """Square-lattice stack: plane spacing and extent.

    ``b_over_a`` is the plane separation in units of the lattice constant
    a, ``n_sites`` is the number of sites per plane (must be a perfect
    square: the plane is sqrt(N) x sqrt(N)), ``n_planes`` counts stacked
    planes.
    """

    b_over_a: float
    n_sites: int = 1
    n_planes: int = 1

    def __post_init__(self):
        check_offset(self.b_over_a, spacing=True)
        if self.n_planes < 1:
            raise ValueError(f"n_planes must be >= 1, got {self.n_planes}")
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        root = math.isqrt(self.n_sites)
        if root * root != self.n_sites:
            raise ValueError(f"n_sites must be a perfect square, got {self.n_sites}")


@dataclass(frozen=True)
class TransitionDipole:
    """Unit direction (m_x, m_y, m_z); the magnitude enters through J0."""

    direction: tuple[float, float, float]

    def __post_init__(self):
        mx, my, mz = self.direction
        norm2 = mx * mx + my * my + mz * mz
        if abs(norm2 - 1.0) > 1e-12:
            raise ValueError(f"direction must be a unit vector, |m|^2 = {norm2!r}")


@dataclass(frozen=True)
class WaveVector:
    """In-plane wave vector stored dimensionless as (k_x a, k_y a)."""

    kxa: float
    kya: float

    def __post_init__(self):
        if not (math.isfinite(self.kxa) and math.isfinite(self.kya)):
            raise ValueError(f"wave vector must be finite, got ({self.kxa}, {self.kya})")

    @property
    def ka(self) -> float:
        return math.hypot(self.kxa, self.kya)

    def __neg__(self) -> "WaveVector":
        return WaveVector(-self.kxa, -self.kya)


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


@dataclass(frozen=True)
class EnergyScale:
    """Coupling scale J0 and transition energy E_A, both in eV."""

    j0_ev: float
    ea_ev: float = 1.0

    def __post_init__(self):
        if not self.j0_ev > 0:
            raise ValueError(f"j0_ev must be positive, got {self.j0_ev}")


def dipole_from_theta(theta: float) -> TransitionDipole:
    """Dipole tilted by theta from the plane normal: (sin t, 0, cos t).

    The in-plane projection is fixed along x; anisotropy scans rotate the
    wave vector instead. Angle wrapping is the caller's business.
    """
    return TransitionDipole((math.sin(theta), 0.0, math.cos(theta)))


def j0_scale(mu: float, a: float) -> float:
    """J0 = mu^2 / (4 pi eps0 a^3) in eV, for mu in e*Angstrom and a in Angstrom."""
    if not mu > 0:
        raise ValueError(f"dipole magnitude must be positive, got {mu}")
    if not a > 0:
        raise ValueError(f"lattice constant must be positive, got {a}")
    return mu * mu * COULOMB_EV_ANGSTROM / a**3


def make_k_grid(geometry: LatticeGeometry) -> list[WaveVector]:
    """Allowed wave vectors of a sqrt(N) x sqrt(N) plane with periodic BCs.

    k_{x,y} a = 2 pi p / sqrt(N) with p = 0, +-1, ..., +-floor(sqrt(N)/2).
    Both signed edge values are kept, so for even sqrt(N) the grid has
    (sqrt(N)+1)^2 points and the zone-edge rows appear twice; nothing
    downstream needs uniqueness.
    """
    root = math.isqrt(geometry.n_sites)
    half = root // 2
    step = 2.0 * math.pi / root
    return [
        WaveVector(step * p, step * q)
        for p in range(-half, half + 1)
        for q in range(-half, half + 1)
    ]


def k_array(ks) -> np.ndarray:
    """(K, 2) float array of (kxa, kya) from a sequence of wave vectors."""
    return np.array([(k.kxa, k.kya) for k in ks], dtype=float).reshape(-1, 2)

"""Window sums of the Fourier-weighted dipole dyadic: the bare window, which
the tests and ``convergence`` read, and the closed one of ``Direct``.

The bare sum runs over a square window lx, ly in [-L, L], with only the
origin excluded in the in-plane case, and misses the tail past it: O(1/L)
at k = 0. The closed sum, which ``dispersion.Direct`` takes, adds that tail
exactly; the Ewald kernel takes the same closed sums at its near planes,
from ``_core_py`` directly. :func:`window_tensors` sums every k and every
plane offset of a call in one kernel pass, ``_core_py.window_sums``, whose
docstring gives the algorithm and its accuracy. Components that parity
makes real or imaginary come out exactly so, with the other lane 0.
"""

from __future__ import annotations

import math

import numpy as np

from . import _core_py
from .model import (_check_count, _fold_into_zone, check_offsets, k_array,
                    tensors_from_components)

# the window kernel's name, kept only for perfbench/child.py (ROADMAP item 7)
BACKEND = "numpy"

__all__ = ["window_tensors"]

def _in_window_range(c: float) -> bool:
    """c^5 finite (c below about 4.47e61): past it the window's Gaussian
    weights, which scale as c^-5, underflow (2e-4 off at 1e64, 0 from 1e65)."""
    return math.isfinite(c * (c * c) * (c * c))


def window_tensors(ks, offsets, cutoff: int, *, closed: bool = False) -> np.ndarray:
    """Window sums of the dipole dyadic delta_ij/r^3 - 3 r_i r_j / r^5 times
    exp(i k.l), r = l + c z in units of a, at every k, each on its own,
    as a checked stack of the shape :func:`~latticesum.model.tensors_by_orbit`
    states; the s-th stack is bitwise that of ``offsets[s]`` alone, and at
    c = 0 the origin is left out. ``cutoff`` is the half-width L. Inter-plane
    xz and yz come out purely imaginary for real k (the coefficient is odd
    under l -> -l); the lower triangle is the conjugate of the upper one.
    An offset whose c^5 overflows is refused (:func:`_in_window_range`).

    ``closed`` sums every Gaussian of the kernel over the whole lattice, so
    that the tensors are the lattice sums themselves at every k, folded into
    the zone first; L then only chooses which Gaussians run in real space.
    """
    L = _check_count(cutoff, "cutoff")
    cs = check_offsets(offsets)
    if not _in_window_range(far := max(cs, default=0.0)):
        raise ValueError(f"window offset must have c^5 finite (below about 4.47e61), got {far!r}")
    kxy = _fold_into_zone(k_array(ks)) if closed else k_array(ks)
    out = tensors_from_components(*_core_py.window_sums(kxy, L, cs, closed))
    return out.reshape(np.shape(offsets) + out.shape[1:])

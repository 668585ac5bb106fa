"""Dipolar lattice sums and exciton dispersion for stacked square monolayers.

Three interchangeable engines compute the dimensionless coupling tensors:
a brute-force window sum (the oracle), exponentially convergent series
(the fast path) and closed long-wavelength forms. On top of those sit
the dipole contractions J(k), J'(k), two-plane splittings and N-plane
stack spectra, and a CSV-producing command line.
"""

from .model import (
    COULOMB_EV_ANGSTROM,
    CouplingTensor,
    EnergyScale,
    LatticeGeometry,
    TransitionDipole,
    WaveVector,
    dipole_from_theta,
    j0_scale,
    make_k_grid,
)
from .specfun import bessel_k
from .direct_sum import (
    BACKEND,
    DirectSumConfig,
    d_tensor_direct,
    dyadic_term,
    k0_tail_correction,
    tail_bound,
)
from .ewald import (
    EwaldConfig,
    f_constant,
    inter_longwave_tensors,
    inter_series,
    inter_tensors,
    intra_series,
    intra_tensors,
)
from .dispersion import (
    Direct,
    Ewald,
    LongWave,
    Method,
    ModeSpectrum,
    couplings,
    pair_energies,
    polarization_splitting,
    splitting,
    stack_matrices,
    symmetric_eigen,
)

__version__ = "0.1.0"

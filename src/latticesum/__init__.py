"""Dipolar lattice sums and exciton dispersion for stacked square monolayers.

Two interchangeable engines compute the dimensionless coupling tensors:
a brute-force window sum (the oracle) and exponentially convergent series
(the fast path), plus closed long-wavelength forms. On top of those sit
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
    d_inter_ewald,
    d_inter_longwave,
    d_intra_ewald,
    d_xy_intra,
    f_constant,
    inter_tensors,
    intra_tensors,
    s_inter_partials,
    s_inter_series,
    s_intra_axis,
)
from .dispersion import (
    Direct,
    Ewald,
    LongWave,
    Method,
    ModeSpectrum,
    coupling_from_tensor,
    couplings,
    j_inter,
    j_intra,
    pair_energies,
    polarization_splitting,
    splitting,
    stack_matrices,
    stack_matrix,
    symmetric_eigen,
)

__version__ = "0.1.0"

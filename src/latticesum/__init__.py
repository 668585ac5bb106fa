"""Dipolar lattice sums and exciton dispersion for stacked square monolayers.

Three interchangeable engines compute the dimensionless coupling tensors:
a window sum closed by Poisson summation, the 2D Ewald kernel (the fast
path) and closed long-wavelength forms. On top of those sit the dipole
contractions J(k), J'(k) and N-plane stack spectra, and a
CSV-producing command line.
"""

from .model import (
    COULOMB_EV_ANGSTROM,
    dipole_from_theta,
    j0_scale,
    make_k_grid,
)
from .direct_sum import window_tensors
from .ewald import f_constant, lattice_tensors
from .dispersion import (
    Direct,
    Ewald,
    LongWave,
    Method,
    coupling_table,
    couplings,
    stack_matrices,
)

__version__ = "0.1.0"

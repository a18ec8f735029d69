"""Noncolliding continuous-time simple random walks on Z.

Independent +-1 walks conditioned never to meet form a determinantal
process: every spatio-temporal correlation is a determinant of one
correlation kernel built from modified Bessel functions.  The package
evaluates the kernels for finite initial configurations, for the infinite
equidistant lattice, and for the stationary sine-kernel equilibrium;
computes determinantal correlations and finite Fredholm determinants;
cross-validates everything with two Monte Carlo estimators; and measures
the relaxation of the lattice process to equilibrium.
"""

from .bessel import scaled_bessel_i_all, truncation_radius
from .correlations import (MultiTimePointSet, correlation_function,
                           density_profile, fredholm_generating_function,
                           kernel_matrix)
from .errors import ConvergenceError
from .kernels import (KernelSpec, StationarySpec, lattice_kernel_remainder,
                      sine_kernel)
from .martingales import (FiniteConfiguration, LatticeSpec,
                          martingale_polynomial, site_martingale_rows)
from .montecarlo import (EstimatorResult, OccupationProduct, One, WalkBlock,
                         absorbed_weight_mean, estimate_many,
                         vandermonde_ratio)
from .relaxation import RelaxationReport, relaxation_sweep

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "MultiTimePointSet", "correlation_function", "density_profile",
    "fredholm_generating_function", "kernel_matrix",
    "scaled_bessel_i_all", "truncation_radius",
    "KernelSpec", "StationarySpec", "lattice_kernel_remainder",
    "sine_kernel",
    "FiniteConfiguration", "LatticeSpec", "martingale_polynomial",
    "site_martingale_rows",
    "EstimatorResult", "OccupationProduct", "One", "WalkBlock",
    "absorbed_weight_mean", "estimate_many", "vandermonde_ratio",
    "RelaxationReport", "relaxation_sweep",
    "__version__",
]

"""Adaptive exterior-harmonic least-squares solver for the exterior
Laplace problem on smooth star-shaped surfaces.

The expansion sum c_lm * Y_lm(x/|x|)/|x|^(l+1) is fitted to Dirichlet,
Neumann, or Robin boundary data in the discrete L2(S) norm; the degree is
increased until the boundary residual drops below a user tolerance, and
the resulting field can be evaluated anywhere outside the inscribed
sphere. The boundary residual controls the exterior error, which the test
suite verifies empirically against exact harmonic oracles.
"""

from .driver import CONVERGED, L_MAX_REACHED, STAGNATED, MrcConfig, SolveReport, run_mrc
from .errors import ConfigError, GeometryError, MrcError, SolverError
from .fields import (
    BandLimited,
    BoundaryData,
    ExteriorField,
    PointSource,
    boundary_data_from_oracle,
    error_on_enclosing_sphere,
    multipole_coefficients,
    sup_residual,
)
from .geometry import QuadratureRule, SurfaceSpec, build_quadrature, radius_bounds
from .harmonics import ELL_MAX, eval_Y, eval_h, flatten, n_terms, unflatten
from .lsq import DIRICHLET, NEUMANN, ROBIN, LsqProblem, LsqSolution, solve

__version__ = "0.1.0"

__all__ = [
    "BandLimited", "BoundaryData", "ConfigError", "CONVERGED", "DIRICHLET", "ELL_MAX",
    "ExteriorField", "GeometryError", "L_MAX_REACHED", "LsqProblem", "LsqSolution",
    "MrcConfig", "MrcError", "NEUMANN", "PointSource", "QuadratureRule", "ROBIN",
    "STAGNATED", "SolveReport", "SolverError", "SurfaceSpec", "boundary_data_from_oracle",
    "build_quadrature", "error_on_enclosing_sphere", "eval_Y", "eval_h",
    "flatten", "multipole_coefficients", "n_terms", "radius_bounds", "run_mrc", "solve",
    "sup_residual", "unflatten",
]

"""Planar Laplace eigenvalue toolkit: FEM, boundary integral, and
particular-solution spectra with two-sided bounds."""

__version__ = "0.1.0"

from . import bie, bounds, fem, geometry, mps, pencil, reference, specfun
from .bie import solve_steklov_bie, sweep_annulus
from .bounds import bracket_report, cr_lower_bound, richardson_extrapolate
from .fem import EigenProblemSpec, FemSpace, build_mesh, solve_fem
from .geometry import (Domain, Mesh, annulus_domain, boundary_quadrature,
                       load_domain, triangulate)
from .mps import (CornerBasis, Enclosure, corner_basis, fhm_enclosure,
                  refine_minimum, sigma_min_sweep)
from .pencil import Spectrum, cluster, solve_general
from .reference import (AnalyticSpectrum, concentric_annulus_steklov,
                        disk_spectra, rectangle_spectra)

__all__ = [
    "bie", "bounds", "fem", "geometry", "mps", "pencil", "reference",
    "specfun", "__version__",
    "annulus_domain", "solve_steklov_bie", "sweep_annulus",
    "bracket_report", "cr_lower_bound", "richardson_extrapolate",
    "EigenProblemSpec", "FemSpace", "build_mesh", "solve_fem",
    "Domain", "Mesh", "boundary_quadrature", "load_domain", "triangulate",
    "CornerBasis", "Enclosure", "corner_basis", "fhm_enclosure",
    "refine_minimum", "sigma_min_sweep",
    "Spectrum", "cluster", "solve_general",
    "AnalyticSpectrum", "concentric_annulus_steklov", "disk_spectra",
    "rectangle_spectra",
]

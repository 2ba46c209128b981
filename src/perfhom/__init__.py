"""Numerical homogenization of elliptic problems in domains perforated
along a hyperplane, with a nonlinear third boundary condition on the
cavity boundaries.

The package solves the perforated problem and its two homogenized limits
(no-trace and delta-interaction), computes the mollified surface density
and its multiplier-norm distance to the limit coefficient, builds
boundary-layer correctors, and runs convergence studies against the
theoretical rate bounds.
"""

from .errors import (
    PerfhomError,
    ConfigError,
    InfeasibleSpacingError,
    MeshingError,
    MissingFacetTagsError,
    NoConvergenceError,
    NonEllipticCoefficientsError,
    NonzeroMeanError,
    PointOffManifoldError,
)
from .geometry import PerforationLayout, Shape, make_layout, validate_layout
from .meshing import Mesh, mesh_box, mesh_interface, mesh_perforated, mesh_slab
from .fem import (
    CoefficientSet,
    DiscreteField,
    NonlinearBC,
    assemble,
    estimate_lambda0,
    norms,
)
from .alpha import (
    SurfaceDensity,
    alpha0_lattice,
    alpha0_mean,
    density_count,
    surface_density,
)
from .snorm import build_slab, kappa, kappa_table, s_norm, slab_for_layout
from .corrector import cell_beta, fourier_corrector, mu_table, residual_components
from .solvers import (
    SolveOptions,
    solve_homogenized_delta,
    solve_homogenized_plain,
    solve_perforated,
)
from .harness import RateReport, StudyConfig, emit_report, fit_rate, run_study

__version__ = "0.1.0"

__all__ = [
    "PerfhomError", "ConfigError", "InfeasibleSpacingError", "MeshingError",
    "MissingFacetTagsError", "NoConvergenceError",
    "NonEllipticCoefficientsError", "NonzeroMeanError",
    "PointOffManifoldError",
    "PerforationLayout", "Shape", "make_layout", "validate_layout",
    "Mesh", "mesh_box", "mesh_interface", "mesh_perforated", "mesh_slab",
    "CoefficientSet", "DiscreteField", "NonlinearBC", "assemble",
    "estimate_lambda0", "norms",
    "SurfaceDensity", "alpha0_lattice", "alpha0_mean", "density_count",
    "surface_density",
    "build_slab", "kappa", "kappa_table", "s_norm", "slab_for_layout",
    "cell_beta", "fourier_corrector", "mu_table", "residual_components",
    "SolveOptions", "solve_homogenized_delta", "solve_homogenized_plain",
    "solve_perforated",
    "RateReport", "StudyConfig", "emit_report", "fit_rate", "run_study",
    "__version__",
]

"""dgmono: DMP-preserving interior-penalty dG convection-diffusion solver."""

from .assembly import (BoundaryTrace, ProblemSpec, assemble_B, assemble_G,
                       assemble_K, assemble_M, interpolate_boundary)
from .detector import StabilizationParams, alpha_all
from .mesh import (DgNodeSet, Mesh, MeshError, build_dg_nodes,
                   build_structured_quad, classify_facets, load_mesh,
                   save_mesh)
from .metrics import eoc_fit, eoc_pairs, l2_error, osc
from .problems import get_case
from .solve import (SolverConfig, SolveTrace, TimeLoopConfig, hybrid_newton,
                    picard, run_transient, solve_linear, theta_step)
from .stabilization import (GraphViscosity, StabilizedProblem, audit_dmp,
                            build_stabilized, build_viscosity, cfl_bound)

__version__ = "0.1.0"

__all__ = [
    "BoundaryTrace", "ProblemSpec", "assemble_B", "assemble_G", "assemble_K",
    "assemble_M", "interpolate_boundary", "StabilizationParams", "alpha_all",
    "DgNodeSet", "Mesh", "MeshError", "build_dg_nodes",
    "build_structured_quad", "classify_facets", "load_mesh", "save_mesh",
    "eoc_fit", "eoc_pairs", "l2_error", "osc", "get_case",
    "SolverConfig", "SolveTrace", "TimeLoopConfig", "hybrid_newton", "picard",
    "run_transient", "solve_linear", "theta_step", "GraphViscosity",
    "StabilizedProblem", "audit_dmp", "build_stabilized", "build_viscosity",
    "cfl_bound",
]

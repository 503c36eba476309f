"""dgmono: DMP-preserving interior-penalty dG convection-diffusion solver."""

from .assembly import (BoundaryTrace, ProblemSpec, assemble_B, assemble_G,
                       assemble_K, assemble_M, interpolate_boundary)
from .detector import StabilizationParams, alpha_all
from .mesh import (DgNodeSet, Mesh, MeshError, build_dg_nodes,
                   build_structured_quad, classify_facets, load_mesh,
                   save_mesh)
from .metrics import eoc_fit, eoc_pairs, l2_error, osc
from .problems import get_case
from .solve import (SolverConfig, SolveTrace, hybrid_newton, picard,
                    run_transient, solve_linear, theta_step)
from .stabilization import (GraphViscosity, StabilizedProblem, audit_dmp,
                            build_stabilized, build_viscosity, cfl_bound)

__version__ = "0.1.0"


def _set_allocator_policy():
    """Fix glibc's heap thresholds at the ceilings its dynamic rule reaches:
    blocks up to 32 MB come from the heap, not from mmap, and the heap is
    trimmed only above 64 MB free (twice that).  Without this, the first
    large free (a SuperLU factorization's) raises the thresholds and later
    work reuses the retained heap, while a run that makes no such free
    maps and page-faults every temporary anew.  Returns whether glibc's
    ``mallopt`` was found; elsewhere nothing is changed."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), \
        ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD in glibc's malloc.h
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    return True


_set_allocator_policy()

__all__ = [
    "BoundaryTrace", "ProblemSpec", "assemble_B", "assemble_G", "assemble_K",
    "assemble_M", "interpolate_boundary", "StabilizationParams", "alpha_all",
    "DgNodeSet", "Mesh", "MeshError", "build_dg_nodes",
    "build_structured_quad", "classify_facets", "load_mesh", "save_mesh",
    "eoc_fit", "eoc_pairs", "l2_error", "osc", "get_case",
    "SolverConfig", "SolveTrace", "hybrid_newton", "picard", "run_transient",
    "solve_linear", "theta_step", "GraphViscosity", "StabilizedProblem",
    "audit_dmp", "build_stabilized", "build_viscosity", "cfl_bound",
]

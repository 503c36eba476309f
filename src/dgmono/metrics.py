"""Solution-quality metrics: oscillation, L2 error, empirical convergence order."""

from __future__ import annotations

import numpy as np

from .assembly import cell_quadrature


def osc(u, lo=0.0, hi=1.0):
    """Largest excursion of the coefficients outside [lo, hi] (0 if none)."""
    u = np.asarray(u, dtype=float)
    return max(0.0, lo - float(u.min()), float(u.max()) - hi)


def l2_error(mesh, u, exact):
    """L2 norm of u_h - exact with a 3x3 Gauss rule per cell."""
    N, _, w_det, pts = cell_quadrature(mesh, order=3)
    uh = np.einsum("qk,ck->cq", N, np.asarray(u).reshape(mesh.n_cells, 4))
    ue = np.broadcast_to(np.asarray(exact(pts[..., 0], pts[..., 1]),
                                    dtype=float), uh.shape)
    return float(np.sqrt(np.sum(w_det * (uh - ue)**2)))


def eoc_pairs(hs, errors):
    """Pairwise orders log(e_i/e_{i+1}) / log(h_i/h_{i+1}), as Python
    floats."""
    hs = np.asarray(hs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    return (np.log(errors[:-1] / errors[1:])
            / np.log(hs[:-1] / hs[1:])).tolist()


def eoc_fit(hs, errors):
    """Least-squares slope of log(error) against log(h)."""
    slope, _ = np.polyfit(np.log(np.asarray(hs, dtype=float)),
                          np.log(np.asarray(errors, dtype=float)), 1)
    return float(slope)

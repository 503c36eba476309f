"""Interior-penalty dG operators on Q1 quadrilaterals.

K is the volume term mu (grad u, grad v) - (u, beta . grad v) plus one facet
form, summed over the facets F with normal n and pen = c_ip mu / |F|:

    int_F beta.n u_up [v] - mu {du/dn} [v] - mu [u] {dv/dn} + pen [u] [v].

On an interior facet n points out of the plus cell, [w] = w+ - w-,
{w} = (w+ + w-) / 2 and the upwind trace u_up is u+ where beta.n > 0, else
u-.  On a boundary facet the exterior trace of u is the boundary data ubar
and that of v is 0: [u] = u - ubar, [v] = v, the means are the interior
traces, and u_up is u on outflow, ubar on inflow.  The ubar parts make B,
so that K u = G + B ubar.

Quadrature: 2x2 Gauss per cell, 2-point Gauss per facet.  Both are exact on
parallelogram cells with beta at most linear (and beta.n of one sign on
each facet), not on general convex quadrilaterals, whose Jacobians vary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import GAUSS2, GAUSS2_W, REF_CORNERS, beta_at


@dataclass
class ProblemSpec:
    """Continuous problem data: velocity, diffusion, source and boundary data.

    ``beta`` must be divergence-free and evaluable on coordinate arrays;
    ``ubar`` takes (x, y) arrays.  ``c_ip`` is the interior-penalty constant.
    """

    beta: Callable
    mu: float = 0.0
    g: Optional[Callable] = None
    ubar: Optional[Callable] = None
    u0: Optional[Callable] = None
    c_ip: float = 10.0

    def __post_init__(self):
        if not 0.0 <= self.mu < np.inf:
            raise ValueError("diffusion mu must be finite and nonnegative, "
                             f"got {self.mu!r}")
        if not 0.0 < self.c_ip < np.inf:
            raise ValueError("interior-penalty constant c_ip must be finite "
                             f"and positive, got {self.c_ip!r}")

    def beta_max(self, mesh):
        """L-infinity norm of |beta| over the cell quadrature points."""
        bx, by = beta_at(self.beta, mesh.quadrature[3])
        return float(np.sqrt(bx**2 + by**2).max())


# -- reference element --------------------------------------------------------

def basis_at_ref(xi):
    """Q1 shape values (..., 4) and reference gradients (..., 4, 2) at
    reference points (..., 2)."""
    xi = np.atleast_2d(xi)
    s = REF_CORNERS[:, 0]  # (4,)
    t = REF_CORNERS[:, 1]
    a = 1.0 + xi[..., 0, None] * s
    b = 1.0 + xi[..., 1, None] * t
    N = 0.25 * a * b
    grad = np.empty(N.shape + (2,))
    grad[..., 0] = 0.25 * s * b
    grad[..., 1] = 0.25 * t * a
    return N, grad


_g, _r = 1.0 / np.sqrt(3.0), np.sqrt(0.6)
# tensor Gauss rules on the reference square by order: (points, weights)
CELL_RULES = {
    2: (np.array([[-_g, -_g], [_g, -_g], [_g, _g], [-_g, _g]]), np.ones(4)),
    3: (np.array([[x, y] for y in (-_r, 0.0, _r) for x in (-_r, 0.0, _r)]),
        np.outer([5 / 9, 8 / 9, 5 / 9], [5 / 9, 8 / 9, 5 / 9]).ravel()),
}


def _cell_rule(order):
    if order not in CELL_RULES:
        raise ValueError(f"unsupported quadrature order {order!r}")
    return CELL_RULES[order]


def _det_inv_2x2(a, b, c, d):
    """det and the entries (i00, i01, i10, i11) of the inverse of the 2x2
    matrices [[a, b], [c, d]], one per element of the arrays a, b, c, d."""
    det = a * d - b * c
    return det, (d / det, -b / det, -c / det, a / det)


def _jacobian(X, gradref):
    """The entries (a, b, c, d) of J = [[dx/dxi, dx/deta], [dy/dxi,
    dy/deta]] of the cells with corners X (m, 4, 2) at reference points
    with shape gradients gradref (..., 4, 2) that broadcast against (m, 1).

    Here and in the local matrices below, each sum over corners, points or
    components adds its terms one at a time, in order, not by BLAS, whose
    fused multiply-adds round otherwise: the operators round the same on
    every machine."""
    return tuple(sum(X[:, None, k, i] * gradref[..., k, j] for k in range(4))
                 for i in (0, 1) for j in (0, 1))


def _outer_sum(L, R):
    """sum_q L[:, q, a] R[:, q, b]: the local matrices (m, a, b)."""
    return sum(L[:, q, :, None] * R[:, q, None, :] for q in range(L.shape[1]))


def cell_quadrature(mesh, order=2):
    """Shape values N, physical gradients gradN, weighted Jacobians w_det
    and physical points (nc, nq, 2) of the 2x2 (order=2) or 3x3 (order=3)
    Gauss rule; :attr:`Mesh.quadrature` keeps the order-2 rule."""
    ref_pts, ref_w = _cell_rule(order)
    N, gradref = basis_at_ref(ref_pts)       # (nq,4), (nq,4,2)
    X = mesh.vertices[mesh.cells]
    det, (i00, i01, i10, i11) = _det_inv_2x2(*_jacobian(X, gradref))
    gx, gy = gradref[..., 0], gradref[..., 1]         # (nq, 4)
    gradN = np.stack([gx * i00[..., None] + gy * i10[..., None],
                      gx * i01[..., None] + gy * i11[..., None]], axis=-1)
    points = sum(N[:, k, None] * X[:, None, k] for k in range(4))
    return N, gradN, ref_w[None, :] * det, points


def edge_ref_coords(edge, s):
    """Exact reference coordinates along local edges for parameters s.

    ``edge`` (...) broadcasts against ``s`` (..., nq) to (..., nq, 2).
    """
    s = np.asarray(s, dtype=float)[..., None]
    edge = np.asarray(edge)[..., None]
    c0 = REF_CORNERS[edge]
    c1 = REF_CORNERS[(edge + 1) % 4]
    return 0.5 * (1.0 - s) * c0 + 0.5 * (1.0 + s) * c1


def _facet_traces(mesh, spec, facets, *sides):
    """Quadrature on facets: weights w (nf, nq), beta.n at the Gauss points
    and, per side (cells, edges, s), the shape values N (nf, nq, 4) and
    normal derivatives dN/dn of those cells at parameters s on their edges.

    Reference coordinates lie exactly on the edge, so off-edge shape values
    are exactly zero.
    """
    nx, ny = facets["normal"][:, None, 0], facets["normal"][:, None, 1]
    traces = []
    for cells, edges, s in sides:
        N, gradref = basis_at_ref(edge_ref_coords(edges, s))
        _, Jinv = _det_inv_2x2(
            *_jacobian(mesh.vertices[mesh.cells[cells]], gradref))
        # dN/dn = sum_e sum_d dN/dxi_e (J^-1)_ed n_d
        traces.append((N, sum(gradref[..., e] * Jinv[2 * e + d][..., None]
                              * n[..., None] for e in (0, 1)
                              for d, n in enumerate((nx, ny)))))
    bx, by = beta_at(spec.beta, mesh.facet_points(facets["v0"], facets["v1"],
                                                  GAUSS2))
    w = 0.5 * facets["length"][:, None] * GAUSS2_W
    return w, bx * nx + by * ny, traces


def _facet_form(w, bn, v, dv, u, du, u_up, mu, pen):
    """Local matrices (nf, test a, trial b) of the facet form

        sum_q w (beta.n u_up [v] - mu {du/dn}[v] - mu [u]{dv/dn} + pen [u][v])

    from the test traces v = [v], dv = {dv/dn} (nf, nq, a) and the trial
    traces u = [u], du = {du/dn} and u_up, the upwind trace (nf, nq, b).
    """
    coef = bn[..., None] * u_up + pen[:, None, None] * u - mu * du
    w = w[..., None]
    return _outer_sum(w * v, coef) - mu * _outer_sum(w * dv, u)


def _node_ids(cells_idx):
    """dG node ids of the 4 local vertices of each cell: (nf, 4)."""
    return 4 * np.asarray(cells_idx)[:, None] + np.arange(4)[None, :]


def assemble_M(mesh, nodes):
    """Consistent mass matrix in the node pattern; block diagonal over
    cells, SPD."""
    N, _, w_det, _ = mesh.quadrature
    local = _outer_sum(w_det[..., None] * N, N[None])
    ids = _node_ids(np.arange(mesh.n_cells))
    S = nodes.pattern
    return S.matrix(S.scatter(ids[:, :, None], ids[:, None, :], local))


def assemble_G(mesh, nodes, g):
    """Source vector G_a = sum_K (g, phi_a)_K."""
    n = nodes.n_nodes
    if g is None:
        return np.zeros(n)
    N, _, w_det, pts = mesh.quadrature
    gv = np.broadcast_to(np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float),
                         w_det.shape)
    vec = sum((w_det[:, q] * gv[:, q])[:, None] * N[q]
              for q in range(len(N)))
    return vec.ravel()


def assemble_K(mesh, nodes, spec, inflow):
    """Convection-diffusion dG matrix in the node pattern: volume terms and
    the facet form.

    ``inflow`` is the inflow mask of :func:`~dgmono.mesh.classify_facets`.
    When mu == 0 the viscous and penalty terms vanish.
    """
    mu = spec.mu
    S = nodes.pattern
    blocks = []  # (node ids (m, k), local matrices (m, k, k))

    # volume terms
    N, gradN, w_det, pts = mesh.quadrature
    bx, by = beta_at(spec.beta, pts)
    beta_dot_grad_a = bx[..., None] * gradN[..., 0] + by[..., None] * gradN[..., 1]
    local = -_outer_sum(beta_dot_grad_a, w_det[..., None] * N)
    if mu > 0.0:
        # per point, the sum over the components d of w dN_b/dx_d dN_a/dx_d
        G, w = gradN.swapaxes(2, 3), w_det[..., None, None]
        local += mu * sum(_outer_sum(G[:, q], w[:, q] * G[:, q])
                          for q in range(G.shape[1]))
    blocks.append((_node_ids(np.arange(mesh.n_cells)), local))

    # interior facets, on the stacked traces [plus, minus] of both cells;
    # the minus cell runs the shared edge backwards (Mesh checks it)
    fi = mesh.interior_facets
    w, bn, ((Np, Dp), (Nm, Dm)) = _facet_traces(
        mesh, spec, fi, (fi["cell_plus"], fi["edge_plus"], GAUSS2),
        (fi["cell_minus"], fi["edge_minus"], -GAUSS2))
    jump = np.concatenate([Np, -Nm], axis=2)
    mean = 0.5 * np.concatenate([Dp, Dm], axis=2)
    plus = (bn > 0.0)[..., None]
    up = np.concatenate([Np * plus, Nm * ~plus], axis=2)
    ids = np.concatenate([_node_ids(fi["cell_plus"]),
                          _node_ids(fi["cell_minus"])], axis=1)
    blocks.append((ids, _facet_form(w, bn, jump, mean, jump, mean, up, mu,
                                    spec.c_ip * mu / fi["length"])))

    # boundary facets: u_up is u on outflow and the boundary data (in B) on
    # inflow; [u] = u and the viscous terms are Nitsche's
    fb = mesh.boundary_facets
    w, bn, ((N, D),) = _facet_traces(mesh, spec, fb,
                                     (fb["cell"], fb["edge"], GAUSS2))
    out = ~inflow[:, None, None]
    blocks.append((_node_ids(fb["cell"]),
                   _facet_form(w, bn, N, D, N, D, N * out, mu,
                               spec.c_ip * mu / fb["length"])))
    return S.matrix(sum(S.scatter(ids[:, :, None], ids[:, None, :], local)
                        for ids, local in blocks))


def assemble_B(mesh, nodes, spec, inflow):
    """Weak boundary operator; columns indexed by boundary dG nodes, stored
    on the node pattern's boundary-column entries
    (:meth:`~dgmono.mesh.NodePattern.boundary_matrix`).

    ``inflow`` is the inflow mask of :func:`~dgmono.mesh.classify_facets`.
    For mu == 0 only the inflow convection term is nonzero.
    """
    fb = mesh.boundary_facets
    cb, e = fb["cell"], fb["edge"]
    w, bn, ((N, D),) = _facet_traces(mesh, spec, fb, (cb, e, GAUSS2))
    # trial: ubar at the two edge nodes of the cell.  Its part of the form,
    # [u] = -ubar and u_up = ubar on inflow, moved to the right-hand side is
    # the form with -beta.n, [u] = ubar and no trial gradient
    cols = np.stack([e, (e + 1) % 4], axis=1)
    ubar = np.take_along_axis(N, cols[:, None, :], axis=2)
    local = _facet_form(w, -bn, N, D, ubar, 0.0, ubar * inflow[:, None, None],
                        spec.mu, spec.c_ip * spec.mu / fb["length"])
    S = nodes.pattern
    data = S.scatter(_node_ids(cb)[:, :, None],
                     (4 * cb[:, None] + cols)[:, None, :], local)
    return S.boundary_matrix(data[S.boundary_slots])


@dataclass
class BoundaryTrace:
    """Nodal boundary data over the boundary dG nodes.

    ``values`` has one entry per boundary node (0 where no Dirichlet data);
    ``dirichlet`` marks the nodes that actually carry data.
    """

    values: np.ndarray
    dirichlet: np.ndarray


def dirichlet_boundary_nodes(mesh, nodes, spec, inflow):
    """Boundary nodes carrying Dirichlet data: all for mu>0, otherwise those
    on the facets of the inflow mask ``inflow``."""
    if spec.mu > 0.0:
        return np.ones(nodes.n_boundary, dtype=bool)
    fb = mesh.boundary_facets
    # duplicates at the same inflow vertex share the (single-valued) data
    return np.isin(nodes.node_vertex[nodes.boundary_nodes],
                   np.concatenate([fb["v0"][inflow], fb["v1"][inflow]]))


def interpolate_boundary(nodes, ubar, dirichlet_mask=None):
    """Nodal interpolation of the boundary data on the boundary dG nodes."""
    if ubar is None:
        raise ValueError("no boundary data to interpolate")
    if dirichlet_mask is None:
        dirichlet_mask = np.ones(nodes.n_boundary, dtype=bool)
    xy = nodes.coords[nodes.boundary_nodes]
    values = np.zeros(nodes.n_boundary)
    if dirichlet_mask.any():
        x = xy[dirichlet_mask, 0]
        y = xy[dirichlet_mask, 1]
        values[dirichlet_mask] = np.broadcast_to(
            np.asarray(ubar(x, y), dtype=float), x.shape)
    return BoundaryTrace(values=values, dirichlet=dirichlet_mask)


# -- point evaluation ---------------------------------------------------------

def inverse_map(mesh, cells_idx, points, tol=1e-13, max_iter=25):
    """Reference coordinates (m, 2) of physical points inside the given
    cells, by Newton's method from the cell centre on each cell's bilinear
    map x = c0 + c1 xi + c2 eta + c3 xi eta.  RuntimeError when a residual
    is still tol * h or more after max_iter steps."""
    # corner coordinates (2, 4, m); x = sum_k x_k (1 + s_k xi)(1 + t_k eta)
    # / 4 over the corners (s_k, t_k)
    X = np.take(mesh.vertices.T, mesh.cells[np.asarray(cells_idx)].T, axis=1)
    points = np.atleast_2d(points)
    s, t = REF_CORNERS[:, 0], REF_CORNERS[:, 1]
    (x0, x1, x2, x3), (y0, y1, y2, y3) = (
        [0.25 * sum(sign[k] * X[i, k] for k in range(4))
         for sign in (s * s, s, t, s * t)] for i in (0, 1))
    x0, y0 = x0 - points[:, 0], y0 - points[:, 1]
    xi, eta = np.zeros(len(points)), np.zeros(len(points))
    for step in range(max_iter + 1):
        # the Jacobian [[a, b], [c, d]] and the residual at (xi, eta)
        a, b = x1 + x3 * eta, x2 + x3 * xi
        c, d = y1 + y3 * eta, y2 + y3 * xi
        rx, ry = x0 + a * xi + x2 * eta, y0 + c * xi + y2 * eta
        err = np.maximum(np.abs(rx), np.abs(ry))
        done = err < tol * mesh.h
        if done.all():
            return np.column_stack([xi, eta])
        if step == max_iter:
            raise RuntimeError(
                f"inverse map: {np.count_nonzero(~done)} of {len(done)} points"
                f" not converged after {max_iter} Newton steps, largest "
                f"residual {err.max():.3e} (tolerance {tol * mesh.h:.3e})")
        _, (i00, i01, i10, i11) = _det_inv_2x2(a, b, c, d)
        xi, eta = xi - (i00 * rx + i01 * ry), eta - (i10 * rx + i11 * ry)


def eval_in_cells(mesh, cells_idx, points):
    """Q1 shape values of the given cells at physical points: (m, 4)."""
    xi = inverse_map(mesh, cells_idx, points)
    N, _ = basis_at_ref(xi)
    return N


def evaluate(mesh, nodes, u, cells_idx, points):
    """Evaluate the dG function from the side of the given cells."""
    N = eval_in_cells(mesh, cells_idx, points)
    ids = _node_ids(cells_idx)
    return np.einsum("mk,mk->m", N, u[ids])

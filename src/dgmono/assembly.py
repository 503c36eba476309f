"""Interior-penalty dG operators on Q1 quadrilaterals.

Quadrature: 2x2 Gauss per cell, 2-point Gauss per facet; exact for all
Q1 x Q1 and Q1 x grad-Q1 products on affine (parallelogram) cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .mesh import GAUSS2, Mesh, DgNodeSet, FacetClassification, REF_CORNERS, classify_facets


@dataclass
class ProblemSpec:
    """Continuous problem data: velocity, diffusion, source and boundary data.

    ``beta`` must be divergence-free and evaluable on coordinate arrays;
    ``ubar`` takes (x, y) arrays.  ``c_ip`` is the interior-penalty constant.
    The stabilization scalings take their characteristic length from
    ``StabilizationParams.L``.
    """

    beta: Callable
    mu: float = 0.0
    g: Optional[Callable] = None
    ubar: Optional[Callable] = None
    u0: Optional[Callable] = None
    c_ip: float = 10.0

    def __post_init__(self):
        if self.mu < 0.0:
            raise ValueError("diffusion mu must be nonnegative")
        if self.c_ip <= 0.0:
            raise ValueError("interior-penalty constant must be positive")

    def beta_max(self, mesh):
        """L-infinity norm of |beta| over the cell quadrature points."""
        pts = cell_quad_points(mesh)
        bx, by = self.beta(pts[..., 0], pts[..., 1])
        bx, by = np.broadcast_arrays(np.asarray(bx, dtype=float),
                                     np.asarray(by, dtype=float))
        return float(np.sqrt(bx**2 + by**2).max()) if bx.size else 0.0


# -- reference element --------------------------------------------------------

def basis_at_ref(xi):
    """Q1 shape values and reference gradients at reference points (m, 2)."""
    xi = np.atleast_2d(xi)
    s = REF_CORNERS[:, 0]  # (4,)
    t = REF_CORNERS[:, 1]
    a = 1.0 + xi[:, 0, None] * s
    b = 1.0 + xi[:, 1, None] * t
    N = 0.25 * a * b
    grad = np.empty((len(xi), 4, 2))
    grad[:, :, 0] = 0.25 * s * b
    grad[:, :, 1] = 0.25 * t * a
    return N, grad


_g = 1.0 / np.sqrt(3.0)
CELL_QP = np.array([[-_g, -_g], [_g, -_g], [_g, _g], [-_g, _g]])
CELL_QW = np.ones(4)

CELL_QP3 = np.array([[x, y]
                     for y in (-np.sqrt(0.6), 0.0, np.sqrt(0.6))
                     for x in (-np.sqrt(0.6), 0.0, np.sqrt(0.6))])
CELL_QW3 = np.outer([5 / 9, 8 / 9, 5 / 9], [5 / 9, 8 / 9, 5 / 9]).ravel()


def _det_inv_2x2(J):
    """(det J, J^-1) of a stack of 2x2 matrices J[..., i, j]."""
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    Jinv = np.empty_like(J)
    Jinv[..., 0, 0] = J[..., 1, 1] / det
    Jinv[..., 0, 1] = -J[..., 0, 1] / det
    Jinv[..., 1, 0] = -J[..., 1, 0] / det
    Jinv[..., 1, 1] = J[..., 0, 0] / det
    return det, Jinv


def _cell_geometry(mesh, ref_pts, ref_w):
    """Physical gradients and weighted Jacobians at cell quadrature points."""
    N, gradref = basis_at_ref(ref_pts)       # (nq,4), (nq,4,2)
    verts = mesh.vertices[mesh.cells]        # (nc,4,2)
    # J[c,q,i,j] = d x_i / d xi_j
    det, Jinv = _det_inv_2x2(np.einsum("ckd,qke->cqde", verts, gradref))
    gradN = np.einsum("qke,cqed->cqkd", gradref, Jinv)
    w_det = ref_w[None, :] * det
    return N, gradN, w_det


def cell_quadrature(mesh, order=2):
    """(N, gradN, w_det) for the 2x2 (order=2) or 3x3 (order=3) Gauss rule."""
    if order == 2:
        return _cell_geometry(mesh, CELL_QP, CELL_QW)
    if order == 3:
        return _cell_geometry(mesh, CELL_QP3, CELL_QW3)
    raise ValueError("unsupported quadrature order")


def cell_quad_points(mesh, order=2):
    ref = CELL_QP if order == 2 else CELL_QP3
    N, _ = basis_at_ref(ref)
    return np.einsum("qk,ckd->cqd", N, mesh.vertices[mesh.cells])


def edge_ref_coords(edge, s):
    """Exact reference coordinates along a local edge for parameters s."""
    s = np.asarray(s, dtype=float)
    c0 = REF_CORNERS[edge]
    c1 = REF_CORNERS[(edge + 1) % 4]
    return 0.5 * (1.0 - s)[:, None] * c0 + 0.5 * (1.0 + s)[:, None] * c1


def _facet_basis(mesh, cells_idx, edges, s_params):
    """Shape values/physical gradients of the given cells at facet points.

    Reference coordinates are built exactly on the edge, so off-edge shape
    values are exactly zero.
    Returns N (nf, nq, 4), gradN (nf, nq, 4, 2), points (nf, nq, 2).
    """
    nf = len(cells_idx)
    nq = len(s_params)
    N = np.empty((nf, nq, 4))
    gradN = np.empty((nf, nq, 4, 2))
    pts = np.empty((nf, nq, 2))
    verts = mesh.vertices[mesh.cells[cells_idx]]  # (nf,4,2)
    for e in range(4):
        mask = edges == e
        if not mask.any():
            continue
        ref = edge_ref_coords(e, s_params)        # (nq, 2)
        Ne, gradref = basis_at_ref(ref)           # (nq,4), (nq,4,2)
        v = verts[mask]                           # (m,4,2)
        _, Jinv = _det_inv_2x2(np.einsum("mkd,qke->mqde", v, gradref))
        N[mask] = Ne[None, :, :]
        gradN[mask] = np.einsum("qke,mqed->mqkd", gradref, Jinv)
        pts[mask] = np.einsum("qk,mkd->mqd", Ne, v)
    return N, gradN, pts


def _beta_at(spec, pts):
    bx, by = spec.beta(pts[..., 0], pts[..., 1])
    bx = np.broadcast_to(np.asarray(bx, dtype=float), pts.shape[:-1])
    by = np.broadcast_to(np.asarray(by, dtype=float), pts.shape[:-1])
    return bx, by


def _node_ids(cells_idx):
    """dG node ids of the 4 local vertices of each cell: (nf, 4)."""
    return 4 * np.asarray(cells_idx)[:, None] + np.arange(4)[None, :]


class _Coo:
    def __init__(self):
        self.rows, self.cols, self.vals = [], [], []

    def add(self, rows, cols, vals):
        r, c, v = np.broadcast_arrays(rows, cols, vals)
        self.rows.append(r.ravel())
        self.cols.append(c.ravel())
        self.vals.append(v.ravel())

    def build(self, shape):
        if not self.rows:
            return sp.csr_matrix(shape)
        mat = sp.coo_matrix(
            (np.concatenate(self.vals),
             (np.concatenate(self.rows), np.concatenate(self.cols))),
            shape=shape)
        return mat.tocsr()


def assemble_M(mesh, nodes):
    """Consistent mass matrix; block diagonal over cells, SPD."""
    N, _, w_det = cell_quadrature(mesh)
    local = np.einsum("cq,qa,qb->cab", w_det, N, N)
    ids = _node_ids(np.arange(mesh.n_cells))
    coo = _Coo()
    coo.add(ids[:, :, None], ids[:, None, :], local)
    n = nodes.n_nodes
    return coo.build((n, n))


def assemble_G(mesh, nodes, g):
    """Source vector G_a = sum_K (g, phi_a)_K."""
    n = nodes.n_nodes
    if g is None:
        return np.zeros(n)
    N, _, w_det = cell_quadrature(mesh)
    pts = cell_quad_points(mesh)
    gv = np.broadcast_to(np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float),
                         w_det.shape)
    vec = np.einsum("cq,cq,qa->ca", w_det, gv, N)
    return vec.ravel()


def assemble_K(mesh, nodes, spec, classification=None):
    """Convection-diffusion dG matrix: volume, IP viscous and upwind terms.

    When mu == 0 all viscous facet terms are skipped entirely.
    """
    if classification is None:
        classification = classify_facets(mesh, spec.beta)
    n = nodes.n_nodes
    mu = spec.mu
    coo = _Coo()

    # volume terms
    N, gradN, w_det = cell_quadrature(mesh)
    pts = cell_quad_points(mesh)
    bx, by = _beta_at(spec, pts)
    beta_dot_grad_a = bx[..., None] * gradN[..., 0] + by[..., None] * gradN[..., 1]
    local = -np.einsum("cq,qb,cqa->cab", w_det, N, beta_dot_grad_a)
    if mu > 0.0:
        local += mu * np.einsum("cq,cqbd,cqad->cab", w_det, gradN, gradN)
    ids = _node_ids(np.arange(mesh.n_cells))
    coo.add(ids[:, :, None], ids[:, None, :], local)

    # interior facets
    fi = mesh.interior_facets
    if mesh.n_interior_facets:
        cp, cm = fi["cell_plus"], fi["cell_minus"]
        Np, Gp, ptsf = _facet_basis(mesh, cp, fi["edge_plus"], GAUSS2)
        # minus-cell params follow the plus-edge orientation
        same = mesh.cells[cm, fi["edge_minus"]] == fi["v0"]
        Nm = np.empty_like(Np)
        Gm = np.empty_like(Gp)
        for flag in (True, False):
            mask = same == flag
            if not mask.any():
                continue
            s = GAUSS2 if flag else -GAUSS2
            Nm[mask], Gm[mask], _ = _facet_basis(
                mesh, cm[mask], fi["edge_minus"][mask], s)
        nrm = fi["normal"]                        # out of plus cell
        wq = 0.5 * fi["length"][:, None] * np.ones((1, len(GAUSS2)))
        idp, idm = _node_ids(cp), _node_ids(cm)

        bxf, byf = _beta_at(spec, ptsf)
        bn = bxf * nrm[:, None, 0] + byf * nrm[:, None, 1]

        sides = ((Np, Gp, idp, 1.0), (Nm, Gm, idm, -1.0))
        for (Na, Ga, ida, sa) in sides:
            Gan = Ga[..., 0] * nrm[:, None, None, 0] + Ga[..., 1] * nrm[:, None, None, 1]
            for (Nb, Gb, idb, sb) in sides:
                Gbn = Gb[..., 0] * nrm[:, None, None, 0] + Gb[..., 1] * nrm[:, None, None, 1]
                # convection: mean(beta u) . jump(v) + |beta.n|/2 jump(u).jump(v)
                term = np.einsum("fq,fq,fqb,fqa->fab",
                                 wq, 0.5 * bn * sa + 0.5 * np.abs(bn) * sa * sb,
                                 Nb, Na)
                if mu > 0.0:
                    term += mu * np.einsum("fq,fqb,fqa->fab", wq,
                                           -0.5 * sb * Nb, Gan)
                    term += mu * np.einsum("fq,fqb,fqa->fab", wq,
                                           -0.5 * Gbn, sa * Na)
                    pen = spec.c_ip * mu / fi["length"]
                    term += (sa * sb) * pen[:, None, None] * np.einsum(
                        "fq,fqb,fqa->fab", wq, Nb, Na)
                coo.add(ida[:, None, :], idb[:, :, None],
                        np.swapaxes(term, 1, 2))
    # boundary facets
    fb = mesh.boundary_facets
    if mesh.n_boundary_facets:
        cb = fb["cell"]
        Nb_, Gb_, ptsb = _facet_basis(mesh, cb, fb["edge"], GAUSS2)
        nrm = fb["normal"]
        wq = 0.5 * fb["length"][:, None] * np.ones((1, len(GAUSS2)))
        ids_b = _node_ids(cb)
        bxf, byf = _beta_at(spec, ptsb)
        bn = bxf * nrm[:, None, 0] + byf * nrm[:, None, 1]

        # convection on outflow boundary facets: int beta.n u v
        out = classification.outflow_mask
        if out.any():
            term = np.einsum("fq,fq,fqb,fqa->fab",
                             wq[out], bn[out], Nb_[out], Nb_[out])
            coo.add(ids_b[out][:, None, :], ids_b[out][:, :, None],
                    np.swapaxes(term, 1, 2))
        if mu > 0.0:
            Gn = Gb_[..., 0] * nrm[:, None, None, 0] + Gb_[..., 1] * nrm[:, None, None, 1]
            term = -mu * np.einsum("fq,fqb,fqa->fab", wq, Nb_, Gn)
            term += -mu * np.einsum("fq,fqb,fqa->fab", wq, Gn, Nb_)
            pen = spec.c_ip * mu / fb["length"]
            term += pen[:, None, None] * np.einsum("fq,fqb,fqa->fab", wq, Nb_, Nb_)
            coo.add(ids_b[:, None, :], ids_b[:, :, None], np.swapaxes(term, 1, 2))

    return coo.build((n, n))


def assemble_B(mesh, nodes, spec, classification=None):
    """Weak boundary operator; columns indexed by boundary dG nodes.

    For mu == 0 only the inflow convection term is kept.
    """
    if classification is None:
        classification = classify_facets(mesh, spec.beta)
    n = nodes.n_nodes
    nb = nodes.n_boundary
    mu = spec.mu
    coo = _Coo()
    fb = mesh.boundary_facets
    if mesh.n_boundary_facets:
        cb = fb["cell"]
        Nf, Gf, ptsb = _facet_basis(mesh, cb, fb["edge"], GAUSS2)
        nrm = fb["normal"]
        wq = 0.5 * fb["length"][:, None] * np.ones((1, len(GAUSS2)))
        ids = _node_ids(cb)                       # rows: all 4 cell nodes
        # trial columns: the two edge nodes of the owning cell
        e = fb["edge"]
        col_nodes = np.stack([4 * cb + e, 4 * cb + (e + 1) % 4], axis=1)
        col_idx = nodes.boundary_index[col_nodes]
        # shape values of the two edge nodes at the facet points
        Ncols = np.stack([Nf[np.arange(len(cb)), :, e],
                          Nf[np.arange(len(cb)), :, (e + 1) % 4]], axis=2)

        bxf, byf = _beta_at(spec, ptsb)
        bn = bxf * nrm[:, None, 0] + byf * nrm[:, None, 1]

        inm = classification.inflow_mask
        if inm.any():
            term = -np.einsum("fq,fq,fqb,fqa->fab",
                              wq[inm], bn[inm], Ncols[inm], Nf[inm])
            coo.add(ids[inm][:, None, :], col_idx[inm][:, :, None],
                    np.swapaxes(term, 1, 2))
        if mu > 0.0:
            Gn = Gf[..., 0] * nrm[:, None, None, 0] + Gf[..., 1] * nrm[:, None, None, 1]
            term = -mu * np.einsum("fq,fqb,fqa->fab", wq, Ncols, Gn)
            pen = spec.c_ip * mu / fb["length"]
            term += pen[:, None, None] * np.einsum("fq,fqb,fqa->fab", wq, Ncols, Nf)
            coo.add(ids[:, None, :], col_idx[:, :, None], np.swapaxes(term, 1, 2))

    return coo.build((n, nb))


@dataclass
class BoundaryTrace:
    """Nodal boundary data over the boundary dG nodes.

    ``values`` has one entry per boundary node (0 where no Dirichlet data);
    ``dirichlet`` marks the nodes that actually carry data.
    """

    values: np.ndarray
    dirichlet: np.ndarray


def dirichlet_boundary_nodes(mesh, nodes, spec, classification=None):
    """Boundary nodes carrying Dirichlet data: all for mu>0, inflow otherwise."""
    if spec.mu > 0.0:
        return np.ones(nodes.n_boundary, dtype=bool)
    if classification is None:
        classification = classify_facets(mesh, spec.beta)
    fb = mesh.boundary_facets
    mask = np.zeros(nodes.n_boundary, dtype=bool)
    inflow = classification.inflow
    cb = fb["cell"][inflow]
    e = fb["edge"][inflow]
    for nd in (4 * cb + e, 4 * cb + (e + 1) % 4):
        mask[nodes.boundary_index[nd]] = True
    # duplicates at the same inflow vertex share the (single-valued) data
    verts = set(nodes.node_vertex[nodes.boundary_nodes[mask]])
    for i, a in enumerate(nodes.boundary_nodes):
        if nodes.node_vertex[a] in verts:
            mask[i] = True
    return mask


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
    """Reference coordinates of physical points inside the given cells."""
    cells_idx = np.asarray(cells_idx)
    points = np.atleast_2d(points)
    verts = mesh.vertices[mesh.cells[cells_idx]]   # (m,4,2)
    xi = np.zeros((len(points), 2))
    for _ in range(max_iter):
        N, gradref = basis_at_ref(xi)
        x = np.einsum("mk,mkd->md", N, verts)
        res = x - points
        if np.abs(res).max() < tol * mesh.h:
            break
        J = np.einsum("mkd,mke->mde", verts, gradref)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        dxi0 = (J[:, 1, 1] * res[:, 0] - J[:, 0, 1] * res[:, 1]) / det
        dxi1 = (-J[:, 1, 0] * res[:, 0] + J[:, 0, 0] * res[:, 1]) / det
        xi[:, 0] -= dxi0
        xi[:, 1] -= dxi1
    return xi


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

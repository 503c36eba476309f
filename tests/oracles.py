"""Reference implementations that the tests check the package against.

- the support queries of one node, read off the vertex-to-node table;
- the symmetric point of one node pair, computed cell by cell with plain
  loops: the oracle for the batch path
  :func:`dgmono.mesh.symmetric_points_batch`;
- the selectively lumped mass action, the oracle for
  :func:`dgmono.stabilization.lumped_mass_matrix`;
- the pattern S^2 that the finite-difference Jacobian oracle
  (:func:`dgmono.solve.fd_jacobian`) is restricted to;
- the interior-penalty operators K and B on any convex quadrilateral mesh,
  built with plain loops over cells, facets and Gauss points: the oracle for
  :func:`dgmono.assemble_K` and :func:`dgmono.assemble_B`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dgmono.stabilization import mass_blend


def support(nodes, a):
    """Cells whose closure contains x_a."""
    at_v = np.flatnonzero(nodes.node_vertex == nodes.node_vertex[a])
    return nodes.node_cell[at_v].tolist()


def support_vertices(nodes, a):
    """Vertex ids lying in the closed support of a."""
    return np.unique(nodes.mesh.cells[support(nodes, a)])


def support_nodes(nodes, a):
    """Nodes (i, K) with K a cell of the support; u_h over the support
    attains its extrema at exactly these nodes."""
    cells = np.asarray(support(nodes, a))
    return (4 * cells[:, None] + np.arange(4)[None, :]).ravel()


@dataclass
class SymmetricPoint:
    """Intersection of the ray from x_a away from x_b with the support boundary."""

    point: np.ndarray
    r_sym: np.ndarray
    cells: list[int] = field(default_factory=list)
    degenerate: bool = False

    @property
    def distance(self):
        return float(np.hypot(*self.r_sym))


def cell_polygon(mesh, c):
    """The corners of cell c, counter-clockwise: (4, 2)."""
    return mesh.vertices[mesh.cells[c]]


def _ray_exit_convex(origin, direction, polygon, tol):
    """Exit parameter of the ray origin + t*direction from a convex CCW polygon.

    Returns -inf when the ray never enters the polygon (origin is assumed to
    lie on the closed polygon, so exit 0 means the ray leaves immediately).
    """
    t_exit = np.inf
    n_edges = len(polygon)
    for e in range(n_edges):
        v0 = polygon[e]
        v1 = polygon[(e + 1) % n_edges]
        t_vec = v1 - v0
        n_out = np.array([t_vec[1], -t_vec[0]])
        n_out /= np.hypot(*n_out)
        dn = direction @ n_out
        side = (origin - v0) @ n_out
        if dn > tol:
            t_exit = min(t_exit, max(-side, 0.0) / dn)
        elif side > tol:
            return -np.inf  # origin outside this half-plane, moving away
    return t_exit


def point_in_convex(point, polygon, tol):
    n_edges = len(polygon)
    for e in range(n_edges):
        v0 = polygon[e]
        v1 = polygon[(e + 1) % n_edges]
        t_vec = v1 - v0
        n_out = np.array([t_vec[1], -t_vec[0]])
        n_out /= np.hypot(*n_out)
        if (point - v0) @ n_out > tol:
            return False
    return True


def symmetric_point(nodes, a, b) -> SymmetricPoint:
    """Symmetric point of x_b with respect to x_a on the support boundary."""
    xa = nodes.coords[a]
    xb = nodes.coords[b]
    r = xb - xa
    dist = np.hypot(*r)
    if dist == 0.0:
        raise ValueError("symmetric point undefined for coincident nodes")
    d = -r / dist

    mesh = nodes.mesh
    geo_tol = 1e-12 * mesh.h
    t_max = 0.0
    for c in support(nodes, a):
        t = _ray_exit_convex(xa, d, cell_polygon(mesh, c), geo_tol)
        if np.isfinite(t):
            t_max = max(t_max, t)

    if t_max <= geo_tol:
        return SymmetricPoint(point=xa.copy(), r_sym=np.zeros(2), degenerate=True)

    point = xa + t_max * d
    owners = [c for c in support(nodes, a)
              if point_in_convex(point, cell_polygon(mesh, c), 1e-10 * mesh.h)]
    return SymmetricPoint(point=point, r_sym=point - xa, cells=owners)


def lumped_mass_apply(M, m, alpha, Q, w):
    """Selectively lumped mass action: (1 - a^Q)(Mw)_a + a^Q w_a m_a."""
    blend = mass_blend(alpha, Q)
    return (1.0 - blend) * (M @ w) + blend * (w * m)


def jacobian_pattern(problem):
    """Sparsity pattern of dT/du: S^2 for the node pattern S (viscosities
    couple each row to the neighbors of its neighbors), as CSC ones."""
    S = problem.nodes.pattern()
    A = S.matrix(np.ones(S.nnz, dtype=np.int32))
    P = (A @ A).tocsc()
    P.data[:] = 1
    return P


# -- scalar interior-penalty operators ----------------------------------------

_CORNERS = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))


def q1_at(mesh, c, xi, eta):
    """Shape values (4,), physical gradients (4, 2), physical point and
    det J of cell c at one reference point."""
    N, dN = np.empty(4), np.empty((4, 2))
    for k, (s, t) in enumerate(_CORNERS):
        N[k] = 0.25 * (1 + s * xi) * (1 + t * eta)
        dN[k] = 0.25 * s * (1 + t * eta), 0.25 * t * (1 + s * xi)
    X = cell_polygon(mesh, c)
    J = X.T @ dN  # J[i, j] = d x_i / d xi_j
    return N, dN @ np.linalg.inv(J), N @ X, np.linalg.det(J)


def _edge_ref(mesh, c, va, vb, t):
    """Reference coordinates in cell c of the point (1 - t) x_va + t x_vb
    on the edge of c that joins vertices va and vb."""
    ids = [int(v) for v in mesh.cells[c]]
    for e in range(4):
        if {ids[e], ids[(e + 1) % 4]} == {va, vb}:
            p, q = np.array(_CORNERS[e]), np.array(_CORNERS[(e + 1) % 4])
            return (1 - t) * p + t * q if ids[e] == va else t * p + (1 - t) * q
    raise ValueError(f"cell {c} has no edge {va}-{vb}")


def facet_quadrature(mesh, facets, i, n_gauss=2):
    """Gauss points of facet i of ``mesh.interior_facets`` or
    ``mesh.boundary_facets``.

    Yields (weight, t, point, traces): t in (0, 1) runs from v0 to v1, and
    traces holds (N, dN/dn) of each adjacent cell, the plus cell first.
    """
    va, vb = int(facets["v0"][i]), int(facets["v1"][i])
    x0, x1 = mesh.vertices[va], mesh.vertices[vb]
    cells = [int(facets[k][i]) for k in ("cell_plus", "cell_minus", "cell")
             if k in facets]
    for g, wg in zip(*np.polynomial.legendre.leggauss(n_gauss)):
        t = 0.5 * (1 + g)
        traces = []
        for c in cells:
            N, grad, _, _ = q1_at(mesh, c, *_edge_ref(mesh, c, va, vb, t))
            traces.append((N, grad @ facets["normal"][i]))
        yield 0.5 * wg * facets["length"][i], t, (1 - t) * x0 + t * x1, traces


def interior_penalty_operators(mesh, nodes, spec, n_gauss=2):
    """Dense K and B with n_gauss Gauss points per direction.

    Rows are test functions, columns trial functions.  Interior facets carry
    beta.n {u}[v] + |beta.n|/2 [u][v] and the symmetric interior-penalty
    terms; on a boundary facet the trace is upwinded point by point (outflow
    keeps u in K, inflow takes the boundary data into B) and the viscous
    terms are Nitsche's.  B's columns are the boundary nodes at the facet
    ends, whose traces are the linear hats 1 - t and t.
    """
    n, mu = nodes.n_nodes, spec.mu
    K, B = np.zeros((n, n)), np.zeros((n, nodes.n_boundary))

    def beta(p):
        return np.array([float(v) for v in
                         spec.beta(np.array(p[0]), np.array(p[1]))])

    gauss = np.polynomial.legendre.leggauss(n_gauss)
    for c in range(mesh.n_cells):
        ids = np.ix_(4 * c + np.arange(4), 4 * c + np.arange(4))
        for xi, wx in zip(*gauss):
            for eta, wy in zip(*gauss):
                N, grad, p, det = q1_at(mesh, c, xi, eta)
                K[ids] += wx * wy * det * (mu * grad @ grad.T
                                           - np.outer(grad @ beta(p), N))

    fi = mesh.interior_facets
    for i in range(mesh.n_interior_facets):
        ids = np.concatenate([4 * fi[k][i] + np.arange(4)
                              for k in ("cell_plus", "cell_minus")])
        pen = spec.c_ip * mu / fi["length"][i]
        for w, _, p, ((Np, Dp), (Nm, Dm)) in facet_quadrature(mesh, fi, i,
                                                              n_gauss):
            bn = beta(p) @ fi["normal"][i]
            jump = np.concatenate([Np, -Nm])
            mean = 0.5 * np.concatenate([Np, Nm])
            dmean = 0.5 * np.concatenate([Dp, Dm])
            K[np.ix_(ids, ids)] += w * (
                bn * np.outer(jump, mean) + 0.5 * abs(bn) * np.outer(jump, jump)
                - mu * np.outer(jump, dmean) - mu * np.outer(dmean, jump)
                + pen * np.outer(jump, jump))

    fb = mesh.boundary_facets
    for i in range(mesh.n_boundary_facets):
        c = int(fb["cell"][i])
        ids = 4 * c + np.arange(4)
        local = [int(v) for v in mesh.cells[c]]
        cols = [nodes.boundary_index[4 * c + local.index(int(fb[v][i]))]
                for v in ("v0", "v1")]
        pen = spec.c_ip * mu / fb["length"][i]
        for w, t, p, ((N, D),) in facet_quadrature(mesh, fb, i, n_gauss):
            bn = beta(p) @ fb["normal"][i]
            K[np.ix_(ids, ids)] += w * (
                max(bn, 0.0) * np.outer(N, N) - mu * np.outer(N, D)
                - mu * np.outer(D, N) + pen * np.outer(N, N))
            for col, hat in zip(cols, (1 - t, t)):
                B[ids, col] += w * hat * (-min(bn, 0.0) * N - mu * D + pen * N)
    return K, B

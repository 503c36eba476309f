"""Reference implementations that the tests check the package against.

- the support queries of one node, read off the vertex-to-node table;
- the symmetric point of one node pair, computed cell by cell with plain
  loops: the oracle for the batch path
  :func:`dgmono.mesh.symmetric_points_batch`;
- the selectively lumped mass action, the oracle for
  :func:`dgmono.stabilization.lumped_mass_matrix`;
- the pattern S^2 that the finite-difference Jacobian oracle
  (:func:`dgmono.solve.fd_jacobian`) is restricted to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dgmono.stabilization import mass_blend


def support(nodes, a):
    """Cells whose closure contains x_a."""
    v = nodes.node_vertex[a]
    at_v = nodes.vn_ids[nodes.vn_ptr[v]:nodes.vn_ptr[v + 1]]
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

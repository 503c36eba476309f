"""Structured quadrilateral meshes, facet classification and the dG node topology.

The dG space duplicates every vertex once per adjacent cell, so a node is a
(cell, local-vertex) pair.  All downstream modules only consume the arrays
exposed here, so meshes imported from file work as long as cells are convex
quadrilaterals listed counter-clockwise; ``Mesh`` rejects any other cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# local corners of the reference square [-1, 1]^2, counter-clockwise
REF_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


class MeshError(ValueError):
    """Raised for invalid mesh construction or conformity violations."""


class Mesh:
    """Conforming quadrilateral mesh with facet connectivity and sizes.

    Attributes
    ----------
    vertices : (nv, 2) float array
    cells : (nc, 4) int array, counter-clockwise vertex ids
    interior_facets : dict of arrays (cell_plus, cell_minus, edge_plus,
        edge_minus, v0, v1, normal, length); ``normal`` points out of
        ``cell_plus``.
    boundary_facets : dict of arrays (cell, edge, v0, v1, normal, length);
        ``normal`` is the outward domain normal.
    """

    def __init__(self, vertices, cells):
        vertices = np.asarray(vertices, dtype=float)
        cells = np.asarray(cells, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if cells.ndim != 2 or cells.shape[1] != 4:
            raise MeshError("cells must be an (nc, 4) array")
        self.vertices = vertices
        self.cells = cells
        self.n_vertices = len(vertices)
        self.n_cells = len(cells)

        self.cell_area = self._shoelace_areas()
        if np.any(self.cell_area <= 0.0):
            raise MeshError("cells must be counter-clockwise with positive area")
        # the symmetric-point ray exit assumes convex cells
        if np.any(self._corner_turns() <= 0.0):
            raise MeshError("cells must be convex: every corner must turn "
                            "counter-clockwise")
        self.h_cell = np.sqrt(self.cell_area)
        self.h = float(self.h_cell.max())

        self._build_facets()

    # -- construction helpers -------------------------------------------------

    def _shoelace_areas(self):
        p = self.vertices[self.cells]  # (nc, 4, 2)
        x, y = p[..., 0], p[..., 1]
        xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        return 0.5 * np.sum(x * yn - xn * y, axis=1)

    def _corner_turns(self):
        """Cross product of the two edges meeting at each corner: (nc, 4)."""
        p = self.vertices[self.cells]
        e = np.roll(p, -1, axis=1) - p
        en = np.roll(e, -1, axis=1)
        return e[..., 0] * en[..., 1] - e[..., 1] * en[..., 0]

    def _build_facets(self):
        # edge (c, e) of every cell, flat index 4c + e, keyed by its sorted
        # vertex pair; facets are listed in order of first appearance and an
        # interior facet's plus side is its first cell
        v0 = self.cells.ravel()
        v1 = np.roll(self.cells, -1, axis=1).ravel()
        key = np.minimum(v0, v1) * self.n_vertices + np.maximum(v0, v1)
        order = np.argsort(key, kind="stable")
        _, start, counts = np.unique(key[order], return_index=True,
                                     return_counts=True)
        if np.any(counts > 2):
            raise MeshError("facet shared by more than two cells")
        seq = np.argsort(order[start])
        start, counts = start[seq], counts[seq]

        two = counts == 2
        f_plus = order[start[two]]
        f_minus = order[start[two] + 1]
        f_bnd = order[start[~two]]
        self.interior_facets = {
            "cell_plus": f_plus // 4, "cell_minus": f_minus // 4,
            "edge_plus": f_plus % 4, "edge_minus": f_minus % 4,
            "v0": v0[f_plus], "v1": v1[f_plus]}
        self.boundary_facets = {
            "cell": f_bnd // 4, "edge": f_bnd % 4,
            "v0": v0[f_bnd], "v1": v1[f_bnd]}

        for facets in (self.interior_facets, self.boundary_facets):
            p0 = self.vertices[facets["v0"]].reshape(-1, 2)
            p1 = self.vertices[facets["v1"]].reshape(-1, 2)
            t = p1 - p0
            length = np.hypot(t[:, 0], t[:, 1])
            # CCW cell orientation: rotating the edge tangent by -90 deg
            # points out of the owning (plus) cell
            normal = np.column_stack([t[:, 1], -t[:, 0]]) / length[:, None]
            facets["normal"] = normal
            facets["length"] = length

        self.n_interior_facets = len(self.interior_facets["cell_plus"])
        self.n_boundary_facets = len(self.boundary_facets["cell"])

        bmask = np.zeros(self.n_vertices, dtype=bool)
        bmask[self.boundary_facets["v0"]] = True
        bmask[self.boundary_facets["v1"]] = True
        self.boundary_vertex_mask = bmask

    # -- queries --------------------------------------------------------------

    @property
    def area(self):
        return float(self.cell_area.sum())

    def cell_polygon(self, c):
        return self.vertices[self.cells[c]]

    def facet_points(self, v0, v1, ref_points):
        """Map 1D reference points in [-1, 1] to physical facet points."""
        p0 = self.vertices[v0].reshape(-1, 2)
        p1 = self.vertices[v1].reshape(-1, 2)
        mid = 0.5 * (p0 + p1)
        half = 0.5 * (p1 - p0)
        s = np.asarray(ref_points)
        return mid[:, None, :] + s[None, :, None] * half[:, None, :]


def build_structured_quad(nx, ny, domain=((0.0, 1.0), (0.0, 1.0))):
    """Uniform nx-by-ny grid on an axis-aligned rectangle, row-major cells."""
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be >= 1")
    (x0, x1), (y0, y1) = domain
    if not (x1 > x0 and y1 > y0):
        raise MeshError("degenerate domain rectangle")

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    xx, yy = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    vid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)
    cells = np.column_stack([vid[:-1, :-1].ravel(), vid[:-1, 1:].ravel(),
                             vid[1:, 1:].ravel(), vid[1:, :-1].ravel()])
    return Mesh(vertices, cells)


@dataclass
class FacetClassification:
    """Boundary facet split by the sign of beta . n at facet Gauss points."""

    inflow: np.ndarray    # indices into mesh.boundary_facets
    outflow: np.ndarray
    inflow_mask: np.ndarray

    @property
    def outflow_mask(self):
        return ~self.inflow_mask


# 2-point Gauss rule on [-1, 1]
GAUSS2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)
GAUSS2_W = np.array([1.0, 1.0])


def classify_facets(mesh, velocity):
    """Split boundary facets into inflow (beta.n < 0) and outflow sets.

    Raises MeshError when beta.n changes sign within a single facet, i.e.
    the mesh is not conforming with the inflow/outflow boundaries.
    """
    bf = mesh.boundary_facets
    pts = mesh.facet_points(bf["v0"], bf["v1"], GAUSS2)  # (nbf, 2, 2)
    beta = np.asarray(velocity(pts[..., 0], pts[..., 1]))
    bn = beta[0] * bf["normal"][:, None, 0] + beta[1] * bf["normal"][:, None, 1]
    scale = max(np.abs(bn).max(), 1.0)
    tol = 1e-12 * scale
    neg = bn < -tol
    pos = bn > tol
    mixed = neg.any(axis=1) & pos.any(axis=1)
    if mixed.any():
        raise MeshError(
            f"{mixed.sum()} boundary facet(s) with mixed beta.n sign; "
            "mesh not conforming with the inflow/outflow boundaries")
    inflow_mask = neg.all(axis=1)
    idx = np.arange(mesh.n_boundary_facets)
    return FacetClassification(inflow=idx[inflow_mask],
                               outflow=idx[~inflow_mask],
                               inflow_mask=inflow_mask)


class DgNodeSet:
    """Duplicated dG nodes with supports, adjacency and lumped weights.

    Node ``a = 4 * cell + local_vertex``.  The adjacency N(a) contains every
    node whose coordinate lies in the closed support of a (including all
    coincident duplicates).
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        nc = mesh.n_cells
        self.n_nodes = 4 * nc
        self.node_cell = np.repeat(np.arange(nc), 4)
        self.node_local = np.tile(np.arange(4), nc)
        self.node_vertex = mesh.cells.ravel().copy()
        self.coords = mesh.vertices[self.node_vertex]

        # vertex -> nodes at that vertex, CSR (ids ascending per vertex); the
        # cells containing vertex v are node_cell[vn_ids[vn_ptr[v]:vn_ptr[v + 1]]]
        nv = mesh.n_vertices
        self.vn_ids = np.argsort(self.node_vertex, kind="stable")
        self.vn_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self.node_vertex, minlength=nv))])
        # the same table padded: (n_vertices, k) support cells, -1 pads
        counts = np.diff(self.vn_ptr)
        self.vertex_cells_padded = np.full((nv, int(counts.max())), -1,
                                           dtype=np.int64)
        col = np.arange(self.n_nodes) - np.repeat(self.vn_ptr[:-1], counts)
        self.vertex_cells_padded[self.node_vertex[self.vn_ids], col] = \
            self.node_cell[self.vn_ids]

        self.boundary_mask = mesh.boundary_vertex_mask[self.node_vertex]
        self.boundary_nodes = np.flatnonzero(self.boundary_mask)
        self.boundary_index = np.full(self.n_nodes, -1, dtype=np.int64)
        self.boundary_index[self.boundary_nodes] = np.arange(len(self.boundary_nodes))
        self.n_boundary = len(self.boundary_nodes)

        self.m = self._lumped_weights()
        self._pairs = None
        self._pair_topology = None
        self._pattern = None

    def _lumped_weights(self):
        from .assembly import cell_quadrature
        N, _, w_det = cell_quadrature(self.mesh)
        # integral of each local shape over its cell
        return np.einsum("cq,qi->ci", w_det, N).ravel()

    # -- topology queries -----------------------------------------------------

    def _vertex_nodes(self, v):
        return self.vn_ids[self.vn_ptr[v]:self.vn_ptr[v + 1]]

    def support(self, a):
        """Cells whose closure contains x_a."""
        return self.node_cell[self._vertex_nodes(self.node_vertex[a])].tolist()

    def support_vertices(self, a):
        """Vertex ids lying in the closed support of a."""
        return np.unique(self.mesh.cells[self.support(a)])

    def neighbors(self, a):
        """All nodes b with x_b in the closed support of a (includes a),
        ascending: row a of the node pattern S."""
        S = self.pattern()
        return S.indices[S.indptr[a]:S.indptr[a + 1]]

    def support_nodes(self, a):
        """Nodes (i, K) with K a cell of the support; u_h over the support
        attains its extrema at exactly these nodes."""
        cells = np.asarray(self.support(a))
        return (4 * cells[:, None] + np.arange(4)[None, :]).ravel()

    def adjacency_pairs(self):
        """Cached ordered adjacency pairs (a, b), b != a, as flat arrays.

        b runs over every node whose coordinate lies in the closed support
        of a, including coincident duplicates of both endpoints: the
        off-diagonal entries of the node pattern S, in its CSR order.  The
        detector's pair topology and the viscosity pair tables share them.
        """
        if self._pairs is None:
            S = self.pattern()
            rows = np.repeat(np.arange(self.n_nodes), np.diff(S.indptr))
            self._pairs = rows[S.pairs], S.indices[S.pairs].astype(np.int64)
        return self._pairs

    def pair_topology(self):
        """Cached detector pair table (built by the detector module)."""
        if self._pair_topology is None:
            from .detector import build_pair_topology
            self._pair_topology = build_pair_topology(self)
        return self._pair_topology

    def pattern(self):
        """Cached node pattern S = adjacency + diagonal, built on first use."""
        if self._pattern is None:
            self._pattern = NodePattern(self)
        return self._pattern


class NodePattern:
    """CSR sparsity pattern S of the node adjacency plus the diagonal.

    Row a holds every node b with x_b in the closed support of a, a itself
    included, in ascending order: S is the structure of N (V V^T) N^T, with
    N the node-vertex and V the vertex-cell incidence, built by one sparse
    product.  ``indptr`` and ``indices`` are int32, canonical and shared by
    every matrix stored in S (:meth:`matrix`).  The slot maps, int32, are
    ``pairs`` for the off-diagonal entries in CSR order, which is the order
    of :meth:`DgNodeSet.adjacency_pairs`, and ``diag`` for the diagonal.
    """

    def __init__(self, nodes: DgNodeSet):
        n, nv = nodes.n_nodes, nodes.mesh.n_vertices
        self.shape = (n, n)
        ones = np.ones(n, dtype=np.int32)
        N = sp.csr_matrix((ones, nodes.node_vertex, np.arange(n + 1)),
                          shape=(n, nv))
        # V^T, the cell-vertex incidence, shares N's vertex ids
        Vt = sp.csr_matrix((ones, nodes.node_vertex, np.arange(0, n + 1, 4)),
                           shape=(nodes.mesh.n_cells, nv))
        S = N @ (Vt.T @ Vt) @ N.T
        S.sort_indices()
        self.nnz = S.nnz
        self.indptr = S.indptr.astype(np.int32)
        self.indices = S.indices.astype(np.int32)
        # shared by every matrix in S: an in-place edit of one must fail
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        on_diag = np.repeat(np.arange(n), np.diff(self.indptr)) == self.indices
        self.pairs = np.flatnonzero(~on_diag).astype(np.int32)
        self.diag = np.flatnonzero(on_diag).astype(np.int32)
        self._nodes = nodes

    def transpose(self, slots):
        """The slots of (b, a) for the slots of entries (a, b)."""
        t = sp.csr_matrix((np.arange(self.nnz, dtype=np.int32), self.indices,
                           self.indptr), shape=self.shape).tocsc().data
        return t[slots]

    def cell_slots(self, a, local):
        """(len(a), 4) slots in S of (a[i], the four nodes of the cell at
        position local[i] among the cells at the vertex of a[i])."""
        nodes, n = self._nodes, self.shape[0]
        # per (vertex v, cell j at v): the ranks of the cell's four nodes in
        # the row of its own node at v, which has v's columns; row-major
        # keys of S ascend, so one search finds them
        vc = nodes.vertex_cells_padded
        v_of, j_of = np.nonzero(vc >= 0)
        own = nodes.vn_ids[nodes.vn_ptr[v_of] + j_of]
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        found = np.searchsorted(rows * n + self.indices,
                                (own * n + 4 * vc[v_of, j_of])[:, None]
                                + np.arange(4))
        cell_rank = np.zeros((vc.size, 4), dtype=np.int32)
        cell_rank[v_of * vc.shape[1] + j_of] = (found
                                                - self.indptr[own][:, None])

        slots = cell_rank.take(nodes.node_vertex[a] * vc.shape[1] + local,
                               axis=0)
        slots += self.indptr[a][:, None]
        return slots

    def matrix(self, data):
        """The CSR matrix with values ``data`` (one per slot) in S."""
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


def build_dg_nodes(mesh):
    return DgNodeSet(mesh)


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


def symmetric_point(nodes: DgNodeSet, a, b) -> SymmetricPoint:
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
    for c in nodes.support(a):
        t = _ray_exit_convex(xa, d, mesh.cell_polygon(c), geo_tol)
        if np.isfinite(t):
            t_max = max(t_max, t)

    if t_max <= geo_tol:
        return SymmetricPoint(point=xa.copy(), r_sym=np.zeros(2), degenerate=True)

    point = xa + t_max * d
    owners = [c for c in nodes.support(a)
              if point_in_convex(point, mesh.cell_polygon(c), 1e-10 * mesh.h)]
    return SymmetricPoint(point=point, r_sym=point - xa, cells=owners)


@dataclass
class SymmetricPointBatch:
    """Vectorized :func:`symmetric_point` results for many (a, b) pairs.

    ``cells`` is the padded support-cell table of the owning nodes (-1 pads);
    ``owner`` flags which of those cells contain the symmetric point.
    """

    point: np.ndarray       # (P, 2)
    distance: np.ndarray    # (P,)
    degenerate: np.ndarray  # (P,) bool
    cells: np.ndarray       # (P, k) int, -1 padded
    owner: np.ndarray       # (P, k) bool


def symmetric_points_batch(nodes: DgNodeSet, pa, pb) -> SymmetricPointBatch:
    """Symmetric points for pair arrays ``pa``, ``pb`` (non-coincident)."""
    mesh = nodes.mesh
    pa = np.asarray(pa, dtype=np.int64)
    pb = np.asarray(pb, dtype=np.int64)
    xa = nodes.coords[pa]
    r = nodes.coords[pb] - xa
    dist_ab = np.hypot(r[:, 0], r[:, 1])
    if np.any(dist_ab == 0.0):
        raise ValueError("symmetric point undefined for coincident nodes")
    d = -r / dist_ab[:, None]

    cells = nodes.vertex_cells_padded[nodes.node_vertex[pa]]  # (P, k)
    valid = cells >= 0
    poly = mesh.vertices[mesh.cells[np.where(valid, cells, 0)]]  # (P, k, 4, 2)
    v0 = poly
    tvec = np.roll(poly, -1, axis=2) - v0
    n_out = np.stack([tvec[..., 1], -tvec[..., 0]], axis=-1)
    n_out /= np.hypot(tvec[..., 1], tvec[..., 0])[..., None]
    dn = np.einsum("pe,pkqe->pkq", d, n_out)
    side = np.einsum("pkqe,pkqe->pkq", xa[:, None, None, :] - v0, n_out)

    geo_tol = 1e-12 * mesh.h
    blocked = ((dn <= geo_tol) & (side > geo_tol)).any(axis=2)
    t_e = np.where(dn > geo_tol,
                   np.maximum(-side, 0.0) / np.where(dn > geo_tol, dn, 1.0),
                   np.inf)
    t_cell = t_e.min(axis=2)
    t_cell = np.where(blocked | ~valid | ~np.isfinite(t_cell), -np.inf, t_cell)
    t_max = np.maximum(0.0, t_cell.max(axis=1))

    degenerate = t_max <= geo_tol
    point = xa + t_max[:, None] * d
    point[degenerate] = xa[degenerate]
    r_sym = point - xa
    distance = np.hypot(r_sym[:, 0], r_sym[:, 1])

    in_tol = 1e-10 * mesh.h
    side_pt = np.einsum("pkqe,pkqe->pkq", point[:, None, None, :] - v0, n_out)
    owner = (side_pt <= in_tol).all(axis=2) & valid
    owner[degenerate] = False
    return SymmetricPointBatch(point=point, distance=distance,
                               degenerate=degenerate, cells=cells, owner=owner)


# -- plain-text mesh import/export -------------------------------------------

def save_mesh(mesh, path):
    """Write the documented plain-text format: header, vertex and cell lists."""
    with open(path, "w") as f:
        f.write("# dgmono mesh v1\n")
        f.write(f"{mesh.n_vertices} {mesh.n_cells}\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.17g} {y:.17g}\n")
        for c in mesh.cells:
            f.write(" ".join(str(int(v)) for v in c) + "\n")


def load_mesh(path):
    with open(path) as f:
        lines = [ln.strip() for ln in f
                 if ln.strip() and not ln.lstrip().startswith("#")]
    nv, nc = (int(t) for t in lines[0].split())
    if len(lines) != 1 + nv + nc:
        raise MeshError("truncated mesh file")
    vertices = np.array([[float(t) for t in ln.split()] for ln in lines[1:1 + nv]])
    cells = np.array([[int(t) for t in ln.split()] for ln in lines[1 + nv:]],
                     dtype=np.int64)
    return Mesh(vertices, cells)

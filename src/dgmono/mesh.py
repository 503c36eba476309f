"""Structured quadrilateral meshes, facet classification and the dG node topology.

The dG space duplicates every vertex once per adjacent cell, so a node is a
(cell, local-vertex) pair.  All downstream modules only consume the arrays
exposed here, so meshes imported from file work as long as cells are convex
quadrilaterals listed counter-clockwise; ``Mesh`` rejects any other cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
        ``cell_plus``, whose edge runs from v0 to v1, and the minus cell's
        edge runs from v1 to v0.
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
        if len(cells) == 0:
            raise MeshError("the cell list is empty: a mesh needs a cell")
        bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
        if bad.size:
            raise MeshError(f"vertex {bad[0]} is not finite: {vertices[bad[0]]}")
        bad = cells[(cells < 0) | (cells >= len(vertices))]
        if bad.size:
            raise MeshError(f"vertex id {bad[0]} out of range for "
                            f"{len(vertices)} vertices")
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
        # counter-clockwise neighbours run a shared edge in opposite
        # directions; the same direction means the two cells overlap
        if np.any(v0[f_minus] != v1[f_plus]):
            raise MeshError("interior facet run in the same direction by "
                            "both cells: the cells overlap")
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

    @cached_property
    def quadrature(self):
        """(N, gradN, w_det, points) of the 2x2 Gauss rule on every cell
        (:func:`~dgmono.assembly.cell_quadrature`), computed on first use
        and shared, read-only, by every operator and weight built here."""
        from .assembly import cell_quadrature
        rule = cell_quadrature(self)
        for a in rule:
            a.flags.writeable = False
        return rule

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


# 2-point Gauss rule on [-1, 1]
GAUSS2 = np.array([-1.0, 1.0]) / np.sqrt(3.0)
GAUSS2_W = np.array([1.0, 1.0])


def beta_at(beta, pts):
    """(beta_x, beta_y) of the velocity ``beta`` at points (..., 2), each
    broadcast to pts.shape[:-1]: a component may be a constant."""
    return tuple(np.broadcast_to(np.asarray(c, dtype=float), pts.shape[:-1])
                 for c in beta(pts[..., 0], pts[..., 1]))


def classify_facets(mesh, velocity):
    """The inflow mask over ``mesh.boundary_facets``: True where beta.n < 0
    on the facet, False on outflow facets.

    Raises MeshError when beta.n changes sign within a single facet, i.e.
    the mesh is not conforming with the inflow/outflow boundaries.
    """
    bf = mesh.boundary_facets
    pts = mesh.facet_points(bf["v0"], bf["v1"], GAUSS2)  # (nbf, 2, 2)
    bx, by = beta_at(velocity, pts)
    bn = bx * bf["normal"][:, None, 0] + by * bf["normal"][:, None, 1]
    scale = max(np.abs(bn).max(), 1.0)
    tol = 1e-12 * scale
    neg = bn < -tol
    pos = bn > tol
    mixed = neg.any(axis=1) & pos.any(axis=1)
    if mixed.any():
        raise MeshError(
            f"{mixed.sum()} boundary facet(s) with mixed beta.n sign; "
            "mesh not conforming with the inflow/outflow boundaries")
    return neg.all(axis=1)


class DgNodeSet:
    """Duplicated dG nodes with supports, adjacency and lumped weights.

    Node ``a = 4 * cell + local_vertex``.  The adjacency N(a) contains every
    node whose coordinate lies in the closed support of a (including all
    coincident duplicates); ``pattern``, the node pattern S
    (:class:`NodePattern`), holds it and is built with the nodes.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        nc = mesh.n_cells
        self.n_nodes = 4 * nc
        self.node_cell = np.repeat(np.arange(nc), 4)
        self.node_local = np.tile(np.arange(4), nc)
        self.node_vertex = mesh.cells.ravel().copy()
        self.coords = mesh.vertices[self.node_vertex]

        # the cells at each vertex, in ascending node order: (n_vertices, k)
        # support cells, -1 pads
        nv = mesh.n_vertices
        vn_ids = np.argsort(self.node_vertex, kind="stable")
        counts = np.bincount(self.node_vertex, minlength=nv)
        self.vertex_cells_padded = np.full((nv, int(counts.max())), -1,
                                           dtype=np.int64)
        col = np.arange(self.n_nodes) - np.repeat(np.cumsum(counts) - counts,
                                                  counts)
        self.vertex_cells_padded[self.node_vertex[vn_ids], col] = \
            self.node_cell[vn_ids]

        self.boundary_mask = mesh.boundary_vertex_mask[self.node_vertex]
        self.boundary_nodes = np.flatnonzero(self.boundary_mask)
        self.boundary_index = np.full(self.n_nodes, -1, dtype=np.int64)
        self.boundary_index[self.boundary_nodes] = np.arange(len(self.boundary_nodes))
        self.n_boundary = len(self.boundary_nodes)

        self.m = self._lumped_weights()
        self.pattern = NodePattern(self)
        self._pair_topology = None

    def _lumped_weights(self):
        N, _, w_det, _ = self.mesh.quadrature
        # integral of each local shape over its cell
        return sum(w_det[:, q, None] * N[q] for q in range(len(N))).ravel()

    # -- topology queries -----------------------------------------------------

    def neighbors(self, a):
        """All nodes b with x_b in the closed support of a (includes a),
        ascending: row a of the node pattern S."""
        S = self.pattern
        return S.indices[S.indptr[a]:S.indptr[a + 1]]

    def pair_topology(self):
        """Cached detector pair table (built by the detector module)."""
        if self._pair_topology is None:
            from .detector import build_pair_topology
            self._pair_topology = build_pair_topology(self)
        return self._pair_topology


class NodePattern:
    """CSR sparsity pattern S of the node adjacency plus the diagonal.

    Row a holds every node b with x_b in the closed support of a, a itself
    included, in ascending order: S is the structure of (N W) N^T, with N
    the node-vertex incidence and W = V V^T the pattern of the vertex pairs
    that share a cell (V the vertex-cell incidence), built by one sparse
    product.  ``indptr`` and ``indices`` are int32, canonical and shared by
    every matrix stored in S (:meth:`matrix`); ``rows``, int32, is the row
    of each slot.  The slot maps, int32, are ``pairs`` for the off-diagonal
    entries in CSR order and ``diag`` for the diagonal; :meth:`slots` finds
    any other entry.  The ordered pairs (a, b), b != a, are those entries,
    with a in ``pair_rows`` and b in ``pair_cols``.  The unordered pairs
    a < b, in the same order, have a in ``upper_rows``, b in ``upper_cols``
    and the slots ``upper`` of (a, b) and ``lower`` of (b, a).  The pairs'
    nodes are intp: NumPy converts other indices on every call.
    B and B_tilde (:meth:`boundary_matrix`) store S's entries in the columns
    of boundary nodes, in S's CSR order: ``boundary_slots`` are their slots,
    and ``boundary_rows``, ``boundary_cols`` (boundary indices) and
    ``boundary_indptr``, int32, their CSR structure.

    Entries of W and of N W are numbered in their CSR order: W's are the
    ``vertex_pairs`` (v, w); ``support_rows`` and ``support_pair`` give the
    node a and the W entry (vertex of a, v) of each entry (a, v) of N W, and
    ``slot_support`` the N W entry (a, vertex of b) of each slot (a, b).
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
        # each entry of N W and (N W) N^T is one product: the entry numbers
        # + 1 put in W's and N W's data come out as the products' data
        W = (Vt.T @ Vt).tocsr()
        W.sort_indices()
        self.vertex_pairs = (np.repeat(np.arange(nv), np.diff(W.indptr)),
                             W.indices)
        W.data = np.arange(1, W.nnz + 1, dtype=np.int32)
        NW = N @ W
        NW.sort_indices()
        self.support_rows = np.repeat(np.arange(n, dtype=np.int32),
                                      np.diff(NW.indptr))
        self.support_pair = NW.data - 1
        NW.data = np.arange(1, NW.nnz + 1, dtype=np.int32)
        S = NW @ N.T
        S.sort_indices()
        self.slot_support = S.data - 1
        self.nnz = S.nnz
        self.indptr = S.indptr.astype(np.int32)
        self.indices = S.indices.astype(np.int32)
        # shared by every matrix in S: an in-place edit of one must fail
        self.indptr.flags.writeable = self.indices.flags.writeable = False
        self.rows = np.repeat(np.arange(n, dtype=np.int32),
                              np.diff(self.indptr))
        on_diag = self.rows == self.indices
        self.pairs = np.flatnonzero(~on_diag).astype(np.int32)
        self.diag = np.flatnonzero(on_diag).astype(np.int32)
        self.pair_rows = self.rows[self.pairs].astype(np.intp)
        self.pair_cols = self.indices[self.pairs].astype(np.intp)
        upper = self.pair_cols > self.pair_rows
        self.upper = self.pairs[upper]
        self.upper_rows = self.pair_rows[upper]
        self.upper_cols = self.pair_cols[upper]
        self.lower = self.slots(self.upper_cols, self.upper_rows)

        self.boundary_shape = (n, nodes.n_boundary)
        col = nodes.boundary_index[self.indices]  # -1: not a boundary node
        self.boundary_slots = np.flatnonzero(col >= 0).astype(np.int32)
        self.boundary_rows = self.rows[self.boundary_slots]
        self.boundary_cols = col[self.boundary_slots].astype(np.int32)
        self.boundary_indptr = np.searchsorted(
            self.boundary_rows, np.arange(n + 1)).astype(np.int32)

    @cached_property
    def cell_blocks(self):
        """The slots in S of the 4x4 cell blocks, (n_cells, 4, 4): entry
        (c, i, j) is that of nodes (4c + i, 4c + j).  Built on first use,
        so only theta-step solves pay for it."""
        cells = np.arange(self.shape[0]).reshape(-1, 4)
        rows, cols = np.repeat(cells, 4, axis=1), np.tile(cells, 4)
        return self.slots(rows.ravel(), cols.ravel()).reshape(-1, 4, 4)

    def slots(self, rows, cols):
        """The slots in S of the entries (rows[i], cols[i]); ValueError for
        an entry outside S.  scipy's row-local search reads them off the
        matrix of slot numbers + 1, where 0 means "not in S"."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        if rows.size == 0:  # scipy returns a sparse matrix for no entries
            return np.zeros(0, dtype=np.int32)
        number = self.matrix(np.arange(1, self.nnz + 1, dtype=np.int32))
        found = np.asarray(number[rows, cols]).ravel() - 1
        if found.min() < 0:
            i = np.argmin(found)
            raise ValueError(f"entry ({rows[i]}, {cols[i]}) is not in the "
                             "node pattern")
        return found

    def scatter(self, rows, cols, vals):
        """The data in S, float64, of the entries vals[i] at (rows[i],
        cols[i]), broadcast together: entries at one slot add up in input
        order.  An exact zero outside S is dropped; any other entry outside
        S raises ValueError."""
        rows, cols, vals = (a.ravel() for a in
                            np.broadcast_arrays(rows, cols, vals))
        nz = vals != 0.0
        # bincount gives int64 zeros when no weight is left
        return np.bincount(self.slots(rows[nz], cols[nz]), weights=vals[nz],
                           minlength=self.nnz).astype(np.float64, copy=False)

    def matrix(self, data):
        """The CSR matrix with values ``data`` (one per slot) in S."""
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def boundary_matrix(self, data):
        """The (n, n_boundary) CSR matrix with values ``data`` (one per
        boundary slot) on S's entries in boundary-node columns.  Its index
        arrays are copies, so that it may drop its zeros in place."""
        return sp.csr_matrix((data, self.boundary_cols.copy(),
                              self.boundary_indptr.copy()),
                             shape=self.boundary_shape)


def build_dg_nodes(mesh):
    return DgNodeSet(mesh)


@dataclass
class SymmetricPointBatch:
    """Symmetric points of many (a, b) pairs: where the ray from x_a away
    from x_b leaves the support of a.

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
    dx, dy = -r[:, 0] / dist_ab, -r[:, 1] / dist_ab

    # the first vertex and unit outward normal of each cell edge, (4,
    # n_cells) per component, taken per support cell of each pair as (4, k,
    # P), so that the reductions over edges and cells run along the leading
    # axes; the side tests are (x - v0) . n
    vx, vy = mesh.vertices[mesh.cells.T, 0], mesh.vertices[mesh.cells.T, 1]
    tx, ty = np.roll(vx, -1, axis=0) - vx, np.roll(vy, -1, axis=0) - vy
    length = np.hypot(ty, tx)
    cells = nodes.vertex_cells_padded[nodes.node_vertex[pa]]  # (P, k)
    valid = (cells >= 0).T
    safe = np.where(valid, cells.T, 0)
    v0x, v0y, nx, ny = (np.take(e, safe, axis=1)
                        for e in (vx, vy, ty / length, -tx / length))

    def side_of(px, py):
        return (px - v0x) * nx + (py - v0y) * ny

    geo_tol = 1e-12 * mesh.h
    dn = dx * nx + dy * ny
    side = side_of(xa[:, 0], xa[:, 1])
    leaving = dn > geo_tol
    blocked = (~leaving & (side > geo_tol)).any(axis=0)
    t_e = np.where(leaving,
                   np.maximum(-side, 0.0) / np.where(leaving, dn, 1.0), np.inf)
    t_cell = t_e.min(axis=0)
    del dn, side, leaving, t_e  # freed once used: a lower set-up heap peak
    t_cell = np.where(blocked | ~valid | ~np.isfinite(t_cell), -np.inf, t_cell)
    t_max = np.maximum(0.0, t_cell.max(axis=0))

    degenerate = t_max <= geo_tol
    point = np.column_stack([xa[:, 0] + t_max * dx, xa[:, 1] + t_max * dy])
    point[degenerate] = xa[degenerate]
    r_sym = point - xa
    distance = np.hypot(r_sym[:, 0], r_sym[:, 1])

    # a cell owns the point when it contains it to within geo_tol; the
    # Q1 weights of a cell the point lies outside of are clipped, which
    # moves the point and breaks the detector's silence on affine states.
    # The cell the ray leaves through contains its exit point by
    # construction, so it owns it whatever the rounding.
    owner = (side_of(point[:, 0], point[:, 1]) <= geo_tol).all(axis=0) & valid
    owner[np.argmax(t_cell, axis=0), np.arange(len(pa))] = True
    owner[:, degenerate] = False
    return SymmetricPointBatch(point=point, distance=distance,
                               degenerate=degenerate, cells=cells,
                               owner=owner.T)


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
    """Read the format of :func:`save_mesh`; MeshError if a file breaks it."""
    with open(path) as f:
        lines = [(i, ln.split()) for i, ln in enumerate(f, 1)
                 if ln.strip() and not ln.lstrip().startswith("#")]
    try:
        nv, nc = (int(t) for t in lines[0][1])
    except (IndexError, ValueError):
        raise MeshError("no header line 'n_vertices n_cells'") from None
    if len(lines) != 1 + nv + nc:
        raise MeshError("truncated mesh file")
    rows = []
    for k, (i, ln) in enumerate(lines[1:]):
        size, kind = (2, float) if k < nv else (4, int)
        if len(ln) != size:
            raise MeshError(f"line {i}: {len(ln)} values; a vertex line "
                            "has 2 and a cell line 4")
        try:
            rows.append([kind(t) for t in ln])
        except ValueError:
            raise MeshError(f"line {i}: {' '.join(ln)!r} is not "
                            f"{size} {kind.__name__} values") from None
    return Mesh(np.array(rows[:nv]), np.array(rows[nv:], dtype=np.int64))

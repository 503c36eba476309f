"""Reference implementations that the tests check the package against.

- the support queries of one node, read off the vertex-to-node table;
- the symmetric point of one node pair, computed cell by cell with plain
  loops: the oracle for the batch path
  :func:`dgmono.mesh.symmetric_points_batch`;
- the selectively lumped mass action, the oracle for
  :func:`dgmono.stabilization.lumped_mass_matrix`;
- the pattern S^2 that the finite-difference Jacobian oracle
  (:func:`dgmono.solve.fd_jacobian`) is restricted to, and the Jacobian
  dT/du assembled from the two terms Newton applies;
- the interior-penalty operators K and B on any convex quadrilateral mesh,
  built with plain loops over cells, facets and Gauss points: the oracle for
  :func:`dgmono.assemble_K` and :func:`dgmono.assemble_B`;
- the reference coordinates of one physical point by scalar Newton steps:
  the oracle for :func:`dgmono.assembly.inverse_map`;
- the detector with one candidate set per regular node pair, the layout
  that :class:`dgmono.detector.PairTopology` groups by (a, vertex of b): the
  oracle for :class:`dgmono.detector.DetectorPass`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from dgmono.assembly import eval_in_cells
from dgmono.detector import (RATIO_SNAP, _abs_lower_slope, _ssgn_slope,
                             _z_ramp_slope, abs_lower, abs_upper, ssgn,
                             z_ramp)
from dgmono.mesh import symmetric_points_batch
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
    t_max, exit_cell = 0.0, None
    for c in support(nodes, a):
        t = _ray_exit_convex(xa, d, cell_polygon(mesh, c), geo_tol)
        if np.isfinite(t) and (exit_cell is None or t > t_max):
            t_max, exit_cell = t, c

    if t_max <= geo_tol:
        return SymmetricPoint(point=xa.copy(), r_sym=np.zeros(2), degenerate=True)

    # the cells containing the point to within geo_tol, and the exit cell
    point = xa + t_max * d
    owners = [c for c in support(nodes, a)
              if c == exit_cell
              or point_in_convex(point, cell_polygon(mesh, c), geo_tol)]
    return SymmetricPoint(point=point, r_sym=point - xa, cells=owners)


def lumped_mass_apply(M, m, alpha, Q, w):
    """Selectively lumped mass action: (1 - a^Q)(Mw)_a + a^Q w_a m_a."""
    blend = mass_blend(alpha, Q)
    return (1.0 - blend) * (M @ w) + blend * (w * m)


def jacobian_pattern(problem):
    """Sparsity pattern of dT/du: S^2 for the node pattern S (viscosities
    couple each row to the neighbors of its neighbors), as CSC ones."""
    S = problem.nodes.pattern
    A = S.matrix(np.ones(S.nnz, dtype=np.int32))
    P = (A @ A).tocsc()
    P.data[:] = 1
    return P


def assembled_jacobian(state):
    """dT/du at the :class:`dgmono.stabilization.Linearization` ``state`` as
    one CSR matrix: A + C d alpha/du from its Jacobian terms."""
    C, dalpha = state.jacobian_terms
    return state.system[0] + C @ dalpha


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


def reference_coords(mesh, c, x, tol=1e-13, max_iter=50):
    """Reference coordinates of the physical point x in cell c by scalar
    Newton steps on :func:`q1_at`: the oracle for
    :func:`dgmono.assembly.inverse_map`.  xi and eta are the Q1
    interpolants of the corners' own reference coordinates, so their
    physical gradients, the rows of J^-1, are those of the shape functions
    weighted by the corners' xi and eta."""
    corners = np.array(_CORNERS)
    xi = np.zeros(2)
    for _ in range(max_iter):
        _, grad, p, _ = q1_at(mesh, c, *xi)
        res = p - x
        if np.abs(res).max() < tol * mesh.h:
            return xi
        xi = xi - (corners.T @ grad) @ res
    raise RuntimeError(f"no convergence in cell {c} at {x}")


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


# -- the per-node-pair detector -----------------------------------------------

def reference_topology(nodes):
    """Pair topology from symmetric points and Q1 weights computed for every
    non-coincident node pair on its own (no sharing between node pairs that
    join the same two vertices)."""
    pa, pb = nodes.pattern.pair_rows, nodes.pattern.pair_cols
    coinc = nodes.node_vertex[pa] == nodes.node_vertex[pb]
    ra, rb = pa[~coinc], pb[~coinc]
    sb = symmetric_points_batch(nodes, ra, rb)
    r = nodes.coords[rb] - nodes.coords[ra]
    r_ab = np.hypot(r[:, 0], r[:, 1])
    h_own = nodes.mesh.h_cell[nodes.node_cell]
    pair_w = 2.0 / (h_own[pa] + h_own[pb])
    pair_w[~coinc] = 1.0 / r_ab
    reg = ~sb.degenerate
    owner = sb.owner[reg]
    counts = owner.sum(axis=1)
    cells = sb.cells[reg][owner]
    weights = eval_in_cells(nodes.mesh, cells,
                            np.repeat(sb.point[reg], counts, axis=0))
    dg_a = ra[sb.degenerate]
    return {
        "pair_w": pair_w,
        "dg_pair": np.flatnonzero(~coinc)[sb.degenerate],
        "dg_a": dg_a, "dg_b": rb[sb.degenerate],
        "dg_w": 1.0 / r_ab[sb.degenerate],
        "reg_a": ra[reg],
        "reg_ws": 1.0 / sb.distance[reg],
        "cand_ptr": np.concatenate([[0], np.cumsum(counts)]),
        "cand_weights": np.clip(weights, 0.0, 1.0),
        "cand_nodes": 4 * cells[:, None] + np.arange(4)[None, :],
        "cand_a": np.repeat(ra[reg], counts),
        "dg_bidx": nodes.boundary_index[dg_a],
    }


class PairDetector:
    """The detector pass at state u, with the candidates of every regular
    node pair interpolated and reduced on their own.

    The per-node sums follow the order documented in :mod:`dgmono.detector`,
    (pair legs + extrapolated legs) + group legs, so ``alpha`` is bitwise
    the package's.  A group is the regular pairs of a node a whose b lie at
    one vertex; their symmetric legs, reduced pair by pair here, must be
    bitwise equal, and the group adds its leg times its number of pairs.
    :meth:`jacobian` sums one entry per node pair and agrees with the
    package's, which sums the symmetric legs of a group first, to rounding.
    """

    def __init__(self, nodes, u, trace, params, scales):
        self.nodes, self.u, self.params = nodes, u, params
        t = self.topo = reference_topology(nodes)
        pa, pb = nodes.pattern.pair_rows, nodes.pattern.pair_cols
        n, tau_h = nodes.n_nodes, scales.tau_h
        self.tau_h = tau_h
        self.term_idx = np.concatenate([pa, t["reg_a"], t["dg_a"]])
        ptr = t["cand_ptr"][:-1]
        diffs = u[t["cand_nodes"]] - u[t["cand_a"]][:, None]
        self.cand = np.einsum("ck,ck->c", t["cand_weights"], diffs)
        s_hi = np.maximum.reduceat(self.cand, ptr)
        s_lo = np.minimum.reduceat(self.cand, ptr)
        self.sides = [s_hi] if np.array_equal(s_hi, s_lo) else [s_hi, s_lo]

        # extrapolated legs: ubar_a + (u_b - u_a) sgn(d0 db) for u_sym
        ua = u[t["dg_a"]]
        ubar = ua.copy()
        self.dd0 = np.zeros(len(ua))
        if trace is not None:
            has = trace.dirichlet[t["dg_bidx"]]
            ubar[has] = trace.values[t["dg_bidx"][has]]
            self.dd0[has] = -1.0
        self.d0, self.db = ubar - ua, u[t["dg_b"]] - ua
        x = self.d0 * self.db
        if not params.boundary_extrapolation:
            t_dgs = t["dg_w"] * self.d0
        elif params.mode == "raw":
            t_dgs = t["dg_w"] * (self.d0 + self.db * np.where(x > 0.0, 1.0,
                                                                -1.0))
        else:
            t_dgs = t["dg_w"] * (self.d0 + self.db * ssgn(x, tau_h))
        t_pair = t["pair_w"] * (u[pb] - u[pa])

        # the regular pairs in pair order, grouped by (a, vertex of b)
        vertex = nodes.node_vertex
        reg = np.setdiff1d(np.flatnonzero(vertex[pa] != vertex[pb]),
                           t["dg_pair"])
        _, first, grp = np.unique(pa[reg] * nodes.mesh.n_vertices
                                  + vertex[pb[reg]], return_index=True,
                                  return_inverse=True)
        grp_pairs, grp_a = np.bincount(grp), t["reg_a"][first]
        S = nodes.pattern
        starts = S.indptr[:-1] - np.arange(n, dtype=S.indptr.dtype)

        def node_sums(f, t_sym):
            """Per node, the sum of f(t) over its terms t: the pair legs
            along its row of S, then the extrapolated legs, then each
            group's leg f(t_sym) times its number of pairs."""
            assert np.array_equal(t_sym, t_sym[first][grp])
            return (np.add.reduceat(f(t_pair), starts)
                    + np.bincount(t["dg_a"], weights=f(t_dgs), minlength=n)
                    + np.bincount(grp_a, weights=grp_pairs * f(t_sym[first]),
                                  minlength=n))

        self.branches = []
        for s in self.sides:
            t_sym = t["reg_ws"] * s
            vals = np.concatenate([t_pair, t_sym, t_dgs])
            num = node_sums(lambda x: x, t_sym)
            if params.mode == "raw":
                den = node_sums(np.abs, t_sym)
                ratio = np.divide(np.abs(num), den, out=np.zeros(n),
                                  where=den > 0.0)
                ratio[ratio <= RATIO_SNAP] = 0.0
                u_scale = float(np.abs(u).max(initial=0.0))
                if trace is not None:
                    u_scale = max(u_scale, float(np.abs(trace.values).max(
                        initial=0.0)))
                w_max = max(t["pair_w"].max(), t["reg_ws"].max(initial=0.0))
                noise = 64.0 * np.finfo(float).eps * w_max * u_scale
                ratio[np.abs(num) <= noise] = 0.0
                self.branches.append(
                    {"alpha": np.clip(ratio, 0.0, 1.0)**params.q})
                continue
            den_s = node_sums(functools.partial(abs_lower, tau_h=tau_h),
                              t_sym) + scales.gamma_h
            zeta = np.divide(abs_upper(num, tau_h) + scales.gamma_h, den_s,
                             out=np.zeros(n), where=den_s > 0.0)
            z = z_ramp(zeta)
            self.branches.append({
                "vals": vals, "num": num, "den_s": den_s, "zeta": zeta,
                "z": z, "alpha": np.clip(z**params.q, 0.0, 1.0)})
        self.alpha = functools.reduce(
            np.maximum, [br["alpha"] for br in self.branches])

    def _slope(self, br):
        """d alpha_a / d t for every term t of node a (smoothed mode)."""
        q, i = self.params.q, self.term_idx
        zq = br["z"]**q
        with np.errstate(divide="ignore", invalid="ignore"):
            d_z = q * br["z"]**(q - 1.0) * _z_ramp_slope(br["zeta"])
        d_z[~np.isfinite(d_z) | (zq < 0.0) | (zq > 1.0)] = 0.0
        c = np.divide(d_z, br["den_s"], out=np.zeros_like(d_z),
                      where=br["den_s"] > 0.0)
        return c[i] * (ssgn(br["num"], self.tau_h)[i] - br["zeta"][i]
                       * _abs_lower_slope(br["vals"], self.tau_h))

    def _first_attaining(self, s):
        """Per regular pair: index of the first candidate whose value is s."""
        ptr, n = self.topo["cand_ptr"], len(self.cand)
        hit = self.cand == np.repeat(s, np.diff(ptr))
        return np.minimum.reduceat(np.where(hit, np.arange(n), n), ptr[:-1])

    def entries(self):
        """(rows, cols, vals) of d alpha/du, one entry per term and u-entry
        (smoothed mode); entries at the same (row, column) add up."""
        t, u, tau_h = self.topo, self.u, self.tau_h
        S = self.nodes.pattern
        pa, pb = S.pair_rows, S.pair_cols
        hi, *lo = self.branches
        slope = self._slope(hi)
        choice = self._first_attaining(self.sides[0])
        if lo:
            on_lo = lo[0]["alpha"] > hi["alpha"]
            slope = np.where(on_lo[self.term_idx], self._slope(lo[0]), slope)
            choice = np.where(on_lo[t["reg_a"]],
                              self._first_attaining(self.sides[1]), choice)
        sl_pair, sl_sym, sl_dgs = np.split(
            slope, np.cumsum([len(pa), len(t["reg_a"])]))
        w_sym = t["reg_ws"][:, None] * t["cand_weights"][choice]

        d0, db, dd0 = self.d0, self.db, self.dd0
        if self.params.boundary_extrapolation:
            x = d0 * db
            sg, sg_x = ssgn(x, tau_h), _ssgn_slope(x, tau_h)
            s_a = dd0 - sg + db * sg_x * (db * dd0 - d0)
            s_b = sg + db * sg_x * d0
        else:
            s_a, s_b = dd0, np.zeros(len(dd0))

        dg_a, dg_b, reg_a = t["dg_a"], t["dg_b"], t["reg_a"]
        w_pair = t["pair_w"] * sl_pair
        rows = np.concatenate([pa, pa, reg_a, dg_a, dg_a,
                               np.repeat(reg_a, 4)])
        cols = np.concatenate([pb, pa, reg_a, dg_a, dg_b,
                               t["cand_nodes"][choice].ravel()])
        vals = np.concatenate([
            w_pair, -w_pair, -w_sym.sum(axis=1) * sl_sym,
            t["dg_w"] * s_a * sl_dgs, t["dg_w"] * s_b * sl_dgs,
            (w_sym * sl_sym[:, None]).ravel()])
        return rows, cols, vals

    def jacobian(self):
        """d alpha/du in the node pattern S (smoothed mode): the
        :meth:`entries` summed into S's slots."""
        S = self.nodes.pattern
        rows, cols, vals = self.entries()
        return S.matrix(np.bincount(S.slots(rows, cols), weights=vals,
                                    minlength=S.nnz))

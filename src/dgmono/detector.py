"""Shock detector alpha_a in raw and smoothed (twice-differentiable) modes.

The detector compares, per node, the magnitude of the summed gradient jumps
against the summed one-sided gradient magnitudes over all node pairs of the
adjacency.  Both quantities are accumulated from one shared flat term array,
so at a discrete local extremum (all terms of one sign) the ratio is exactly
1 in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .mesh import DgNodeSet, symmetric_point, symmetric_points_batch

RATIO_SNAP = 1e-12  # raw ratios at or below this are treated as exact zeros


@dataclass
class DerivedScales:
    """Mesh- and velocity-scaled smoothing parameters."""

    sigma_h: float = 0.0
    tau_h: float = 0.0
    gamma_h: float = 0.0


@dataclass
class StabilizationParams:
    """Detector and stabilization configuration.

    ``sigma``, ``tau``, ``gamma`` are the dimensionless smoothing inputs;
    the mesh-dependent values are produced by :meth:`derived`.  ``sigma_h``,
    ``tau_h``, ``gamma_h``, when given, bypass the mesh scaling and are used
    verbatim (the benchmark literature quotes such values directly).  ``Q``
    is the mass-lumping exponent (``inf`` means: lump only where alpha == 1).
    """

    mode: str = "smoothed"
    q: float = 10.0
    Q: Optional[float] = None
    sigma: Optional[float] = None
    tau: Optional[float] = None
    gamma: Optional[float] = None
    sigma_h: Optional[float] = None
    tau_h: Optional[float] = None
    gamma_h: Optional[float] = None
    L: float = 1.0
    enabled: bool = True
    boundary_extrapolation: bool = True
    z_printed: bool = False

    def __post_init__(self):
        if self.mode not in ("raw", "smoothed"):
            raise ValueError(f"unknown detector mode {self.mode!r}")
        if self.mode == "raw":
            for name in ("sigma", "tau", "gamma",
                         "sigma_h", "tau_h", "gamma_h"):
                val = getattr(self, name)
                if val is None:
                    setattr(self, name, 0.0)
                elif val != 0.0:
                    raise ValueError(f"raw mode requires {name} = 0")
            if self.Q is None:
                self.Q = np.inf
        else:
            if self.sigma is None:
                self.sigma = 1e-2
            if self.tau is None:
                self.tau = 1e-4
            if self.gamma is None:
                self.gamma = 1e-2
            if self.Q is None:
                self.Q = 10.0
        if self.q <= 0.0 or self.Q <= 0.0:
            raise ValueError("exponents q and Q must be positive")
        for name in ("sigma", "tau", "gamma", "sigma_h", "tau_h", "gamma_h"):
            val = getattr(self, name)
            if val is not None and val < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if self.L <= 0.0:
            raise ValueError("characteristic length must be positive")

    def derived(self, h, beta_norm):
        """sigma_h, tau_h, gamma_h for mesh size h and velocity scale |beta|.

        Direct ``*_h`` overrides, when set, take precedence over the
        dimensionless inputs and their mesh scaling."""
        L = self.L
        return DerivedScales(
            sigma_h=(self.sigma_h if self.sigma_h is not None
                     else self.sigma * beta_norm**2 * L**-2 * h**4),
            tau_h=(self.tau_h if self.tau_h is not None
                   else self.tau * h**2 * L**-4),
            gamma_h=(self.gamma_h if self.gamma_h is not None
                     else self.gamma / L),
        )


# -- smoothing primitives -----------------------------------------------------

def abs_upper(x, tau_h):
    """Smoothed absolute value from above: sqrt(x^2 + tau_h)."""
    return np.sqrt(np.square(x) + tau_h)


def abs_lower(x, tau_h):
    """Smoothed absolute value from below: x^2 / sqrt(x^2 + tau_h)."""
    x = np.asarray(x, dtype=float)
    out = np.square(x)
    den = np.sqrt(out + tau_h)
    return np.divide(out, den, out=np.zeros_like(out), where=den > 0.0)


def smax(x, y, sigma_h):
    """Smoothed maximum, always >= max(x, y)."""
    return 0.5 * np.sqrt(np.square(x - y) + sigma_h) + 0.5 * (x + y)


def ssgn(x, tau_h):
    """Smoothed sign: x / abs_upper(x)."""
    x = np.asarray(x, dtype=float)
    den = abs_upper(x, tau_h)
    return np.divide(x, den, out=np.zeros_like(x, dtype=float), where=den > 0.0)


def _ssgn_slope(x, tau_h):
    """d ssgn/dx = tau_h / (x^2 + tau_h)^(3/2); 0 where that is 0/0."""
    den = abs_upper(x, tau_h)**3
    return np.divide(tau_h, den, out=np.zeros_like(den), where=den > 0.0)


def _abs_lower_slope(x, tau_h):
    """d abs_lower/dx = x (x^2 + 2 tau_h) / (x^2 + tau_h)^(3/2)."""
    x2 = np.square(x)
    den = abs_upper(x, tau_h)**3
    return np.divide(x * (x2 + 2.0 * tau_h), den, out=np.zeros_like(den),
                     where=den > 0.0)


def z_ramp(x, printed=False):
    """C^2 ramp onto [0, 1] with Z(x >= 1) = 1.

    The default quartic 2x^4 - 5x^3 + 3x^2 + x has Z(0)=0, Z'(0)=1 and
    Z'(1)=Z''(1)=0.  ``printed=True`` selects the variant with constant
    term +1 instead of the linear term, clamped to [0, 1].
    """
    x = np.asarray(x, dtype=float)
    if printed:
        val = 2 * x**4 - 5 * x**3 + 3 * x**2 + 1.0
        val = np.clip(val, 0.0, 1.0)
    else:
        val = x * (x * (x * (2 * x - 5) + 3) + 1)
    return np.where(x >= 1.0, 1.0, val)


def _z_ramp_slope(x, printed=False):
    """dZ/dx; 0 where Z saturates (x >= 1) or its clamp is active."""
    if printed:
        val = 2 * x**4 - 5 * x**3 + 3 * x**2 + 1.0
        slope = x * (x * (8 * x - 15) + 6)
        slope = np.where((val < 0.0) | (val > 1.0), 0.0, slope)
    else:
        slope = x * (x * (8 * x - 15) + 6) + 1
    return np.where(x >= 1.0, 0.0, slope)


# -- pair topology ------------------------------------------------------------

def _enumerate_pairs(nodes):
    """All ordered adjacency pairs (a, b), b != a, as flat arrays.

    b runs over every node whose coordinate lies in the closed support of a,
    including coincident duplicates of both endpoints.
    """
    mesh = nodes.mesh
    nv = mesh.n_vertices
    # vertex -> nodes at that vertex, CSR (node ids ascending within a vertex)
    vn_ids = np.argsort(nodes.node_vertex, kind="stable")
    vn_counts = np.bincount(nodes.node_vertex, minlength=nv)
    vn_ptr = np.cumsum(vn_counts) - vn_counts

    # (a, support cell) incidence: the cells at a's vertex
    rep = vn_counts[nodes.node_vertex]
    a1 = np.repeat(np.arange(nodes.n_nodes), rep)
    pos = np.arange(len(a1)) - np.repeat(np.cumsum(rep) - rep, rep)
    sup_cell = nodes.node_cell[vn_ids[vn_ptr[nodes.node_vertex[a1]] + pos]]

    # (a, support vertex) incidence, deduplicated
    key = np.repeat(a1, 4) * nv + mesh.cells[sup_cell].ravel()
    key = np.unique(key)
    a2, w2 = key // nv, key % nv

    # expand each support vertex into its nodes
    rep2 = vn_counts[w2]
    pa = np.repeat(a2, rep2)
    pos2 = np.arange(len(pa)) - np.repeat(np.cumsum(rep2) - rep2, rep2)
    pb = vn_ids[np.repeat(vn_ptr[w2], rep2) + pos2]

    keep = pa != pb
    return pa[keep], pb[keep]

class PairTopology:
    """Flattened node-pair data for vectorized detector evaluation.

    Three pair families: coincident (x_a == x_b), regular (with candidate
    interpolation stencils at the symmetric point), and boundary-degenerate
    (symmetric point collapses onto x_a).
    """

    def __init__(self, nodes: DgNodeSet):
        self.nodes = nodes
        pa, pb = _enumerate_pairs(nodes)
        h_own = nodes.mesh.h_cell[nodes.node_cell]

        coinc = nodes.node_vertex[pb] == nodes.node_vertex[pa]
        self.co_a = pa[coinc]
        self.co_b = pb[coinc]
        self.co_w = 2.0 / (h_own[self.co_a] + h_own[self.co_b])

        ra, rb = pa[~coinc], pb[~coinc]
        sb = symmetric_points_batch(nodes, ra, rb)
        r = nodes.coords[rb] - nodes.coords[ra]
        r_ab = np.hypot(r[:, 0], r[:, 1])

        deg = sb.degenerate
        self.dg_a = ra[deg]
        self.dg_b = rb[deg]
        self.dg_w = 1.0 / r_ab[deg]

        reg = ~deg
        self.reg_a = ra[reg]
        self.reg_b = rb[reg]
        self.reg_wb = 1.0 / r_ab[reg]
        self.reg_ws = 1.0 / sb.distance[reg]

        owner = sb.owner[reg]
        counts = owner.sum(axis=1)
        self.cand_ptr = np.concatenate([[0], np.cumsum(counts)])
        if counts.sum():
            from .assembly import eval_in_cells
            cells = sb.cells[reg][owner]
            pts = np.repeat(sb.point[reg], counts, axis=0)
            weights = eval_in_cells(nodes.mesh, cells, pts)
            self.cand_weights = np.clip(weights, 0.0, 1.0)
            self.cand_nodes = 4 * cells[:, None] + np.arange(4)[None, :]
            self.cand_a = np.repeat(self.reg_a, counts)
        else:
            self.cand_weights = np.zeros((0, 4))
            self.cand_nodes = np.zeros((0, 4), dtype=np.int64)
            self.cand_a = np.zeros(0, dtype=np.int64)
        if np.any(counts == 0):
            raise RuntimeError("symmetric point with no owning cell")

        # boundary index of the degenerate-pair owners (must be boundary nodes)
        if len(self.dg_a):
            self.dg_bidx = nodes.boundary_index[self.dg_a]
            if np.any(self.dg_bidx < 0):
                raise RuntimeError("degenerate pair at a non-boundary node")
        else:
            self.dg_bidx = np.zeros(0, dtype=np.int64)

        # fixed flat layout: [coincident, pair legs, symmetric legs,
        # degenerate pair legs, degenerate extrapolated legs]
        self.term_idx = np.concatenate(
            [self.co_a, self.reg_a, self.reg_a, self.dg_a, self.dg_a])

        # largest term weight; scales the rounding-noise floor of the detector
        self.w_max = max((float(w.max()) for w in
                          (self.co_w, self.reg_wb, self.reg_ws, self.dg_w)
                          if len(w)), default=0.0)


def build_pair_topology(nodes):
    return PairTopology(nodes)


# -- detector evaluation ------------------------------------------------------

def _candidate_values(topo, u):
    """Per candidate cell of a regular pair: u(x_sym) - u_a."""
    diffs = u[topo.cand_nodes] - u[topo.cand_a][:, None]
    return np.einsum("ck,ck->c", topo.cand_weights, diffs)


def _symmetric_candidates(topo, cand):
    """Per regular pair: extreme candidate values over the owning cells."""
    if len(topo.reg_a) == 0:
        return np.zeros(0), np.zeros(0)
    s_hi = np.maximum.reduceat(cand, topo.cand_ptr[:-1])
    s_lo = np.minimum.reduceat(cand, topo.cand_ptr[:-1])
    return s_hi, s_lo


def _first_attaining(topo, cand, s):
    """Per regular pair: index of the first candidate whose value is s."""
    hit = np.flatnonzero(cand == np.repeat(s, np.diff(topo.cand_ptr)))
    pair = np.searchsorted(topo.cand_ptr, hit, side="right") - 1
    return hit[np.unique(pair, return_index=True)[1]]


def _boundary_value(topo, u, trace):
    """ubar_a per degenerate pair; nodes without Dirichlet data use u_a."""
    uba = u[topo.dg_a].copy()
    if trace is not None and len(topo.dg_a):
        has = trace.dirichlet[topo.dg_bidx]
        uba[has] = trace.values[topo.dg_bidx[has]]
    return uba


def _term_values(topo, u, trace, params, scales, s_sym):
    t_co = topo.co_w * (u[topo.co_b] - u[topo.co_a])
    t_pair = topo.reg_wb * (u[topo.reg_b] - u[topo.reg_a])
    t_sym = topo.reg_ws * s_sym
    uba = _boundary_value(topo, u, trace)
    d0 = uba - u[topo.dg_a]
    db = u[topo.dg_b] - u[topo.dg_a]
    # degenerate boundary pair: the symmetric point collapses onto x_a, so the
    # extrapolated value ubar_a + (u_b - u_a) * sgn(d0 * db) stands in for
    # u_sym.  Ties resolve toward -1 so that affine states (d0 == 0) yield an
    # exactly cancelling leg pair and the detector stays silent.
    if params.boundary_extrapolation:
        if params.mode == "raw":
            sg = np.where(d0 * db > 0.0, 1.0, -1.0)
        else:
            sg = ssgn(d0 * db, scales.tau_h)
        t_dgs = topo.dg_w * (d0 + db * sg)
    else:
        t_dgs = topo.dg_w * d0
    t_dgb = topo.dg_w * db
    return np.concatenate([t_co, t_pair, t_sym, t_dgb, t_dgs])


def _term_slopes(topo, u, trace, params, scales, choice):
    """d(term)/du as triplets (term, column, value) in the flat layout of
    _term_values; the symmetric leg of regular pair i is taken on candidate
    ``choice[i]``.  Smoothed mode only."""
    n_co, n_reg, n_dg = len(topo.co_a), len(topo.reg_a), len(topo.dg_a)
    r_co = np.arange(n_co)
    r_pair = n_co + np.arange(n_reg)
    r_sym = r_pair + n_reg
    r_dgb = n_co + 2 * n_reg + np.arange(n_dg)
    r_dgs = r_dgb + n_dg
    w_sym = topo.reg_ws[:, None] * topo.cand_weights[choice]

    # degenerate extrapolated leg: d0 = ubar_a - u_a depends on u_a only
    # where the boundary value is Dirichlet data (else ubar_a is u_a itself)
    ua = u[topo.dg_a]
    d0 = _boundary_value(topo, u, trace) - ua
    db = u[topo.dg_b] - ua
    dd0 = np.zeros(n_dg)
    if trace is not None and n_dg:
        dd0[trace.dirichlet[topo.dg_bidx]] = -1.0
    if params.boundary_extrapolation:
        x = d0 * db
        sg = ssgn(x, scales.tau_h)
        sg_x = _ssgn_slope(x, scales.tau_h)
        s_a = dd0 - sg + db * sg_x * (db * dd0 - d0)
        s_b = sg + db * sg_x * d0
    else:
        s_a, s_b = dd0, np.zeros(n_dg)

    rows = np.concatenate([r_co, r_co, r_pair, r_pair, np.repeat(r_sym, 4),
                           r_sym, r_dgb, r_dgb, r_dgs, r_dgs])
    cols = np.concatenate([topo.co_b, topo.co_a, topo.reg_b, topo.reg_a,
                           topo.cand_nodes[choice].ravel(), topo.reg_a,
                           topo.dg_b, topo.dg_a, topo.dg_a, topo.dg_b])
    vals = np.concatenate([topo.co_w, -topo.co_w, topo.reg_wb, -topo.reg_wb,
                           w_sym.ravel(), -w_sym.sum(axis=1), topo.dg_w,
                           -topo.dg_w, topo.dg_w * s_a, topo.dg_w * s_b])
    return rows, cols, vals


def _smoothed_alpha(topo, vals, params, scales, n, slope=False):
    """Smoothed detector from the term values; with ``slope``, also
    d alpha_a / d t for every term t of node a = term_idx[t]."""
    tau_h = scales.tau_h
    num = np.bincount(topo.term_idx, weights=vals, minlength=n)
    den = np.bincount(topo.term_idx, weights=abs_lower(vals, tau_h),
                      minlength=n)
    num_s = abs_upper(num, tau_h) + scales.gamma_h
    den_s = den + scales.gamma_h
    zeta = np.divide(num_s, den_s, out=np.zeros(n), where=den_s > 0.0)
    z = z_ramp(zeta, printed=params.z_printed)
    alpha = z**params.q
    if not slope:
        return np.clip(alpha, 0.0, 1.0)
    # q Z^(q-1) Z'(zeta), then the quotient rule on
    # zeta = (abs_upper(num) + gamma) / (den + gamma)
    with np.errstate(divide="ignore", invalid="ignore"):
        d_z = params.q * z**(params.q - 1.0) \
            * _z_ramp_slope(zeta, params.z_printed)
    d_z[~np.isfinite(d_z) | (alpha < 0.0) | (alpha > 1.0)] = 0.0
    c = np.divide(d_z, den_s, out=np.zeros(n), where=den_s > 0.0)
    i = topo.term_idx
    per_term = c[i] * (ssgn(num, tau_h)[i]
                       - zeta[i] * _abs_lower_slope(vals, tau_h))
    return np.clip(alpha, 0.0, 1.0), per_term


def _alpha_from_terms(topo, vals, params, scales, n, noise=0.0):
    if params.mode != "raw":
        return _smoothed_alpha(topo, vals, params, scales, n)
    num = np.bincount(topo.term_idx, weights=vals, minlength=n)
    den = np.bincount(topo.term_idx, weights=np.abs(vals), minlength=n)
    ratio = np.divide(np.abs(num), den, out=np.zeros(n), where=den > 0.0)
    ratio[ratio <= RATIO_SNAP] = 0.0
    # cancellation leaves rounding noise proportional to |u|, not to the
    # local variation; treat sums below that floor as exact zeros
    ratio[np.abs(num) <= noise] = 0.0
    ratio = np.clip(ratio, 0.0, 1.0)
    if np.isinf(params.q):
        return (ratio >= 1.0).astype(float)
    return ratio**params.q


def alpha_all(nodes, u, trace, params, scales):
    """Detector values for all nodes; maximum over admissible symmetric-point
    values (evaluated at the all-max and all-min candidate assignments)."""
    if not params.enabled:
        return np.zeros(nodes.n_nodes)
    topo = nodes.pair_topology()
    u = np.asarray(u, dtype=float)
    u_scale = float(np.abs(u).max(initial=0.0))
    if trace is not None and len(trace.values):
        u_scale = max(u_scale, float(np.abs(trace.values).max()))
    noise = 64.0 * np.finfo(float).eps * topo.w_max * u_scale
    s_hi, s_lo = _symmetric_candidates(topo, _candidate_values(topo, u))
    a_hi = _alpha_from_terms(topo, _term_values(topo, u, trace, params,
                                                scales, s_hi),
                             params, scales, nodes.n_nodes, noise)
    if np.array_equal(s_hi, s_lo):
        return a_hi
    a_lo = _alpha_from_terms(topo, _term_values(topo, u, trace, params,
                                                scales, s_lo),
                             params, scales, nodes.n_nodes, noise)
    return np.maximum(a_hi, a_lo)


def alpha_jacobian(nodes, u, trace, params, scales):
    """(alpha, d alpha/du) of the smoothed detector at state u.

    alpha is bitwise equal to :func:`alpha_all`; d alpha/du is a CSR matrix.
    Where the detector is not smooth, the derivative is that of the active
    branch: at each regular pair, the first candidate cell attaining the
    max (all-max assignment) or the min (all-min); at each node, the
    assignment np.maximum(a_hi, a_lo) keeps (all-max on ties); and zero
    where the ramp saturates (zeta >= 1) or the clip to [0, 1] binds.
    """
    n = nodes.n_nodes
    if not params.enabled:
        return np.zeros(n), sp.csr_matrix((n, n))
    if params.mode != "smoothed":
        raise ValueError("the detector Jacobian needs the smoothed mode")
    topo = nodes.pair_topology()
    u = np.asarray(u, dtype=float)
    cand = _candidate_values(topo, u)
    s_hi, s_lo = _symmetric_candidates(topo, cand)
    alpha, slope = _smoothed_alpha(
        topo, _term_values(topo, u, trace, params, scales, s_hi),
        params, scales, n, slope=True)
    choice = _first_attaining(topo, cand, s_hi)
    if not np.array_equal(s_hi, s_lo):
        a_lo, slope_lo = _smoothed_alpha(
            topo, _term_values(topo, u, trace, params, scales, s_lo),
            params, scales, n, slope=True)
        lo = a_lo > alpha
        alpha = np.maximum(alpha, a_lo)
        slope = np.where(lo[topo.term_idx], slope_lo, slope)
        choice = np.where(lo[topo.reg_a], _first_attaining(topo, cand, s_lo),
                          choice)
    rows, cols, vals = _term_slopes(topo, u, trace, params, scales, choice)
    dalpha = sp.coo_matrix((slope[rows] * vals, (topo.term_idx[rows], cols)),
                           shape=(n, n))
    return alpha, dalpha.tocsr()


def alpha(nodes, u, trace, a, params, scales):
    """Detector value of a single node (convenience wrapper)."""
    return float(alpha_all(nodes, u, trace, params, scales)[a])


def gradient_pair(nodes, u, trace, a, b, params, scales):
    """(jump, mean) of the gradients for one node pair, per the detector
    definitions; multi-valued symmetric points use the all-max assignment."""
    u = np.asarray(u, dtype=float)
    smooth = params.mode == "smoothed"
    tau_h = scales.tau_h

    def _absval(x):
        return abs_lower(x, tau_h) if smooth else abs(x)

    if nodes.node_vertex[a] == nodes.node_vertex[b]:
        w = 1.0 / nodes.pair_h(a, b)
        d = u[b] - u[a]
        return w * d, float(_absval(d)) * w

    sp = symmetric_point(nodes, a, b)
    r_ab = float(np.hypot(*(nodes.coords[b] - nodes.coords[a])))
    d_b = u[b] - u[a]
    if sp.degenerate:
        bidx = nodes.boundary_index[a]
        if bidx < 0 or trace is None or not trace.dirichlet[bidx]:
            uba = u[a]
        else:
            uba = trace.values[bidx]
        d0 = uba - u[a]
        if params.boundary_extrapolation:
            if smooth:
                sg = ssgn(d0 * d_b, tau_h)
            else:
                sg = 1.0 if d0 * d_b > 0.0 else -1.0
            d_sym = d0 + d_b * sg
        else:
            d_sym = d0
        r_sym = r_ab
    else:
        from .assembly import eval_in_cells
        cells = np.array(sp.cells, dtype=np.int64)
        pts = np.broadcast_to(sp.point, (len(cells), 2))
        weights = np.clip(eval_in_cells(nodes.mesh, cells, pts), 0.0, 1.0)
        ids = 4 * cells[:, None] + np.arange(4)[None, :]
        vals = np.einsum("ck,ck->c", weights, u[ids] - u[a])
        d_sym = float(vals.max())
        r_sym = sp.distance
    jump = d_b / r_ab + d_sym / r_sym
    mean = 0.5 * (float(_absval(d_b)) / r_ab + float(_absval(d_sym)) / r_sym)
    return jump, mean

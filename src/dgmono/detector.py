"""Shock detector alpha_a in raw and smoothed (twice-differentiable) modes.

The detector compares, per node, the magnitude of the summed gradient jumps
against the summed one-sided gradient magnitudes over all node pairs of the
adjacency.  Both quantities are accumulated from one shared flat term array,
so at a discrete local extremum (all terms of one sign) the ratio is exactly
1 in floating point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .mesh import DgNodeSet, symmetric_points_batch

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


def z_ramp(x):
    """C^2 ramp onto [0, 1] with Z(x >= 1) = 1: the quartic
    2x^4 - 5x^3 + 3x^2 + x, with Z(0)=0, Z'(0)=1 and Z'(1)=Z''(1)=0."""
    x = np.asarray(x, dtype=float)
    return np.where(x >= 1.0, 1.0, x * (x * (x * (2 * x - 5) + 3) + 1))


def _z_ramp_slope(x):
    """dZ/dx; 0 where Z saturates (x >= 1)."""
    return np.where(x >= 1.0, 0.0, x * (x * (8 * x - 15) + 6) + 1)


# -- pair topology ------------------------------------------------------------

class PairTopology:
    """Flattened node-pair data for vectorized detector evaluation.

    Every adjacency pair (a, b), in the order of
    :meth:`~dgmono.mesh.DgNodeSet.adjacency_pairs`, has a pair leg
    ``pair_w * (u_b - u_a)``, with ``pair_w`` 2/(h_a + h_b) for coincident
    pairs (x_a == x_b) and 1/|x_b - x_a| for the others.  A non-coincident
    pair is regular, with candidate interpolation stencils at its symmetric
    point, or boundary-degenerate (the symmetric point collapses onto x_a),
    with an extrapolated leg instead.
    """

    def __init__(self, nodes: DgNodeSet):
        self.nodes = nodes
        pa, pb = nodes.adjacency_pairs()
        h_own = nodes.mesh.h_cell[nodes.node_cell]

        coinc = nodes.node_vertex[pb] == nodes.node_vertex[pa]
        self.pair_w = 2.0 / (h_own[pa] + h_own[pb])

        # the symmetric point, its owning cells and their Q1 weights depend
        # only on the vertices of a and b: compute them once per vertex pair
        # (one representative node pair each) and expand by the inverse index
        other = np.flatnonzero(~coinc)
        ra, rb = pa[other], pb[other]
        vkey = (nodes.node_vertex[ra] * nodes.mesh.n_vertices
                + nodes.node_vertex[rb])
        _, rep, inv = np.unique(vkey, return_index=True, return_inverse=True)
        sb = symmetric_points_batch(nodes, ra[rep], rb[rep])
        r = nodes.coords[rb] - nodes.coords[ra]
        self.pair_w[other] = 1.0 / np.hypot(r[:, 0], r[:, 1])

        # positions of the degenerate pairs among the adjacency pairs
        deg = sb.degenerate[inv]
        self.dg_pair = other[deg]
        self.dg_a = pa[self.dg_pair]
        self.dg_b = pb[self.dg_pair]
        self.dg_w = self.pair_w[self.dg_pair]

        reg = ~deg
        v_reg = inv[reg]
        self.reg_a = ra[reg]
        self.reg_ws = 1.0 / sb.distance[v_reg]

        # candidates of each vertex pair (degenerate ones own no cell), then
        # gathered per regular node pair in the same (pair, cell) order
        v_counts = sb.owner.sum(axis=1)
        v_ptr = np.cumsum(v_counts) - v_counts
        counts = v_counts[v_reg]
        if np.any(counts == 0):
            raise RuntimeError("symmetric point with no owning cell")
        self.cand_ptr = np.concatenate([[0], np.cumsum(counts)])
        if counts.sum():
            from .assembly import eval_in_cells
            cells = sb.cells[sb.owner]
            pts = np.repeat(sb.point, v_counts, axis=0)
            weights = np.clip(eval_in_cells(nodes.mesh, cells, pts), 0.0, 1.0)
            take = (np.repeat(v_ptr[v_reg] - self.cand_ptr[:-1], counts)
                    + np.arange(self.cand_ptr[-1]))
            self.cand_weights = weights[take]
            self.cand_nodes = 4 * cells[take, None] + np.arange(4)[None, :]
            self.cand_a = np.repeat(self.reg_a, counts)
            # position of each candidate among the cells at a's vertex
            self.cand_local = np.nonzero(sb.owner)[1][take]
        else:
            self.cand_weights = np.zeros((0, 4))
            self.cand_nodes = np.zeros((0, 4), dtype=np.int64)
            self.cand_a = np.zeros(0, dtype=np.int64)
            self.cand_local = np.zeros(0, dtype=np.int64)

        # boundary index of the degenerate-pair owners (must be boundary nodes)
        if len(self.dg_a):
            self.dg_bidx = nodes.boundary_index[self.dg_a]
            if np.any(self.dg_bidx < 0):
                raise RuntimeError("degenerate pair at a non-boundary node")
        else:
            self.dg_bidx = np.zeros(0, dtype=np.int64)

        # fixed flat layout: [pair legs, symmetric legs, extrapolated legs]
        self.term_idx = np.concatenate([pa, self.reg_a, self.dg_a])

        # largest term weight; scales the rounding-noise floor of the detector
        self.w_max = max((float(w.max()) for w in (self.pair_w, self.reg_ws)
                          if len(w)), default=0.0)

    @functools.cached_property
    def slots(self):
        """The :class:`TermSlots` of the Jacobian, built on first use."""
        return TermSlots(self)


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
    n = len(cand)
    hit = cand == np.repeat(s, np.diff(topo.cand_ptr))
    return np.minimum.reduceat(np.where(hit, np.arange(n), n),
                               topo.cand_ptr[:-1])


def _boundary_value(topo, u, trace):
    """ubar_a per degenerate pair; nodes without Dirichlet data use u_a."""
    uba = u[topo.dg_a].copy()
    if trace is not None and len(topo.dg_a):
        has = trace.dirichlet[topo.dg_bidx]
        uba[has] = trace.values[topo.dg_bidx[has]]
    return uba


def _term_values(topo, u, trace, params, scales, s_sym):
    pa, pb = topo.nodes.adjacency_pairs()
    t_pair = topo.pair_w * (u[pb] - u[pa])
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
    return np.concatenate([t_pair, t_sym, t_dgs])


def _term_slopes(topo, u, trace, params, scales, choice, slope):
    """slope[t] d(term t)/du for every term t, in the entry layout of
    :class:`TermSlots`: (fixed, sym), with ``sym`` the (n_reg, 4) symmetric
    legs at the nodes of candidate ``choice[i]`` of regular pair i and
    ``fixed`` every other entry.  Smoothed mode only."""
    n_dg = len(topo.dg_a)
    sl_pair, sl_sym, sl_dgs = np.split(
        slope, np.cumsum([len(topo.pair_w), len(topo.reg_a)]))
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

    w_pair = topo.pair_w * sl_pair
    fixed = np.concatenate([
        w_pair, -w_pair, -w_sym.sum(axis=1) * sl_sym,
        topo.dg_w * s_a * sl_dgs, topo.dg_w * s_b * sl_dgs])
    return fixed, w_sym * sl_sym[:, None]


class TermSlots:
    """Where the entries of :func:`_term_slopes` land in the node pattern S
    (:class:`~dgmono.mesh.NodePattern`); each entry's row is its term's
    node.

    ``fixed`` holds the slots of the entries at fixed columns: pair legs
    at (b, a) of every adjacency pair, symmetric legs at reg_a and
    extrapolated legs at (dg_a, dg_b).  ``cand`` (n_cand, 4) holds, per
    candidate cell of a regular pair, the slots of its four nodes; the
    symmetric legs take the rows of the chosen candidates.
    """

    def __init__(self, topo):
        S = topo.nodes.pattern()
        pa = topo.nodes.adjacency_pairs()[0]
        self.fixed = np.concatenate([S.pairs, S.diag[pa], S.diag[topo.reg_a],
                                     S.diag[topo.dg_a], S.pairs[topo.dg_pair]])
        self.cand = S.cell_slots(topo.cand_a, topo.cand_local)


class _SmoothedBranch(NamedTuple):
    """The smoothed detector at one candidate assignment: the term values
    and, per node, the summed terms, the smoothed denominator, the ratio
    zeta, the ramp Z(zeta) and the clipped alpha = Z^q."""

    vals: np.ndarray
    num: np.ndarray
    den_s: np.ndarray
    zeta: np.ndarray
    z: np.ndarray
    alpha: np.ndarray


def _smoothed_branch(topo, vals, params, scales, n):
    tau_h = scales.tau_h
    num = np.bincount(topo.term_idx, weights=vals, minlength=n)
    den = np.bincount(topo.term_idx, weights=abs_lower(vals, tau_h),
                      minlength=n)
    num_s = abs_upper(num, tau_h) + scales.gamma_h
    den_s = den + scales.gamma_h
    zeta = np.divide(num_s, den_s, out=np.zeros(n), where=den_s > 0.0)
    z = z_ramp(zeta)
    return _SmoothedBranch(vals, num, den_s, zeta, z,
                           np.clip(z**params.q, 0.0, 1.0))


def _branch_slope(topo, br, params, scales, n):
    """d alpha_a / d t for every term t of node a = term_idx[t]: q Z^(q-1)
    Z'(zeta), then the quotient rule on zeta = (abs_upper(num) + gamma) /
    (den + gamma); zero where the clip to [0, 1] binds."""
    tau_h = scales.tau_h
    zq = br.z**params.q
    with np.errstate(divide="ignore", invalid="ignore"):
        d_z = params.q * br.z**(params.q - 1.0) * _z_ramp_slope(br.zeta)
    d_z[~np.isfinite(d_z) | (zq < 0.0) | (zq > 1.0)] = 0.0
    c = np.divide(d_z, br.den_s, out=np.zeros(n), where=br.den_s > 0.0)
    i = topo.term_idx
    return c[i] * (ssgn(br.num, tau_h)[i]
                   - br.zeta[i] * _abs_lower_slope(br.vals, tau_h))


def _raw_alpha(topo, vals, params, n, noise):
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


class DetectorPass:
    """The detector evaluated once at state u.

    ``alpha`` is the maximum over admissible symmetric-point values,
    evaluated at the all-max and all-min candidate assignments (one
    assignment when they coincide).  The pass keeps its candidate values,
    the assignments and, in smoothed mode, each assignment's term values
    and ratios, so :meth:`jacobian` derives d alpha/du from them without
    evaluating the detector again.
    """

    def __init__(self, nodes, u, trace, params, scales):
        self.nodes, self.trace = nodes, trace
        self.params, self.scales = params, scales
        n = nodes.n_nodes
        bad = np.count_nonzero(~np.isfinite(u))
        if bad:
            raise ValueError(f"detector state has {bad} non-finite entries")
        if not params.enabled:
            self.alpha = np.zeros(n)
            return
        topo = nodes.pair_topology()
        self.u = u = np.asarray(u, dtype=float)
        self.cand = _candidate_values(topo, u)
        s_hi, s_lo = _symmetric_candidates(topo, self.cand)
        self.sides = [s_hi] if np.array_equal(s_hi, s_lo) else [s_hi, s_lo]
        if params.mode == "raw":
            u_scale = float(np.abs(u).max(initial=0.0))
            if trace is not None and len(trace.values):
                u_scale = max(u_scale, float(np.abs(trace.values).max()))
            noise = 64.0 * np.finfo(float).eps * topo.w_max * u_scale
            alphas = [_raw_alpha(topo, self._terms(s), params, n, noise)
                      for s in self.sides]
        else:
            self.branches = [_smoothed_branch(topo, self._terms(s), params,
                                              scales, n) for s in self.sides]
            alphas = [br.alpha for br in self.branches]
        self.alpha = functools.reduce(np.maximum, alphas)

    def _terms(self, s_sym):
        return _term_values(self.nodes.pair_topology(), self.u, self.trace,
                            self.params, self.scales, s_sym)

    def jacobian(self):
        """d alpha/du as a CSR matrix in the node pattern S; smoothed mode
        only.

        Where the detector is not smooth, the derivative is that of the
        active branch: at each regular pair, the first candidate cell
        attaining the max (all-max assignment) or the min (all-min); at each
        node, the assignment np.maximum(a_hi, a_lo) keeps (all-max on ties);
        and zero where the ramp saturates (zeta >= 1) or the clip to [0, 1]
        binds.
        """
        n, params = self.nodes.n_nodes, self.params
        if not params.enabled:
            return sp.csr_matrix((n, n))
        if params.mode != "smoothed":
            raise ValueError("the detector Jacobian needs the smoothed mode")
        topo, scales = self.nodes.pair_topology(), self.scales
        hi, *lo = self.branches
        slope = _branch_slope(topo, hi, params, scales, n)
        choice = _first_attaining(topo, self.cand, self.sides[0])
        if lo:
            on_lo = lo[0].alpha > hi.alpha
            slope = np.where(on_lo[topo.term_idx],
                             _branch_slope(topo, lo[0], params, scales, n),
                             slope)
            choice = np.where(on_lo[topo.reg_a],
                              _first_attaining(topo, self.cand, self.sides[1]),
                              choice)
        fixed, sym = _term_slopes(topo, self.u, self.trace, params, scales,
                                  choice, slope)
        S, slots = self.nodes.pattern(), topo.slots
        data = np.bincount(slots.fixed, weights=fixed, minlength=S.nnz)
        data += np.bincount(slots.cand[choice].ravel(), weights=sym.ravel(),
                            minlength=S.nnz)
        return S.matrix(data)


def alpha_all(nodes, u, trace, params, scales):
    """Detector values for all nodes (one :class:`DetectorPass`)."""
    return DetectorPass(nodes, u, trace, params, scales).alpha


def alpha_jacobian(nodes, u, trace, params, scales):
    """(alpha, d alpha/du) of the smoothed detector at state u.

    alpha is bitwise equal to :func:`alpha_all`; d alpha/du is a CSR matrix
    in the node pattern with the branch rules of
    :meth:`DetectorPass.jacobian`.
    """
    state = DetectorPass(nodes, u, trace, params, scales)
    return state.alpha, state.jacobian()

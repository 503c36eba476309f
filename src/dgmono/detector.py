"""Shock detector alpha_a in raw and smoothed (twice-differentiable) modes.

The detector compares, per node, the magnitude of the summed gradient jumps
against the summed one-sided gradient magnitudes over all node pairs of the
adjacency.  Both sums are taken in one order: per node a,

    (P_a + E_a) + G_a,

with P_a the sum of a's pair legs by ``np.add.reduceat`` over a's row of the
node pattern S, E_a that of its extrapolated legs and G_a that of its group
legs (each group's symmetric leg times its number of pairs), both by
``np.bincount``.  The summation tree of each part depends only on the node,
not on the values, and negation and the magnitude of an integer multiple are
exact, so at a discrete local extremum (all terms of one sign) the sum of
the magnitudes is the magnitude of the sum and the raw ratio is exactly 1 in
floating point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .assembly import eval_in_cells
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
    the mesh-dependent values are produced by :meth:`derived`.  ``sigma_h``
    and ``tau_h``, when given, bypass the mesh scaling and are used verbatim
    (the benchmark literature quotes such values directly); gamma is not
    scaled.  ``Q`` is the mass-lumping exponent; with alpha in [0, 1],
    ``inf`` lumps only where alpha == 1, as the plain power alpha**inf
    does.
    """

    mode: str = "smoothed"
    q: float = 10.0
    Q: Optional[float] = None
    sigma: Optional[float] = None
    tau: Optional[float] = None
    gamma: Optional[float] = None
    sigma_h: Optional[float] = None
    tau_h: Optional[float] = None
    enabled: bool = True
    boundary_extrapolation: bool = True

    def __post_init__(self):
        for name in ("enabled", "boundary_extrapolation"):
            val = getattr(self, name)
            if not isinstance(val, bool):
                raise ValueError(f"{name} must be a bool, got {val!r}")
        if self.mode not in ("raw", "smoothed"):
            raise ValueError(f"unknown detector mode {self.mode!r}")
        if self.mode == "raw":
            for name in ("sigma", "tau", "gamma", "sigma_h", "tau_h"):
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
        for name in ("q", "Q"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"exponent {name} must be positive, got "
                                 f"{getattr(self, name)!r}")
        for name in ("sigma", "tau", "gamma", "sigma_h", "tau_h"):
            val = getattr(self, name)
            if val is not None and not 0.0 <= val < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {val!r}")

    def derived(self, h, beta_norm):
        """sigma_h, tau_h, gamma_h for mesh size h and velocity scale |beta|.

        Direct ``sigma_h`` and ``tau_h`` overrides, when set, take
        precedence over the dimensionless inputs and their mesh scaling;
        gamma_h is gamma."""
        return DerivedScales(
            sigma_h=(self.sigma_h if self.sigma_h is not None
                     else self.sigma * beta_norm**2 * h**4),
            tau_h=(self.tau_h if self.tau_h is not None
                   else self.tau * h**2),
            gamma_h=self.gamma,
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
    r = x2 + tau_h
    den = r * np.sqrt(r)
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

    The symmetric leg u(x_sym) - u_a depends only on a and on b's vertex,
    not on which of the coincident nodes there b is.  So the regular pairs
    are grouped by (a, vertex of b): ``reg_group`` is each regular pair's
    group, and the candidates are stored once per group, group ``g`` owning
    ``cand_ptr[g]:cand_ptr[g + 1]``, with ``grp_a`` its node, ``grp_pairs``
    its number of regular pairs, ``grp_ws`` the weight 1/|x_sym - x_a| of
    its symmetric leg and ``cand_group`` the group of each candidate.
    """

    def __init__(self, nodes: DgNodeSet):
        self.nodes = nodes
        S = nodes.pattern()
        pa, pb = nodes.adjacency_pairs()

        # the pair legs are summed per row of S (np.add.reduceat), which
        # needs every row to hold a pair: a node's cell-mates are its pairs
        if np.any(np.diff(S.indptr) < 2):
            raise RuntimeError("node with no adjacency pair")

        # the weight 1/|x_b - x_a|, the symmetric point, its owning cells
        # and their Q1 weights depend only on the vertices of a and b, so
        # they are computed once per vertex pair (v, w), v != w, of the
        # vertex pattern W (NodePattern), from any node at each vertex
        v, w = S.vertex_pairs
        off = v != w
        node_at = np.empty(nodes.mesh.n_vertices, dtype=np.int64)
        node_at[nodes.node_vertex] = np.arange(nodes.n_nodes)
        sb = symmetric_points_batch(nodes, node_at[v[off]], node_at[w[off]])
        r = nodes.mesh.vertices[w[off]] - nodes.mesh.vertices[v[off]]
        weight = np.zeros(len(v))
        weight[off] = 1.0 / np.hypot(r[:, 0], r[:, 1])
        kind = np.zeros(len(v), dtype=np.int8)
        kind[off] = np.where(sb.degenerate, 1, 2)

        # an entry (a, v) of N W is the group (a, vertex of b) of the pairs
        # (a, b) with b at v, in key order (a, then v), of kind 0 where v is
        # a's vertex (coincident pairs), 1 where the symmetric point is
        # degenerate and 2 where it is regular.  The per-pair temporaries
        # are freed once used: a lower set-up heap peak
        grp_kind = kind[S.support_pair]
        sup = S.slot_support[S.pairs]
        pair_kind = grp_kind[sup]
        self.pair_w = weight[S.support_pair][sup]
        coinc = np.flatnonzero(pair_kind == 0)
        h_own = nodes.mesh.h_cell[nodes.node_cell]
        self.pair_w[coinc] = 2.0 / (h_own[pa[coinc]] + h_own[pb[coinc]])
        del coinc, h_own

        # positions of the degenerate pairs among the adjacency pairs
        self.dg_pair = np.flatnonzero(pair_kind == 1)
        self.dg_a = pa[self.dg_pair]
        self.dg_b = pb[self.dg_pair]
        self.dg_w = self.pair_w[self.dg_pair]

        # regular pairs and their groups, the groups numbered in key order
        grp = grp_kind == 2
        self.reg_group = (np.cumsum(grp) - 1)[sup[pair_kind == 2]]
        del sup, pair_kind
        self.grp_a = S.support_rows[grp].astype(np.int64)
        # each group's vertex pair, numbered as sb's rows
        v_grp = (np.cumsum(off) - 1)[S.support_pair[grp]]
        self.grp_pairs = np.bincount(self.reg_group,
                                     minlength=len(self.grp_a))
        self.grp_ws = 1.0 / sb.distance[v_grp]

        # candidates of each vertex pair (degenerate ones own no cell), then
        # gathered per group in the same (vertex pair, cell) order
        v_counts = sb.owner.sum(axis=1)
        v_ptr = np.cumsum(v_counts) - v_counts
        counts = v_counts[v_grp]
        if np.any(counts == 0):
            raise RuntimeError("symmetric point with no owning cell")
        self.cand_ptr = np.concatenate([[0], np.cumsum(counts)])
        cells = sb.cells[sb.owner]
        pts = np.repeat(sb.point, v_counts, axis=0)
        weights = np.clip(eval_in_cells(nodes.mesh, cells, pts), 0.0, 1.0)
        del sb, pts
        take = (np.repeat(v_ptr[v_grp] - self.cand_ptr[:-1], counts)
                + np.arange(self.cand_ptr[-1]))
        self.cand_weights = weights[take]
        self.cand_nodes = 4 * cells[take, None] + np.arange(4)[None, :]
        del weights, cells, take
        self.cand_group = np.repeat(np.arange(len(counts)), counts)
        self.cand_a = self.grp_a[self.cand_group]

        # boundary index of the degenerate-pair owners (must be boundary nodes)
        self.dg_bidx = nodes.boundary_index[self.dg_a]
        if np.any(self.dg_bidx < 0):
            raise RuntimeError("degenerate pair at a non-boundary node")

        # largest term weight; scales the rounding-noise floor of the detector
        self.w_max = float(max(self.pair_w.max(),
                               self.grp_ws.max(initial=0.0)))

    @functools.cached_property
    def cand_slots(self):
        """(n_cand, 4): per candidate cell of a group, the slots in the node
        pattern S of its four nodes in the row of the group's a, built on
        first use (:meth:`DetectorPass.jacobian`).  The cell lies at a's
        vertex, so the nodes are consecutive in that row."""
        first = self.nodes.pattern().slots(self.cand_a, self.cand_nodes[:, 0])
        return first[:, None] + np.arange(4, dtype=np.int32)


def build_pair_topology(nodes):
    return PairTopology(nodes)


# -- detector evaluation ------------------------------------------------------

def _candidate_values(topo, u):
    """Per candidate cell of a group: u(x_sym) - u_a, for a = the group's
    node and x_sym its symmetric point (shared by the group's pairs)."""
    diffs = u[topo.cand_nodes] - u[topo.cand_a][:, None]
    return np.einsum("ck,ck->c", topo.cand_weights, diffs)


def _symmetric_candidates(topo, cand):
    """Per group: extreme candidate values over the owning cells."""
    s_hi = np.maximum.reduceat(cand, topo.cand_ptr[:-1])
    s_lo = np.minimum.reduceat(cand, topo.cand_ptr[:-1])
    return s_hi, s_lo


def _first_attaining(topo, cand, s):
    """Per group: index of the first candidate whose value is s."""
    n = len(cand)
    hit = cand == s[topo.cand_group]
    return np.minimum.reduceat(np.where(hit, np.arange(n), n),
                               topo.cand_ptr[:-1])


def _extrapolated_legs(topo, u, trace, params, scales):
    """(t, t_a, t_b) per degenerate pair: its extrapolated leg t and the
    slopes dt/du_a and dt/du_b.

    The symmetric point of a degenerate boundary pair collapses onto x_a,
    so the extrapolated value ubar_a + (u_b - u_a) sgn(d0 db), with
    d0 = ubar_a - u_a and db = u_b - u_a, stands in for u_sym.  ubar_a is
    the Dirichlet value where there is one and u_a itself elsewhere (d0 is
    then 0 and does not depend on u_a).  Ties resolve toward -1 so that
    affine states (d0 == 0) yield an exactly cancelling leg pair and the
    detector stays silent.  The raw sign's slope is taken as 0."""
    ua = u[topo.dg_a]
    d0, d0_a = np.zeros(len(ua)), np.zeros(len(ua))
    if trace is not None:
        has = trace.dirichlet[topo.dg_bidx]
        d0[has] = trace.values[topo.dg_bidx[has]] - ua[has]
        d0_a[has] = -1.0
    w = topo.dg_w
    if not params.boundary_extrapolation:
        return w * d0, w * d0_a, np.zeros(len(ua))
    db = u[topo.dg_b] - ua
    x = d0 * db
    if params.mode == "raw":
        sg, sg_x = np.where(x > 0.0, 1.0, -1.0), 0.0
    else:
        sg, sg_x = ssgn(x, scales.tau_h), _ssgn_slope(x, scales.tau_h)
    return (w * (d0 + db * sg), w * (d0_a - sg + db * sg_x * (db * d0_a - d0)),
            w * (sg + db * sg_x * d0))


class _SmoothedBranch(NamedTuple):
    """The smoothed detector at one candidate assignment: the symmetric-leg
    values per group and, per node, the summed terms, the smoothed
    denominator, the ratio zeta, the ramp Z(zeta) and the clipped
    alpha = Z^q."""

    t_sym: np.ndarray
    num: np.ndarray
    den_s: np.ndarray
    zeta: np.ndarray
    z: np.ndarray
    alpha: np.ndarray


def _smoothed_branch(t_sym, num, den, params, scales):
    """The branch of the symmetric legs ``t_sym`` per group, with ``num``
    and ``den`` the per-node sums of its terms and of their abs_lower."""
    num_s = abs_upper(num, scales.tau_h) + scales.gamma_h
    den_s = den + scales.gamma_h
    zeta = np.divide(num_s, den_s, out=np.zeros(len(num)), where=den_s > 0.0)
    z = z_ramp(zeta)
    return _SmoothedBranch(t_sym, num, den_s, zeta, z,
                           np.clip(z**params.q, 0.0, 1.0))


def _node_slopes(br, params, scales, n):
    """(c, ssgn(num), zeta) per node a as rows of a (3, n) array, with
    d alpha_a/d t = c_a (ssgn(num_a) - zeta_a d abs_lower(t)/dt) for every
    term t of a (:func:`_leg_slopes`): c is q Z^(q-1) Z'(zeta) / den_s, by
    the quotient rule on zeta = (abs_upper(num) + gamma) / (den + gamma),
    and zero where the clip to [0, 1] binds."""
    zq = br.z**params.q
    with np.errstate(divide="ignore", invalid="ignore"):
        d_z = params.q * br.z**(params.q - 1.0) * _z_ramp_slope(br.zeta)
    d_z[~np.isfinite(d_z) | (zq < 0.0) | (zq > 1.0)] = 0.0
    c = np.divide(d_z, br.den_s, out=np.zeros(n), where=br.den_s > 0.0)
    return np.stack([c, ssgn(br.num, scales.tau_h), br.zeta])


def _leg_slopes(coef, t, tau_h):
    """d alpha_a/d t of terms with values ``t``, from the rows ``coef`` of
    :func:`_node_slopes` taken at each term's node a."""
    c, sg, zeta = coef
    return c * (sg - zeta * _abs_lower_slope(t, tau_h))


def _raw_alpha(num, den, params, noise):
    """Raw alpha from the per-node sums ``num`` of the terms and ``den`` of
    their magnitudes."""
    ratio = np.divide(np.abs(num), den, out=np.zeros(len(num)),
                      where=den > 0.0)
    ratio[ratio <= RATIO_SNAP] = 0.0
    # cancellation leaves rounding noise proportional to |u|, not to the
    # local variation; treat sums below that floor as exact zeros
    ratio[np.abs(num) <= noise] = 0.0
    return np.clip(ratio, 0.0, 1.0)**params.q


class DetectorPass:
    """The detector evaluated once at state u.

    ``alpha`` is the maximum over admissible symmetric-point values,
    evaluated at the all-max and all-min candidate assignments (one
    assignment when they coincide).  The pass keeps its candidate values
    and the assignments, per group of :class:`PairTopology`, the pair and
    extrapolated legs (``legs``) and the extrapolated legs' slopes in u_a
    and u_b, and, in smoothed mode, each assignment's symmetric legs and
    its per-node sums and ratios, so :meth:`jacobian` derives d alpha/du
    from them without evaluating the detector again.
    """

    def __init__(self, nodes, u, trace, params, scales):
        self.nodes, self.params, self.scales = nodes, params, scales
        n = nodes.n_nodes
        bad = np.count_nonzero(~np.isfinite(u))
        if bad:
            raise ValueError(f"detector state has {bad} non-finite entries")
        if not params.enabled:
            self.alpha = np.zeros(n)
            return
        topo, S = nodes.pair_topology(), nodes.pattern()
        u = np.asarray(u, dtype=float)
        self.cand = _candidate_values(topo, u)
        s_hi, s_lo = _symmetric_candidates(topo, self.cand)
        self.sides = [s_hi] if np.array_equal(s_hi, s_lo) else [s_hi, s_lo]
        raw = params.mode == "raw"
        mag = np.abs if raw else functools.partial(abs_lower,
                                                   tau_h=scales.tau_h)
        # the pair and extrapolated legs and their per-node sums are shared
        # by both assignments; each adds its group legs, a group's
        # symmetric leg times its number of regular pairs.  Row a of S
        # holds a's pairs and a itself, so a's pair legs start at
        # indptr[a] - a
        pa, pb = nodes.adjacency_pairs()
        t_pair = topo.pair_w * (u[pb] - u[pa])
        t_dgs, *self.dgs_slopes = _extrapolated_legs(topo, u, trace, params,
                                                     scales)
        self.legs = t_pair, t_dgs
        starts = S.indptr[:-1] - np.arange(n, dtype=S.indptr.dtype)

        def node_sums(t_p, t_d):
            return (np.add.reduceat(t_p, starts)
                    + np.bincount(topo.dg_a, weights=t_d, minlength=n))
        fixed = node_sums(t_pair, t_dgs)
        fixed_mag = node_sums(mag(t_pair), mag(t_dgs))

        def sums(s):
            """The symmetric legs of the assignment s and, per node, the
            sums of its terms and of their magnitudes."""
            t_sym = topo.grp_ws * s
            k = topo.grp_pairs
            return (t_sym,
                    fixed + np.bincount(topo.grp_a, weights=k * t_sym,
                                        minlength=n),
                    fixed_mag + np.bincount(topo.grp_a,
                                            weights=k * mag(t_sym),
                                            minlength=n))

        if raw:
            u_scale = float(np.abs(u).max(initial=0.0))
            if trace is not None:
                u_scale = max(u_scale,
                              float(np.abs(trace.values).max(initial=0.0)))
            noise = 64.0 * np.finfo(float).eps * topo.w_max * u_scale
            alphas = [_raw_alpha(*sums(s)[1:], params, noise)
                      for s in self.sides]
        else:
            self.branches = [_smoothed_branch(*sums(s), params, scales)
                             for s in self.sides]
            alphas = [br.alpha for br in self.branches]
        self.alpha = functools.reduce(np.maximum, alphas)

    def jacobian(self):
        """d alpha/du as a CSR matrix in the node pattern S (zeros with the
        stabilization disabled); smoothed mode only.

        Where the detector is not smooth, the derivative is that of the
        active branch: at each group, the first candidate cell attaining
        the max (all-max assignment) or the min (all-min); at each node,
        the assignment np.maximum(a_hi, a_lo) keeps (all-max on ties); and
        zero where the ramp saturates (zeta >= 1) or the clip to [0, 1]
        binds.
        """
        n, params, S = self.nodes.n_nodes, self.params, self.nodes.pattern()
        if not params.enabled:
            return S.matrix(np.zeros(S.nnz))
        if params.mode != "smoothed":
            raise ValueError("the detector Jacobian needs the smoothed mode")
        topo, scales = self.nodes.pair_topology(), self.scales
        hi, *lo = self.branches
        coef = _node_slopes(hi, params, scales, n)
        t_sym = hi.t_sym
        choice = _first_attaining(topo, self.cand, self.sides[0])
        if lo:
            # the all-min branch differs only in the symmetric legs; its
            # per-node factors and legs replace the all-max ones where it wins
            on_lo = lo[0].alpha > hi.alpha
            grp_lo = on_lo[topo.grp_a]
            coef = np.where(on_lo, _node_slopes(lo[0], params, scales, n),
                            coef)
            t_sym = np.where(grp_lo, lo[0].t_sym, t_sym)
            choice = np.where(grp_lo,
                              _first_attaining(topo, self.cand, self.sides[1]),
                              choice)
        # d alpha_a/d t per leg; every regular pair of a group has the
        # group's symmetric leg, whose slopes in u are the weights of
        # u(x_sym) at the nodes of the chosen candidate and minus their sum
        # at a.  The pair legs of a are its row of S less the diagonal
        t_pair, t_dgs = self.legs
        tau_h = scales.tau_h
        pa = self.nodes.adjacency_pairs()[0]
        row_pairs = np.diff(S.indptr) - 1
        w_pair = topo.pair_w * _leg_slopes(np.repeat(coef, row_pairs, axis=1),
                                           t_pair, tau_h)
        sl_grp = topo.grp_pairs * _leg_slopes(coef[:, topo.grp_a], t_sym,
                                              tau_h)
        w_grp = topo.grp_ws[:, None] * topo.cand_weights[choice]
        sl_dgs = _leg_slopes(coef[:, topo.dg_a], t_dgs, tau_h)
        dgs_a, dgs_b = self.dgs_slopes
        # each slot sums its entries in the order pair legs, symmetric legs,
        # extrapolated legs, candidate cells
        data = np.empty(S.nnz)
        data[S.pairs] = w_pair
        data[S.diag] = np.bincount(
            np.concatenate([pa, topo.grp_a, topo.dg_a]),
            weights=np.concatenate([-w_pair, -w_grp.sum(axis=1) * sl_grp,
                                    dgs_a * sl_dgs]), minlength=n)
        data[S.pairs[topo.dg_pair]] += dgs_b * sl_dgs
        data += np.bincount(topo.cand_slots[choice].ravel(),
                            weights=(w_grp * sl_grp[:, None]).ravel(),
                            minlength=S.nnz)
        return S.matrix(data)


def alpha_all(nodes, u, trace, params, scales):
    """Detector values for all nodes (one :class:`DetectorPass`)."""
    return DetectorPass(nodes, u, trace, params, scales).alpha


"""Graph-viscosity stabilization: perturbed operators, residuals and auditing.

The viscosities are evaluated on precomputed pair tables (unordered adjacent
node pairs for nu, node x boundary-node pairs for nu_boundary), so a full
rebuild per nonlinear iterate is a handful of vectorized passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (ProblemSpec, assemble_B, assemble_G, assemble_K,
                       assemble_M, dirichlet_boundary_nodes,
                       interpolate_boundary)
from .detector import (StabilizationParams, alpha_all, alpha_jacobian,
                       smax, ssgn)
from .mesh import classify_facets


@dataclass
class GraphViscosity:
    """Edge viscosities: symmetric nu per unordered pair, boundary nu, and
    the compensating diagonal nu_aa = sum(nu) + sum(nu_boundary) per row."""

    pair_a: np.ndarray
    pair_b: np.ndarray
    nu: np.ndarray
    bpair_a: np.ndarray      # row node
    bpair_col: np.ndarray    # boundary column index
    nu_boundary: np.ndarray
    diag: np.ndarray

    @property
    def is_zero(self):
        return (not self.nu.any()) and (not self.nu_boundary.any())


class PairTables:
    """Adjacency pair tables with the frozen K/B entries used by nu."""

    def __init__(self, nodes, K, B):
        from .detector import _enumerate_pairs
        pa, pb = _enumerate_pairs(nodes)  # ordered pairs, a != b
        keep = pb > pa
        self.pair_a = pa[keep]
        self.pair_b = pb[keep]
        self.K_ab = np.asarray(K[self.pair_a, self.pair_b]).ravel()
        self.K_ba = np.asarray(K[self.pair_b, self.pair_a]).ravel()

        # (row, boundary column) pairs: a in N(bn) for each boundary node bn,
        # including bn itself
        on_b = nodes.boundary_index[pa] >= 0
        self.bpair_a = np.concatenate([pb[on_b], nodes.boundary_nodes])
        self.bpair_col = np.concatenate(
            [nodes.boundary_index[pa[on_b]],
             nodes.boundary_index[nodes.boundary_nodes]])
        self.B_ab = np.asarray(B[self.bpair_a, self.bpair_col]).ravel()


def build_viscosity(tables: PairTables, alpha, params, scales, n_nodes):
    """nu_ab = max{a_a K_ab, 0, a_b K_ba} and nu_b = max{-a_a B_ab, 0};
    smoothed mode uses the nested smoothed maximum, floored by the raw value
    so the DMP sign conditions hold exactly."""
    xa = alpha[tables.pair_a] * tables.K_ab
    xb = alpha[tables.pair_b] * tables.K_ba
    nu = np.maximum(np.maximum(xa, 0.0), xb)
    xd = -alpha[tables.bpair_a] * tables.B_ab
    nu_b = np.maximum(xd, 0.0)
    if params.mode == "smoothed":
        s = scales.sigma_h
        nu = np.maximum(nu, smax(0.0, smax(xa, xb, s), s))
        nu_b = np.maximum(nu_b, smax(xd, 0.0, s))
    diag = (np.bincount(tables.pair_a, weights=nu, minlength=n_nodes)
            + np.bincount(tables.pair_b, weights=nu, minlength=n_nodes)
            + np.bincount(tables.bpair_a, weights=nu_b, minlength=n_nodes))
    return GraphViscosity(pair_a=tables.pair_a, pair_b=tables.pair_b, nu=nu,
                          bpair_a=tables.bpair_a, bpair_col=tables.bpair_col,
                          nu_boundary=nu_b, diag=diag)


def viscosity_slopes(tables: PairTables, alpha, scales):
    """(d nu/d alpha_a, d nu/d alpha_b) per pair and d nu_b/d alpha_a per
    boundary pair of the smoothed viscosities.

    For sigma_h > 0 the raw floor in :func:`build_viscosity` never binds,
    because smax(x, y) > max(x, y), so these are the derivatives of the
    nested smoothed maxima; d smax(x, y)/dx = (1 + ssgn(x - y)) / 2."""
    s = scales.sigma_h
    xa = alpha[tables.pair_a] * tables.K_ab
    xb = alpha[tables.pair_b] * tables.K_ba
    outer = 0.5 * (1.0 + ssgn(smax(xa, xb, s), s))
    inner = ssgn(xa - xb, s)
    d_a = outer * 0.5 * (1.0 + inner) * tables.K_ab
    d_b = outer * 0.5 * (1.0 - inner) * tables.K_ba
    xd = -alpha[tables.bpair_a] * tables.B_ab
    d_bd = -0.5 * (1.0 + ssgn(xd, s)) * tables.B_ab
    return d_a, d_b, d_bd


def build_stabilized(K, B, visc: GraphViscosity):
    """(K_tilde, B_tilde): K + graph-Laplacian viscosity, B + boundary nu."""
    n = K.shape[0]
    rows = np.concatenate([visc.pair_a, visc.pair_b, np.arange(n)])
    cols = np.concatenate([visc.pair_b, visc.pair_a, np.arange(n)])
    vals = np.concatenate([-visc.nu, -visc.nu, visc.diag])
    D = sp.coo_matrix((vals, (rows, cols)), shape=K.shape).tocsr()
    nu_b = sp.coo_matrix((visc.nu_boundary, (visc.bpair_a, visc.bpair_col)),
                         shape=B.shape).tocsr()
    return (K + D).tocsr(), (B + nu_b).tocsr()


def mass_blend(alpha, Q):
    """Lumping weight a^Q; Q = inf lumps only where alpha == 1."""
    if np.isinf(Q):
        return (alpha >= 1.0).astype(float)
    return alpha**Q


def lumped_mass_apply(M, m, alpha, Q, w):
    """Selectively lumped mass action: (1 - a^Q)(Mw)_a + a^Q w_a m_a."""
    blend = mass_blend(alpha, Q)
    return (1.0 - blend) * (M @ w) + blend * (w * m)


def lumped_mass_matrix(M, m, alpha, Q):
    """Matrix of :func:`lumped_mass_apply`: diag(1 - a^Q) M + diag(a^Q m)."""
    blend = mass_blend(alpha, Q)
    return sp.diags(1.0 - blend) @ M + sp.diags(blend * m)


def cfl_bound(m, Ktilde_diag, theta):
    """Largest positivity-preserving time step, min_a m_a/((1-theta) K_aa)."""
    if theta >= 1.0:
        return np.inf
    pos = Ktilde_diag > 0.0
    if not pos.any():
        return np.inf
    return float(np.min(m[pos] / ((1.0 - theta) * Ktilde_diag[pos])))


def audit_dmp(Ktilde, Btilde, alpha, rel_tol=1e-12):
    """Check the DMP conditions; returns a list of violation records.

    At every row with alpha == 1: off-diagonal K_tilde <= 0 and
    B_tilde >= 0; for all rows: sum_b K_tilde_ab - sum_b B_tilde_ab = 0
    relative to the matrix norm.
    """
    report = []
    scale = max(np.abs(Ktilde).max(), 1e-300)
    tol = rel_tol * scale

    rowsum = np.asarray(Ktilde.sum(axis=1)).ravel() - \
        np.asarray(Btilde.sum(axis=1)).ravel()
    for a in np.flatnonzero(np.abs(rowsum) > tol):
        report.append({"row": int(a), "condition": "row_sum",
                       "magnitude": float(abs(rowsum[a]))})

    flagged = np.flatnonzero(alpha >= 1.0)
    if len(flagged):
        Kc = Ktilde.tocsr()
        Bc = Btilde.tocsr()
        for a in flagged:
            row = Kc.getrow(a)
            for j, v in zip(row.indices, row.data):
                if j != a and v > tol:
                    report.append({"row": int(a), "condition": "K_offdiag",
                                   "magnitude": float(v)})
            row = Bc.getrow(a)
            for j, v in zip(row.indices, row.data):
                if v < -tol:
                    report.append({"row": int(a), "condition": "B_sign",
                                   "magnitude": float(-v)})
    return report


class StabilizedProblem:
    """Assembled problem plus everything needed to evaluate the nonlinear
    stabilized residual and rebuild the perturbed operators per iterate."""

    def __init__(self, mesh, nodes, spec: ProblemSpec,
                 params: StabilizationParams):
        self.mesh = mesh
        self.nodes = nodes
        self.spec = spec
        self.params = params
        self.classification = classify_facets(mesh, spec.beta)
        self.K = assemble_K(mesh, nodes, spec, self.classification)
        self.B = assemble_B(mesh, nodes, spec, self.classification)
        self.M = assemble_M(mesh, nodes)
        self.G = assemble_G(mesh, nodes, spec.g)
        self.beta_norm = spec.beta_max(mesh)
        self.scales = params.derived(mesh.h, self.beta_norm)
        self.tables = PairTables(nodes, self.K, self.B)
        self.dirichlet_mask = dirichlet_boundary_nodes(
            mesh, nodes, spec, self.classification)
        self.trace = None
        if spec.ubar is not None:
            self.trace = interpolate_boundary(nodes, spec.ubar,
                                              self.dirichlet_mask)

    # -- boundary data --------------------------------------------------------

    def set_boundary(self, ubar):
        """Re-interpolate Dirichlet data (for time-dependent conditions)."""
        self.trace = interpolate_boundary(self.nodes, ubar,
                                          self.dirichlet_mask)

    @property
    def ubar_vec(self):
        if self.trace is None:
            return np.zeros(self.nodes.n_boundary)
        return self.trace.values

    # -- nonlinear coefficient evaluation -------------------------------------

    def alpha(self, u):
        return alpha_all(self.nodes, u, self.trace, self.params, self.scales)

    def viscosity(self, u, alpha=None):
        """Graph viscosity at u; ``alpha``, the detector values at u, skips
        the detector pass when the caller already has them."""
        if not self.params.enabled:
            zero = np.zeros
            return GraphViscosity(
                pair_a=self.tables.pair_a, pair_b=self.tables.pair_b,
                nu=zero(len(self.tables.pair_a)),
                bpair_a=self.tables.bpair_a, bpair_col=self.tables.bpair_col,
                nu_boundary=zero(len(self.tables.bpair_a)),
                diag=zero(self.nodes.n_nodes))
        if alpha is None:
            alpha = self.alpha(u)
        return build_viscosity(self.tables, alpha, self.params, self.scales,
                               self.nodes.n_nodes)

    def operators(self, u, alpha=None):
        """(K_tilde, B_tilde) at the given state."""
        return build_stabilized(self.K, self.B, self.viscosity(u, alpha))

    def rhs(self, Btilde):
        return self.G + Btilde @ self.ubar_vec

    # -- residuals ------------------------------------------------------------

    def _apply_stabilized(self, visc, u):
        """K_tilde u - B_tilde ubar without building sparse matrices."""
        out = self.K @ u - self.B @ self.ubar_vec
        du = visc.nu * (u[visc.pair_a] - u[visc.pair_b])
        n = self.nodes.n_nodes
        out += np.bincount(visc.pair_a, weights=du, minlength=n)
        out -= np.bincount(visc.pair_b, weights=du, minlength=n)
        ub = self.ubar_vec
        bd = visc.nu_boundary * (u[visc.bpair_a] - ub[visc.bpair_col])
        out += np.bincount(visc.bpair_a, weights=bd, minlength=n)
        return out

    def residual_steady(self, u):
        """T(u) = K_tilde(u) u - G - B_tilde(u) ubar."""
        return self._apply_stabilized(self.viscosity(u), u) - self.G

    def residual_transient(self, u_new, u_old, dt, theta):
        """Theta-method residual; nonlinear coefficients at the stage state."""
        u_stage = theta * u_new + (1.0 - theta) * u_old
        alpha = self.alpha(u_stage)
        visc = self.viscosity(u_stage, alpha)
        mass = lumped_mass_apply(self.M, self.nodes.m, alpha, self.params.Q,
                                 u_new - u_old)
        return mass / dt + self._apply_stabilized(visc, u_stage) - self.G

    # -- Jacobian -------------------------------------------------------------

    def jacobian(self, u, dt=None, u_old=None, theta=1.0):
        """dT/du of :meth:`residual_steady`, or of :meth:`residual_transient`
        when (dt, u_old, theta) are given, as a CSC matrix.

        With s the stage state and C the viscosity slope, which holds
        (s_a - s_b) d nu_ab/d alpha over the pairs and (s_a - ubar)
        d nu_b/d alpha over the boundary pairs:

        - steady: J = K_tilde + C d alpha/du;
        - transient: J = M_tilde/dt + theta [K_tilde + (C + diag((m w - M w)
          Q alpha^(Q-1) / dt)) d alpha/du] with w = u - u_old.

        d alpha/du comes from :func:`alpha_jacobian`, so the smoothed mode
        is required; with the stabilization disabled J is K, or
        M/dt + theta K.
        """
        steady = dt is None
        s = u if steady else theta * u + (1.0 - theta) * u_old
        alpha, dalpha = alpha_jacobian(self.nodes, s, self.trace,
                                       self.params, self.scales)
        Kt, _ = self.operators(s, alpha)
        t = self.tables
        d_a, d_b, d_bd = viscosity_slopes(t, alpha, self.scales)
        ds = s[t.pair_a] - s[t.pair_b]
        dsb = s[t.bpair_a] - self.ubar_vec[t.bpair_col]
        rows = np.concatenate([t.pair_a, t.pair_a, t.pair_b, t.pair_b,
                               t.bpair_a])
        cols = np.concatenate([t.pair_a, t.pair_b, t.pair_a, t.pair_b,
                               t.bpair_a])
        vals = np.concatenate([ds * d_a, ds * d_b, -ds * d_a, -ds * d_b,
                               dsb * d_bd])
        C = sp.coo_matrix((vals, (rows, cols)), shape=Kt.shape).tocsr()
        if steady:
            return (Kt + C @ dalpha).tocsc()
        Q, m = self.params.Q, self.nodes.m
        w = u - u_old
        with np.errstate(divide="ignore", invalid="ignore"):
            d_blend = Q * alpha**(Q - 1.0)
        d_blend[~np.isfinite(d_blend)] = 0.0
        C = C + sp.diags((m * w - self.M @ w) * d_blend / dt)
        Mt = lumped_mass_matrix(self.M, m, alpha, Q)
        return (Mt / dt + theta * (Kt + C @ dalpha)).tocsc()

    def cfl_bound(self, u_stage, theta):
        Ktilde, _ = self.operators(u_stage)
        return cfl_bound(self.nodes.m, Ktilde.diagonal(), theta)

    def audit(self, u, rel_tol=1e-12):
        Ktilde, Btilde = self.operators(u)
        return audit_dmp(Ktilde, Btilde, self.alpha(u), rel_tol)

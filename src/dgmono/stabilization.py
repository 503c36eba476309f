"""Graph-viscosity stabilization: perturbed operators, residuals and auditing.

The viscosities are evaluated on precomputed pair tables (unordered adjacent
node pairs for nu, node x boundary-node pairs for nu_boundary), so a full
rebuild per nonlinear iterate is a handful of vectorized passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .assembly import (ProblemSpec, assemble_B, assemble_G, assemble_K,
                       assemble_M, dirichlet_boundary_nodes,
                       interpolate_boundary)
from .detector import DetectorPass, StabilizationParams, smax, ssgn
# alpha_all is not called here; it stays importable from this module
# because benchmark tracing wraps it by name.
from .detector import alpha_all  # noqa: F401
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
        pa, pb = nodes.adjacency_pairs()  # ordered pairs, a != b
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
    if len(alpha) != Ktilde.shape[0]:
        raise ValueError(f"alpha has {len(alpha)} entries for "
                         f"{Ktilde.shape[0]} operator rows")
    report = []
    scale = max(np.abs(Ktilde).max(), 1e-300)
    tol = rel_tol * scale

    rowsum = np.asarray(Ktilde.sum(axis=1)).ravel() - \
        np.asarray(Btilde.sum(axis=1)).ravel()
    for a in np.flatnonzero(np.abs(rowsum) > tol):
        report.append({"row": int(a), "condition": "row_sum",
                       "magnitude": float(abs(rowsum[a]))})

    # stored entries of the alpha == 1 rows that break a sign condition, by
    # row; within a row K_tilde's come first, each in CSR order
    flagged = np.asarray(alpha) >= 1.0
    Kc, Bc = Ktilde.tocsr(), Btilde.tocsr()
    k_row = np.repeat(np.arange(Kc.shape[0]), np.diff(Kc.indptr))
    b_row = np.repeat(np.arange(Bc.shape[0]), np.diff(Bc.indptr))
    k_bad = flagged[k_row] & (Kc.indices != k_row) & (Kc.data > tol)
    b_bad = flagged[b_row] & (Bc.data < -tol)
    rows = np.concatenate([k_row[k_bad], b_row[b_bad]])
    mags = np.concatenate([Kc.data[k_bad], -Bc.data[b_bad]])
    is_b = np.repeat([False, True], [k_bad.sum(), b_bad.sum()])
    for i in np.argsort(rows, kind="stable"):
        report.append({"row": int(rows[i]),
                       "condition": "B_sign" if is_b[i] else "K_offdiag",
                       "magnitude": float(mags[i])})
    return report


class Linearization:
    """The stabilized scheme at one iterate u, fixed by its stage state s.

    s is u when steady and theta u + (1 - theta) u_old on a theta-step from
    u_old over dt.  The detector alpha(s) is evaluated once, on
    construction, as a :class:`DetectorPass`; everything else derives from
    it on first use and is kept: the viscosity nu(s), the operators
    (K_tilde, B_tilde), the selectively lumped mass M_tilde, the
    lagged-coefficient Picard system (A, rhs), the matrix-free residual
    T(u) and its exact Jacobian dT/du.  A non-finite u or u_old raises
    ValueError.
    """

    def __init__(self, problem, u, dt=None, u_old=None, theta=1.0):
        for name, v in (("u_old", u_old), ("u", u)):
            bad = 0 if v is None else np.count_nonzero(~np.isfinite(v))
            if bad:
                raise ValueError(f"{name} has {bad} non-finite entries")
        self.problem = problem
        self.u = u
        self.dt, self.u_old, self.theta = dt, u_old, theta
        self.s = u if dt is None else theta * u + (1.0 - theta) * u_old
        self.detector = DetectorPass(problem.nodes, self.s, problem.trace,
                                     problem.params, problem.scales)
        self.alpha = self.detector.alpha

    def at(self, v):
        """The same (steady or theta-step) scheme linearized at iterate v."""
        return Linearization(self.problem, v, self.dt, self.u_old, self.theta)

    @cached_property
    def visc(self):
        """Graph viscosity nu(s).  Zero when the stabilization is disabled:
        build_viscosity would not give that, since smax(0, 0) > 0."""
        p, t = self.problem, self.problem.tables
        if not p.params.enabled:
            return GraphViscosity(
                pair_a=t.pair_a, pair_b=t.pair_b, nu=np.zeros(len(t.pair_a)),
                bpair_a=t.bpair_a, bpair_col=t.bpair_col,
                nu_boundary=np.zeros(len(t.bpair_a)),
                diag=np.zeros(p.nodes.n_nodes))
        return build_viscosity(t, self.alpha, p.params, p.scales,
                               p.nodes.n_nodes)

    @cached_property
    def operators(self):
        """(K_tilde, B_tilde)."""
        p = self.problem
        return build_stabilized(p.K, p.B, self.visc)

    @cached_property
    def mass(self):
        """M_tilde, the mass matrix lumped with weight alpha^Q."""
        p = self.problem
        return lumped_mass_matrix(p.M, p.nodes.m, self.alpha, p.params.Q)

    @cached_property
    def system(self):
        """(A, rhs): the linear system with the coefficients frozen at s."""
        p = self.problem
        Kt, Bt = self.operators
        if self.dt is None:
            return Kt, p.rhs(Bt)
        dt, theta, u_old, Mt = self.dt, self.theta, self.u_old, self.mass
        A = (Mt / dt + theta * Kt).tocsc()
        rhs = Mt @ u_old / dt - (1.0 - theta) * (Kt @ u_old) \
            + p.G + Bt @ p.ubar_vec
        return A, rhs

    @cached_property
    def residual(self):
        """T(u) = K_tilde s - G - B_tilde ubar, plus the lumped mass action
        on (u - u_old)/dt on a theta-step; no sparse matrix is built."""
        p, visc, s = self.problem, self.visc, self.s
        n = p.nodes.n_nodes
        ub = p.ubar_vec
        out = p.K @ s - p.B @ ub
        du = visc.nu * (s[visc.pair_a] - s[visc.pair_b])
        out += np.bincount(visc.pair_a, weights=du, minlength=n)
        out -= np.bincount(visc.pair_b, weights=du, minlength=n)
        bd = visc.nu_boundary * (s[visc.bpair_a] - ub[visc.bpair_col])
        out += np.bincount(visc.bpair_a, weights=bd, minlength=n)
        if self.dt is None:
            return out - p.G
        mass = lumped_mass_apply(p.M, p.nodes.m, self.alpha, p.params.Q,
                                 self.u - self.u_old)
        return mass / self.dt + out - p.G

    @cached_property
    def jacobian(self):
        """dT/du as a CSC matrix.

        With C the viscosity slope, which holds (s_a - s_b) d nu_ab/d alpha
        over the pairs and (s_a - ubar) d nu_b/d alpha over the boundary
        pairs:

        - steady: J = K_tilde + C d alpha/du;
        - theta-step: J = M_tilde/dt + theta [K_tilde + (C + diag((m w - M w)
          Q alpha^(Q-1) / dt)) d alpha/du] with w = u - u_old.

        d alpha/du comes from the construction's detector pass
        (:meth:`DetectorPass.jacobian`), so the smoothed mode is required;
        with the stabilization disabled J is K, or M/dt + theta K.
        """
        p, s, t = self.problem, self.s, self.problem.tables
        dalpha = self.detector.jacobian()
        Kt = self.operators[0]
        d_a, d_b, d_bd = viscosity_slopes(t, self.alpha, p.scales)
        ds = s[t.pair_a] - s[t.pair_b]
        dsb = s[t.bpair_a] - p.ubar_vec[t.bpair_col]
        rows = np.concatenate([t.pair_a, t.pair_a, t.pair_b, t.pair_b,
                               t.bpair_a])
        cols = np.concatenate([t.pair_a, t.pair_b, t.pair_a, t.pair_b,
                               t.bpair_a])
        vals = np.concatenate([ds * d_a, ds * d_b, -ds * d_a, -ds * d_b,
                               dsb * d_bd])
        C = sp.coo_matrix((vals, (rows, cols)), shape=Kt.shape).tocsr()
        if self.dt is None:
            return (Kt + C @ dalpha).tocsc()
        Q = p.params.Q
        w = self.u - self.u_old
        with np.errstate(divide="ignore", invalid="ignore"):
            d_blend = Q * self.alpha**(Q - 1.0)
        d_blend[~np.isfinite(d_blend)] = 0.0
        C = C + sp.diags((p.nodes.m * w - p.M @ w) * d_blend / self.dt)
        return (self.mass / self.dt
                + self.theta * (Kt + C @ dalpha)).tocsc()


class StabilizedProblem:
    """Assembled problem plus everything needed to evaluate the nonlinear
    stabilized scheme; :meth:`linearize` gives it at one iterate."""

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

    def rhs(self, Btilde):
        return self.G + Btilde @ self.ubar_vec

    # -- the scheme at one iterate --------------------------------------------

    def linearize(self, u, dt=None, u_old=None, theta=1.0):
        """The scheme at iterate u: steady, or the theta-step from u_old over
        dt when (dt, u_old, theta) are given; see :class:`Linearization`."""
        return Linearization(self, u, dt, u_old, theta)

    def alpha(self, u):
        return self.linearize(u).alpha

    def viscosity(self, u):
        """Graph viscosity at u."""
        return self.linearize(u).visc

    def operators(self, u):
        """(K_tilde, B_tilde) at u."""
        return self.linearize(u).operators

    def residual_steady(self, u):
        """T(u) = K_tilde(u) u - G - B_tilde(u) ubar."""
        return self.linearize(u).residual

    def residual_transient(self, u_new, u_old, dt, theta):
        """Theta-method residual; nonlinear coefficients at the stage state."""
        return self.linearize(u_new, dt, u_old, theta).residual

    def jacobian(self, u, dt=None, u_old=None, theta=1.0):
        """dT/du of :meth:`residual_steady`, or of :meth:`residual_transient`
        when (dt, u_old, theta) are given; see :attr:`Linearization.jacobian`.
        """
        return self.linearize(u, dt, u_old, theta).jacobian

    def cfl_bound(self, u_stage, theta):
        Ktilde, _ = self.operators(u_stage)
        return cfl_bound(self.nodes.m, Ktilde.diagonal(), theta)

    def audit(self, u, rel_tol=1e-12):
        state = self.linearize(u)
        Ktilde, Btilde = state.operators
        return audit_dmp(Ktilde, Btilde, state.alpha, rel_tol)

"""Graph-viscosity stabilization: perturbed operators, residuals and auditing.

K, B and M are assembled into the node pattern S, which also holds the
adjacent node pairs that nu is defined on and their slots
(:class:`~dgmono.mesh.NodePattern`).  Every per-iterate matrix is a data
array filled into S, so a full rebuild per nonlinear iterate is a handful
of vectorized passes.
The residual T(u) is the Picard system's A u - rhs (:class:`Linearization`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import (ProblemSpec, assemble_B, assemble_G, assemble_K,
                       assemble_M, dirichlet_boundary_nodes,
                       interpolate_boundary)
from .detector import DetectorPass, StabilizationParams, smax, ssgn
# alpha_all is not called here; it stays importable from this module
# because benchmark tracing wraps it by name.
from .detector import alpha_all  # noqa: F401
from .mesh import GAUSS2, beta_at, classify_facets


@dataclass
class GraphViscosity:
    """Edge viscosities: symmetric nu per unordered pair, in the order of
    the node pattern's ``upper`` slots, boundary nu per boundary slot, and
    the compensating diagonal nu_aa = sum(nu) + sum(nu_boundary) per row.
    ``terms`` are the pair terms (alpha_a K_ab, alpha_b K_ba,
    -alpha_a B_ab) that nu and nu_boundary are the maxima of, shared with
    :func:`viscosity_slopes`."""

    nu: np.ndarray
    nu_boundary: np.ndarray
    diag: np.ndarray
    terms: tuple


def build_viscosity(problem, alpha):
    """nu_ab = max{a_a K_ab, 0, a_b K_ba} and nu_b = max{-a_a B_ab, 0};
    smoothed mode uses the nested smoothed maximum, floored by the raw value
    so the DMP sign conditions hold exactly.  Zero when the stabilization is
    disabled (alpha is 0 then, but the smoothed maximum of zeros is not)."""
    S, params, n = problem.nodes.pattern, problem.params, problem.nodes.n_nodes
    xa = alpha[S.upper_rows] * problem.K_ab
    xb = alpha[S.upper_cols] * problem.K_ba
    nu = np.maximum(np.maximum(xa, 0.0), xb)
    rb = S.boundary_rows
    xd = -alpha[rb] * problem.B.data
    nu_b = np.maximum(xd, 0.0)
    if not params.enabled:
        nu, nu_b = np.zeros_like(nu), np.zeros_like(nu_b)
    elif params.mode == "smoothed":
        s = problem.scales.sigma_h
        nu = np.maximum(nu, smax(0.0, smax(xa, xb, s), s))
        nu_b = np.maximum(nu_b, smax(xd, 0.0, s))
    diag = (np.bincount(S.upper_rows, weights=nu, minlength=n)
            + np.bincount(S.upper_cols, weights=nu, minlength=n)
            + np.bincount(rb, weights=nu_b, minlength=n))
    return GraphViscosity(nu, nu_b, diag, (xa, xb, xd))


def viscosity_slopes(problem, visc: GraphViscosity):
    """(d nu/d alpha_a, d nu/d alpha_b) per pair and d nu_b/d alpha_a per
    boundary pair of the smoothed viscosities ``visc``.

    For sigma_h > 0 the raw floor in :func:`build_viscosity` never binds,
    because smax(x, y) > max(x, y), so these are the derivatives of the
    nested smoothed maxima; d smax(x, y)/dx = (1 + ssgn(x - y)) / 2."""
    s = problem.scales.sigma_h
    xa, xb, xd = visc.terms
    outer = 0.5 * (1.0 + ssgn(smax(xa, xb, s), s))
    inner = ssgn(xa - xb, s)
    d_a = outer * 0.5 * (1.0 + inner) * problem.K_ab
    d_b = outer * 0.5 * (1.0 - inner) * problem.K_ba
    d_bd = -0.5 * (1.0 + ssgn(xd, s)) * problem.B.data
    return d_a, d_b, d_bd


def build_stabilized(problem, visc: GraphViscosity):
    """(K_tilde, B_tilde): K + graph-Laplacian viscosity, B + boundary nu.

    K_tilde is filled into the node pattern, so it may store exact zeros;
    B_tilde stores only its nonzero entries."""
    S = problem.nodes.pattern
    kt = problem.K.data.copy()
    kt[S.upper] -= visc.nu
    kt[S.lower] -= visc.nu
    kt[S.diag] += visc.diag
    Bt = S.boundary_matrix(problem.B.data + visc.nu_boundary)
    Bt.eliminate_zeros()
    return S.matrix(kt), Bt


def mass_blend(alpha, Q):
    """Lumping weight a^Q; for alpha in [0, 1], Q = inf lumps only where
    alpha == 1 (1**inf = 1 and a**inf = 0 for a < 1)."""
    return alpha**Q


def lumped_mass_matrix(problem, alpha):
    """Selectively lumped mass diag(1 - a^Q) M + diag(a^Q m), whose action
    on w is (1 - a^Q)(Mw)_a + a^Q w_a m_a, in the node pattern."""
    S, m = problem.nodes.pattern, problem.nodes.m
    blend = mass_blend(alpha, problem.params.Q)
    data = np.repeat(1.0 - blend, np.diff(S.indptr)) * problem.M.data
    data[S.diag] += blend * m
    return S.matrix(data)


def cfl_bound(m, Ktilde_diag, theta):
    """Largest positivity-preserving time step, min_a m_a/((1-theta) K_aa)."""
    if theta >= 1.0:
        return np.inf
    pos = Ktilde_diag > 0.0
    return float(np.min(m[pos] / ((1.0 - theta) * Ktilde_diag[pos]),
                        initial=np.inf))


AUDIT_REL_TOL = 1e-12  # of the DMP audit, relative to max |K_tilde|


def audit_dmp(Ktilde, Btilde, alpha):
    """Check the DMP conditions; returns a list of violation records.

    At every row with alpha == 1: off-diagonal K_tilde <= 0 and
    B_tilde >= 0; for all rows: sum_b K_tilde_ab - sum_b B_tilde_ab = 0;
    each to within AUDIT_REL_TOL max |K_tilde|.
    """
    if len(alpha) != Ktilde.shape[0]:
        raise ValueError(f"alpha has {len(alpha)} entries for "
                         f"{Ktilde.shape[0]} operator rows")
    if Btilde.shape[0] != Ktilde.shape[0]:
        raise ValueError(f"B_tilde has shape {Btilde.shape} and K_tilde "
                         f"{Ktilde.shape}: their row counts differ")
    report = []
    scale = max(np.abs(Ktilde).max(), 1e-300)
    tol = AUDIT_REL_TOL * scale

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
    lagged-coefficient Picard system (A, rhs), the residual
    T(u) = A u - rhs and the two terms of its exact Jacobian dT/du in the
    node pattern.  A non-finite u or u_old raises ValueError.

    A Linearization keeps no factorization.  The solvers' linear solves
    (:class:`dgmono.solve.LinearSolves`) precondition GMRES on a theta-step
    by the iterate's own cell blocks and, steady, by the LU of an earlier
    iterate's matrix, kept once per nonlinear solve; after a GMRES cycle
    misses its tolerance each solve factors its own iterate's matrix and
    keeps none.
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
        """Graph viscosity nu(s)."""
        return build_viscosity(self.problem, self.alpha)

    @cached_property
    def operators(self):
        """(K_tilde, B_tilde)."""
        return build_stabilized(self.problem, self.visc)

    @cached_property
    def mass(self):
        """M_tilde, the mass matrix lumped with weight alpha^Q."""
        return lumped_mass_matrix(self.problem, self.alpha)

    @cached_property
    def system(self):
        """(A, rhs): the linear system with the coefficients frozen at s.
        A is in the node pattern (:func:`dgmono.solve.factor` drops its
        zeros)."""
        p = self.problem
        Kt, Bt = self.operators
        if self.dt is None:
            return Kt, p.rhs(Bt)
        dt, theta, u_old, Mt = self.dt, self.theta, self.u_old, self.mass
        A = p.nodes.pattern.matrix(Mt.data * (1.0 / dt) + theta * Kt.data)
        rhs = Mt @ u_old / dt - (1.0 - theta) * (Kt @ u_old) \
            + p.G + Bt @ p.ubar_vec
        return A, rhs

    @cached_property
    def residual(self):
        """T(u) = A u - rhs of :attr:`system`: K_tilde s - G - B_tilde ubar,
        plus M_tilde (u - u_old)/dt on a theta-step."""
        A, rhs = self.system
        return A @ self.u - rhs

    @cached_property
    def jacobian_terms(self):
        """(C, d alpha/du), both CSR in the node pattern S, with
        dT/du = A + C d alpha/du and A the Picard matrix of :attr:`system`.

        A u - rhs differentiates to A where the coefficients are frozen; the
        rest flows through alpha.  With C0 the viscosity slope, which holds
        (s_a - s_b) d nu_ab/d alpha over the pairs and (s_a - ubar)
        d nu_b/d alpha over the boundary pairs:

        - steady: C = C0, with A = K_tilde;
        - theta-step: C = theta (C0 + diag((m w - M w) Q alpha^(Q-1) / dt)),
          with A = M_tilde/dt + theta K_tilde and w = u - u_old.

        d alpha/du comes from the construction's detector pass
        (:meth:`DetectorPass.jacobian`), so the smoothed mode is required;
        with the stabilization disabled d alpha/du is 0, stored in S.
        """
        p, s, S = self.problem, self.s, self.problem.nodes.pattern
        dalpha = self.detector.jacobian()
        n = p.nodes.n_nodes
        d_a, d_b, d_bd = viscosity_slopes(p, self.visc)
        ds = s[S.upper_rows] - s[S.upper_cols]
        rb = S.boundary_rows
        dsb = s[rb] - p.ubar_vec[S.boundary_cols]
        c = np.zeros(S.nnz)
        c[S.upper] = ds * d_b
        c[S.lower] = -ds * d_a
        c_diag = (np.bincount(S.upper_rows, weights=ds * d_a, minlength=n)
                  - np.bincount(S.upper_cols, weights=ds * d_b, minlength=n)
                  + np.bincount(rb, weights=dsb * d_bd, minlength=n))
        if self.dt is None:
            c[S.diag] = c_diag
            return S.matrix(c), dalpha
        Q = p.params.Q
        w = self.u - self.u_old
        with np.errstate(divide="ignore", invalid="ignore"):
            d_blend = Q * self.alpha**(Q - 1.0)
        d_blend[~np.isfinite(d_blend)] = 0.0
        c[S.diag] = c_diag + (p.nodes.m * w - p.M @ w) * d_blend / self.dt
        return S.matrix(self.theta * c), dalpha


def _require_finite(what, arrays):
    """ValueError naming the datum ``what`` when ``arrays`` hold a
    non-finite value."""
    bad = sum(np.count_nonzero(~np.isfinite(a)) for a in arrays)
    if bad:
        raise ValueError(f"{what}: {bad} non-finite values")


class StabilizedProblem:
    """Assembled problem plus everything needed to evaluate the nonlinear
    stabilized scheme; :meth:`linearize` gives it at one iterate.

    ValueError, before K, B and M are assembled, when the velocity beta at
    the cell and facet quadrature points, the source vector G or the
    boundary data's trace values are not finite.  ``K_ab`` and ``K_ba`` are
    K's entries at the node pattern's ``upper`` and ``lower`` slots."""

    def __init__(self, mesh, nodes, spec: ProblemSpec,
                 params: StabilizationParams):
        self.mesh = mesh
        self.nodes = nodes
        self.spec = spec
        self.params = params
        points = [mesh.quadrature[3]] + [
            mesh.facet_points(f["v0"], f["v1"], GAUSS2)
            for f in (mesh.interior_facets, mesh.boundary_facets)]
        _require_finite("velocity beta at the quadrature points",
                        [c for p in points for c in beta_at(spec.beta, p)])
        inflow = classify_facets(mesh, spec.beta)
        self.dirichlet_mask = dirichlet_boundary_nodes(mesh, nodes, spec,
                                                       inflow)
        self.trace = None
        if spec.ubar is not None:
            self.trace = interpolate_boundary(nodes, spec.ubar,
                                              self.dirichlet_mask)
            _require_finite("boundary data ubar at the boundary nodes",
                            [self.trace.values])
        self.G = assemble_G(mesh, nodes, spec.g)
        _require_finite("source g, in the source vector G", [self.G])
        self.K = assemble_K(mesh, nodes, spec, inflow)
        self.B = assemble_B(mesh, nodes, spec, inflow)
        self.M = assemble_M(mesh, nodes)
        S = nodes.pattern
        self.K_ab, self.K_ba = self.K.data[S.upper], self.K.data[S.lower]
        self.beta_norm = spec.beta_max(mesh)
        self.scales = params.derived(mesh.h, self.beta_norm)

    @property
    def ubar_vec(self):
        if self.trace is None:
            return np.zeros(self.nodes.n_boundary)
        return self.trace.values

    def rhs(self, Btilde):
        return self.G + Btilde @ self.ubar_vec

    def linearize(self, u, dt=None, u_old=None, theta=1.0):
        """The scheme at iterate u: steady, or the theta-step from u_old over
        dt when (dt, u_old, theta) are given; see :class:`Linearization`."""
        return Linearization(self, u, dt, u_old, theta)

    def alpha(self, u):
        return self.linearize(u).alpha

    def operators(self, u):
        """(K_tilde, B_tilde) at u."""
        return self.linearize(u).operators

    def residual_steady(self, u):
        """T(u) = K_tilde(u) u - G - B_tilde(u) ubar."""
        return self.linearize(u).residual

    def residual_transient(self, u_new, u_old, dt, theta):
        """Theta-method residual; nonlinear coefficients at the stage state."""
        return self.linearize(u_new, dt, u_old, theta).residual

    def cfl_bound(self, u_stage, theta):
        Ktilde, _ = self.operators(u_stage)
        return cfl_bound(self.nodes.m, Ktilde.diagonal(), theta)

    def audit(self, u):
        state = self.linearize(u)
        Ktilde, Btilde = state.operators
        return audit_dmp(Ktilde, Btilde, state.alpha)

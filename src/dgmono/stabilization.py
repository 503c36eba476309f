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
    """Edge viscosities: symmetric nu per unordered pair and boundary nu per
    boundary pair, both in the order of the :class:`PairTables`, and the
    compensating diagonal nu_aa = sum(nu) + sum(nu_boundary) per row."""

    nu: np.ndarray
    nu_boundary: np.ndarray
    diag: np.ndarray

    @property
    def is_zero(self):
        return (not self.nu.any()) and (not self.nu_boundary.any())


class PairTables:
    """Adjacency pair tables with the frozen K/B entries used by nu, and
    (on first use) the :class:`SlotMaps` that place K, M, the pairs and the
    boundary pairs in the node pattern."""

    def __init__(self, nodes, K, B, M):
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
        self._operators = nodes, K, B, M

    @cached_property
    def slots(self):
        return SlotMaps(self, *self._operators)


class SlotMaps:
    """Fixed-pattern assembly of the per-iterate matrices.

    K_tilde, M_tilde and the Picard matrix are stored in the node pattern S
    (``S``, :class:`~dgmono.mesh.NodePattern`) with one data array each:
    ``K`` and ``M`` (on first use, so steady problems skip it) are the data
    of K and M in S, ``ab`` and ``ba`` the slots of the pairs (pair_a,
    pair_b) and (pair_b, pair_a).  B_tilde is stored in the union of B's
    pattern and the boundary pairs (``b_indptr``, ``b_indices``), with
    ``B`` the data of B there and ``b_slots`` the slots of the boundary
    pairs.
    """

    def __init__(self, tables, nodes, K, B, M):
        self.S = S = nodes.pattern()
        pa, pb = nodes.adjacency_pairs()
        self.ab = S.pairs[pb > pa]
        self.ba = S.transpose(self.ab)
        self.K = self._in_pattern(K)
        self._M = M

        # B: few entries (boundary rows and columns), so keys are enough
        Bc = B.tocoo()
        nb = B.shape[1]
        b_key = tables.bpair_a * nb + tables.bpair_col
        key = np.union1d(Bc.row * nb + Bc.col, b_key)
        self.b_shape = B.shape
        self.b_indptr = np.searchsorted(
            key, np.arange(B.shape[0] + 1) * nb).astype(np.int32)
        self.b_indices = (key % nb).astype(np.int32)
        self.B = np.zeros(len(key))
        self.B[np.searchsorted(key, Bc.row * nb + Bc.col)] = Bc.data
        self.b_slots = np.searchsorted(key, b_key).astype(np.int32)

    @cached_property
    def M(self):
        return self._in_pattern(self._M)

    def _in_pattern(self, A):
        """The data of A in S.  Reading S's slot numbers through A's
        nonzero pattern (one elementwise product, canonical CSR both) gives
        the slot of each nonzero of A in A's order."""
        A = A.tocsr(copy=True)
        A.sum_duplicates()
        slot = self.S.matrix(np.arange(1, self.S.nnz + 1)).multiply(A != 0)
        nz = A.data[A.data != 0.0]
        if slot.nnz != len(nz):  # assembly may store zeros outside S
            raise ValueError("operator entry outside the node pattern")
        data = np.zeros(self.S.nnz)
        data[slot.data - 1] = nz
        return data


def build_viscosity(tables: PairTables, alpha, params, scales, n_nodes):
    """nu_ab = max{a_a K_ab, 0, a_b K_ba} and nu_b = max{-a_a B_ab, 0};
    smoothed mode uses the nested smoothed maximum, floored by the raw value
    so the DMP sign conditions hold exactly.  Zero when the stabilization is
    disabled (alpha is 0 then, but the smoothed maximum of zeros is not)."""
    xa = alpha[tables.pair_a] * tables.K_ab
    xb = alpha[tables.pair_b] * tables.K_ba
    nu = np.maximum(np.maximum(xa, 0.0), xb)
    xd = -alpha[tables.bpair_a] * tables.B_ab
    nu_b = np.maximum(xd, 0.0)
    if not params.enabled:
        nu, nu_b = np.zeros_like(nu), np.zeros_like(nu_b)
    elif params.mode == "smoothed":
        s = scales.sigma_h
        nu = np.maximum(nu, smax(0.0, smax(xa, xb, s), s))
        nu_b = np.maximum(nu_b, smax(xd, 0.0, s))
    diag = (np.bincount(tables.pair_a, weights=nu, minlength=n_nodes)
            + np.bincount(tables.pair_b, weights=nu, minlength=n_nodes)
            + np.bincount(tables.bpair_a, weights=nu_b, minlength=n_nodes))
    return GraphViscosity(nu=nu, nu_boundary=nu_b, diag=diag)


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


def build_stabilized(tables: PairTables, visc: GraphViscosity):
    """(K_tilde, B_tilde): K + graph-Laplacian viscosity, B + boundary nu.

    K_tilde is filled into the node pattern, so it may store exact zeros;
    B_tilde stores only its nonzero entries."""
    f = tables.slots
    kt = f.K.copy()
    kt[f.ab] -= visc.nu
    kt[f.ba] -= visc.nu
    kt[f.S.diag] += visc.diag
    bt = f.B.copy()
    bt[f.b_slots] += visc.nu_boundary
    Bt = sp.csr_matrix((bt, f.b_indices.copy(), f.b_indptr.copy()),
                       shape=f.b_shape)
    Bt.eliminate_zeros()
    return f.S.matrix(kt), Bt


def mass_blend(alpha, Q):
    """Lumping weight a^Q; Q = inf lumps only where alpha == 1."""
    if np.isinf(Q):
        return (alpha >= 1.0).astype(float)
    return alpha**Q


def lumped_mass_apply(M, m, alpha, Q, w):
    """Selectively lumped mass action: (1 - a^Q)(Mw)_a + a^Q w_a m_a."""
    blend = mass_blend(alpha, Q)
    return (1.0 - blend) * (M @ w) + blend * (w * m)


def lumped_mass_matrix(tables: PairTables, m, alpha, Q):
    """Matrix of :func:`lumped_mass_apply`, diag(1 - a^Q) M + diag(a^Q m),
    in the node pattern."""
    f = tables.slots
    blend = mass_blend(alpha, Q)
    data = np.repeat(1.0 - blend, np.diff(f.S.indptr)) * f.M
    data[f.S.diag] += blend * m
    return f.S.matrix(data)


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
        """Graph viscosity nu(s)."""
        p = self.problem
        return build_viscosity(p.tables, self.alpha, p.params, p.scales,
                               p.nodes.n_nodes)

    @cached_property
    def operators(self):
        """(K_tilde, B_tilde)."""
        return build_stabilized(self.problem.tables, self.visc)

    @cached_property
    def mass(self):
        """M_tilde, the mass matrix lumped with weight alpha^Q."""
        p = self.problem
        return lumped_mass_matrix(p.tables, p.nodes.m, self.alpha, p.params.Q)

    @cached_property
    def system(self):
        """(A, rhs): the linear system with the coefficients frozen at s.
        A is in the node pattern (:func:`solve_linear` drops its zeros)."""
        p = self.problem
        Kt, Bt = self.operators
        if self.dt is None:
            return Kt, p.rhs(Bt)
        dt, theta, u_old, Mt = self.dt, self.theta, self.u_old, self.mass
        A = p.tables.slots.S.matrix(Mt.data * (1.0 / dt) + theta * Kt.data)
        rhs = Mt @ u_old / dt - (1.0 - theta) * (Kt @ u_old) \
            + p.G + Bt @ p.ubar_vec
        return A, rhs

    @cached_property
    def residual(self):
        """T(u) = K_tilde s - G - B_tilde ubar, plus the lumped mass action
        on (u - u_old)/dt on a theta-step; no sparse matrix is built."""
        p, visc, s, t = self.problem, self.visc, self.s, self.problem.tables
        n = p.nodes.n_nodes
        ub = p.ubar_vec
        out = p.K @ s - p.B @ ub
        du = visc.nu * (s[t.pair_a] - s[t.pair_b])
        out += np.bincount(t.pair_a, weights=du, minlength=n)
        out -= np.bincount(t.pair_b, weights=du, minlength=n)
        bd = visc.nu_boundary * (s[t.bpair_a] - ub[t.bpair_col])
        out += np.bincount(t.bpair_a, weights=bd, minlength=n)
        if self.dt is None:
            return out - p.G
        mass = lumped_mass_apply(p.M, p.nodes.m, self.alpha, p.params.Q,
                                 self.u - self.u_old)
        return mass / self.dt + out - p.G

    @cached_property
    def jacobian(self):
        """dT/du as a CSR matrix.

        With A the Picard matrix of :attr:`system` and C the viscosity
        slope, which holds (s_a - s_b) d nu_ab/d alpha over the pairs and
        (s_a - ubar) d nu_b/d alpha over the boundary pairs:

        - steady: J = A + C d alpha/du, with A = K_tilde;
        - theta-step: J = A + theta (C + diag((m w - M w) Q alpha^(Q-1)
          / dt)) d alpha/du, with A = M_tilde/dt + theta K_tilde and
          w = u - u_old.

        C is filled into the node pattern and d alpha/du comes from the
        construction's detector pass (:meth:`DetectorPass.jacobian`), so the
        smoothed mode is required; with the stabilization disabled
        d alpha/du is 0 and J is A.
        """
        p, s, t = self.problem, self.s, self.problem.tables
        dalpha = self.detector.jacobian()
        A = self.system[0]
        f = t.slots
        n = p.nodes.n_nodes
        d_a, d_b, d_bd = viscosity_slopes(t, self.alpha, p.scales)
        ds = s[t.pair_a] - s[t.pair_b]
        dsb = s[t.bpair_a] - p.ubar_vec[t.bpair_col]
        c = np.zeros(f.S.nnz)
        c[f.ab] = ds * d_b
        c[f.ba] = -ds * d_a
        c_diag = (np.bincount(t.pair_a, weights=ds * d_a, minlength=n)
                  - np.bincount(t.pair_b, weights=ds * d_b, minlength=n)
                  + np.bincount(t.bpair_a, weights=dsb * d_bd, minlength=n))
        if self.dt is None:
            c[f.S.diag] = c_diag
            return A + f.S.matrix(c) @ dalpha
        Q = p.params.Q
        w = self.u - self.u_old
        with np.errstate(divide="ignore", invalid="ignore"):
            d_blend = Q * self.alpha**(Q - 1.0)
        d_blend[~np.isfinite(d_blend)] = 0.0
        c[f.S.diag] = c_diag + (p.nodes.m * w - p.M @ w) * d_blend / self.dt
        return A + self.theta * (f.S.matrix(c) @ dalpha)


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
        self.tables = PairTables(nodes, self.K, self.B, self.M)
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

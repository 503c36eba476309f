"""Nonlinear solvers (Picard, hybrid Newton with line search) and time stepping."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .stabilization import (StabilizedProblem, build_stabilized,
                            lumped_mass_matrix)


@dataclass
class SolverConfig:
    tol: float = 1e-4
    max_iter: int = 500
    switch_tol: float = 1e-2
    omega: float = 1.0
    adaptive_omega: bool = False
    rho: float = 0.5
    c1: float = 1e-4
    max_backtracks: int = 30
    stall_window: int = 10

    def __post_init__(self):
        if not (0.0 < self.tol < self.switch_tol):
            raise ValueError("need 0 < tol < switch_tol")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (0.0 < self.omega <= 1.0):
            raise ValueError("omega must be in (0, 1]")


@dataclass
class TimeLoopConfig:
    theta: float = 0.5
    dt: float = 1e-3
    n_steps: int = 1
    enforce_cfl: bool = False
    solver: SolverConfig = field(default_factory=SolverConfig)
    method: str = "picard"

    def __post_init__(self):
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError("theta must be in [0, 1]")
        if self.dt <= 0.0 or self.n_steps < 1:
            raise ValueError("need dt > 0 and n_steps >= 1")


@dataclass
class SolveTrace:
    residuals: list = field(default_factory=list)
    osc: list = field(default_factory=list)
    alpha_active: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self):
        return len(self.residuals)

    def record(self, residual, osc=None, alpha_active=None, step=None):
        self.residuals.append(float(residual))
        self.osc.append(float(osc) if osc is not None else np.nan)
        self.alpha_active.append(int(alpha_active)
                                 if alpha_active is not None else -1)
        self.step_lengths.append(float(step) if step is not None else np.nan)

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["iteration", "residual", "osc", "alpha_active",
                        "step_length"])
            for i in range(self.iterations):
                w.writerow([i, repr(self.residuals[i]), repr(self.osc[i]),
                            self.alpha_active[i],
                            repr(self.step_lengths[i])])


def solve_linear(A, rhs):
    """Sparse direct solve with a singularity check."""
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise RuntimeError(f"linear solve failed: {exc}") from exc
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise RuntimeError("linear solve produced non-finite values")
    return x


def _osc(u, bounds):
    if bounds is None:
        return None
    lo, hi = bounds
    return max(0.0, lo - float(u.min()), float(u.max()) - hi)


def _initial_guess(problem, u0):
    if u0 is not None:
        return np.asarray(u0, dtype=float).copy()
    u = np.zeros(problem.nodes.n_nodes)
    if problem.trace is not None:
        bn = problem.nodes.boundary_nodes
        mask = problem.trace.dirichlet
        u[bn[mask]] = problem.trace.values[mask]
    return u


# -- Picard -------------------------------------------------------------------

def _picard_system(problem, u, dt=None, u_old=None, theta=1.0):
    """Lagged-coefficient linear system (A, rhs) at the current iterate, and
    the detector values at its stage state (one detector pass)."""
    u_stage = u if dt is None else theta * u + (1.0 - theta) * u_old
    alpha = problem.alpha(u_stage)
    Kt, Bt = build_stabilized(problem.K, problem.B,
                              problem.viscosity(u_stage, alpha))
    if dt is None:
        return Kt, problem.rhs(Bt), alpha
    Mt = lumped_mass_matrix(problem.M, problem.nodes.m, alpha,
                            problem.params.Q)
    A = (Mt / dt + theta * Kt).tocsc()
    rhs = Mt @ u_old / dt - (1.0 - theta) * (Kt @ u_old) \
        + problem.G + Bt @ problem.ubar_vec
    return A, rhs, alpha


def picard(problem: StabilizedProblem, u0=None, cfg: Optional[SolverConfig] = None,
           bounds=None, dt=None, u_old=None, theta=1.0, stall_window=0):
    """Fixed-point iteration with lagged viscosities and relaxation.

    Steady by default; passing (dt, u_old, theta) iterates on the
    theta-method step instead.  A positive ``stall_window`` stops early
    (unconverged) when the residual has not improved for that many
    iterations, e.g. on a limit cycle.
    """
    cfg = cfg or SolverConfig()
    u = _initial_guess(problem, u0)
    trace = SolveTrace()
    omega = cfg.omega

    def residual(v):
        if dt is None:
            return problem.residual_steady(v)
        return problem.residual_transient(v, u_old, dt, theta)

    prev_norm = None
    best_norm, since_best = np.inf, 0
    for _ in range(cfg.max_iter):
        A, rhs, alpha = _picard_system(problem, u, dt, u_old, theta)
        res = A @ u - rhs
        res_norm = float(np.linalg.norm(res))
        ref = float(np.linalg.norm(rhs))
        trace.record(res_norm, _osc(u, bounds), np.count_nonzero(alpha >= 1.0),
                     omega)
        if res_norm <= cfg.tol * max(ref, 1e-300):
            trace.converged = True
            return u, trace
        if res_norm < 0.99 * best_norm:
            best_norm, since_best = res_norm, 0
        else:
            since_best += 1
            if stall_window and since_best >= stall_window:
                return u, trace
        if cfg.adaptive_omega and prev_norm is not None:
            omega = min(1.0, 2 * omega) if res_norm < prev_norm \
                else max(2.0**-6, 0.5 * omega)
        prev_norm = res_norm
        u_next = solve_linear(A, rhs)
        u = (1.0 - omega) * u + omega * u_next

    res_norm = float(np.linalg.norm(residual(u)))
    trace.record(res_norm, _osc(u, bounds), None, omega)
    _, rhs, _ = _picard_system(problem, u, dt, u_old, theta)
    trace.converged = res_norm <= cfg.tol * max(float(np.linalg.norm(rhs)),
                                                1e-300)
    return u, trace


# -- finite-difference Jacobian with graph coloring ---------------------------
#
# Newton uses the analytic StabilizedProblem.jacobian; these remain as the
# independent finite-difference oracle it is checked against.

def _adjacency_matrix(problem):
    t = problem.tables
    n = problem.nodes.n_nodes
    rows = np.concatenate([t.pair_a, t.pair_b, np.arange(n)])
    cols = np.concatenate([t.pair_b, t.pair_a, np.arange(n)])
    data = np.ones(len(rows), dtype=np.int8)
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def jacobian_pattern(problem):
    """Sparsity pattern of dT/du: the squared adjacency graph (viscosities
    couple each row to the neighbors of its neighbors)."""
    if getattr(problem, "_jac_pattern", None) is None:
        A = _adjacency_matrix(problem)
        P = (A @ A).tocsc()
        P.data[:] = 1
        problem._jac_pattern = P
    return problem._jac_pattern


def color_columns(P):
    """Greedy distance-1 coloring of columns: same-color columns share no row."""
    n = P.shape[1]
    nwords = (P.shape[0] + 63) // 64
    used = []  # per color: packed row occupancy
    colors = np.empty(n, dtype=np.int64)
    word = np.zeros(nwords, dtype=np.uint64)
    for j in range(n):
        rows = P.indices[P.indptr[j]:P.indptr[j + 1]]
        word[:] = 0
        np.bitwise_or.at(word, rows // 64,
                         np.uint64(1) << (rows % 64).astype(np.uint64))
        for c, occ in enumerate(used):
            if not np.any(occ & word):
                colors[j] = c
                occ |= word
                break
        else:
            colors[j] = len(used)
            used.append(word.copy())
    return colors, len(used)


def fd_jacobian(residual, u, T0, P, colors, n_colors):
    """Forward-difference Jacobian restricted to the pattern P (CSC)."""
    n = len(u)
    rows_out, cols_out, vals_out = [], [], []
    sqrt_eps = np.sqrt(np.finfo(float).eps)
    eps = sqrt_eps * (1.0 + np.abs(u))
    for c in range(n_colors):
        cols = np.flatnonzero(colors == c)
        up = u.copy()
        up[cols] += eps[cols]
        Tp = residual(up)
        dT = Tp - T0
        for j in cols:
            rows = P.indices[P.indptr[j]:P.indptr[j + 1]]
            rows_out.append(rows)
            cols_out.append(np.full(len(rows), j, dtype=np.int64))
            vals_out.append(dT[rows] / eps[j])
    J = sp.coo_matrix((np.concatenate(vals_out),
                       (np.concatenate(rows_out), np.concatenate(cols_out))),
                      shape=(n, n))
    return J.tocsc()


# -- hybrid Newton ------------------------------------------------------------

def _newton(residual, jacobian, picard_once, u, cfg, trace, bounds,
            ref_norm, alpha_state):
    """Damped Newton with Armijo backtracking on 1/2 ||T||^2; falls back to
    one Picard step when the line search exhausts its backtracks.

    ``jacobian(u)`` is the exact Jacobian of the smoothed residual
    (:meth:`StabilizedProblem.jacobian`).  Where the smoothed detector is not
    differentiable it is the derivative of the active branch: the first
    candidate cell attaining the max (min) at a symmetric point, the
    all-max or all-min assignment np.maximum keeps per node, and zero where
    the ramp Z saturates or the clip to [0, 1] binds.  Convergence is
    ||T|| <= tol * ref_norm."""
    T = residual(u)
    while trace.iterations < cfg.max_iter:
        norm = float(np.linalg.norm(T))
        trace.record(norm, _osc(u, bounds),
                     np.count_nonzero(alpha_state(u) >= 1.0), np.nan)
        if norm <= cfg.tol * max(ref_norm, 1e-300):
            trace.converged = True
            return u
        step = solve_linear(jacobian(u), -T)
        phi0 = 0.5 * norm**2
        lam = 1.0
        accepted = False
        for _ in range(cfg.max_backtracks):
            u_try = u + lam * step
            T_try = residual(u_try)
            phi = 0.5 * float(np.linalg.norm(T_try))**2
            if phi <= (1.0 - 2.0 * cfg.c1 * lam) * phi0:
                u, T = u_try, T_try
                trace.step_lengths[-1] = lam
                accepted = True
                break
            lam *= cfg.rho
        if not accepted:
            u = picard_once(u)
            T = residual(u)
            trace.step_lengths[-1] = 0.0
    trace.converged = float(np.linalg.norm(T)) <= cfg.tol * max(ref_norm,
                                                                1e-300)
    return u


def hybrid_newton(problem: StabilizedProblem, u0=None,
                  cfg: Optional[SolverConfig] = None, bounds=None,
                  dt=None, u_old=None, theta=1.0):
    """Picard to the switch tolerance, then damped Newton with line search.

    Newton uses the analytic Jacobian of the smoothed residual, assembled
    once per iterate (see :func:`_newton` for its non-smooth branches).  Its
    tolerance is relative to ||rhs|| of the Picard system at the state where
    Newton starts."""
    cfg = cfg or SolverConfig()
    if problem.params.enabled and problem.params.mode != "smoothed":
        raise ValueError("hybrid Newton requires the smoothed stabilization")
    pre_cfg = SolverConfig(tol=cfg.switch_tol, max_iter=cfg.max_iter,
                           switch_tol=min(1.0, 10 * cfg.switch_tol),
                           omega=cfg.omega, adaptive_omega=cfg.adaptive_omega,
                           rho=cfg.rho, c1=cfg.c1,
                           max_backtracks=cfg.max_backtracks)
    u, trace = picard(problem, u0, pre_cfg, bounds, dt, u_old, theta,
                      stall_window=cfg.stall_window)

    def residual(v):
        if dt is None:
            return problem.residual_steady(v)
        return problem.residual_transient(v, u_old, dt, theta)

    def jacobian(v):
        return problem.jacobian(v, dt, u_old, theta)

    def picard_once(v):
        A, rhs, _ = _picard_system(problem, v, dt, u_old, theta)
        return (1.0 - cfg.omega) * v + cfg.omega * solve_linear(A, rhs)

    def alpha_state(v):
        return problem.alpha(v if dt is None
                             else theta * v + (1 - theta) * u_old)

    ref_norm = float(np.linalg.norm(_picard_system(problem, u, dt, u_old,
                                                   theta)[1]))
    trace.converged = False
    u = _newton(residual, jacobian, picard_once, u, cfg, trace, bounds,
                ref_norm, alpha_state)
    return u, trace


# -- time stepping ------------------------------------------------------------

def theta_step(problem, u_old, dt, theta, cfg=None, method="picard",
               bounds=None, enforce_cfl=False):
    """One theta-method step; returns (u_new, trace)."""
    cfg = cfg or SolverConfig()
    if enforce_cfl and theta < 1.0:
        limit = problem.cfl_bound(u_old, theta)
        if dt > limit:
            raise ValueError(
                f"time step {dt:g} exceeds the CFL bound {limit:g}")
    if method == "picard":
        return picard(problem, u_old, cfg, bounds, dt=dt, u_old=u_old,
                      theta=theta)
    if method == "hybrid":
        return hybrid_newton(problem, u_old, cfg, bounds, dt=dt, u_old=u_old,
                             theta=theta)
    raise ValueError(f"unknown nonlinear method {method!r}")


def run_transient(problem, u0, loop: TimeLoopConfig, bounds=None, ubar_t=None):
    """Sequential theta-steps from u0; returns (u_final, per-step traces)."""
    u = np.asarray(u0, dtype=float).copy()
    traces = []
    for n in range(loop.n_steps):
        if ubar_t is not None:
            problem.set_boundary(ubar_t((n + loop.theta) * loop.dt))
        u, tr = theta_step(problem, u, loop.dt, loop.theta, loop.solver,
                           loop.method, bounds, loop.enforce_cfl)
        traces.append(tr)
    return u, traces

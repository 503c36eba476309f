"""Nonlinear solvers (Picard, hybrid Newton with line search) and time stepping."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# build_stabilized is not called here; it stays importable from this module
# because benchmark tracing wraps it by name in every module namespace.
from .stabilization import StabilizedProblem, build_stabilized  # noqa: F401


@dataclass
class SolverConfig:
    tol: float = 1e-4
    max_iter: int = 500
    switch_tol: float = 1e-2
    omega: float = 1.0
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
    """Sparse direct solve with a singularity check.

    SuperLU orders by minimum degree on the structure of A^T + A, which
    suits the structurally symmetric dG matrices; that ordering keeps its
    low fill only while the pivots stay on the diagonal.  Exact zeros that
    A stores (a fixed pattern keeps them) are dropped first, so the
    ordering sees the numeric structure; A itself is not modified."""
    A = A.tocsc(copy=True)
    A.eliminate_zeros()
    try:
        # pivot off the diagonal only below 0.1 of the column max (less fill)
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1)
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

def _picard_update(state, omega):
    """Relaxed solve of the Picard system of a :class:`Linearization`."""
    A, rhs = state.system
    return (1.0 - omega) * state.u + omega * solve_linear(A, rhs)


def picard(problem: StabilizedProblem, u0=None, cfg: Optional[SolverConfig] = None,
           bounds=None, dt=None, u_old=None, theta=1.0, stall_window=0):
    """Fixed-point iteration with lagged viscosities and relaxation.

    Steady by default; passing (dt, u_old, theta) iterates on the
    theta-method step instead.  Each iterate is linearized once
    (:meth:`StabilizedProblem.linearize`, one detector pass): its Picard
    system gives the residual A u - rhs, the tolerance reference ||rhs||,
    the active-alpha count of the record and the next iterate.  A positive
    ``stall_window`` stops early (unconverged) when the residual has not
    improved for that many iterations, e.g. on a limit cycle.  When
    ``max_iter`` runs out, the last iterate's record holds its matrix-free
    residual.
    """
    cfg = cfg or SolverConfig()
    u = _initial_guess(problem, u0)
    trace = SolveTrace()
    best_norm, since_best = np.inf, 0
    for _ in range(cfg.max_iter):
        state = problem.linearize(u, dt, u_old, theta)
        A, rhs = state.system
        res_norm = float(np.linalg.norm(A @ u - rhs))
        ref = float(np.linalg.norm(rhs))
        trace.record(res_norm, _osc(u, bounds),
                     np.count_nonzero(state.alpha >= 1.0), cfg.omega)
        if res_norm <= cfg.tol * max(ref, 1e-300):
            trace.converged = True
            return u, trace
        if res_norm < 0.99 * best_norm:
            best_norm, since_best = res_norm, 0
        else:
            since_best += 1
            if stall_window and since_best >= stall_window:
                return u, trace
        u = _picard_update(state, cfg.omega)
        # free this state and its detector pass before the next one is built
        del state

    state = problem.linearize(u, dt, u_old, theta)
    res_norm = float(np.linalg.norm(state.residual))
    trace.record(res_norm, _osc(u, bounds), None, cfg.omega)
    trace.converged = res_norm <= cfg.tol * max(
        float(np.linalg.norm(state.system[1])), 1e-300)
    return u, trace


# -- finite-difference Jacobian with graph coloring ---------------------------
#
# Newton uses the analytic StabilizedProblem.jacobian; these remain as the
# independent finite-difference oracle it is checked against.

def jacobian_pattern(problem):
    """Sparsity pattern of dT/du: S^2 for the node pattern S (viscosities
    couple each row to the neighbors of its neighbors), as CSC ones."""
    S = problem.nodes.pattern()
    A = S.matrix(np.ones(S.nnz, dtype=np.int32))
    P = (A @ A).tocsc()
    P.data[:] = 1
    return P


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

def _newton(state, cfg, trace, bounds):
    """Damped Newton with Armijo backtracking on 1/2 ||T||^2 from the
    :class:`Linearization` ``state``; falls back to one Picard step when the
    line search exhausts its backtracks.  Returns the last iterate.

    Every iterate is linearized once: the accepted line-search trial (or
    the state after a fallback) supplies the residual, the active-alpha
    count of the record and the Jacobian, and its Picard system serves a
    fallback.  The Jacobian is exact for the smoothed residual
    (:attr:`Linearization.jacobian`).  Where the smoothed detector is not
    differentiable it is the derivative of the active branch: the first
    candidate cell attaining the max (min) at a symmetric point, the
    all-max or all-min assignment np.maximum keeps per node, and zero where
    the ramp Z saturates or the clip to [0, 1] binds.  Convergence is
    ||T|| <= tol * ||rhs||, with rhs the Picard system's at the start."""
    target = cfg.tol * max(float(np.linalg.norm(state.system[1])), 1e-300)
    while trace.iterations < cfg.max_iter:
        norm = float(np.linalg.norm(state.residual))
        trace.record(norm, _osc(state.u, bounds),
                     np.count_nonzero(state.alpha >= 1.0), np.nan)
        if norm <= target:
            trace.converged = True
            return state.u
        step = solve_linear(state.jacobian, -state.residual)
        phi0 = 0.5 * norm**2
        lam = 1.0
        for _ in range(cfg.max_backtracks):
            trial = state.at(state.u + lam * step)
            phi = 0.5 * float(np.linalg.norm(trial.residual))**2
            if phi <= (1.0 - 2.0 * cfg.c1 * lam) * phi0:
                state = trial
                trace.step_lengths[-1] = lam
                break
            lam *= cfg.rho
        else:
            state = state.at(_picard_update(state, cfg.omega))
            trace.step_lengths[-1] = 0.0
    trace.converged = float(np.linalg.norm(state.residual)) <= target
    return state.u


def hybrid_newton(problem: StabilizedProblem, u0=None,
                  cfg: Optional[SolverConfig] = None, bounds=None,
                  dt=None, u_old=None, theta=1.0):
    """Picard to the switch tolerance, then damped Newton with line search.

    Newton starts from one linearization of the Picard result, which gives
    its first residual and its tolerance reference, ||rhs|| of the Picard
    system there; it uses the analytic Jacobian of the smoothed residual,
    assembled once per iterate (see :func:`_newton` for its non-smooth
    branches)."""
    cfg = cfg or SolverConfig()
    if problem.params.enabled and problem.params.mode != "smoothed":
        raise ValueError("hybrid Newton requires the smoothed stabilization")
    pre_cfg = replace(cfg, tol=cfg.switch_tol,
                      switch_tol=min(1.0, 10 * cfg.switch_tol))
    u, trace = picard(problem, u0, pre_cfg, bounds, dt, u_old, theta,
                      stall_window=cfg.stall_window)
    u = _newton(problem.linearize(u, dt, u_old, theta), cfg, trace, bounds)
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
    """Sequential theta-steps from u0; returns (u_final, per-step traces).

    Each unconverged step is returned as is and reported by a
    RuntimeWarning naming its index and final residual."""
    u = np.asarray(u0, dtype=float).copy()
    traces = []
    for n in range(loop.n_steps):
        if ubar_t is not None:
            problem.set_boundary(ubar_t((n + loop.theta) * loop.dt))
        u, tr = theta_step(problem, u, loop.dt, loop.theta, loop.solver,
                           loop.method, bounds, loop.enforce_cfl)
        if not tr.converged:
            warnings.warn(f"time step {n} did not converge: residual "
                          f"{tr.residuals[-1]:.3e} after {tr.iterations} "
                          "iterations", RuntimeWarning, stacklevel=2)
        traces.append(tr)
    return u, traces

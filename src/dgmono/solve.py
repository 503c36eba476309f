"""Nonlinear solvers (Picard, hybrid Newton with line search) and time stepping."""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .metrics import osc

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

    def __post_init__(self):
        if not (0.0 < self.tol < self.switch_tol):
            raise ValueError("need 0 < tol < switch_tol")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (0.0 < self.omega <= 1.0):
            raise ValueError("omega must be in (0, 1]")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must be in (0, 1)")
        if not (0.0 < self.c1 < 0.5):
            raise ValueError("c1 must be in (0, 0.5)")
        if self.max_backtracks < 1:
            raise ValueError("max_backtracks must be >= 1")


def check_step(theta, dt):
    """ValueError unless theta is in [0, 1] and dt > 0."""
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must be in [0, 1], got {theta!r}")
    if not dt > 0.0:
        raise ValueError(f"time step dt must be > 0, got {dt!r}")


@dataclass
class TimeLoopConfig:
    theta: float = 0.5
    dt: float = 1e-3
    n_steps: int = 1
    enforce_cfl: bool = False
    solver: SolverConfig = field(default_factory=SolverConfig)
    method: str = "picard"

    def __post_init__(self):
        check_step(self.theta, self.dt)
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


@dataclass
class SolveTrace:
    residuals: list = field(default_factory=list)
    osc: list = field(default_factory=list)
    alpha_active: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    gmres_iters: list = field(default_factory=list)
    factorizations: list = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self):
        return len(self.residuals)

    def record(self, residual, osc, alpha_active, step):
        """One iterate: its residual norm, OSC (None: no bounds), number of
        nodes with alpha = 1 and step length.  Its ``gmres_iters`` and
        ``factorizations`` start at 0; the linear solves made from this
        iterate (:class:`LinearSolves`: a Picard update, or a Newton
        direction and any Picard fallback) add theirs."""
        self.residuals.append(float(residual))
        self.osc.append(float(osc) if osc is not None else np.nan)
        self.alpha_active.append(int(alpha_active))
        self.step_lengths.append(float(step))
        self.gmres_iters.append(0)
        self.factorizations.append(0)

    def to_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["iteration", "residual", "osc", "alpha_active",
                        "step_length", "gmres_iters", "factorizations"])
            for i in range(self.iterations):
                w.writerow([i, repr(self.residuals[i]), repr(self.osc[i]),
                            self.alpha_active[i],
                            repr(self.step_lengths[i]), self.gmres_iters[i],
                            self.factorizations[i]])


def factor(A):
    """SuperLU factorization of A, with a singularity check.

    SuperLU orders by minimum degree on the structure of A^T + A, which
    suits the structurally symmetric dG matrices; that ordering keeps its
    low fill only while the pivots stay on the diagonal.  Exact zeros that
    A stores (a fixed pattern keeps them) are dropped first, so the
    ordering sees the numeric structure; A itself is not modified."""
    A = A.tocsc(copy=True)
    A.eliminate_zeros()
    try:
        # pivot off the diagonal only below 0.1 of the column max (less fill)
        return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1)
    except RuntimeError as exc:
        raise RuntimeError(f"linear solve failed: {exc}") from exc


def lu_solve(lu, rhs):
    """x = A^-1 rhs by the factorization ``lu`` of A; RuntimeError when x
    is not finite."""
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise RuntimeError("linear solve produced non-finite values")
    return x


def solve_linear(A, rhs):
    """Sparse direct solve: :func:`factor`, then :func:`lu_solve`."""
    return lu_solve(factor(A), rhs)


def _osc(u, bounds):
    return None if bounds is None else osc(u, *bounds)


def _initial_guess(problem, u0):
    if u0 is not None:
        return np.asarray(u0, dtype=float).copy()
    u = np.zeros(problem.nodes.n_nodes)
    if problem.trace is not None:
        bn = problem.nodes.boundary_nodes
        mask = problem.trace.dirichlet
        u[bn[mask]] = problem.trace.values[mask]
    return u


# -- the linear solves of one nonlinear solve ---------------------------------

GMRES_CAP = 20      # GMRES iterations per solve: one cycle, no restart
GMRES_RTOL = 1e-8   # relative residual a GMRES solve is to reach


def _gmres(apply, lu, b):
    """(y, iterations, met): one cycle of at most ``GMRES_CAP`` iterations
    on M d = b, M v = ``apply(v)``, preconditioned from the right by the
    factorization ``lu`` of some P: GMRES solves M P^-1 y = b, d = P^-1 y,
    so the residual it minimizes is M's own and from zero never grows.
    ``met``: that residual reached ``GMRES_RTOL`` ||b|| (d is then finite)."""
    n = len(b)
    residuals = []
    y, info = spla.gmres(
        spla.LinearOperator((n, n), matvec=lambda v: apply(lu.solve(v)),
                            dtype=float),
        b, rtol=GMRES_RTOL, atol=0.0, restart=GMRES_CAP, maxiter=1,
        callback=residuals.append, callback_type="pr_norm")
    return y, len(residuals), info == 0


class LinearSolves:
    """The linear solves of one nonlinear solve, which keep one factorization.

    Each solve is M d = -T(u) at a :class:`Linearization`: M is the Picard
    matrix A for a Picard update u + omega d, and the Jacobian
    J = A + C d alpha/du (:attr:`Linearization.jacobian_terms`, three
    products in S) for a Newton direction d.

    - With a factorization kept from an earlier iterate, one :func:`_gmres`
      cycle preconditioned by it solves, if it meets the tolerance.
    - Otherwise the solve factors (:func:`factor`) its iterate's own matrix
      and keeps it.  A Picard update factors A and solves directly,
      (1 - omega) u + omega A^-1 rhs.  A Newton direction factors
      P = A + C diag(d alpha/du), which keeps the detector term's
      dependence on each node's own value and so stays in S, and takes the
      iterate of one GMRES cycle preconditioned by it, met or not.
    - The first miss latches: every later solve factors its own matrix and
      keeps nothing.  The missed factorization is dropped before the new
      one is built, so at most one is alive."""

    def __init__(self):
        self.lu = None          # factorization kept from an earlier iterate
        self.latched = False    # a kept factorization's cycle has missed
        self.last = None        # the final Linearization of a Picard phase

    def __call__(self, state, trace, omega=None):
        """The Newton direction at the Linearization ``state`` or, given
        ``omega``, its Picard update relaxed by omega.  Its GMRES
        iterations and factorizations are added to the last record of
        ``trace``.  RuntimeError when the result is not finite."""
        A = state.system[0]
        newton = omega is None
        if newton:
            C, dalpha = state.jacobian_terms

        def apply(v):
            return A @ v + C @ (dalpha @ v) if newton else A @ v
        b = -state.residual
        if self.lu is not None:
            y, iterations, met = _gmres(apply, self.lu, b)
            trace.gmres_iters[-1] += iterations
            if met:
                d = self.lu.solve(y)
                return d if newton else state.u + omega * d
            self.lu, self.latched = None, True
        if newton:
            S = state.problem.tables.S
            lu = factor(S.matrix(A.data
                                 + C.data * dalpha.data[S.diag][S.indices]))
            y, iterations, _ = _gmres(apply, lu, b)
            trace.gmres_iters[-1] += iterations
            x = lu_solve(lu, y)
        else:
            lu = factor(A)
            x = (1.0 - omega) * state.u + omega * lu_solve(lu, state.system[1])
        trace.factorizations[-1] += 1
        if not self.latched:
            self.lu = lu
        return x


# -- Picard -------------------------------------------------------------------

def picard(problem: StabilizedProblem, u0=None, cfg: Optional[SolverConfig] = None,
           bounds=None, dt=None, u_old=None, theta=1.0, stall_window=0, *,
           solves: Optional[LinearSolves] = None):
    """Fixed-point iteration with lagged viscosities and relaxation.

    Steady by default; passing (dt, u_old, theta) iterates on the
    theta-method step instead.  Each iterate is linearized once
    (:meth:`StabilizedProblem.linearize`, one detector pass): its Picard
    system gives the residual A u - rhs, the tolerance reference ||rhs||,
    the active-alpha count of the record and the next iterate, solved by
    ``solves`` (:class:`LinearSolves`, one kept factorization; a fresh one
    by default), which is left holding the final Linearization.  A positive
    ``stall_window`` stops early (unconverged) when the residual has not
    improved for that many iterations, e.g. on a limit cycle.  At most
    ``max_iter`` updates are made, so the last of the ``max_iter + 1``
    records is that of the final iterate.
    """
    cfg = cfg or SolverConfig()
    solves = solves or LinearSolves()
    u = _initial_guess(problem, u0)
    trace = SolveTrace()
    best_norm, since_best = np.inf, 0
    for it in range(cfg.max_iter + 1):
        state = problem.linearize(u, dt, u_old, theta)
        res_norm = float(np.linalg.norm(state.residual))
        ref = float(np.linalg.norm(state.system[1]))
        trace.record(res_norm, _osc(u, bounds),
                     np.count_nonzero(state.alpha >= 1.0), cfg.omega)
        trace.converged = res_norm <= cfg.tol * max(ref, 1e-300)
        if res_norm < 0.99 * best_norm:
            best_norm, since_best = res_norm, 0
        else:
            since_best += 1
        stalled = stall_window and since_best >= stall_window
        if trace.converged or stalled or it == cfg.max_iter:
            solves.last = state
            return u, trace
        u = solves(state, trace, cfg.omega)
        # free this state and its detector pass before the next one is built
        del state


# -- finite-difference Jacobian with graph coloring ---------------------------
#
# Newton uses the analytic Jacobian (Linearization.jacobian_terms); these
# remain as the independent finite-difference oracle it is checked against.

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

STALL_WINDOW = 10   # picard's stall_window in the hybrid's Picard phase


def _newton(state, solves, cfg, trace, bounds):
    """Damped Newton with Armijo backtracking on 1/2 ||T||^2 from the
    :class:`Linearization` ``state``; falls back to one Picard step when the
    line search exhausts its backtracks.  Returns the last iterate.

    Every iterate is linearized once: the accepted line-search trial (or
    the state after a fallback) supplies the residual, the active-alpha
    count of the record and the Jacobian terms.  The residual is A u - rhs
    of the iterate's Picard system, the same T that :func:`picard` records,
    so each trial builds that system, and a fallback solves the one it
    built.  The Jacobian is exact for the smoothed residual
    (:attr:`Linearization.jacobian_terms`).  Where the smoothed detector is
    not differentiable it is the derivative of the active branch: the first
    candidate cell attaining the max (min) at a symmetric point, the
    all-max or all-min assignment np.maximum keeps per node, and zero where
    the ramp Z saturates or the clip to [0, 1] binds.  Directions and
    fallbacks are solved by ``solves`` (:class:`LinearSolves`).
    Convergence is ||T|| <= tol * ||rhs||, with rhs the Picard system's at
    the start.  The start is recorded again, as Newton's first record, and
    steps are made while the trace holds at most ``max_iter`` records, so
    the last record is that of the returned iterate and
    ``trace.converged`` is its test; when the Picard phase made all
    ``max_iter`` updates, that iterate is the start."""
    target = cfg.tol * max(float(np.linalg.norm(state.system[1])), 1e-300)
    while True:
        norm = float(np.linalg.norm(state.residual))
        trace.record(norm, _osc(state.u, bounds),
                     np.count_nonzero(state.alpha >= 1.0), np.nan)
        trace.converged = norm <= target
        if trace.converged or trace.iterations > cfg.max_iter:
            return state.u
        step = solves(state, trace)
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
            state = state.at(solves(state, trace, cfg.omega))
            trace.step_lengths[-1] = 0.0


def hybrid_newton(problem: StabilizedProblem, u0=None,
                  cfg: Optional[SolverConfig] = None, bounds=None,
                  dt=None, u_old=None, theta=1.0):
    """Picard to the switch tolerance, then damped Newton with line search.

    The Picard phase also stops after ``STALL_WINDOW`` iterations without
    improvement.  Both phases share one :class:`LinearSolves`, passed to
    :func:`picard`, so the call keeps one factorization, and Newton starts
    from the Picard phase's last :class:`Linearization`, which the phase
    leaves there: it gives Newton's first residual and its tolerance
    reference, ||rhs|| of the Picard system there.  Newton applies the
    analytic Jacobian of the smoothed residual by GMRES (see :func:`_newton`
    for its non-smooth branches)."""
    cfg = cfg or SolverConfig()
    if problem.params.enabled and problem.params.mode != "smoothed":
        raise ValueError("hybrid Newton requires the smoothed stabilization")
    # the Picard phase stops at switch_tol and never reads its own switch_tol
    pre_cfg = replace(cfg, tol=cfg.switch_tol, switch_tol=np.inf)
    solves = LinearSolves()
    _, trace = picard(problem, u0, pre_cfg, bounds, dt, u_old, theta,
                      stall_window=STALL_WINDOW, solves=solves)
    state, solves.last = solves.last, None
    return _newton(state, solves, cfg, trace, bounds), trace


def solver(method):
    """The nonlinear solver named ``method``: ``"picard"`` for
    :func:`picard`, ``"hybrid"`` for :func:`hybrid_newton`.  Both are
    looked up when called, so a replacement of either module name is seen.
    """
    solvers = {"picard": picard, "hybrid": hybrid_newton}
    if method not in solvers:
        raise ValueError(f"unknown nonlinear method {method!r}; "
                         f"available: {sorted(solvers)}")
    return solvers[method]


# -- time stepping ------------------------------------------------------------

def theta_step(problem, u_old, dt, theta, cfg=None, method="picard",
               bounds=None, enforce_cfl=False):
    """One theta-method step; returns (u_new, trace).  ValueError unless
    theta is in [0, 1] and dt > 0 (:func:`check_step`)."""
    check_step(theta, dt)
    if enforce_cfl and theta < 1.0:
        limit = problem.cfl_bound(u_old, theta)
        if dt > limit:
            raise ValueError(
                f"time step {dt:g} exceeds the CFL bound {limit:g}")
    return solver(method)(problem, u_old, cfg, bounds, dt=dt, u_old=u_old,
                          theta=theta)


def run_transient(problem, u0, loop: TimeLoopConfig, bounds=None):
    """Sequential theta-steps from u0; returns (u_final, per-step traces).

    Each unconverged step is returned as is and reported by a
    RuntimeWarning naming its index and final residual."""
    u = np.asarray(u0, dtype=float).copy()
    traces = []
    for n in range(loop.n_steps):
        u, tr = theta_step(problem, u, loop.dt, loop.theta, loop.solver,
                           loop.method, bounds, loop.enforce_cfl)
        if not tr.converged:
            warnings.warn(f"time step {n} did not converge: residual "
                          f"{tr.residuals[-1]:.3e} after {tr.iterations} "
                          "iterations", RuntimeWarning, stacklevel=2)
        traces.append(tr)
    return u, traces

"""Nonlinear solvers (Picard, hybrid Newton with line search) and time stepping."""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import solve_triangular

from .metrics import osc

# build_stabilized is not called here; it stays importable from this module
# because benchmark tracing wraps it by name in every module namespace.
from .stabilization import StabilizedProblem, build_stabilized  # noqa: F401


def check_count(name, value):
    """``value``; ValueError naming ``name`` unless it is an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return value


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
        check_count("max_iter", self.max_iter)
        if not (0.0 < self.omega <= 1.0):
            raise ValueError("omega must be in (0, 1]")
        if not (0.0 < self.rho < 1.0):
            raise ValueError("rho must be in (0, 1)")
        if not (0.0 < self.c1 < 0.5):
            raise ValueError("c1 must be in (0, 0.5)")
        check_count("max_backtracks", self.max_backtracks)


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
        nodes with alpha = 1 and step length.  The linear solves of the step
        from it add their GMRES iterations and factorizations to its 0."""
        self.residuals.append(float(residual))
        self.osc.append(float(osc) if osc is not None else np.nan)
        self.alpha_active.append(int(alpha_active))
        self.step_lengths.append(float(step))
        self.gmres_iters.append(0)
        self.factorizations.append(0)

    def to_csv(self, path):
        # imported here: io_utils loads scipy.io, which a solve never needs
        from .io_utils import write_table_csv

        write_table_csv(path, ["iteration", "residual", "osc", "alpha_active",
                               "step_length", "gmres_iters",
                               "factorizations"],
                        zip(range(self.iterations), self.residuals, self.osc,
                            self.alpha_active, self.step_lengths,
                            self.gmres_iters, self.factorizations))


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


def _check_finite(x):
    """``x``; RuntimeError unless every entry is finite."""
    if not np.all(np.isfinite(x)):
        raise RuntimeError("linear solve produced non-finite values")
    return x


def lu_solve(lu, rhs):
    """x = A^-1 rhs by the factorization ``lu`` of A; RuntimeError when x
    is not finite."""
    return _check_finite(lu.solve(rhs))


def solve_linear(A, rhs):
    """Sparse direct solve: :func:`factor`, then :func:`lu_solve`."""
    return lu_solve(factor(A), rhs)


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


def _gmres(apply, precondition, b):
    """(d, iterations, met): one cycle of at most ``GMRES_CAP`` Arnoldi
    steps on M d = b from d = 0, M v = ``apply(v)``, preconditioned from
    the right by ``precondition(v)`` = P^-1 v for some P: GMRES solves
    M P^-1 y = b, d = P^-1 y, so the residual it minimizes is M's own and
    from zero never grows (Saad & Schultz 1986).

    The basis is orthogonalized by classical Gram-Schmidt applied twice,
    and the Hessenberg columns are reduced by Givens rotations, whose last
    one gives the residual norm of the least-squares iterate.  The cycle
    stops when that estimate is at most ``GMRES_RTOL`` ||b|| or the basis
    breaks down (the new vector vanishes against M's scale).  ``met``: the
    residual ||b - M d||, computed, is at most ``GMRES_RTOL`` ||b|| (d is
    then finite)."""
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros(len(b)), 0, True
    tol, eps = GMRES_RTOL * beta, np.finfo(float).eps
    V = np.empty((GMRES_CAP + 1, len(b)))
    R = np.zeros((GMRES_CAP, GMRES_CAP))  # the rotated Hessenberg columns
    rotations = []
    g = [beta]          # the rotated right-hand side beta e_1
    V[0] = b / beta
    for k in range(GMRES_CAP):
        w = apply(precondition(V[k]))
        scale = float(np.linalg.norm(w))
        basis = V[:k + 1]
        h = basis @ w
        w = w - h @ basis   # not in place: apply may return its argument
        h2 = basis @ w
        w -= h2 @ basis
        h += h2
        h_next = float(np.linalg.norm(w))
        breakdown = h_next <= eps * scale
        if not breakdown:
            V[k + 1] = w / h_next
        col = h.tolist() + [0.0 if breakdown else h_next]
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], \
                c * col[i + 1] - s * col[i]
        r = math.hypot(col[k], col[k + 1])
        c, s = (col[k] / r, col[k + 1] / r) if r > 0.0 else (1.0, 0.0)
        rotations.append((c, s))
        R[:k, k], R[k, k] = col[:k], r
        g[k], g_k1 = c * g[k], -s * g[k]
        g.append(g_k1)
        if abs(g_k1) <= tol or breakdown:
            break
    steps = k + 1
    # a zero last pivot (M P^-1 maps the last basis vector to 0) leaves
    # that vector out of the iterate
    m = steps if r != 0.0 else k
    y = solve_triangular(R[:m, :m], g[:m], check_finite=False)
    d = precondition(y @ V[:m])
    residual = float(np.linalg.norm(b - apply(d)))
    return d, steps, residual <= tol


def block_inverse(blocks):
    """v -> P^-1 v for the block-diagonal P of the 4x4 ``blocks``
    (n_cells, 4, 4), one per cell's nodes 4c..4c+3; None when a block is
    singular or its inverse is not finite."""
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(inv)):
        return None
    return lambda v: np.matmul(inv, v.reshape(-1, 4, 1)).ravel()


class LinearSolves:
    """The linear solves of one nonlinear solve.

    Each solve is M d = -T(u) at a :class:`Linearization`: M is the Picard
    matrix A for a Picard update u + omega d, and the Jacobian
    J = A + C d alpha/du (:attr:`Linearization.jacobian_terms`, three
    products in S) for a Newton direction d.  Its preconditioner comes from
    P, which is A for a Picard update and A + C diag(d alpha/du) for a
    Newton direction; that keeps the detector term's dependence on each
    node's own value and so stays in S.

    - On a theta-step, M_tilde/dt + theta K_tilde is dominated by the
      cell-block-diagonal mass, so one :func:`_gmres` cycle preconditioned
      by the inverses of the 4x4 cell blocks of the iterate's own P
      (:func:`block_inverse`) solves.  A cycle that misses its tolerance,
      or a singular or non-finite block, latches the call to factoring.
    - Steady, a factorization kept from an earlier iterate preconditions
      one :func:`_gmres` cycle, which solves if it meets the tolerance.
    - Otherwise the solve factors (:func:`factor`) its iterate's own P.  A
      Picard update solves directly, (1 - omega) u + omega A^-1 rhs; a
      Newton direction takes the iterate of one GMRES cycle preconditioned
      by LU(P), met or not.  Unless latched, the factorization is kept.
    - The first miss latches: every later solve factors its own P and
      keeps nothing.  The missed factorization is dropped before the new
      one is built, so at most one is alive."""

    def __init__(self):
        self.lu = None          # factorization kept from an earlier iterate
        self.latched = False    # a cycle has missed or a block was singular

    def __call__(self, state, trace, omega=None):
        """The Newton direction at the Linearization ``state`` or, given
        ``omega``, its Picard update relaxed by omega.  Its GMRES
        iterations and factorizations are added to the last record of
        ``trace``.  RuntimeError when the result is not finite."""
        A = state.system[0]
        b = -state.residual
        newton = omega is None
        S = state.problem.nodes.pattern
        if newton:
            C, dalpha = state.jacobian_terms

        def apply(v):
            return A @ v + C @ (dalpha @ v) if newton else A @ v

        def p_data():
            """The data of P in S."""
            if not newton:
                return A.data
            return A.data + C.data * dalpha.data[S.diag][S.indices]

        def cycle(precondition):
            """One GMRES cycle; its result if it met the tolerance."""
            d, iterations, met = _gmres(apply, precondition, b)
            trace.gmres_iters[-1] += iterations
            if met:
                return d if newton else state.u + omega * d
        if state.dt is not None and not self.latched:
            precondition = block_inverse(p_data()[S.cell_blocks])
            x = None if precondition is None else cycle(precondition)
            if x is not None:
                return x
            self.latched = True
        if self.lu is not None:
            x = cycle(self.lu.solve)
            if x is not None:
                return x
            self.lu, self.latched = None, True
        lu = factor(S.matrix(p_data()))
        if newton:
            x, iterations, _ = _gmres(apply, lu.solve, b)
            trace.gmres_iters[-1] += iterations
            _check_finite(x)
        else:
            x = (1.0 - omega) * state.u + omega * lu_solve(lu, state.system[1])
        trace.factorizations[-1] += 1
        if not self.latched:
            self.lu = lu
        return x


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


# -- the nonlinear loop -------------------------------------------------------

STALL_WINDOW = 10   # hybrid records without a 1% improvement before Newton


def _line_search(state, norm, step, cfg):
    """(lam, trial): the first step length lam = rho**k, k < max_backtracks,
    along ``step`` from the :class:`Linearization` ``state`` (residual norm
    ``norm``) that meets Armijo's condition on 1/2 ||T||^2, and the
    Linearization there; (0.0, None) when none does."""
    phi0, lam = 0.5 * norm**2, 1.0
    for _ in range(cfg.max_backtracks):
        trial = state.at(state.u + lam * step)
        phi = 0.5 * float(np.linalg.norm(trial.residual))**2
        if phi <= (1.0 - 2.0 * cfg.c1 * lam) * phi0:
            return lam, trial
        lam *= cfg.rho
    return 0.0, None


def _iterate(problem, u0, cfg, bounds, dt, u_old, theta, hybrid):
    """The loop of :func:`picard` and :func:`hybrid_newton`: linearize,
    record, test, stop, step; returns (u, trace).

    Each iterate is linearized once (one detector pass) and recorded once;
    it has converged at ||T|| <= tol ||rhs||, T = A u - rhs of its Picard
    system.  At most ``max_iter`` steps are made, so the last record is the
    returned iterate's.  A step is a Picard update relaxed by omega (step
    length omega; the iterate's Linearization is freed before the next is
    built) or a Newton direction with :func:`_line_search` (step length the
    accepted lam; the Picard update, step length 0, when none is).  With
    ``hybrid``, Newton starts at the first iterate within ``switch_tol``
    ||rhs|| or after ``STALL_WINDOW`` records without a 1% improvement, and
    ||rhs|| stays that iterate's.  One :class:`LinearSolves` solves all."""
    cfg = cfg or SolverConfig()
    solves, trace = LinearSolves(), SolveTrace()
    state = problem.linearize(_initial_guess(problem, u0), dt, u_old, theta)
    newton, best, since_best = False, np.inf, 0
    while True:
        norm = float(np.linalg.norm(state.residual))
        if not newton:
            ref = max(float(np.linalg.norm(state.system[1])), 1e-300)
        trace.record(norm, None if bounds is None else osc(state.u, *bounds),
                     np.count_nonzero(state.alpha >= 1.0), np.nan)
        trace.converged = norm <= cfg.tol * ref
        if trace.converged or trace.iterations > cfg.max_iter:
            return state.u, trace
        if hybrid and not newton:
            if norm < 0.99 * best:
                best, since_best = norm, 0
            else:
                since_best += 1
            newton = norm <= cfg.switch_tol * ref \
                or since_best >= STALL_WINDOW
        if newton:
            lam, trial = _line_search(state, norm, solves(state, trace), cfg)
            trace.step_lengths[-1] = lam
            if trial is not None:
                state = trial
                continue
        else:
            trace.step_lengths[-1] = cfg.omega
        u = solves(state, trace, cfg.omega)
        del state
        state = problem.linearize(u, dt, u_old, theta)


def picard(problem: StabilizedProblem, u0=None, cfg: Optional[SolverConfig] = None,
           bounds=None, dt=None, u_old=None, theta=1.0):
    """Fixed-point iteration with lagged viscosities and relaxation omega:
    every step of :func:`_iterate` is a Picard update.  Steady by default;
    passing (dt, u_old, theta) iterates on the theta-method step instead."""
    return _iterate(problem, u0, cfg, bounds, dt, u_old, theta, hybrid=False)


def hybrid_newton(problem: StabilizedProblem, u0=None,
                  cfg: Optional[SolverConfig] = None, bounds=None,
                  dt=None, u_old=None, theta=1.0):
    """Picard updates to the switch tolerance or a stall, then damped Newton
    with line search, in one loop (:func:`_iterate`).  Newton's Jacobian is
    exact for the smoothed residual.  Where the smoothed detector is not
    differentiable it is the derivative of the active branch: the first
    candidate cell attaining the max (min) at a symmetric point, the
    all-max or all-min assignment np.maximum keeps per node, and zero where
    the ramp Z saturates or the clip to [0, 1] binds."""
    if problem.params.enabled and problem.params.mode != "smoothed":
        raise ValueError("hybrid Newton requires the smoothed stabilization")
    return _iterate(problem, u0, cfg, bounds, dt, u_old, theta, hybrid=True)


def solver(method):
    """The nonlinear solver named ``method``: ``"picard"`` for
    :func:`picard`, ``"hybrid"`` for :func:`hybrid_newton`.  Both are
    looked up when called, so a replacement of either module name is seen."""
    solvers = {"picard": picard, "hybrid": hybrid_newton}
    if method not in solvers:
        raise ValueError(f"unknown nonlinear method {method!r}; "
                         f"available: {sorted(solvers)}")
    return solvers[method]


# -- time stepping ------------------------------------------------------------

def theta_step(problem, u_old, dt, theta, cfg=None, method="picard",
               bounds=None, enforce_cfl=False):
    """One theta-method step; returns (u_new, trace).  ValueError unless
    theta is in [0, 1] and dt is finite and > 0.  With ``enforce_cfl`` and
    theta < 1, also ValueError when dt exceeds the positivity bound at
    u_old, before the solve, or, for theta > 0, at the stage state
    theta u_new + (1 - theta) u_old of the returned step."""
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must be in [0, 1], got {theta!r}")
    if not 0.0 < dt < np.inf:
        raise ValueError(f"time step dt must be finite and > 0, got {dt!r}")

    def check_cfl(u, where):
        limit = problem.cfl_bound(u, theta)
        if dt > limit:
            raise ValueError(f"time step {dt:g} exceeds the CFL bound "
                             f"{limit:g} at {where}: margin {limit - dt:.3g}")
    if enforce_cfl and theta < 1.0:
        check_cfl(u_old, "u_old")
    u_new, trace = solver(method)(problem, u_old, cfg, bounds, dt=dt,
                                  u_old=u_old, theta=theta)
    if enforce_cfl and 0.0 < theta < 1.0:
        check_cfl(theta * u_new + (1.0 - theta) * u_old, "the stage state")
    return u_new, trace


def run_transient(problem, u0, dt, theta, n_steps, cfg=None,
                  method="picard", bounds=None, enforce_cfl=False):
    """``n_steps`` sequential :func:`theta_step` calls from u0, with the
    other arguments passed through; returns (u_final, per-step traces).
    ValueError unless n_steps is an integer >= 1.

    Each unconverged step is returned as is and reported by a
    RuntimeWarning naming its index and final residual."""
    check_count("n_steps", n_steps)
    u = np.asarray(u0, dtype=float).copy()
    traces = []
    for n in range(n_steps):
        u, tr = theta_step(problem, u, dt, theta, cfg, method, bounds,
                           enforce_cfl)
        if not tr.converged:
            warnings.warn(f"time step {n} did not converge: residual "
                          f"{tr.residuals[-1]:.3e} after {tr.iterations} "
                          "iterations", RuntimeWarning, stacklevel=2)
        traces.append(tr)
    return u, traces

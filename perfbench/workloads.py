"""The benchmark's workloads: inputs from a seed, set-up, solve and checks.

Each workload is run in rounds.  A round builds the problem from generated
inputs (timed as set-up), runs its operations (timed as solve) and then
checks every operation's output against properties the method must have.
An operation is one steady solve or one time step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dgmono
from dgmono.stabilization import StabilizedProblem

BOUNDS = (0.0, 1.0)
JITTER = 0.2  # interior-vertex jitter of the perturbed mesh, in units of h


# -- inputs -------------------------------------------------------------------

def perturbed_grid(n, seed):
    """Vertices and counter-clockwise cells of an n-by-n grid on the unit
    square whose interior vertices are moved uniformly within +-JITTER*h in
    each coordinate, drawn from ``np.random.default_rng(seed)``.  A move
    below h/4 keeps every cell convex; that is checked here as well."""
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    interior = ((vertices > 0.0) & (vertices < 1.0)).all(axis=1)
    rng = np.random.default_rng(seed)
    h = 1.0 / n
    vertices[interior] += rng.uniform(-JITTER * h, JITTER * h,
                                      size=(int(interior.sum()), 2))
    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    cells = np.column_stack([vid[:-1, :-1].ravel(), vid[:-1, 1:].ravel(),
                             vid[1:, 1:].ravel(), vid[1:, :-1].ravel()])
    p = vertices[cells]
    e = np.roll(p, -1, axis=1) - p
    turn = e[..., 0] * np.roll(e, -1, axis=1)[..., 1] \
        - e[..., 1] * np.roll(e, -1, axis=1)[..., 0]
    if not (turn > 0.0).all():
        raise ValueError("perturbed grid has a non-convex cell")
    return vertices, cells


# -- set-up -------------------------------------------------------------------

@dataclass
class Setup:
    problem: StabilizedProblem
    u0: np.ndarray = None


def _build(case, tracer, make_mesh):
    with tracer.span("mesh.build"):
        mesh = make_mesh()
        nodes = dgmono.build_dg_nodes(mesh)
    with tracer.span("stabilization.problem"):
        problem = StabilizedProblem(mesh, nodes, case.spec, case.params)
    with tracer.span("detector.first_topology"):
        nodes.pair_topology()
    return problem


def setup_sharp_layer(make_mesh):
    def setup(inputs, tracer):
        case = dgmono.get_case("sharp-layer")
        return Setup(_build(case, tracer, lambda: make_mesh(inputs)))
    return setup


def setup_three_body(n, tracer):
    case = dgmono.get_case("three-body", sigma=1e-2, tau=1e-4)
    problem = _build(case, tracer, lambda: dgmono.build_structured_quad(n, n))
    coords = problem.nodes.coords
    return Setup(problem, case.spec.u0(coords[:, 0], coords[:, 1]))


# -- operations and their checks ----------------------------------------------

@dataclass
class Op:
    """One operation's output: the state before and after, and the trace."""

    u_old: np.ndarray
    u: np.ndarray
    trace: object


def solve_steady(method, cfg):
    def run(setup):
        u, trace = method(setup.problem, cfg=cfg, bounds=BOUNDS)
        return [Op(None, u, trace)]
    return run


def solve_backward_euler(n_steps, dt, cfg):
    def run(setup):
        ops, u = [], setup.u0
        for _ in range(n_steps):
            u_new, trace = dgmono.theta_step(setup.problem, u, dt=dt,
                                             theta=1.0, cfg=cfg,
                                             method="hybrid")
            ops.append(Op(u, u_new, trace))
            u = u_new
        return ops
    return run


def check_steady(tol, osc_tol):
    """Converged residual from the assembled operators meets the tolerance
    and matches the matrix-free residual; the solution stays in the data
    range; the DMP audit finds no violation."""
    def check(setup, op):
        prob, u = setup.problem, op.u
        Kt, Bt = prob.operators(u)
        rhs = prob.rhs(Bt)
        r_asm = Kt @ u - rhs
        r_mf = prob.residual_steady(u)
        ref = float(np.linalg.norm(rhs))
        res = float(np.linalg.norm(r_asm))
        errors = []
        if res > tol * ref:
            errors.append(f"assembled residual {res:.3e} > {tol:g} * {ref:.3e}")
        gap = float(np.linalg.norm(r_asm - r_mf))
        if gap > 1e-10 * max(ref, res):
            errors.append(f"matrix-free residual differs by {gap:.3e}")
        if dgmono.osc(u) > osc_tol:
            errors.append(f"osc {dgmono.osc(u):.3e} > {osc_tol:g}")
        violations = prob.audit(u)
        if violations:
            errors.append(f"{len(violations)} DMP audit violations")
        return errors
    return check


def check_led_step(dt):
    """Backward-Euler step stays in [0, 1] and has the local-extremum-
    diminishing sign at every detected extremum of the new state, up to the
    per-node slack the solver's leftover residual allows."""
    def check(setup, op):
        prob, u, u_old = setup.problem, op.u, op.u_old
        nodes, ubar = prob.nodes, prob.ubar_vec
        errors = []
        if dgmono.osc(u) > 0.0:
            errors.append(f"step leaves [0, 1]: osc {dgmono.osc(u):.3e}")
        delta = u - u_old
        resid = prob.residual_transient(u, u_old, dt, 1.0)
        slack = dt * np.abs(resid) / nodes.m \
            + 1e-12 * max(1.0, float(np.abs(delta).max()))
        _, Bt = prob.operators(u)
        Bt = Bt.tocsr()
        bad = 0
        for a in np.flatnonzero(prob.alpha(u) >= 1.0):
            nb = nodes.neighbors(a)
            hi, lo = u[nb].max(), u[nb].min()
            bcols = Bt.indices[Bt.indptr[a]:Bt.indptr[a + 1]]
            if len(bcols):
                hi = max(hi, ubar[bcols].max())
                lo = min(lo, ubar[bcols].min())
            if (u[a] >= hi and delta[a] > slack[a]) or \
                    (u[a] <= lo and delta[a] < -slack[a]):
                bad += 1
        if bad:
            errors.append(f"LED sign violated at {bad} extrema")
        return errors
    return check


# -- line-search accounting ---------------------------------------------------

def newton_counts(traces, picard_phase_iters, cfg):
    """(trials, accepted, fallbacks) of the hybrid solver's line search.

    ``step_lengths`` of a Newton record holds the accepted step
    ``rho**k`` after k rejected trials, 0 after a Picard fallback (all
    ``max_backtracks`` trials rejected), or NaN on the final record."""
    trials = accepted = fallbacks = 0
    for trace, k0 in zip(traces, picard_phase_iters):
        for lam in trace.step_lengths[k0:]:
            if lam > 0.0:
                accepted += 1
                trials += round(math.log(lam) / math.log(cfg.rho)) + 1
            elif lam == 0.0:
                fallbacks += 1
                trials += cfg.max_backtracks
    return trials, accepted, fallbacks


# -- the workloads ------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool           # whether the inputs depend on the seed
    make_inputs: Callable  # seed -> inputs handed to setup
    setup: Callable        # (inputs, tracer) -> Setup
    solve: Callable        # Setup -> list of Op
    check: Callable        # (Setup, Op) -> list of error strings
    warm_inputs: object    # small inputs that walk the same code path
    cfg: object


PICARD_N = 48
HYBRID_N = 50
THREE_BODY_N = 16
THREE_BODY_STEPS = 1
DT = 5e-3

_picard_cfg = dgmono.SolverConfig(tol=1e-4, max_iter=500)
_hybrid_cfg = dgmono.SolverConfig(tol=1e-4, max_iter=60)
_three_body_cfg = dgmono.SolverConfig(tol=1e-8, max_iter=80)

WORKLOADS = {
    "sharp-layer-picard": Workload(
        name="sharp-layer-picard",
        seeded=True,
        make_inputs=lambda seed: perturbed_grid(PICARD_N, seed),
        setup=setup_sharp_layer(lambda grid: dgmono.Mesh(*grid)),
        solve=solve_steady(dgmono.picard, _picard_cfg),
        check=check_steady(_picard_cfg.tol, 1e-12),
        warm_inputs=perturbed_grid(6, 0),
        cfg=_picard_cfg),
    "sharp-layer-hybrid": Workload(
        name="sharp-layer-hybrid",
        seeded=False,
        make_inputs=lambda seed: HYBRID_N,
        setup=setup_sharp_layer(
            lambda n: dgmono.build_structured_quad(n, n)),
        solve=solve_steady(dgmono.hybrid_newton, _hybrid_cfg),
        check=check_steady(_hybrid_cfg.tol, 1e-4),
        warm_inputs=6,
        cfg=_hybrid_cfg),
    "three-body-be-hybrid": Workload(
        name="three-body-be-hybrid",
        seeded=False,
        make_inputs=lambda seed: THREE_BODY_N,
        setup=setup_three_body,
        solve=solve_backward_euler(THREE_BODY_STEPS, DT, _three_body_cfg),
        check=check_led_step(DT),
        warm_inputs=4,
        cfg=_three_body_cfg),
}

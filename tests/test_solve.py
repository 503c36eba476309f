"""Nonlinear solvers, Jacobian machinery and theta time stepping."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import dgmono

from dgmono import (Mesh, SolverConfig, build_dg_nodes, build_structured_quad,
                    detector, get_case, hybrid_newton, picard, run_transient,
                    solve, solve_linear, theta_step)
from dgmono import ProblemSpec, StabilizationParams
from dgmono.detector import DetectorPass
from dgmono.solve import SolveTrace, color_columns, fd_jacobian
from dgmono.stabilization import StabilizedProblem

from .oracles import assembled_jacobian, jacobian_pattern
from .test_mesh import perturbed_mesh

from .test_stabilization import (assert_close, coo_jacobian_terms,
                                 coo_system, make_problem)


class TestConfig:
    def test_solver_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=1e-2, switch_tol=1e-4)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(omega=0.0)

    @pytest.mark.parametrize("field, value, match", [
        ("rho", 0.0, "rho"), ("rho", 1.0, "rho"), ("rho", -0.5, "rho"),
        ("c1", 0.0, "c1"), ("c1", 0.5, "c1"), ("c1", -1e-4, "c1"),
        ("max_backtracks", 0, "max_backtracks")])
    def test_line_search_validation(self, field, value, match):
        # rho = 0 makes the second trial lambda = 0, accepted with no
        # progress; max_backtracks = 0 makes every Newton step a fallback
        with pytest.raises(ValueError, match=match):
            SolverConfig(**{field: value})

    # a non-integral or non-finite count would never stop the loop (or
    # fail only at the first Newton step)
    @pytest.mark.parametrize("field", ["max_iter", "max_backtracks"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 2.5, 0, -1, True])
    def test_counts_are_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolverConfig(**{field: value})

    def test_line_search_limits_accepted(self):
        cfg = SolverConfig(rho=0.99, c1=0.49, max_backtracks=1)
        assert (cfg.rho, cfg.c1, cfg.max_backtracks) == (0.99, 0.49, 1)
        assert SolverConfig(max_iter=np.int64(3)).max_iter == 3

    def test_loop_validation(self):
        prob = make_problem(3)
        u0 = np.zeros(prob.nodes.n_nodes)
        for name, value in [("theta", 1.5), ("dt", 0.0), ("n_steps", 0),
                            ("n_steps", np.nan), ("n_steps", 2.5)]:
            kw = dict(dt=1e-3, theta=0.5, n_steps=1) | {name: value}
            with pytest.raises(ValueError, match=name):
                run_transient(prob, u0, **kw)


class TestLinearSolve:
    def test_direct(self):
        rng = np.random.default_rng(0)
        A = sp.csc_matrix(rng.standard_normal((6, 6)) + 6 * np.eye(6))
        b = rng.standard_normal(6)
        x = solve_linear(A, b)
        assert np.allclose(A @ x, b, atol=1e-12)

    def test_singular_raises(self):
        A = sp.csc_matrix(np.zeros((3, 3)))
        with pytest.raises(RuntimeError):
            solve_linear(A, np.ones(3))

    def test_zero_diagonal(self):
        # the diagonal pivot threshold must still pivot off a zero diagonal:
        # rows of a diagonally dominant tridiagonal matrix shifted by three
        rng = np.random.default_rng(1)
        n = 12
        D = (np.diag(10.0 + rng.uniform(size=n))
             + np.diag(rng.uniform(-1.0, 1.0, n - 1), 1)
             + np.diag(rng.uniform(-1.0, 1.0, n - 1), -1))
        A = sp.csr_matrix(D[np.roll(np.arange(n), 3)])
        assert not A.diagonal().any()
        b = rng.standard_normal(n)
        x = solve_linear(A, b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    @staticmethod
    def dg_systems():
        """(A, b) of three dG systems: the mu = 0 smooth Picard matrix on 8^2,
        a sharp-layer Picard matrix on a jittered 6^2 mesh, and a
        Crank-Nicolson Jacobian of the three-body rotation on 4^2."""
        rng = np.random.default_rng(2)
        out = []
        for case, mesh in (
                (get_case("smooth", mu=0.0, q=10.0, sigma=1e-2, tau=1e-4,
                          gamma=1e-2), build_structured_quad(8, 8)),
                (get_case("sharp-layer"), jittered_mesh(6, 3))):
            nodes = build_dg_nodes(mesh)
            prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
            out.append(prob.linearize(
                rng.uniform(0.0, 1.0, nodes.n_nodes)).system)
        case = get_case("three-body", sigma=1e-2, tau=1e-4)
        mesh = build_structured_quad(4, 4)
        nodes = build_dg_nodes(mesh)
        prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
        u_old = case.spec.u0(nodes.coords[:, 0], nodes.coords[:, 1])
        u = u_old + 0.05 * rng.standard_normal(nodes.n_nodes)
        state = prob.linearize(u, 5e-3, u_old, 0.5)
        out.append((assembled_jacobian(state), -state.residual))
        return out

    def test_matches_dense_solve_on_dg_systems(self):
        for A, b in self.dg_systems():
            x = solve_linear(A, b)
            ref = np.linalg.solve(A.toarray(), b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


class TestGmresCycle:
    """solve._gmres against scipy's gmres on the same right-preconditioned
    operator M P^-1, one cycle of GMRES_CAP iterations from zero."""

    @staticmethod
    def scipy_cycle(M, precondition, b):
        """(d, iterations, met) of scipy's gmres, as _gmres reports them."""
        n, residuals = len(b), []
        y, info = spla.gmres(
            spla.LinearOperator((n, n), matvec=lambda v: M @ precondition(v),
                                dtype=float),
            b, rtol=solve.GMRES_RTOL, atol=0.0, restart=solve.GMRES_CAP,
            maxiter=1, callback=residuals.append, callback_type="pr_norm")
        return precondition(y), len(residuals), info == 0

    @staticmethod
    def block_system(seed, spread):
        """A random nonsymmetric 200x200 system 4 I + spread N(0, 1), its
        cell-block preconditioner and a right-hand side."""
        rng = np.random.default_rng(seed)
        n = 200
        M = 4.0 * np.eye(n) + spread * rng.standard_normal((n, n))
        cells = np.arange(n // 4)
        blocks = M.reshape(n // 4, 4, n // 4, 4)[cells, :, cells, :]
        return M, solve.block_inverse(blocks), rng.standard_normal(n)

    # 0.05: met in about 11 iterations; 0.3: missed at the cap
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spread", [0.05, 0.3])
    def test_matches_scipy(self, seed, spread):
        M, precondition, b = self.block_system(seed, spread)
        d, iterations, met = solve._gmres(lambda v: M @ v, precondition, b)
        want, want_iterations, want_met = self.scipy_cycle(M, precondition,
                                                           b)
        assert (iterations, met) == (want_iterations, want_met)
        assert met == (spread == 0.05)
        bound = np.linalg.cond(M) * solve.GMRES_RTOL
        assert np.linalg.norm(d - want) <= bound * np.linalg.norm(want)
        if met:
            assert np.linalg.norm(b - M @ d) <= \
                solve.GMRES_RTOL * np.linalg.norm(b)

    def test_zero_rhs(self):
        M, precondition, b = self.block_system(0, 0.05)
        d, iterations, met = solve._gmres(lambda v: M @ v, precondition,
                                          np.zeros_like(b))
        assert (iterations, met) == (0, True)
        assert not d.any() and d.shape == b.shape

    def test_cap_of_one_misses(self, monkeypatch):
        M, precondition, b = self.block_system(0, 0.05)
        monkeypatch.setattr(solve, "GMRES_CAP", 1)
        d, iterations, met = solve._gmres(lambda v: M @ v, precondition, b)
        assert (iterations, met) == (1, False)
        assert self.scipy_cycle(M, precondition, b)[1:] == (1, False)
        assert np.all(np.isfinite(d))

    def test_breakdown_stops_at_once(self):
        # the identity: the Krylov space is spanned by b, and the basis
        # breaks down after one step with b solved to rounding
        b = np.random.default_rng(3).standard_normal(12)
        d, iterations, met = solve._gmres(lambda v: v, lambda v: v, b)
        assert (iterations, met) == (1, True)
        assert np.linalg.norm(d - b) <= 1e-15 * np.linalg.norm(b)

    def test_zero_operator_misses(self):
        # M P^-1 maps b to 0: a zero pivot, left out of the iterate d = 0
        b = np.ones(8)
        d, iterations, met = solve._gmres(lambda v: 0.0 * v, lambda v: v, b)
        assert (iterations, met) == (1, False)
        assert not d.any()


class TestPicard:
    def test_linear_problem_converges_immediately(self):
        prob = make_problem(4, enabled=False)
        u, trace = picard(prob, cfg=SolverConfig(tol=1e-12, max_iter=10))
        assert trace.converged
        assert trace.iterations <= 3
        assert np.abs(prob.residual_steady(u)).max() < 1e-10

    def test_stabilized_converges_with_dmp(self):
        # Picard limit-cycles on this layer problem (the h^4-scaled smoothing
        # is effectively nonsmooth); the hybrid solver must converge and the
        # converged state must satisfy the DMP and a clean operator audit
        prob = make_problem(6, mu=1e-4)
        u, trace = hybrid_newton(prob, cfg=SolverConfig(tol=1e-6,
                                                        max_iter=200),
                                 bounds=(0.0, 1.0))
        assert trace.converged
        assert u.min() >= -1e-8 and u.max() <= 1.0 + 1e-8
        assert prob.audit(u) == []

    def test_non_finite_start_raises(self):
        prob = make_problem(3)
        u0 = np.zeros(prob.nodes.n_nodes)
        u0[4] = np.nan
        with pytest.raises(ValueError, match="u has 1 non-finite entries"):
            picard(prob, u0)

    def test_unconverged_last_record_counts_active_alpha(self):
        # the record of the final iterate, after max_iter updates, holds
        # the same quantities as every other record
        prob = make_problem(4, mode="raw")
        cfg = SolverConfig(tol=1e-12, max_iter=3)
        u, trace = picard(prob, cfg=cfg)
        assert not trace.converged
        assert trace.iterations == cfg.max_iter + 1
        active = np.count_nonzero(prob.alpha(u) >= 1.0)
        assert active > 0
        assert trace.alpha_active[-1] == active
        assert trace.residuals[-1] == np.linalg.norm(
            prob.residual_steady(u))

    def test_trace_csv(self, tmp_path):
        prob = make_problem(3)
        _, trace = picard(prob, cfg=SolverConfig(tol=1e-6, max_iter=50),
                          bounds=(0.0, 1.0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("iteration,residual,osc,alpha_active,"
                            "step_length,gmres_iters,factorizations")
        assert len(lines) == trace.iterations + 1
        rows = [line.split(",") for line in lines[1:]]
        assert [int(r[-2]) for r in rows] == trace.gmres_iters
        assert [int(r[-1]) for r in rows] == trace.factorizations

    def test_step_length_is_set_when_the_update_is_made(self):
        # every record but the last makes an update with step omega; the
        # last makes none and keeps NaN.  The hybrid records its switch
        # iterate once, with Newton's accepted step
        cfg = SolverConfig(tol=1e-8, max_iter=12, omega=0.7)
        _, trace = picard(make_problem(5), cfg=cfg)
        assert trace.iterations > 2
        assert trace.step_lengths[:-1] == [0.7] * (trace.iterations - 1)
        assert np.isnan(trace.step_lengths[-1])
        _, trace = hybrid_newton(sharp_layer(10))
        np.testing.assert_array_equal(trace.step_lengths, [1.0, 1.0, np.nan])

    @pytest.mark.parametrize("omega", [1.0, 0.7])
    def test_kept_lu_matches_fresh_factorizations(self, monkeypatch, omega):
        # the updates after the first solve by GMRES preconditioned by the
        # kept LU, to GMRES_RTOL, not directly: every iterate agrees with
        # the loop that factors each A to that order (1.1e-9 at worst
        # here), not bitwise, and the iteration stops at the same record
        prob = make_problem(5)
        cfg = SolverConfig(tol=1e-8, max_iter=12, omega=omega)
        iterates = []

        def linearize(u, *args, _linearize=prob.linearize):
            iterates.append(u.copy())
            return _linearize(u, *args)
        monkeypatch.setattr(prob, "linearize", linearize)
        u, trace = picard(prob, cfg=cfg)
        monkeypatch.undo()
        assert trace.iterations > 3
        assert sum(trace.factorizations) < trace.iterations - 1
        v = solve._initial_guess(prob, None)
        for it, got in enumerate(iterates):
            assert np.linalg.norm(got - v) \
                <= solve.GMRES_RTOL * np.linalg.norm(v)
            A, rhs = prob.linearize(v).system
            if it == cfg.max_iter or np.linalg.norm(A @ v - rhs) \
                    <= cfg.tol * np.linalg.norm(rhs):
                break
            v = (1.0 - omega) * v + omega * solve_linear(A, rhs)
        assert it + 1 == trace.iterations
        assert np.array_equal(u, iterates[-1])


class TestJacobian:
    def test_coloring_valid(self):
        prob = make_problem(4)
        P = jacobian_pattern(prob)
        colors, n_colors = color_columns(P)
        assert n_colors >= 1
        Pc = P.tocsc()
        for c in range(n_colors):
            cols = np.flatnonzero(colors == c)
            seen = set()
            for j in cols:
                rows = set(Pc.indices[Pc.indptr[j]:Pc.indptr[j + 1]].tolist())
                assert not (rows & seen)
                seen |= rows

    def test_fd_jacobian_quadratic_map(self):
        n = 8
        rng = np.random.default_rng(1)
        A = rng.standard_normal((n, n))

        def residual(v):
            return A @ v + v**2

        u = rng.standard_normal(n)
        P = sp.csc_matrix(np.ones((n, n)))
        colors, nc = color_columns(P)
        J = fd_jacobian(residual, u, residual(u), P, colors, nc).toarray()
        exact = A + np.diag(2 * u)
        assert np.allclose(J, exact, atol=1e-6)

    def test_pattern_covers_residual_coupling(self):
        prob = make_problem(3)
        P = jacobian_pattern(prob).toarray()
        rng = np.random.default_rng(2)
        u = rng.standard_normal(prob.nodes.n_nodes)
        T0 = prob.residual_steady(u)
        for j in rng.integers(prob.nodes.n_nodes, size=6):
            up = u.copy()
            up[j] += 1e-6
            dT = prob.residual_steady(up) - T0
            touched = np.flatnonzero(np.abs(dT) > 1e-12)
            assert np.all(P[touched, j] > 0)


def jittered_mesh(n, seed):
    """n x n grid whose interior vertices move uniformly within +-0.2h in x
    and y (every cell stays convex)."""
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])
    interior = ((vertices > 0.0) & (vertices < 1.0)).all(axis=1)
    rng = np.random.default_rng(seed)
    vertices[interior] += rng.uniform(-0.2 / n, 0.2 / n,
                                      size=(int(interior.sum()), 2))
    vid = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    cells = np.column_stack([vid[:-1, :-1].ravel(), vid[:-1, 1:].ravel(),
                             vid[1:, 1:].ravel(), vid[1:, :-1].ravel()])
    return Mesh(vertices, cells)


def jittered_problem(n, seed, **kw):
    """make_problem on :func:`jittered_mesh`."""
    return make_problem(mesh=jittered_mesh(n, seed), **kw)


# (problem factory, time step as (dt, theta) or None for steady)
JACOBIAN_CASES = {
    "steady": (lambda: make_problem(6), None),
    "backward-euler": (lambda: make_problem(6), (1e-2, 1.0)),
    "crank-nicolson": (lambda: make_problem(6), (1e-2, 0.5)),
    "jittered": (lambda: jittered_problem(6, 1), None),
    "jittered-cn": (lambda: jittered_problem(6, 2), (1e-2, 0.5)),
    "no-extrapolation": (
        lambda: make_problem(6, boundary_extrapolation=False), None),
    "disabled": (lambda: make_problem(6, enabled=False), None),
    "disabled-cn": (lambda: make_problem(6, enabled=False), (1e-2, 0.5)),
}


class TestAnalyticJacobian:
    @pytest.fixture(params=sorted(JACOBIAN_CASES))
    def case(self, request):
        build, step = JACOBIAN_CASES[request.param]
        prob = build()
        rng = np.random.default_rng(7)
        n = prob.nodes.n_nodes
        u = rng.uniform(0.0, 1.0, n)
        if step is None:
            return prob, u, prob.residual_steady, {}
        dt, theta = step
        u_old = rng.uniform(0.0, 1.0, n)

        def residual(v):
            return prob.residual_transient(v, u_old, dt, theta)
        return prob, u, residual, dict(dt=dt, u_old=u_old, theta=theta)

    def test_alpha_is_the_detector(self, case):
        prob, u, _, kw = case
        s = u if not kw else kw["theta"] * u + (1 - kw["theta"]) * kw["u_old"]
        state = DetectorPass(prob.nodes, s, prob.trace, prob.params,
                             prob.scales)
        al, dal = state.alpha, state.jacobian()
        assert np.array_equal(al, prob.alpha(s))
        assert dal.shape == (prob.nodes.n_nodes,) * 2

    def test_matches_central_differences(self, case):
        prob, u, residual, kw = case
        J = assembled_jacobian(prob.linearize(u, **kw))
        rng = np.random.default_rng(3)
        eps = 1e-6 * max(1.0, float(np.abs(u).max()))
        for _ in range(10):
            d = rng.standard_normal(len(u))
            d /= np.linalg.norm(d)
            central = (residual(u + eps * d)
                       - residual(u - eps * d)) / (2 * eps)
            rel = np.linalg.norm(J @ d - central) / np.linalg.norm(central)
            assert rel <= 1e-6

    def test_matches_fd_jacobian_within_pattern(self, case):
        prob, u, residual, kw = case
        J = assembled_jacobian(prob.linearize(u, **kw)).tocoo()
        P = jacobian_pattern(prob)
        colors, n_colors = color_columns(P)
        J_fd = fd_jacobian(residual, u, residual(u), P, colors, n_colors)
        scale = np.abs(J.data).max()
        assert np.abs(J - J_fd).max() <= 1e-4 * scale
        nz = J.data != 0.0
        assert np.all(np.asarray(P[J.row[nz], J.col[nz]]).ravel() > 0)

    def test_raw_mode_rejected(self):
        prob = make_problem(3, mode="raw")
        with pytest.raises(ValueError, match="smoothed"):
            assembled_jacobian(prob.linearize(np.zeros(prob.nodes.n_nodes)))


class TestHybridNewton:
    def test_requires_smoothed(self):
        prob = make_problem(3, mode="raw")
        with pytest.raises(ValueError):
            hybrid_newton(prob)

    # every valid SolverConfig runs: the switch tolerance may be 1 or more,
    # and Newton starts at the first iterate within it
    @pytest.mark.parametrize("tol, switch_tol", [(1e-6, 1.0), (0.5, 5.0)])
    def test_any_valid_switch_tol(self, monkeypatch, tol, switch_tol):
        prob = make_problem(4)
        states = []     # the Picard iterates' Linearizations, from record 0

        def linearize(*args, _linearize=prob.linearize):
            states.append(_linearize(*args))
            return states[-1]
        monkeypatch.setattr(prob, "linearize", linearize)
        switches = switch_records(monkeypatch)
        cfg = SolverConfig(tol=tol, switch_tol=switch_tol, max_iter=50)
        u, trace = hybrid_newton(prob, cfg=cfg)
        within = [np.linalg.norm(s.residual)
                  <= switch_tol * np.linalg.norm(s.system[1]) for s in states]
        assert switches == [within.index(True)]
        assert trace.converged and np.all(np.isfinite(u))

    def test_stall_switches_to_newton(self, monkeypatch):
        # sharp layer with h^4-scaled smoothing: Picard limit-cycles above
        # switch_tol, so Newton starts STALL_WINDOW records after the best
        # residual, and converges to a tolerance Picard never meets
        prob = sharp_layer(10, sigma=1e-2, tau=1e-4, gamma=1e-2)
        switches = switch_records(monkeypatch)
        _, trace = hybrid_newton(prob, cfg=SolverConfig(tol=1e-12,
                                                        max_iter=400))
        best = int(np.argmin(trace.residuals[:switches[0]]))
        assert switches == [best + solve.STALL_WINDOW] == [13]
        assert trace.converged and trace.iterations == 25

    def test_disabled_stabilization(self):
        # d alpha/du is 0, stored in the node pattern like every other
        # per-iterate matrix, so Newton's preconditioner is A = J itself;
        # with switch_tol 1e10 Newton takes the first step, in one GMRES
        # iteration
        prob = sharp_layer(6, enabled=False)
        _, trace = hybrid_newton(prob)
        assert trace.converged and trace.iterations == 2
        _, trace = hybrid_newton(prob, cfg=SolverConfig(tol=1e-8,
                                                        switch_tol=1e10))
        assert trace.converged and trace.gmres_iters == [1, 0]

    @pytest.mark.parametrize("max_iter, converged",
                             [(2, False), (3, False), (4, True)])
    def test_last_record_is_the_returned_iterate(self, max_iter, converged):
        # the loop stops after max_iter records have stepped, and the
        # iterate it returns is the last record, tested for convergence
        prob = sharp_layer(10)
        u, trace = hybrid_newton(prob, cfg=SolverConfig(tol=1e-12,
                                                        max_iter=max_iter))
        assert trace.residuals[-1] == np.linalg.norm(
            prob.linearize(u).residual)
        assert trace.iterations == max_iter + 1
        assert trace.converged is converged
        assert (trace.residuals[-1] <= 1e-12) is converged

    def test_converges_quadratically_near_solution(self):
        prob = make_problem(6, mu=1e-4)
        cfg = SolverConfig(tol=1e-10, max_iter=100)
        u, trace = hybrid_newton(prob, cfg=cfg, bounds=(0.0, 1.0))
        assert trace.converged
        ref = np.linalg.norm(prob.rhs(prob.operators(u)[1]))
        assert np.linalg.norm(prob.residual_steady(u)) <= 1e-10 * ref


def at_newton_start(prob):
    """The Linearization at which the hybrid solver takes its first Newton
    direction on ``prob``: its switch iterate."""
    return newton_states(lambda: hybrid_newton(prob))[0]


def three_body_be_step(n=4):
    """(problem, u0) of a three-body backward-Euler step on n x n cells."""
    case = get_case("three-body", sigma=1e-2, tau=1e-4)
    mesh = build_structured_quad(n, n)
    nodes = build_dg_nodes(mesh)
    prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
    return prob, case.spec.u0(nodes.coords[:, 0], nodes.coords[:, 1])


def sharp_layer(n=10, **kw):
    case = get_case("sharp-layer", **kw)
    mesh = build_structured_quad(n, n)
    return StabilizedProblem(mesh, build_dg_nodes(mesh), case.spec,
                             case.params)


def three_body_be_solve(prob, u0):
    """The three-body backward-Euler step of :func:`three_body_be_step`,
    solved by the hybrid solver: (u, trace)."""
    return theta_step(prob, u0, dt=5e-3, theta=1.0,
                      cfg=SolverConfig(tol=1e-8, max_iter=40),
                      method="hybrid")


def newton_states(run):
    """The Linearizations at which ``run()`` takes a Newton direction."""
    states = []

    def recorded(self, state, trace, omega=None,
                 _solve=solve.LinearSolves.__call__):
        if omega is None:
            states.append(state)
        return _solve(self, state, trace, omega)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve.LinearSolves, "__call__", recorded)
        run()
    return states


def switch_records(monkeypatch):
    """Spy on ``LinearSolves.__call__``: per solve that takes a Newton
    direction, in call order, the index of the record that takes its first
    (the hybrid's switch iterate) is appended to the list returned."""
    traces, switches = [], []

    def spied(self, state, trace, omega=None,
              _solve=solve.LinearSolves.__call__):
        if omega is None and not any(t is trace for t in traces):
            traces.append(trace)
            switches.append(trace.iterations - 1)
        return _solve(self, state, trace, omega)
    monkeypatch.setattr(solve.LinearSolves, "__call__", spied)
    return switches


def one_record():
    """A SolveTrace with one record, for linear solves to count into."""
    trace = SolveTrace()
    trace.record(0.0, None, 0, np.nan)
    return trace


def three_body_newton_state():
    """The third Newton iterate of the three-body 4^2 backward-Euler step,
    where GMRES preconditioned by the Picard matrix's LU alone missed its
    cap."""
    return newton_states(lambda: three_body_be_solve(*three_body_be_step()))[2]


THETA_STEPS = {"backward-euler": (1e-2, 1.0), "crank-nicolson": (1e-2, 0.5)}


def random_state(step):
    """The Linearization of ``jittered_problem(6, 1)`` at a random iterate,
    steady (``step`` None) or the theta-step ``step`` = (dt, theta) from a
    random old state."""
    prob = jittered_problem(6, 1)
    rng = np.random.default_rng(7)
    u, u_old = rng.uniform(0.0, 1.0, (2, prob.nodes.n_nodes))
    return prob.linearize(u) if step is None else \
        prob.linearize(u, step[0], u_old, step[1])


def cell_blocks_of(M):
    """The 4x4 diagonal blocks (n_cells, 4, 4) of M, rows 4c..4c+3."""
    nc = M.shape[0] // 4
    dense = M.toarray().reshape(nc, 4, nc, 4)
    return dense[np.arange(nc), :, np.arange(nc), :]


def oracle_preconditioner(state):
    """P = A + C diag(d alpha/du) from the COO oracle's terms."""
    C, dalpha = coo_jacobian_terms(state)
    return coo_system(state)[0] + C @ sp.diags(dalpha.diagonal())


def record_calls(monkeypatch, name):
    """Replace ``solve.<name>`` by a wrapper that keeps a copy of its first
    argument per call; returns the list of copies."""
    seen = []

    def recorded(first, _fn=getattr(solve, name)):
        seen.append(first.copy())
        return _fn(first)
    monkeypatch.setattr(solve, name, recorded)
    return seen


class TestNewtonLinearSolve:
    """Newton's direction by GMRES on J v, preconditioned by the cell blocks
    or the LU of P = A + C diag(d alpha/du) on a theta-step, and by a kept
    LU or LU(P) when steady."""

    @pytest.mark.parametrize("newton_state, factorizations", [
        (lambda: at_newton_start(sharp_layer(10)), 1),
        (lambda: at_newton_start(make_problem(
            mu=1e-2, mesh=perturbed_mesh(8, 8, scale=0.2, seed=5))), 1),
        (three_body_newton_state, 0)],
        ids=["sharp-layer", "jittered", "three-body"])
    def test_gmres_matches_lu_of_jacobian(self, newton_state,
                                          factorizations):
        # steady: one cycle preconditioned by LU(P); on the three-body
        # theta-step, one cycle preconditioned by P's cell blocks
        state = newton_state()
        trace = one_record()
        step = solve.LinearSolves()(state, trace)
        assert 0 < trace.gmres_iters[0] <= solve.GMRES_CAP
        assert trace.factorizations == [factorizations]
        want = solve_linear(assembled_jacobian(state), -state.residual)
        assert np.linalg.norm(step - want) <= 1e-8 * np.linalg.norm(want)

    def test_lagged_direction_matches_lu_of_jacobian(self):
        # the hybrid's first direction on the sharp layer, preconditioned
        # by the LU of the Picard matrix at the initial guess
        prob = sharp_layer(10)
        solves, trace = solve.LinearSolves(), one_record()
        state = prob.linearize(solve._initial_guess(prob, None))
        u1 = solves(state, trace, 1.0)
        assert (trace.gmres_iters, trace.factorizations) == ([0], [1])
        state, trace = prob.linearize(u1), one_record()
        step = solves(state, trace)
        assert 0 < trace.gmres_iters[0] <= solve.GMRES_CAP
        assert trace.factorizations == [0]
        assert not solves.latched and solves.lu is not None
        want = solve_linear(assembled_jacobian(state), -state.residual)
        assert np.linalg.norm(step - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("step", [None, (1e-2, 1.0), (1e-2, 0.5)],
                             ids=["steady", "backward-euler",
                                  "crank-nicolson"])
    def test_preconditioner(self, monkeypatch, step):
        # P = A + C diag(d alpha/du), against the COO oracle's terms: the
        # matrix factored when steady; on a theta-step, the matrix whose
        # cell blocks precondition, and the one factored after their cycle
        # misses (forced here by a one-iteration cap)
        state = random_state(step)
        factored = record_calls(monkeypatch, "factor")
        blocks = record_calls(monkeypatch, "block_inverse")
        monkeypatch.setattr(solve, "GMRES_CAP", 1)
        solve.LinearSolves()(state, one_record())
        want = oracle_preconditioner(state)
        assert len(factored) == 1
        assert_close(factored[0], want)
        if step is None:
            assert blocks == []
        else:
            assert len(blocks) == 1
            np.testing.assert_allclose(blocks[0], cell_blocks_of(want),
                                       rtol=0.0,
                                       atol=1e-14 * abs(want).max())

    def test_one_iteration_per_direction_still_converges(self, monkeypatch):
        # a GMRES iterate of a fresh P that misses the tolerance is still
        # the direction; a record holds at most the missed lagged cycle's
        # iteration and the fresh cycle's
        monkeypatch.setattr(solve, "GMRES_CAP", 1)
        traces = [hybrid_newton(sharp_layer(10), cfg=SolverConfig())[1],
                  three_body_be_solve(*three_body_be_step())[1]]
        for trace in traces:
            assert trace.converged
            assert set(trace.gmres_iters) <= {0, 1, 2}
        # the sharp layer's first direction misses by the kept LU
        assert 2 in traces[0].gmres_iters

    def test_trace_records_the_linear_solves(self, monkeypatch, tmp_path):
        # every record but the last solves once.  On the three-body step
        # each solve is one cycle preconditioned by cell blocks, which
        # meets its tolerance: its GMRES iterations and no factorization.
        # On the sharp layer the first factors and solves directly; a
        # record that solves by the kept LU holds its cycle's GMRES
        # iterations and no factorization; a record that factors after a
        # miss also holds the missed cycle's
        switches = switch_records(monkeypatch)
        traces = [three_body_be_solve(*three_body_be_step())[1],
                  hybrid_newton(sharp_layer(10), cfg=SolverConfig())[1]]
        cap = solve.GMRES_CAP
        for trace, k in zip(traces, switches):
            assert trace.converged and trace.iterations > k + 1
            assert (trace.factorizations[-1], trace.gmres_iters[-1]) \
                == (0, 0)
        trace = traces[0]
        assert all(trace.factorizations[i] == 0
                   and 1 <= trace.gmres_iters[i] <= cap
                   for i in range(trace.iterations - 1))
        trace, k = traces[1], switches[1]
        lus, its = trace.factorizations, trace.gmres_iters
        assert (lus[0], its[0]) == (1, 0)
        for i in range(1, trace.iterations - 1):
            if lus[i] == 0:
                assert 1 <= its[i] <= cap
            elif i < k:
                assert its[i] in (0, cap)
            else:
                assert lus[i] == 1 and 1 <= its[i] <= 2 * cap
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        rows = [r.split(",") for r in
                path.read_text().strip().splitlines()[1:]]
        assert [int(r[-2]) for r in rows] == trace.gmres_iters
        assert [int(r[-1]) for r in rows] == trace.factorizations


class TestKeptFactorization:
    """One kept factorization per nonlinear solve, latched off at its
    first miss."""

    @pytest.mark.parametrize("method", ["picard", "hybrid"])
    def test_sharp_layer_factors_once(self, monkeypatch, method):
        factored = []

        def factor(A, _factor=solve.factor):
            factored.append(A.shape)
            return _factor(A)
        monkeypatch.setattr(solve, "factor", factor)
        _, trace = solve.solver(method)(sharp_layer(10), bounds=(0.0, 1.0))
        assert trace.converged and trace.iterations > 2
        assert len(factored) == sum(trace.factorizations) == 1
        assert trace.factorizations[0] == 1
        assert max(trace.osc) <= 1e-12

    def test_latch_after_first_miss(self, monkeypatch):
        # three-body 4^2 backward Euler with the cell blocks' cycle forced
        # to miss at the second Picard update: the records before it factor
        # nothing, and from it on every solve factors its own matrix
        switches = switch_records(monkeypatch)
        cycles = []

        def gmres(*args, _gmres=solve._gmres):
            y, iterations, met = _gmres(*args)
            cycles.append(met)
            return y, iterations, met and len(cycles) != 2
        monkeypatch.setattr(solve, "_gmres", gmres)
        _, trace = three_body_be_solve(*three_body_be_step())
        lus = trace.factorizations
        miss = next(i for i in range(trace.iterations) if lus[i])
        assert miss == 1 < switches[0] and cycles[:2] == [True, True]
        assert lus[0] == 0 and 1 <= trace.gmres_iters[miss] <= solve.GMRES_CAP
        solved = range(miss, trace.iterations - 1)
        assert trace.converged and len(solved) > 10
        assert all(lus[i] == 1 for i in solved)
        assert lus[-1] == 0


class TestCellBlockSolve:
    """theta-step solves by one GMRES cycle preconditioned by the inverses
    of the iterate's own 4x4 cell blocks, falling back to LU on a miss."""

    @pytest.mark.parametrize("newton", [False, True],
                             ids=["picard", "newton"])
    @pytest.mark.parametrize("step", sorted(THETA_STEPS))
    def test_blocks_are_the_oracles(self, monkeypatch, step, newton):
        # A's blocks for a Picard update, P's for a Newton direction
        state = random_state(THETA_STEPS[step])
        blocks = record_calls(monkeypatch, "block_inverse")
        solve.LinearSolves()(state, one_record(), None if newton else 1.0)
        want = oracle_preconditioner(state) if newton \
            else coo_system(state)[0]
        assert len(blocks) == 1
        np.testing.assert_allclose(blocks[0], cell_blocks_of(want), rtol=0.0,
                                   atol=1e-14 * abs(want).max())

    @pytest.mark.parametrize("newton", [False, True],
                             ids=["picard", "newton"])
    @pytest.mark.parametrize("step", sorted(THETA_STEPS))
    def test_matches_direct_solve(self, step, newton):
        # the cycle meets GMRES_RTOL on M d = -T without a factorization,
        # so d is M's direct solution to within cond(M) GMRES_RTOL
        state = random_state(THETA_STEPS[step])
        solves, trace = solve.LinearSolves(), one_record()
        b = -state.residual
        if newton:
            d = solves(state, trace)
            M = assembled_jacobian(state)
        else:
            d = solves(state, trace, 1.0) - state.u
            M = state.system[0]
        assert trace.factorizations == [0]
        assert 0 < trace.gmres_iters[0] <= solve.GMRES_CAP
        assert solves.lu is None and not solves.latched
        assert np.linalg.norm(M @ d - b) \
            <= solve.GMRES_RTOL * np.linalg.norm(b)
        want = solve_linear(M, b)
        assert np.linalg.norm(d - want) <= np.linalg.cond(M.toarray()) \
            * solve.GMRES_RTOL * np.linalg.norm(want)

    def test_forced_miss_factors_every_solve(self, monkeypatch):
        # a one-iteration cycle misses at the first update and latches:
        # every solve factors its own matrix.  Picard updates then solve
        # directly; Newton directions take one cycle preconditioned by LU(P)
        monkeypatch.setattr(solve, "GMRES_CAP", 1)
        switches = switch_records(monkeypatch)
        _, trace = three_body_be_solve(*three_body_be_step())
        k, n = switches[0], trace.iterations
        assert trace.converged and n > k + 1
        assert trace.factorizations == [1] * (n - 1) + [0]
        assert trace.gmres_iters == [1] + [0] * (k - 1) \
            + [1] * (n - k - 1) + [0]

    def test_singular_block_falls_back_to_lu(self):
        # cell 0's block of A made rank one; A itself stays regular
        state = random_state(THETA_STEPS["backward-euler"])
        A, rhs = state.system
        A = A.copy()
        A.data[state.problem.nodes.pattern.cell_blocks[0]] = 1.0
        state.system = (A, rhs)
        solves, trace = solve.LinearSolves(), one_record()
        x = solves(state, trace, 1.0)
        assert (trace.factorizations, trace.gmres_iters) == ([1], [0])
        assert solves.latched and solves.lu is None
        want = solve_linear(A, rhs)
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_block_inverse_rejects(self, bad):
        blocks = np.tile(np.eye(4), (3, 1, 1))
        blocks[1] = bad
        assert solve.block_inverse(blocks) is None
        blocks[1] = 2.0 * np.eye(4)
        v = np.arange(12.0)
        np.testing.assert_array_equal(solve.block_inverse(blocks)(v),
                                      np.r_[v[:4], v[4:8] / 2.0, v[8:]])


class TestThetaStep:
    def test_zero_velocity_zero_source_is_identity(self):
        mesh = build_structured_quad(4, 4)
        nodes = build_dg_nodes(mesh)
        spec = ProblemSpec(beta=lambda x, y: (np.zeros_like(x),
                                              np.zeros_like(y)), mu=0.0)
        prob = StabilizedProblem(mesh, nodes, spec, StabilizationParams())
        u0 = np.sin(3 * nodes.coords[:, 0]) + nodes.coords[:, 1]
        u1, trace = theta_step(prob, u0, dt=0.1, theta=0.5,
                               cfg=SolverConfig(tol=1e-12, max_iter=20))
        assert trace.converged
        assert np.allclose(u1, u0, atol=1e-10)

    def test_single_step_equals_run_transient(self):
        prob = make_problem(4, mu=0.0)
        u0 = np.where(prob.nodes.coords[:, 0] < 0.5, 1.0, 0.0)
        cfg = SolverConfig(tol=1e-10, max_iter=100)
        u_a, trace = theta_step(prob, u0, dt=0.01, theta=0.5, cfg=cfg,
                                method="hybrid")
        assert trace.converged
        u_b, traces = run_transient(prob, u0, dt=0.01, theta=0.5, n_steps=1,
                                    cfg=cfg, method="hybrid")
        assert len(traces) == 1
        assert traces[0].converged
        assert np.array_equal(u_a, u_b)

    def test_cfl_enforcement(self):
        prob = make_problem(4, mu=0.0)
        u0 = np.where(prob.nodes.coords[:, 0] < 0.5, 1.0, 0.0)
        limit = prob.cfl_bound(u0, theta=0.0)
        assert np.isfinite(limit) and limit > 0
        with pytest.raises(ValueError, match="CFL"):
            theta_step(prob, u0, dt=10 * limit, theta=0.0,
                       cfg=SolverConfig(tol=1e-8, max_iter=50),
                       enforce_cfl=True)
        # theta = 1 is unconditionally admissible
        theta_step(prob, u0, dt=10 * limit, theta=1.0,
                   cfg=SolverConfig(tol=1e-8, max_iter=100),
                   enforce_cfl=True)

    def test_cfl_enforced_at_the_stage_state(self):
        # a Crank-Nicolson step inside the bound at u_old converges, but
        # the bound at its stage state (9.47e-3) is below dt
        case = dgmono.get_case("three-body")
        nodes = build_dg_nodes(build_structured_quad(16, 16))
        prob = StabilizedProblem(nodes.mesh, nodes, case.spec, case.params)
        u0 = case.spec.u0(nodes.coords[:, 0], nodes.coords[:, 1])
        dt = 0.99 * prob.cfl_bound(u0, theta=0.5)
        with pytest.raises(ValueError, match="CFL bound .* stage state"):
            theta_step(prob, u0, dt, theta=0.5,
                       cfg=SolverConfig(tol=1e-6, max_iter=80),
                       method="hybrid", enforce_cfl=True)

    def test_forward_euler_led_at_extrema(self):
        # local extremum diminishing: at detector-certified extrema of the
        # stage state, the update has the contracting sign
        prob = make_problem(6, mu=0.0, mode="raw")
        x = prob.nodes.coords[:, 0]
        u0 = np.clip(1.0 - 3 * np.abs(x - 0.4), 0.0, 1.0)
        dt = 0.9 * prob.cfl_bound(u0, theta=0.0)
        u1, trace = theta_step(prob, u0, dt=dt, theta=0.0,
                               cfg=SolverConfig(tol=1e-12, max_iter=200),
                               enforce_cfl=True)
        assert trace.converged
        al = prob.alpha(u0)
        checked = 0
        tol = 1e-10 * max(1.0, np.abs(u1 - u0).max())
        for a in np.flatnonzero(al >= 1.0):
            nb = prob.nodes.neighbors(a)
            vals = [u0[nb].max(), u0[nb].min()]
            ib = prob.nodes.boundary_index[a]
            if prob.trace and ib >= 0 and prob.trace.dirichlet[ib]:
                bv = prob.trace.values[ib]
                vals = [max(vals[0], bv), min(vals[1], bv)]
            if u0[a] >= vals[0]:       # discrete maximum
                assert u1[a] - u0[a] <= tol
                checked += 1
            elif u0[a] <= vals[1]:     # discrete minimum
                assert u1[a] - u0[a] >= -tol
                checked += 1
        assert checked > 0

    def test_unconverged_steps_warn(self):
        prob = make_problem(4, mu=0.0)
        u0 = np.where(prob.nodes.coords[:, 0] < 0.5, 1.0, 0.0)
        with pytest.warns(RuntimeWarning, match="did not converge") as rec:
            _, traces = run_transient(
                prob, u0, dt=0.01, theta=0.5, n_steps=2,
                cfg=SolverConfig(tol=1e-10, max_iter=1))
        assert [t.converged for t in traces] == [False, False]
        messages = [str(w.message) for w in rec
                    if issubclass(w.category, RuntimeWarning)]
        assert messages == [
            f"time step {k} did not converge: residual "
            f"{traces[k].residuals[-1]:.3e} after 2 iterations"
            for k in range(2)]

    def test_unconverged_hybrid_step_warns_its_residual(self):
        # the warning names the residual of the iterate the step returns
        prob = make_problem(4, mu=0.0)
        u0 = np.where(prob.nodes.coords[:, 0] < 0.5, 1.0, 0.0)
        with pytest.warns(RuntimeWarning, match="did not converge") as rec:
            u, (trace,) = run_transient(
                prob, u0, dt=0.01, theta=0.5, n_steps=1, method="hybrid",
                cfg=SolverConfig(tol=1e-12, max_iter=4))
        norm = np.linalg.norm(prob.linearize(u, 0.01, u0, 0.5).residual)
        assert trace.residuals[-1] == norm
        assert not trace.converged
        assert [str(w.message) for w in rec] == [
            f"time step 0 did not converge: residual {norm:.3e} after "
            f"{trace.iterations} iterations"]

    def test_non_finite_old_state_raises(self):
        prob = make_problem(3)
        u_old = np.zeros(prob.nodes.n_nodes)
        u_old[[0, 7]] = np.inf
        with pytest.raises(ValueError,
                           match="u_old has 2 non-finite entries"):
            theta_step(prob, u_old, 0.1, 0.5)

    @pytest.mark.parametrize("theta, dt, value", [
        (1.5, 1e-3, "1.5"), (-0.5, 1e-3, "-0.5"), (1.0, -1e-3, "-0.001"),
        (1.0, 0.0, "0.0"), (1.0, np.inf, "inf"), (0.5, np.inf, "inf")])
    def test_invalid_step_raises(self, theta, dt, value):
        case = get_case("three-body", sigma=1e-2, tau=1e-4)
        mesh = build_structured_quad(4, 4)
        nodes = build_dg_nodes(mesh)
        prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
        u0 = case.spec.u0(nodes.coords[:, 0], nodes.coords[:, 1])
        with pytest.raises(ValueError, match=f"got {value}$"):
            theta_step(prob, u0, dt=dt, theta=theta,
                       cfg=SolverConfig(tol=1e-6, max_iter=5))

    def test_unknown_method(self):
        prob = make_problem(3)
        with pytest.raises(ValueError, match="method"):
            theta_step(prob, np.zeros(prob.nodes.n_nodes), 0.1, 0.5,
                       method="bogus")


# One three-body 16^2 backward-Euler step, then a second set-up of the
# same problem: prints the minor page faults of that set-up.
REPEATED_SETUP = """
import resource
import dgmono
from dgmono.stabilization import StabilizedProblem

def setup():
    case = dgmono.get_case("three-body", sigma=1e-2, tau=1e-4)
    mesh = dgmono.build_structured_quad(16, 16)
    nodes = dgmono.build_dg_nodes(mesh)
    prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
    nodes.pair_topology()
    return prob, case.spec.u0(nodes.coords[:, 0], nodes.coords[:, 1])

prob, u0 = setup()
dgmono.theta_step(prob, u0, dt=5e-3, theta=1.0, method="hybrid",
                  cfg=dgmono.SolverConfig(tol=1e-8, max_iter=80))
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
setup()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_allocator_policy_keeps_repeated_setup_off_fresh_pages():
    # in a fresh interpreter, so that no earlier test has moved glibc's
    # thresholds: with the policy set at import, a repeated set-up reuses
    # the heap the solve left (about 1,300 faulted pages without it)
    pytest.importorskip("resource")
    if not dgmono._set_allocator_policy():
        pytest.skip("no glibc mallopt")
    src = Path(dgmono.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", REPEATED_SETUP],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    assert int(out.stdout) < 200


# The traced heap of the three-body 16^2 set-up: its peak and what the set-up
# keeps, in bytes.
SETUP_HEAP = """
import tracemalloc
import dgmono
from dgmono.stabilization import StabilizedProblem

case = dgmono.get_case("three-body", sigma=1e-2, tau=1e-4)
tracemalloc.start()
mesh = dgmono.build_structured_quad(16, 16)
nodes = dgmono.build_dg_nodes(mesh)
prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
nodes.pair_topology()
kept, peak = tracemalloc.get_traced_memory()
print(peak, kept)
"""


def test_setup_heap_stays_below_its_budget():
    # in a fresh interpreter, so that no cache an earlier test filled is
    # counted or missed.  The repeated set-up of the allocator test above
    # stays off fresh pages only while it fits in the heap the solve left
    src = Path(dgmono.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", SETUP_HEAP],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, check=True)
    peak, kept = (int(v) / 1e6 for v in out.stdout.split())
    assert peak < 6.37, (f"set-up heap peak {peak:.2f} MB, budget 6.37 MB: "
                         "free set-up temporaries once used")
    assert kept < 4.65, (f"set-up keeps {kept:.2f} MB, budget 4.65 MB: "
                         "a new per-pair or per-slot array?")


def test_package_namespace_leaks_no_stdlib_module():
    # the allocator policy imports ctypes where it is used
    assert "ctypes" not in vars(dgmono)


class TestDetectorPasses:
    """One detector pass per linearized iterate; its Jacobian reuses it."""

    @staticmethod
    def count_passes(monkeypatch):
        # every pass starts with the candidate values at the symmetric points
        count = {"passes": 0}

        def counted(*args, _fn=detector._candidate_values, **kw):
            count["passes"] += 1
            return _fn(*args, **kw)
        monkeypatch.setattr(detector, "_candidate_values", counted)
        return count

    # the default line search converges after backtracking; with two
    # backtracks at most it falls back to Picard steps and limit-cycles
    @pytest.mark.parametrize("max_backtracks", [30, 2])
    def test_hybrid_backward_euler_step(self, monkeypatch, max_backtracks):
        prob, u0 = three_body_be_step()
        cfg = SolverConfig(tol=1e-8, max_iter=40,
                           max_backtracks=max_backtracks)
        switches = switch_records(monkeypatch)
        count = self.count_passes(monkeypatch)
        _, trace = theta_step(prob, u0, dt=5e-3, theta=1.0, cfg=cfg,
                              method="hybrid")

        # a Newton record's step length is rho**k after k rejected trials,
        # 0 after a fallback (max_backtracks rejected trials), and NaN on
        # the converged record, the only one without a Jacobian
        steps = np.array(trace.step_lengths[switches[0]:])
        accepted = steps[steps > 0.0]
        fallbacks = int(np.sum(steps == 0.0))
        jacobians = int(np.sum(~np.isnan(steps)))
        trials = fallbacks * cfg.max_backtracks + sum(
            round(np.log(lam) / np.log(cfg.rho)) + 1 for lam in accepted)
        assert trials > len(accepted) + fallbacks
        assert trace.converged == (fallbacks == 0)
        assert jacobians > 0
        # one pass per Picard iterate up to the switch iterate, which
        # Newton starts from, and one per line-search trial and fallback
        assert count["passes"] == switches[0] + 1 + trials + fallbacks

    def test_audit(self, monkeypatch):
        prob = make_problem(4)
        u = np.random.default_rng(1).uniform(0.0, 1.0, prob.nodes.n_nodes)
        count = self.count_passes(monkeypatch)
        prob.audit(u)
        assert count["passes"] == 1

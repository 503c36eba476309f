"""Nonlinear solvers, Jacobian machinery and theta time stepping."""

import numpy as np
import pytest
import scipy.sparse as sp

from dgmono import (Mesh, SolverConfig, TimeLoopConfig, build_dg_nodes,
                    build_structured_quad, detector, get_case, hybrid_newton,
                    picard, run_transient, solve, solve_linear, theta_step)
from dgmono import ProblemSpec, StabilizationParams
from dgmono.detector import alpha_jacobian
from dgmono.solve import (SolveTrace, color_columns, fd_jacobian,
                          jacobian_pattern)
from dgmono.stabilization import StabilizedProblem

from .test_stabilization import make_problem


class TestConfig:
    def test_solver_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=1e-2, switch_tol=1e-4)
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)
        with pytest.raises(ValueError):
            SolverConfig(omega=0.0)

    def test_loop_validation(self):
        with pytest.raises(ValueError):
            TimeLoopConfig(theta=1.5)
        with pytest.raises(ValueError):
            TimeLoopConfig(dt=0.0)


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
        out.append((state.jacobian, -state.residual))
        return out

    def test_matches_dense_solve_on_dg_systems(self):
        for A, b in self.dg_systems():
            x = solve_linear(A, b)
            ref = np.linalg.solve(A.toarray(), b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


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

    def test_stall_window_stops_early(self):
        # sharp-layer with h^4-scaled smoothing: Picard limit-cycles above
        # tight tolerances, the stall guard must stop it well before the cap
        from dgmono import get_case
        case = get_case("sharp-layer", sigma=1e-2, tau=1e-4, gamma=1e-2)
        mesh = build_structured_quad(10, 10)
        prob = StabilizedProblem(mesh, build_dg_nodes(mesh), case.spec,
                                 case.params)
        u, trace = picard(prob, cfg=SolverConfig(tol=1e-12, max_iter=400),
                          stall_window=5)
        assert not trace.converged
        assert trace.iterations < 400

    def test_non_finite_start_raises(self):
        prob = make_problem(3)
        u0 = np.zeros(prob.nodes.n_nodes)
        u0[4] = np.nan
        with pytest.raises(ValueError, match="u has 1 non-finite entries"):
            picard(prob, u0)

    def test_trace_csv(self, tmp_path):
        prob = make_problem(3)
        _, trace = picard(prob, cfg=SolverConfig(tol=1e-6, max_iter=50),
                          bounds=(0.0, 1.0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,residual,osc,alpha_active,step_length"
        assert len(lines) == trace.iterations + 1


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
        al, dal = alpha_jacobian(prob.nodes, s, prob.trace, prob.params,
                                 prob.scales)
        assert np.array_equal(al, prob.alpha(s))
        assert dal.shape == (prob.nodes.n_nodes,) * 2

    def test_matches_central_differences(self, case):
        prob, u, residual, kw = case
        J = prob.jacobian(u, **kw)
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
        J = prob.jacobian(u, **kw).tocoo()
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
            prob.jacobian(np.zeros(prob.nodes.n_nodes))


class TestHybridNewton:
    def test_requires_smoothed(self):
        prob = make_problem(3, mode="raw")
        with pytest.raises(ValueError):
            hybrid_newton(prob)

    def test_converges_quadratically_near_solution(self):
        prob = make_problem(6, mu=1e-4)
        cfg = SolverConfig(tol=1e-10, max_iter=100)
        u, trace = hybrid_newton(prob, cfg=cfg, bounds=(0.0, 1.0))
        assert trace.converged
        ref = np.linalg.norm(prob.rhs(prob.operators(u)[1]))
        assert np.linalg.norm(prob.residual_steady(u)) <= 1e-10 * ref


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
        loop = TimeLoopConfig(theta=0.5, dt=0.01, n_steps=1, solver=cfg,
                              method="hybrid")
        u_b, traces = run_transient(prob, u0, loop)
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
            bv = prob.trace.value_of(prob.nodes, a) if prob.trace else None
            if bv is not None:
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
        loop = TimeLoopConfig(theta=0.5, dt=0.01, n_steps=2,
                              solver=SolverConfig(tol=1e-10, max_iter=1))
        with pytest.warns(RuntimeWarning, match="did not converge") as rec:
            _, traces = run_transient(prob, u0, loop)
        assert [t.converged for t in traces] == [False, False]
        messages = [str(w.message) for w in rec
                    if issubclass(w.category, RuntimeWarning)]
        assert messages == [
            f"time step {k} did not converge: residual "
            f"{traces[k].residuals[-1]:.3e} after 2 iterations"
            for k in range(2)]

    def test_non_finite_old_state_raises(self):
        prob = make_problem(3)
        u_old = np.zeros(prob.nodes.n_nodes)
        u_old[[0, 7]] = np.inf
        with pytest.raises(ValueError,
                           match="u_old has 2 non-finite entries"):
            theta_step(prob, u_old, 0.1, 0.5)

    def test_unknown_method(self):
        prob = make_problem(3)
        with pytest.raises(ValueError, match="method"):
            theta_step(prob, np.zeros(prob.nodes.n_nodes), 0.1, 0.5,
                       method="bogus")


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
        case = get_case("three-body", sigma=1e-2, tau=1e-4)
        mesh = build_structured_quad(4, 4)
        nodes = build_dg_nodes(mesh)
        prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
        u0 = case.spec.u0(nodes.coords[:, 0], nodes.coords[:, 1])
        cfg = SolverConfig(tol=1e-8, max_iter=40,
                           max_backtracks=max_backtracks)
        picard_iters = []

        def picard_phase(*args, _picard=solve.picard, **kw):
            u, trace = _picard(*args, **kw)
            picard_iters.append(trace.iterations)
            return u, trace
        monkeypatch.setattr(solve, "picard", picard_phase)
        count = self.count_passes(monkeypatch)
        _, trace = theta_step(prob, u0, dt=5e-3, theta=1.0, cfg=cfg,
                              method="hybrid")

        # a Newton record's step length is rho**k after k rejected trials,
        # 0 after a fallback (max_backtracks rejected trials), and NaN on
        # the converged record, the only one without a Jacobian
        steps = np.array(trace.step_lengths[picard_iters[0]:])
        accepted = steps[steps > 0.0]
        fallbacks = int(np.sum(steps == 0.0))
        jacobians = int(np.sum(~np.isnan(steps)))
        trials = fallbacks * cfg.max_backtracks + sum(
            round(np.log(lam) / np.log(cfg.rho)) + 1 for lam in accepted)
        assert trials > len(accepted) + fallbacks
        assert trace.converged == (fallbacks == 0)
        assert jacobians > 0
        assert count["passes"] == picard_iters[0] + 1 + trials + fallbacks

    def test_audit(self, monkeypatch):
        prob = make_problem(4)
        u = np.random.default_rng(1).uniform(0.0, 1.0, prob.nodes.n_nodes)
        count = self.count_passes(monkeypatch)
        prob.audit(u)
        assert count["passes"] == 1

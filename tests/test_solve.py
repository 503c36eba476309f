"""Nonlinear solvers, Jacobian machinery and theta time stepping."""

import numpy as np
import pytest
import scipy.sparse as sp

from dgmono import (Mesh, SolverConfig, TimeLoopConfig, build_dg_nodes,
                    build_structured_quad, detector, get_case, hybrid_newton,
                    picard, run_transient, solve, solve_linear, theta_step)
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

    def test_line_search_limits_accepted(self):
        cfg = SolverConfig(rho=0.99, c1=0.49, max_backtracks=1)
        assert (cfg.rho, cfg.c1, cfg.max_backtracks) == (0.99, 0.49, 1)

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
        out.append((assembled_jacobian(state), -state.residual))
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

    # every valid SolverConfig runs: the Picard phase's own config stops at
    # switch_tol, which may be 1 or more
    @pytest.mark.parametrize("tol, switch_tol", [(1e-6, 1.0), (0.5, 5.0)])
    def test_any_valid_switch_tol(self, monkeypatch, tol, switch_tol):
        prob = make_problem(4)
        picard_cfgs = []

        def picard_phase(problem, u0, cfg, *args, _picard=solve.picard,
                         **kw):
            picard_cfgs.append(cfg)
            return _picard(problem, u0, cfg, *args, **kw)
        monkeypatch.setattr(solve, "picard", picard_phase)
        cfg = SolverConfig(tol=tol, switch_tol=switch_tol, max_iter=50)
        u, trace = hybrid_newton(prob, cfg=cfg)
        assert [c.tol for c in picard_cfgs] == [switch_tol]
        assert trace.converged and np.all(np.isfinite(u))

    def test_disabled_stabilization(self):
        # d alpha/du is 0, stored in the node pattern like every other
        # per-iterate matrix, so Newton's preconditioner is A = J itself;
        # with switch_tol 1e10 Newton takes the first step
        prob = sharp_layer(6, enabled=False)
        _, trace = hybrid_newton(prob)
        assert trace.converged and trace.iterations == 3
        _, trace = hybrid_newton(prob, cfg=SolverConfig(tol=1e-8,
                                                        switch_tol=1e10))
        assert trace.converged and trace.gmres_iters[:2] == [0, 1]

    @pytest.mark.parametrize("max_iter, converged",
                             [(3, False), (4, False), (5, True)])
    def test_last_record_is_the_returned_iterate(self, max_iter, converged):
        # Newton stops after max_iter records have stepped, and the
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


def newton_start(prob):
    """The iterate the hybrid solver hands to Newton: Picard to 1e-2."""
    cfg = SolverConfig(tol=1e-2, switch_tol=1.0, max_iter=50)
    return picard(prob, cfg=cfg, stall_window=10)[0]


def at_newton_start(prob):
    """The Linearization at :func:`newton_start`."""
    return prob.linearize(newton_start(prob))


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


class TestNewtonLinearSolve:
    """Newton's direction by GMRES on J v, preconditioned by a kept LU or
    by the LU of P = A + C diag(d alpha/du)."""

    @pytest.mark.parametrize("newton_state", [
        lambda: at_newton_start(sharp_layer(10)),
        lambda: at_newton_start(make_problem(
            mu=1e-2, mesh=perturbed_mesh(8, 8, scale=0.2, seed=5))),
        three_body_newton_state],
        ids=["sharp-layer", "jittered", "three-body"])
    def test_gmres_matches_lu_of_jacobian(self, newton_state):
        state = newton_state()
        trace = one_record()
        step = solve.LinearSolves()(state, trace)
        assert 0 < trace.gmres_iters[0] <= solve.GMRES_CAP
        assert trace.factorizations == [1]
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
        # P = A + C diag(d alpha/du), against the COO oracle's terms
        prob = jittered_problem(6, 1)
        rng = np.random.default_rng(7)
        u, u_old = rng.uniform(0.0, 1.0, (2, prob.nodes.n_nodes))
        state = prob.linearize(u) if step is None else \
            prob.linearize(u, step[0], u_old, step[1])
        factored = []

        def factor(P, _factor=solve.factor):
            factored.append(P)
            return _factor(P)
        monkeypatch.setattr(solve, "factor", factor)
        solve.LinearSolves()(state, one_record())
        C, dalpha = coo_jacobian_terms(state)
        want = coo_system(state)[0] + C @ sp.diags(dalpha.diagonal())
        assert len(factored) == 1
        assert_close(factored[0], want)

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
        # every record but the last of each phase solves once: the first
        # factors and solves directly; a record that solves by the kept LU
        # holds its cycle's GMRES iterations and no factorization; a record
        # that factors after a miss also holds the missed cycle's
        picard_iters = []

        def picard_phase(*args, _picard=solve.picard, **kw):
            u, trace = _picard(*args, **kw)
            picard_iters.append(trace.iterations)
            return u, trace
        monkeypatch.setattr(solve, "picard", picard_phase)
        traces = [three_body_be_solve(*three_body_be_step())[1],
                  hybrid_newton(sharp_layer(10), cfg=SolverConfig())[1]]
        cap = solve.GMRES_CAP
        for trace, k in zip(traces, picard_iters):
            assert trace.converged and trace.iterations > k + 1
            solved = [i for i in range(trace.iterations - 1) if i != k - 1]
            lus, its = trace.factorizations, trace.gmres_iters
            assert (lus[0], its[0]) == (1, 0)
            assert (lus[k - 1], its[k - 1]) == (0, 0)
            assert (lus[-1], its[-1]) == (0, 0)
            for i in solved[1:]:
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
        # three-body 4^2 backward Euler: the kept LU misses at a Picard
        # update; from then on every solve factors its own matrix
        picard_iters = []

        def picard_phase(*args, _picard=solve.picard, **kw):
            u, trace = _picard(*args, **kw)
            picard_iters.append(trace.iterations)
            return u, trace
        monkeypatch.setattr(solve, "picard", picard_phase)
        _, trace = three_body_be_solve(*three_body_be_step())
        k = picard_iters[0]
        lus = trace.factorizations
        miss = next(i for i in range(1, trace.iterations) if lus[i])
        assert miss < k - 1
        assert trace.gmres_iters[miss] == solve.GMRES_CAP
        assert lus[1:miss] == [0] * (miss - 1)
        solved = [i for i in range(miss, trace.iterations - 1) if i != k - 1]
        assert trace.converged and len(solved) > 10
        assert all(lus[i] == 1 for i in solved)
        assert lus[k - 1] == lus[-1] == 0


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

    def test_unconverged_hybrid_step_warns_its_residual(self):
        # the warning names the residual of the iterate the step returns
        prob = make_problem(4, mu=0.0)
        u0 = np.where(prob.nodes.coords[:, 0] < 0.5, 1.0, 0.0)
        loop = TimeLoopConfig(theta=0.5, dt=0.01, n_steps=1, method="hybrid",
                              solver=SolverConfig(tol=1e-12, max_iter=4))
        with pytest.warns(RuntimeWarning, match="did not converge") as rec:
            u, (trace,) = run_transient(prob, u0, loop)
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
        (1.0, 0.0, "0.0")])
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
        # Newton starts from the Picard phase's last linearization: the
        # switch adds no pass
        assert count["passes"] == picard_iters[0] + trials + fallbacks

    def test_audit(self, monkeypatch):
        prob = make_problem(4)
        u = np.random.default_rng(1).uniform(0.0, 1.0, prob.nodes.n_nodes)
        count = self.count_passes(monkeypatch)
        prob.audit(u)
        assert count["passes"] == 1

"""Acceptance suite: end-to-end properties and benchmark reproductions.

Each test pins one advertised guarantee of the solver at its stated
tolerance and runtime budget: algebraic structure of the stabilized
operators (row sums, sign conditions), the shock-detector contract,
linearity preservation, smooth-solution convergence orders, bound
preservation on the sharp-layer and solid-body-rotation benchmarks, the
LED property in time, Jacobian consistency of the smoothed residual, and
equivalence against an independently coded dense reference on a tiny mesh.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

import dgmono as dg
from dgmono import (ProblemSpec, SolverConfig, StabilizationParams,
                    build_dg_nodes, build_structured_quad, build_viscosity,
                    get_case, hybrid_newton, osc, picard, run_transient,
                    theta_step)
from dgmono.assembly import BoundaryTrace, interpolate_boundary
from dgmono.solve import color_columns, fd_jacobian
from dgmono.stabilization import StabilizedProblem

from .oracles import jacobian_pattern, lumped_mass_apply
from .test_detector import forced_extremum

BETA_ANGLE = np.pi / 3


def angled_problem(n, mu, mode, **params_kw):
    """n x n unit-square problem with constant velocity at -60 degrees."""
    mesh = build_structured_quad(n, n)
    nodes = build_dg_nodes(mesh)
    spec = ProblemSpec(
        beta=lambda x, y: (np.cos(BETA_ANGLE) * np.ones_like(x),
                           -np.sin(BETA_ANGLE) * np.ones_like(y)),
        mu=mu, ubar=lambda x, y: np.where(x < 1e-12, 1.0, 0.0))
    params = StabilizationParams(mode=mode, **params_kw)
    return StabilizedProblem(mesh, nodes, spec, params)


SMOOTHED_KW = dict(q=10.0, sigma=1e-2, tau=1e-4, gamma=1e-2)


class TestRowSumIdentity:
    def test_criterion_1(self):
        t0 = time.monotonic()
        prob = angled_problem(20, 1e-4, "smoothed", **SMOOTHED_KW)
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.standard_normal(prob.nodes.n_nodes)
            Kt, Bt = prob.operators(u)
            norm_inf = np.abs(Kt).sum(axis=1).max()
            gap = np.asarray(Kt.sum(axis=1)).ravel() \
                - np.asarray(Bt.sum(axis=1)).ravel()
            assert np.abs(gap).max() <= 1e-12 * norm_inf
        assert time.monotonic() - t0 < 5.0


class TestSignConditions:
    def test_criterion_2(self):
        t0 = time.monotonic()
        probs = [angled_problem(20, 1e-4, "raw"),
                 angled_problem(20, 1e-4, "smoothed", **SMOOTHED_KW)]
        rng = np.random.default_rng(1)
        n = probs[0].nodes.n_nodes
        for k in range(1000):
            u = rng.standard_normal(n)
            prob = probs[k % 2]
            al = prob.alpha(u)
            Kt, Bt = prob.operators(u)
            Kt = Kt.tocsr()
            Bt = Bt.tocsr()
            for a in np.flatnonzero(al >= 1.0):
                cols = Kt.indices[Kt.indptr[a]:Kt.indptr[a + 1]]
                vals = Kt.data[Kt.indptr[a]:Kt.indptr[a + 1]]
                assert np.all(vals[cols != a] <= 0.0)
                assert np.all(Bt.data[Bt.indptr[a]:Bt.indptr[a + 1]] >= 0.0)
        assert time.monotonic() - t0 < 30.0


class TestShockDetectorProperty:
    def test_criterion_3(self):
        t0 = time.monotonic()
        mesh = build_structured_quad(6, 5)
        nodes = build_dg_nodes(mesh)
        raw = StabilizationParams(mode="raw")
        smooth = StabilizationParams(**SMOOTHED_KW)
        sc_raw = raw.derived(mesh.h, 1.0)
        sc_smooth = smooth.derived(mesh.h, 1.0)
        rng = np.random.default_rng(2)
        for k in range(1000):
            u, a, tr = forced_extremum(nodes, rng, lo=bool(k % 2))
            for p, s in ((raw, sc_raw), (smooth, sc_smooth)):
                al = dg.alpha_all(nodes, u, tr, p, s)
                assert al[a] == 1.0
                assert np.all((al >= 0.0) & (al <= 1.0))
        assert time.monotonic() - t0 < 10.0


class TestLinearityPreservation:
    def test_criterion_4(self):
        prob = angled_problem(6, 1e-3, "raw")
        nodes = prob.nodes
        n = nodes.n_nodes
        rng = np.random.default_rng(3)
        for _ in range(50):
            c0, cx, cy = rng.standard_normal(3)
            u = c0 + cx * nodes.coords[:, 0] + cy * nodes.coords[:, 1]
            prob.trace = interpolate_boundary(
                nodes, lambda x, y: c0 + cx * x + cy * y,
                prob.dirichlet_mask)
            visc = prob.linearize(u).visc
            assert not (visc.nu.any() or visc.nu_boundary.any())
            assert np.all(visc.nu == 0.0)
            assert np.all(visc.nu_boundary == 0.0)
            al = prob.alpha(u)
            w = rng.standard_normal(n)
            lumped = lumped_mass_apply(prob.M, nodes.m, al, prob.params.Q, w)
            assert np.array_equal(lumped, prob.M @ w)


class TestSmoothConvergence:
    """Fitted L2 orders on the smooth sine-wave problem, meshes 16..128.

    Picard limit-cycles on these problems (the nonlinearity is effectively
    nonsmooth at the h^4-scaled sigma), so the iteration is capped at 15;
    the iterate error is stationary under the cap (measured: < 10 percent
    change between caps 15 and 100, which is the reference protocol's own
    iteration limit).
    """

    _cache = {}
    _spent = 0.0

    @classmethod
    def eoc_for(cls, mu, extrapolation):
        key = (mu, extrapolation)
        if key not in cls._cache:
            t0 = time.monotonic()
            hs, errs = [], []
            for n in (16, 32, 64, 128):
                case = get_case("smooth", mu=mu, **SMOOTHED_KW,
                                boundary_extrapolation=extrapolation)
                mesh = build_structured_quad(n, n)
                nodes = build_dg_nodes(mesh)
                prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
                u, _ = picard(prob, cfg=SolverConfig(tol=1e-8, max_iter=15))
                hs.append(mesh.h)
                errs.append(dg.l2_error(mesh, u, case.exact))
            cls._cache[key] = dg.eoc_fit(hs, errs)
            cls._spent += time.monotonic() - t0
        return cls._cache[key]

    # KNOWN RED (see README.md and CHANGES.md): with mu = 1 and c_ip = 10 the
    # interior-penalty facet terms carry O(1) positive off-diagonals, so the
    # graph viscosity is O(1) wherever the detector flags the (legitimate)
    # discrete extrema along the sine crests.  That injects an O(h)-band,
    # O(1)-coefficient perturbation and caps the observed order near 1.5
    # (asymptotically 1), independent of the nonlinear solver.
    @pytest.mark.slow
    def test_criterion_5_diffusive_order(self):
        assert self.eoc_for(1.0, True) >= 1.8
        assert self._spent < 600.0

    @pytest.mark.slow
    def test_criterion_5_transport_order(self):
        assert self.eoc_for(0.0, True) >= 1.8
        assert self._spent < 600.0

    # KNOWN RED (see README.md and CHANGES.md): the boundary-extrapolation
    # effect this clause targets is swamped by the same crest-viscosity
    # pollution that caps the mu = 1 baseline order near 1.5.
    @pytest.mark.slow
    def test_criterion_5_extrapolation_degradation(self):
        gap = self.eoc_for(1.0, True) - self.eoc_for(1.0, False)
        assert gap >= 0.3
        assert self._spent < 600.0


class TestSharpLayer:
    def test_criterion_6_hybrid(self):
        t0 = time.monotonic()
        case = get_case("sharp-layer")
        mesh = build_structured_quad(50, 50)
        nodes = build_dg_nodes(mesh)
        prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
        u, trace = hybrid_newton(prob, cfg=SolverConfig(tol=1e-4,
                                                        max_iter=60),
                                 bounds=(0.0, 1.0))
        assert trace.converged
        assert trace.iterations <= 60
        assert osc(u) <= 1e-4
        assert time.monotonic() - t0 < 300.0

    def test_criterion_6_picard_iterates(self):
        t0 = time.monotonic()
        case = get_case("sharp-layer")
        mesh = build_structured_quad(50, 50)
        nodes = build_dg_nodes(mesh)
        prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
        u, trace = picard(prob, cfg=SolverConfig(tol=1e-4, max_iter=500),
                          bounds=(0.0, 1.0))
        assert trace.iterations <= 500
        assert max(trace.osc) <= 1e-12
        assert osc(u) <= 1e-12
        assert time.monotonic() - t0 < 300.0


def three_body_setup():
    case = get_case("three-body", sigma=1e-2, tau=1e-4)
    mesh = build_structured_quad(64, 64)
    nodes = build_dg_nodes(mesh)
    u0 = case.spec.u0(nodes.coords[:, 0], nodes.coords[:, 1])
    return case, mesh, nodes, u0


class TestThreeBodyRotation:
    # KNOWN RED (see README.md and CHANGES.md): at this configuration the time
    # step exceeds the positivity bound of the Crank-Nicolson theory
    # (cfl_bound(u0, theta=0.5) = 4.6e-3 < dt = 6.25e-3) and neither Picard
    # nor the hybrid solver reaches the 5e-4 tolerance within 50 iterations
    # per step, so the accepted iterates undershoot by about -0.13 from the
    # very first step.  The assertion is kept at the advertised tolerance.
    @pytest.mark.slow
    def test_criterion_7_bounds(self):
        t0 = time.monotonic()
        case, mesh, nodes, u0 = three_body_setup()
        prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
        cfg = SolverConfig(tol=5e-4, max_iter=50)
        dt = 1.0 / 160
        u = u0
        for _ in range(160):
            u, _ = theta_step(prob, u, dt=dt, theta=0.5, cfg=cfg)
            assert u.min() >= -5e-4
            assert u.max() <= 1.0 + 5e-4
        assert time.monotonic() - t0 < 1200.0

    def test_criterion_7_unstabilized_control(self):
        # without stabilization the rotation overshoots by >= 1e-2
        t0 = time.monotonic()
        case, mesh, nodes, u0 = three_body_setup()
        off = StabilizedProblem(mesh, nodes, case.spec,
                                StabilizationParams(enabled=False))
        cfg = SolverConfig(tol=5e-4, max_iter=50)
        dt = 1.0 / 160
        v = u0
        worst = 0.0
        for _ in range(160):
            v, _ = theta_step(off, v, dt=dt, theta=0.5, cfg=cfg)
            worst = max(worst, osc(v))
            if worst >= 1e-2:
                break
        assert worst >= 1e-2
        assert time.monotonic() - t0 < 1200.0


class TestLedInTime:
    def test_criterion_8(self):
        # backward-Euler steps of the (source-free) rotation case: wherever
        # the detector flags a discrete extremum of u^{n+1}, the time
        # increment must have the LED sign.  The algebraic identity only
        # bounds delta_t u_a by the nonlinear solve's leftover residual, so
        # the slack is the per-node residual T_a scaled by dt / m_a.
        case = get_case("three-body", sigma=1e-2, tau=1e-4)
        mesh = build_structured_quad(16, 16)
        nodes = build_dg_nodes(mesh)
        prob = StabilizedProblem(mesh, nodes, case.spec, case.params)
        u = case.spec.u0(nodes.coords[:, 0], nodes.coords[:, 1])
        ubar = prob.ubar_vec
        cfg = SolverConfig(tol=1e-8, max_iter=80)
        dt = 5e-3
        checked = 0
        for _ in range(10):
            u_new, trace = theta_step(prob, u, dt=dt, theta=1.0, cfg=cfg,
                                      method="hybrid")
            delta = u_new - u
            resid = prob.residual_transient(u_new, u, dt, 1.0)
            slack = dt * np.abs(resid) / nodes.m \
                + 1e-12 * max(1.0, np.abs(delta).max())
            al = prob.alpha(u_new)
            _, Bt = prob.operators(u_new)
            Bt = Bt.tocsr()
            for a in np.flatnonzero(al >= 1.0):
                nb = nodes.neighbors(a)
                hi, lo = u_new[nb].max(), u_new[nb].min()
                bcols = Bt.indices[Bt.indptr[a]:Bt.indptr[a + 1]]
                if len(bcols):
                    hi = max(hi, ubar[bcols].max())
                    lo = min(lo, ubar[bcols].min())
                if u_new[a] >= hi:        # discrete maximum: must not grow
                    assert delta[a] <= slack[a]
                    checked += 1
                elif u_new[a] <= lo:      # discrete minimum: must not sink
                    assert delta[a] >= -slack[a]
                    checked += 1
            u = u_new
        assert checked > 0


class TestJacobianConsistency:
    def test_criterion_9(self):
        prob = angled_problem(10, 1e-3, "smoothed", **SMOOTHED_KW)
        n = prob.nodes.n_nodes
        rng = np.random.default_rng(4)
        u = rng.uniform(0.0, 1.0, n)
        P = jacobian_pattern(prob)
        colors, n_colors = color_columns(P)
        J = fd_jacobian(prob.residual_steady, u, prob.residual_steady(u),
                        P, colors, n_colors)
        eps = 1e-6 * max(1.0, float(np.abs(u).max()))
        for _ in range(20):
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            central = (prob.residual_steady(u + eps * d)
                       - prob.residual_steady(u - eps * d)) / (2 * eps)
            jd = J @ d
            rel = np.linalg.norm(jd - central) / np.linalg.norm(central)
            assert rel <= 1e-5


# -- criterion 10: dense reference implementation -----------------------------
#
# Everything below is written from the printed operator and detector
# definitions with plain loops and dense matrices, sharing only the mesh
# geometry and node-numbering conventions with the package.

GAUSS_1D = np.array([-1.0, 1.0]) / np.sqrt(3.0)


def _shape_vals(xi, eta):
    return np.array([(1 - xi) * (1 - eta), xi * (1 - eta),
                     xi * eta, (1 - xi) * eta])


def _shape_grads(xi, eta, h):
    dxi = np.array([-(1 - eta), (1 - eta), eta, -eta]) / h
    deta = np.array([-(1 - xi), -xi, xi, (1 - xi)]) / h
    return dxi, deta


def _cell_geometry(mesh, c):
    corners = mesh.vertices[mesh.cells[c]]
    x0, y0 = corners[0]
    h = corners[2, 0] - x0
    return x0, y0, h


def _local(mesh, c, p):
    x0, y0, h = _cell_geometry(mesh, c)
    return (p[0] - x0) / h, (p[1] - y0) / h, h


def dense_assemble(mesh, nodes, spec):
    """Dense M, K, G, B for constant velocity and affine source."""
    n = nodes.n_nodes
    nb = nodes.n_boundary
    M = np.zeros((n, n))
    K = np.zeros((n, n))
    G = np.zeros(n)
    B = np.zeros((n, nb))
    mu, cip = spec.mu, spec.c_ip
    bx, by = (float(v) for v in spec.beta(np.array(0.5), np.array(0.5)))

    # volume terms, 2x2 Gauss per cell
    for c in range(mesh.n_cells):
        x0, y0, h = _cell_geometry(mesh, c)
        ids = 4 * c + np.arange(4)
        for gx in GAUSS_1D:
            for gy in GAUSS_1D:
                xi, eta = 0.5 * (1 + gx), 0.5 * (1 + gy)
                w = (h / 2) ** 2
                phi = _shape_vals(xi, eta)
                dx, dy = _shape_grads(xi, eta, h)
                M[np.ix_(ids, ids)] += w * np.outer(phi, phi)
                K[np.ix_(ids, ids)] += w * (
                    mu * (np.outer(dx, dx) + np.outer(dy, dy))
                    - np.outer(bx * dx + by * dy, phi))
                if spec.g is not None:
                    gval = float(spec.g(np.array(x0 + h * xi),
                                        np.array(y0 + h * eta)))
                    G[ids] += w * gval * phi

    def facet_rows(c, p):
        """(phi values, normal gradient values) of cell c's basis at point p."""
        xi, eta, h = _local(mesh, c, p)
        dx, dy = _shape_grads(xi, eta, h)
        return _shape_vals(xi, eta), dx, dy

    # interior facets
    f = mesh.interior_facets
    for i in range(len(f["cell_plus"])):
        cp, cm = int(f["cell_plus"][i]), int(f["cell_minus"][i])
        nrm = f["normal"][i]
        length = float(f["length"][i])
        p0 = mesh.vertices[f["v0"][i]]
        p1 = mesh.vertices[f["v1"][i]]
        bn = bx * nrm[0] + by * nrm[1]
        idp = 4 * cp + np.arange(4)
        idm = 4 * cm + np.arange(4)
        for g in GAUSS_1D:
            s = 0.5 * (1 + g)
            p = (1 - s) * p0 + s * p1
            w = length / 2
            php, dxp, dyp = facet_rows(cp, p)
            phm, dxm, dym = facet_rows(cm, p)
            gnp = nrm[0] * dxp + nrm[1] * dyp
            gnm = nrm[0] * dxm + nrm[1] * dym
            # jump [w] = w_plus - w_minus, mean {w} = (w_plus + w_minus)/2
            for (ida, pha, gna, sa) in ((idp, php, gnp, 1.0),
                                        (idm, phm, gnm, -1.0)):
                for (idb, phb, gnb, sb) in ((idp, php, gnp, 1.0),
                                            (idm, phm, gnm, -1.0)):
                    conv = bn * 0.5 * sa + 0.5 * abs(bn) * sa * sb
                    K[np.ix_(ida, idb)] += w * conv * np.outer(pha, phb)
                    if mu > 0.0:
                        K[np.ix_(ida, idb)] += w * mu * (
                            -0.5 * sb * np.outer(gna, phb)
                            - 0.5 * sa * np.outer(pha, gnb)
                            + cip / length * sa * sb * np.outer(pha, phb))

    # boundary facets
    fb = mesh.boundary_facets
    for i in range(len(fb["cell"])):
        c = int(fb["cell"][i])
        nrm = fb["normal"][i]
        length = float(fb["length"][i])
        p0 = mesh.vertices[fb["v0"][i]]
        p1 = mesh.vertices[fb["v1"][i]]
        bn = bx * nrm[0] + by * nrm[1]
        ids = 4 * c + np.arange(4)
        # the two boundary columns: this cell's nodes at the facet endpoints
        cols, col_pts = [], []
        for pv in (p0, p1):
            owners = [a for a in ids
                      if np.allclose(nodes.coords[a], pv, atol=1e-12)]
            assert len(owners) == 1
            cols.append(int(nodes.boundary_index[owners[0]]))
            col_pts.append(pv)
        for g in GAUSS_1D:
            s = 0.5 * (1 + g)
            p = (1 - s) * p0 + s * p1
            w = length / 2
            phi, dx, dy = facet_rows(c, p)
            gn = nrm[0] * dx + nrm[1] * dy
            trace_vals = [1 - s, s]  # linear hats on the facet
            if bn > 0.0:  # outflow: convective closure stays in K
                K[np.ix_(ids, ids)] += w * bn * np.outer(phi, phi)
            if mu > 0.0:
                K[np.ix_(ids, ids)] += w * mu * (
                    -np.outer(gn, phi) - np.outer(phi, gn)
                    + cip / length * np.outer(phi, phi))
            for col, tv in zip(cols, trace_vals):
                if bn < 0.0:  # inflow data enters through B
                    B[ids, col] += -w * bn * tv * phi
                if mu > 0.0:
                    B[ids, col] += w * mu * (-tv * gn
                                             + cip / length * tv * phi)
    return M, K, G, B


def _ray_exit(mesh, support, xa, d, tol=1e-12):
    """Largest t with xa + t*d inside the support patch (slab clipping)."""
    t_max = 0.0
    for c in support:
        x0, y0, h = _cell_geometry(mesh, c)
        lo, hi = -np.inf, np.inf
        ok = True
        for (p, pmin, pmax, dp) in ((xa[0], x0, x0 + h, d[0]),
                                    (xa[1], y0, y0 + h, d[1])):
            if abs(dp) < tol:
                if p < pmin - tol or p > pmax + tol:
                    ok = False
                continue
            t0, t1 = (pmin - p) / dp, (pmax - p) / dp
            lo = max(lo, min(t0, t1))
            hi = min(hi, max(t0, t1))
        if ok and lo <= tol and hi > lo - tol:
            t_max = max(t_max, hi)
    return t_max


def dense_alpha(mesh, nodes, u, trace, params, scales):
    """Detector values by direct evaluation of the printed definitions."""
    from dgmono.detector import (RATIO_SNAP, abs_lower, abs_upper, ssgn,
                                 z_ramp)
    n = nodes.n_nodes
    coords = nodes.coords
    h_cell = mesh.h_cell
    smooth = params.mode == "smoothed"
    alphas = np.zeros(n)
    for a in range(n):
        xa = coords[a]
        support = [c for c in range(mesh.n_cells)
                   if any(np.allclose(mesh.vertices[v], xa, atol=1e-12)
                          for v in mesh.cells[c])]
        sup_pts = {tuple(np.round(mesh.vertices[v], 12))
                   for c in support for v in mesh.cells[c]}
        nbrs = [b for b in range(n) if b != a
                and tuple(np.round(coords[b], 12)) in sup_pts]
        # term list; regular pairs may carry several symmetric-point values
        fixed, multi = [], []
        for b in nbrs:
            xb = coords[b]
            db = u[b] - u[a]
            if np.allclose(xb, xa, atol=1e-12):
                ha = h_cell[int(nodes.node_cell[a])]
                hb = h_cell[int(nodes.node_cell[b])]
                fixed.append(db * 2.0 / (ha + hb))
                continue
            r = xa - xb
            r_ab = float(np.hypot(*r))
            d = r / r_ab
            t = _ray_exit(mesh, support, xa, d)
            if t <= 1e-12 * mesh.h:
                bidx = int(nodes.boundary_index[a])
                if bidx >= 0 and trace is not None and trace.dirichlet[bidx]:
                    uba = trace.values[bidx]
                else:
                    uba = u[a]
                d0 = uba - u[a]
                if smooth:
                    sg = ssgn(d0 * db, scales.tau_h)
                else:
                    sg = 1.0 if d0 * db > 0.0 else -1.0
                # pair leg plus extrapolated leg; the tie rule sg(0) = -1
                # keeps affine states detector-silent
                fixed.append(db / r_ab)
                fixed.append((d0 + db * sg) / r_ab)
                continue
            x_sym = xa + t * d
            cand = []
            for c in support:
                xi, eta, h = _local(mesh, c, x_sym)
                if -1e-10 <= xi <= 1 + 1e-10 and -1e-10 <= eta <= 1 + 1e-10:
                    phi = _shape_vals(np.clip(xi, 0, 1), np.clip(eta, 0, 1))
                    cand.append(float(phi @ (u[4 * c + np.arange(4)] - u[a])))
            assert cand
            fixed.append(db / r_ab)
            multi.append((max(cand) / t, min(cand) / t))

        def one_alpha(extra):
            terms = np.array(fixed + extra)
            if len(terms) == 0:
                return 0.0
            num = terms.sum()
            if not smooth:
                den = np.abs(terms).sum()
                ratio = abs(num) / den if den > 0.0 else 0.0
                if ratio <= RATIO_SNAP:
                    ratio = 0.0
                return min(ratio, 1.0) ** params.q
            den = abs_lower(terms, scales.tau_h).sum() + scales.gamma_h
            zeta = (abs_upper(num, scales.tau_h) + scales.gamma_h) / den
            return min(float(z_ramp(zeta)) ** params.q, 1.0)

        alphas[a] = max(one_alpha([hi for hi, _ in multi]),
                        one_alpha([lo for _, lo in multi]))
    return alphas


def dense_stabilized(mesh, nodes, K, B, alphas, params, scales):
    """Dense K_tilde, B_tilde from the graph-viscosity definitions."""
    from dgmono.detector import smax
    n = nodes.n_nodes
    coords = nodes.coords
    Kt = K.copy()
    Bt = B.copy()
    smooth = params.mode == "smoothed"
    sg = scales.sigma_h
    for a in range(n):
        xa = coords[a]
        support = [c for c in range(mesh.n_cells)
                   if any(np.allclose(mesh.vertices[v], xa, atol=1e-12)
                          for v in mesh.cells[c])]
        sup_pts = {tuple(np.round(mesh.vertices[v], 12))
                   for c in support for v in mesh.cells[c]}
        nbrs = [b for b in range(n) if b != a
                and tuple(np.round(coords[b], 12)) in sup_pts]
        for b in nbrs:
            xab, xba = alphas[a] * K[a, b], alphas[b] * K[b, a]
            if smooth:
                nu = smax(0.0, smax(xab, xba, sg), sg)
            else:
                nu = max(xab, 0.0, xba)
            Kt[a, b] -= nu
            Kt[a, a] += nu
        for b in nbrs + [a]:
            col = int(nodes.boundary_index[b])
            if col < 0:
                continue
            if smooth:
                nub = smax(-alphas[a] * B[a, col], 0.0, sg)
            else:
                nub = max(-alphas[a] * B[a, col], 0.0)
            Bt[a, col] += nub
            Kt[a, a] += nub
    return Kt, Bt


class TestDenseOracle:
    @pytest.mark.parametrize("mode", ["raw", "smoothed"])
    def test_criterion_10(self, mode):
        mesh = build_structured_quad(2, 2)
        nodes = build_dg_nodes(mesh)
        spec = ProblemSpec(
            beta=lambda x, y: (np.cos(BETA_ANGLE) * np.ones_like(x),
                               -np.sin(BETA_ANGLE) * np.ones_like(y)),
            mu=1e-2,
            g=lambda x, y: 0.3 + x - 2.0 * y,
            ubar=lambda x, y: 0.2 + 0.5 * x + 0.3 * y)
        kw = SMOOTHED_KW if mode == "smoothed" else {}
        params = StabilizationParams(mode=mode, **kw)
        prob = StabilizedProblem(mesh, nodes, spec, params)

        M, K, G, B = dense_assemble(mesh, nodes, spec)
        scale = np.abs(K).max()
        assert np.abs(prob.M.toarray() - M).max() <= 1e-13 * scale
        assert np.abs(prob.K.toarray() - K).max() <= 1e-13 * scale
        assert np.abs(prob.B.toarray() - B).max() <= 1e-13 * scale
        assert np.abs(prob.G - G).max() <= 1e-13 * scale

        rng = np.random.default_rng(5)
        u0 = rng.uniform(0.0, 1.0, nodes.n_nodes)
        ubar = prob.ubar_vec

        al = dense_alpha(mesh, nodes, u0, prob.trace, params, prob.scales)
        assert np.abs(prob.alpha(u0) - al).max() <= 1e-13

        Kt, Bt = dense_stabilized(mesh, nodes, K, B, al, params, prob.scales)
        res_dense = Kt @ u0 - G - Bt @ ubar
        res_pkg = prob.residual_steady(u0)
        ref = max(1.0, np.abs(res_dense).max())
        assert np.abs(res_pkg - res_dense).max() <= 1e-13 * ref

        # one Picard iteration: solve with viscosities lagged at u0
        u1_dense = np.linalg.solve(Kt, G + Bt @ ubar)
        u1_pkg, _ = picard(prob, u0=u0,
                           cfg=SolverConfig(tol=1e-300, max_iter=1))
        assert np.abs(u1_pkg - u1_dense).max() \
            <= 1e-13 * max(1.0, np.abs(u1_dense).max())

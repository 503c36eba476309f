"""Graph viscosity, stabilized operators, DMP audit and selective lumping."""

import numpy as np
import pytest
import scipy.sparse as sp

from dgmono import (ProblemSpec, StabilizationParams, audit_dmp,
                    build_dg_nodes, build_structured_quad, build_stabilized,
                    build_viscosity, cfl_bound, lumped_mass_apply)
from dgmono.assembly import interpolate_boundary
from dgmono.stabilization import PairTables, StabilizedProblem


def make_problem(n=5, mu=1e-3, mode="smoothed", mesh=None, **kw):
    mesh = mesh or build_structured_quad(n, n)
    nodes = build_dg_nodes(mesh)
    spec = ProblemSpec(beta=lambda x, y: (np.cos(np.pi / 3) * np.ones_like(x),
                                          -np.sin(np.pi / 3) * np.ones_like(y)),
                       mu=mu, ubar=lambda x, y: np.where(x < 1e-12, 1.0, 0.0))
    params = StabilizationParams(mode=mode, **kw)
    return StabilizedProblem(mesh, nodes, spec, params)


class TestPairTables:
    def test_tables_match_queries(self):
        prob = make_problem(3)
        nodes = prob.nodes
        t = prob.tables
        ref = {(a, int(b)) for a in range(nodes.n_nodes)
               for b in nodes.neighbors(a) if b > a}
        assert set(zip(t.pair_a.tolist(), t.pair_b.tolist())) == ref
        K = prob.K
        for i in range(0, len(t.pair_a), 17):
            a, b = t.pair_a[i], t.pair_b[i]
            assert t.K_ab[i] == K[a, b]
            assert t.K_ba[i] == K[b, a]

    def test_boundary_pairs(self):
        prob = make_problem(3)
        nodes = prob.nodes
        t = prob.tables
        ref = {(int(a), int(nodes.boundary_index[bn]))
               for bn in nodes.boundary_nodes for a in nodes.neighbors(bn)}
        assert set(zip(t.bpair_a.tolist(), t.bpair_col.tolist())) == ref


class TestViscosity:
    def test_raw_definition(self):
        prob = make_problem(4, mode="raw")
        rng = np.random.default_rng(0)
        u = rng.standard_normal(prob.nodes.n_nodes)
        al = prob.alpha(u)
        visc = prob.viscosity(u)
        t = prob.tables
        nu_ref = np.maximum.reduce([al[t.pair_a] * t.K_ab,
                                    np.zeros(len(t.pair_a)),
                                    al[t.pair_b] * t.K_ba])
        assert np.array_equal(visc.nu, nu_ref)
        nub_ref = np.maximum(-al[t.bpair_a] * t.B_ab, 0.0)
        assert np.array_equal(visc.nu_boundary, nub_ref)

    def test_smoothed_dominates_raw(self):
        prob_s = make_problem(4, mode="smoothed")
        prob_r = make_problem(4, mode="raw")
        rng = np.random.default_rng(1)
        u = rng.standard_normal(prob_s.nodes.n_nodes)
        al = prob_s.alpha(u)
        t = prob_s.tables
        vs = build_viscosity(t, al, prob_s.params, prob_s.scales,
                             prob_s.nodes.n_nodes)
        vr = build_viscosity(t, al, prob_r.params, prob_r.scales,
                             prob_r.nodes.n_nodes)
        assert np.all(vs.nu >= vr.nu)
        assert np.all(vs.nu_boundary >= vr.nu_boundary)
        assert np.all(vs.nu >= 0.0)

    def test_affine_states_zero_viscosity(self):
        # linearity preservation at the operator level (small version)
        prob = make_problem(4, mode="raw")
        rng = np.random.default_rng(2)
        for _ in range(5):
            c0, cx, cy = rng.standard_normal(3)
            xy = prob.nodes.coords
            u = c0 + cx * xy[:, 0] + cy * xy[:, 1]
            prob.trace = interpolate_boundary(
                prob.nodes, lambda x, y: c0 + cx * x + cy * y,
                prob.dirichlet_mask)
            visc = prob.viscosity(u)
            assert visc.is_zero
            assert np.all(visc.diag == 0.0)

    def test_diagonal_compensates(self):
        prob = make_problem(4)
        u = np.random.default_rng(3).standard_normal(prob.nodes.n_nodes)
        visc = prob.viscosity(u)
        n = prob.nodes.n_nodes
        lhs = visc.diag
        rhs = (np.bincount(visc.pair_a, weights=visc.nu, minlength=n)
               + np.bincount(visc.pair_b, weights=visc.nu, minlength=n)
               + np.bincount(visc.bpair_a, weights=visc.nu_boundary,
                             minlength=n))
        assert np.array_equal(lhs, rhs)


class TestStabilizedOperators:
    def test_row_sum_identity(self):
        prob = make_problem(5)
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = rng.standard_normal(prob.nodes.n_nodes)
            Kt, Bt = prob.operators(u)
            r = np.asarray(Kt.sum(axis=1)).ravel() \
                - np.asarray(Bt.sum(axis=1)).ravel()
            assert np.abs(r).max() <= 1e-12 * np.abs(Kt.toarray()).max()

    def test_sign_conditions_at_active_rows(self):
        for mode in ("raw", "smoothed"):
            prob = make_problem(5, mode=mode)
            rng = np.random.default_rng(5)
            for _ in range(10):
                u = rng.standard_normal(prob.nodes.n_nodes)
                al = prob.alpha(u)
                Kt, Bt = prob.operators(u)
                K = Kt.toarray()
                Bm = Bt.toarray()
                for a in np.flatnonzero(al >= 1.0):
                    row = K[a].copy()
                    row[a] = 0.0
                    assert np.all(row <= 0.0)
                    assert np.all(Bm[a] >= 0.0)

    def test_residual_matches_operators(self):
        prob = make_problem(4)
        u = np.random.default_rng(6).standard_normal(prob.nodes.n_nodes)
        Kt, Bt = prob.operators(u)
        ref = Kt @ u - prob.G - Bt @ prob.ubar_vec
        assert np.allclose(prob.residual_steady(u), ref, atol=1e-12)

    def test_build_stabilized_unchanged_when_zero(self):
        prob = make_problem(3, enabled=False)
        u = np.random.default_rng(7).standard_normal(prob.nodes.n_nodes)
        Kt, Bt = prob.operators(u)
        assert (Kt - prob.K).nnz == 0
        assert (Bt - prob.B).nnz == 0


class TestLumpedMass:
    def test_limits(self):
        prob = make_problem(3)
        n = prob.nodes.n_nodes
        w = np.random.default_rng(8).standard_normal(n)
        M, m = prob.M, prob.nodes.m
        consistent = lumped_mass_apply(M, m, np.zeros(n), 10.0, w)
        assert np.allclose(consistent, M @ w, atol=1e-14)
        lumped = lumped_mass_apply(M, m, np.ones(n), 10.0, w)
        assert np.allclose(lumped, m * w, atol=1e-14)

    def test_infinite_Q_lumps_only_at_one(self):
        prob = make_problem(3)
        n = prob.nodes.n_nodes
        w = np.ones(n)
        al = np.full(n, 0.999999)
        al[0] = 1.0
        out = lumped_mass_apply(prob.M, prob.nodes.m, al, np.inf, w)
        ref = prob.M @ w
        ref[0] = prob.nodes.m[0]
        assert np.allclose(out, ref, atol=1e-14)

    def test_blend_exponent(self):
        prob = make_problem(3)
        n = prob.nodes.n_nodes
        w = np.random.default_rng(9).standard_normal(n)
        al = np.full(n, 0.5)
        out = lumped_mass_apply(prob.M, prob.nodes.m, al, 2.0, w)
        ref = 0.75 * (prob.M @ w) + 0.25 * (w * prob.nodes.m)
        assert np.allclose(out, ref, atol=1e-13)


class TestCfl:
    def test_oracle(self):
        m = np.array([2.0, 4.0, 1.0])
        diag = np.array([1.0, -1.0, 4.0])
        assert cfl_bound(m, diag, 0.5) == pytest.approx(0.5)  # 1/(0.5*4)... min(2/0.5, 1/2)
        assert cfl_bound(m, diag, 1.0) == np.inf
        assert cfl_bound(m, -np.ones(3), 0.0) == np.inf


class TestAudit:
    def test_clean_operator(self):
        prob = make_problem(4)
        u = np.random.default_rng(10).standard_normal(prob.nodes.n_nodes)
        assert prob.audit(u) == []

    def test_flags_constructed_violations(self):
        n = 3
        K = sp.csr_matrix(np.array([[1.0, 0.5, -1.5],
                                    [-1.0, 2.0, -1.0],
                                    [0.0, -1.0, 1.0]]))
        B = sp.csr_matrix(np.array([[0.0], [0.0], [-0.2]]))
        alpha = np.array([1.0, 0.0, 1.0])
        report = audit_dmp(K, B, alpha)
        kinds = {(r["row"], r["condition"]) for r in report}
        assert (0, "K_offdiag") in kinds   # K[0,1] > 0 at alpha=1
        assert (2, "B_sign") in kinds      # B[2,0] < 0 at alpha=1
        assert any(c == "row_sum" for _, c in kinds)

    def test_row_sum_only_checked_globally(self):
        # balanced rows, no flagged alphas -> clean
        K = sp.csr_matrix(np.array([[1.0, -1.0], [-2.0, 2.0]]))
        B = sp.csr_matrix(np.zeros((2, 1)))
        assert audit_dmp(K, B, np.zeros(2)) == []

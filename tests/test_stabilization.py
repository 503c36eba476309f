"""Graph viscosity, stabilized operators, DMP audit and selective lumping."""

import numpy as np
import pytest
import scipy.sparse as sp

from dgmono import (Mesh, ProblemSpec, StabilizationParams, audit_dmp,
                    build_dg_nodes, build_structured_quad, build_viscosity,
                    cfl_bound, lumped_mass_apply, solve)
from dgmono.assembly import interpolate_boundary
from dgmono.detector import _branch_slope, _first_attaining, _term_slopes
from dgmono.stabilization import (StabilizedProblem, mass_blend,
                                  viscosity_slopes)

from .test_mesh import VALENCE3_CELLS, VALENCE3_VERTICES, perturbed_mesh


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
        visc, t = prob.viscosity(u), prob.tables
        n = prob.nodes.n_nodes
        lhs = visc.diag
        rhs = (np.bincount(t.pair_a, weights=visc.nu, minlength=n)
               + np.bincount(t.pair_b, weights=visc.nu, minlength=n)
               + np.bincount(t.bpair_a, weights=visc.nu_boundary,
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

        # theta-steps: the matrix-free residual is the assembled Picard
        # residual A u - rhs, on a uniform and a jittered mesh
        for mesh in (None, perturbed_mesh(4, 4, seed=11)):
            prob = make_problem(4, mesh=mesh)
            rng = np.random.default_rng(12)
            u, u_old = rng.uniform(0.0, 1.0, (2, prob.nodes.n_nodes))
            for theta in (1.0, 0.5):
                A, rhs = prob.linearize(u, 1e-2, u_old, theta).system
                ref = A @ u - rhs
                res = prob.residual_transient(u, u_old, 1e-2, theta)
                assert np.linalg.norm(res - ref) \
                    <= 1e-12 * np.linalg.norm(ref)

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


def audit_dmp_rowwise(Ktilde, Btilde, alpha, rel_tol=1e-12):
    """The per-row audit: row sums, then for each alpha == 1 row its
    K_tilde and B_tilde sign violations read with getrow."""
    report = []
    tol = rel_tol * max(np.abs(Ktilde).max(), 1e-300)
    rowsum = np.asarray(Ktilde.sum(axis=1)).ravel() - \
        np.asarray(Btilde.sum(axis=1)).ravel()
    for a in np.flatnonzero(np.abs(rowsum) > tol):
        report.append({"row": int(a), "condition": "row_sum",
                       "magnitude": float(abs(rowsum[a]))})
    Kc, Bc = Ktilde.tocsr(), Btilde.tocsr()
    for a in np.flatnonzero(alpha >= 1.0):
        row = Kc.getrow(a)
        for j, v in zip(row.indices, row.data):
            if j != a and v > tol:
                report.append({"row": int(a), "condition": "K_offdiag",
                               "magnitude": float(v)})
        row = Bc.getrow(a)
        for j, v in zip(row.indices, row.data):
            if v < -tol:
                report.append({"row": int(a), "condition": "B_sign",
                               "magnitude": float(-v)})
    return report


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

    def test_alpha_length_checked(self):
        K = sp.csr_matrix(np.eye(3))
        B = sp.csr_matrix(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="alpha has 2 entries"):
            audit_dmp(K, B, np.ones(2))

    def test_row_sum_only_checked_globally(self):
        # balanced rows, no flagged alphas -> clean
        K = sp.csr_matrix(np.array([[1.0, -1.0], [-2.0, 2.0]]))
        B = sp.csr_matrix(np.zeros((2, 1)))
        assert audit_dmp(K, B, np.zeros(2)) == []

    def test_matches_rowwise_audit(self):
        # random operators with K_offdiag, B_sign and row_sum violations
        # planted on alpha == 1 and alpha < 1 rows
        rng = np.random.default_rng(12)
        n, nb = 30, 6
        K = -np.abs(rng.standard_normal((n, n))) * (rng.uniform(
            size=(n, n)) < 0.3)
        B = np.abs(rng.standard_normal((n, nb))) * (rng.uniform(
            size=(n, nb)) < 0.5)
        alpha = rng.uniform(0.0, 0.9, n)
        alpha[rng.permutation(n)[:15]] = 1.0
        on, off = np.flatnonzero(alpha >= 1.0), np.flatnonzero(alpha < 1.0)
        for rows in (on[:8], off[:8]):
            K[rows, (rows + 1) % n] = rng.uniform(0.1, 1.0, 8)
            K[rows, (rows + 2) % n] = rng.uniform(0.1, 1.0, 8)
            B[rows, rows % nb] = -rng.uniform(0.1, 1.0, 8)
        np.fill_diagonal(K, 0.0)
        np.fill_diagonal(K, B.sum(axis=1) - K.sum(axis=1))
        K[[on[9], off[9]], [on[9], off[9]]] += [1e-3, -2e-3]
        Kt, Bt = sp.csr_matrix(K), sp.csr_matrix(B)
        report = audit_dmp(Kt, Bt, alpha)
        assert report == audit_dmp_rowwise(Kt, Bt, alpha)
        seen = {(r["condition"], alpha[r["row"]] >= 1.0) for r in report}
        assert seen == {("K_offdiag", True), ("B_sign", True),
                        ("row_sum", True), ("row_sum", False)}
        assert len(report) == 2 + 16 + 8


# -- the COO assembly that the fixed node pattern replaced, kept as oracle ---

def coo_operators(prob, visc):
    """(K_tilde, B_tilde) by COO -> CSR and sparse addition."""
    K, B, t = prob.K, prob.B, prob.tables
    n = K.shape[0]
    rows = np.concatenate([t.pair_a, t.pair_b, np.arange(n)])
    cols = np.concatenate([t.pair_b, t.pair_a, np.arange(n)])
    vals = np.concatenate([-visc.nu, -visc.nu, visc.diag])
    D = sp.coo_matrix((vals, (rows, cols)), shape=K.shape).tocsr()
    nu_b = sp.coo_matrix((visc.nu_boundary, (t.bpair_a, t.bpair_col)),
                         shape=B.shape).tocsr()
    return (K + D).tocsr(), (B + nu_b).tocsr()


def coo_mass(prob, alpha):
    blend = mass_blend(alpha, prob.params.Q)
    return sp.diags(1.0 - blend) @ prob.M + sp.diags(blend * prob.nodes.m)


def coo_system(state):
    prob = state.problem
    Kt, Bt = coo_operators(prob, state.visc)
    if state.dt is None:
        return Kt, prob.rhs(Bt)
    dt, theta, u_old = state.dt, state.theta, state.u_old
    Mt = coo_mass(prob, state.alpha)
    A = (Mt / dt + theta * Kt).tocsc()
    rhs = Mt @ u_old / dt - (1.0 - theta) * (Kt @ u_old) \
        + prob.G + Bt @ prob.ubar_vec
    return A, rhs


def coo_dalpha(state):
    """d alpha/du from (term, column, value) triplets and COO -> CSR."""
    det, prob = state.detector, state.problem
    n, params, scales = prob.nodes.n_nodes, prob.params, prob.scales
    if not params.enabled:
        return sp.csr_matrix((n, n))
    topo = prob.nodes.pair_topology()
    hi, *lo = det.branches
    slope = _branch_slope(topo, hi, params, scales, n)
    choice = _first_attaining(topo, det.cand, det.sides[0])
    if lo:
        on_lo = lo[0].alpha > hi.alpha
        slope = np.where(on_lo[topo.term_idx],
                         _branch_slope(topo, lo[0], params, scales, n), slope)
        choice = np.where(on_lo[topo.reg_a],
                          _first_attaining(topo, det.cand, det.sides[1]),
                          choice)
    pa, pb = prob.nodes.adjacency_pairs()
    n_pair, n_reg = len(pa), len(topo.reg_a)
    r_pair = np.arange(n_pair)
    r_sym = n_pair + np.arange(n_reg)
    r_dgs = n_pair + n_reg + np.arange(len(topo.dg_a))
    rows = np.concatenate([r_pair, r_pair, np.repeat(r_sym, 4), r_sym,
                           r_dgs, r_dgs])
    cols = np.concatenate([pb, pa, topo.cand_nodes[choice].ravel(),
                           topo.reg_a, topo.dg_a, topo.dg_b])
    fixed, sym = _term_slopes(topo, det.u, det.trace, params, scales, choice,
                              slope)
    # back to the flat (term, column) layout of the triplets
    k = 2 * n_pair
    vals = np.concatenate([fixed[:k], sym.ravel(), fixed[k:]])
    return sp.coo_matrix((vals, (topo.term_idx[rows], cols)),
                         shape=(n, n)).tocsr()


def coo_jacobian(state):
    prob, s, t = state.problem, state.s, state.problem.tables
    dalpha = coo_dalpha(state)
    Kt = coo_operators(prob, state.visc)[0]
    d_a, d_b, d_bd = viscosity_slopes(t, state.alpha, prob.scales)
    ds = s[t.pair_a] - s[t.pair_b]
    dsb = s[t.bpair_a] - prob.ubar_vec[t.bpair_col]
    rows = np.concatenate([t.pair_a, t.pair_a, t.pair_b, t.pair_b,
                           t.bpair_a])
    cols = np.concatenate([t.pair_a, t.pair_b, t.pair_a, t.pair_b,
                           t.bpair_a])
    vals = np.concatenate([ds * d_a, ds * d_b, -ds * d_a, -ds * d_b,
                           dsb * d_bd])
    C = sp.coo_matrix((vals, (rows, cols)), shape=Kt.shape).tocsr()
    if state.dt is None:
        return (Kt + C @ dalpha).tocsc()
    Q = prob.params.Q
    w = state.u - state.u_old
    with np.errstate(divide="ignore", invalid="ignore"):
        d_blend = Q * state.alpha**(Q - 1.0)
    d_blend[~np.isfinite(d_blend)] = 0.0
    C = C + sp.diags((prob.nodes.m * w - prob.M @ w) * d_blend / state.dt)
    return (coo_mass(prob, state.alpha) / state.dt
            + state.theta * (Kt + C @ dalpha)).tocsc()


def canonical(X):
    """X as CSR with sorted indices and no stored zeros (a copy)."""
    X = sp.csr_matrix(X, copy=True)
    X.sum_duplicates()
    X.eliminate_zeros()
    return X


def assert_bitwise(got, want):
    g, w = canonical(got), canonical(want)
    assert np.array_equal(g.indptr, w.indptr)
    assert np.array_equal(g.indices, w.indices)
    assert np.array_equal(g.data, w.data)


def assert_close(got, want, rtol=1e-14, structure=True):
    g, w = canonical(got), canonical(want)
    scale = max(np.abs(w.data).max(initial=0.0), 1e-300)
    assert abs(g - w).max() <= rtol * scale
    if structure:
        assert np.array_equal(g.indptr, w.indptr)
        assert np.array_equal(g.indices, w.indices)


FIXED_PATTERN_MESHES = {
    "uniform": lambda: build_structured_quad(6, 6),
    "jittered": lambda: perturbed_mesh(6, 6, scale=0.2, seed=5),
    "valence3": lambda: Mesh(VALENCE3_VERTICES, VALENCE3_CELLS),
}
FIXED_PATTERN_MODES = {
    "smoothed": {},
    "raw": {"mode": "raw"},
    "disabled": {"enabled": False},
}
FIXED_PATTERN_STEPS = {"steady": None, "backward-euler": (1e-2, 1.0),
                       "crank-nicolson": (1e-2, 0.5)}


class TestFixedPattern:
    """The per-iterate matrices filled into the node pattern against the
    COO assembly: bitwise where the summation order is kept (K_tilde,
    B_tilde, M_tilde, the Picard system), to 1e-14 where it changed
    (d alpha/du, J), and with the same structure once zeros are dropped."""

    @pytest.fixture(params=[(m, k, t) for m in FIXED_PATTERN_MESHES
                            for k in FIXED_PATTERN_MODES
                            for t in FIXED_PATTERN_STEPS],
                    ids=lambda p: "-".join(p))
    def state(self, request):
        mesh, mode, step = request.param
        prob = make_problem(mu=1e-3, mesh=FIXED_PATTERN_MESHES[mesh](),
                            **FIXED_PATTERN_MODES[mode])
        rng = np.random.default_rng(21)
        u, u_old = rng.uniform(0.0, 1.0, (2, prob.nodes.n_nodes))
        if FIXED_PATTERN_STEPS[step] is None:
            return prob.linearize(u)
        dt, theta = FIXED_PATTERN_STEPS[step]
        return prob.linearize(u, dt, u_old, theta)

    def test_operators_bitwise(self, state):
        Kt, Bt = state.operators
        Kc, Bc = coo_operators(state.problem, state.visc)
        assert_bitwise(Kt, Kc)
        assert_bitwise(Bt, Bc)
        # B_tilde's stored columns are its nonzeros, as before
        assert np.array_equal(Bt.indices, Bc.indices)
        assert Kt.nnz == state.problem.nodes.pattern().nnz

    def test_mass_bitwise(self, state):
        assert_bitwise(state.mass, coo_mass(state.problem, state.alpha))

    def test_system_bitwise(self, state):
        A, rhs = state.system
        Ac, rhs_c = coo_system(state)
        assert_bitwise(A, Ac)
        assert np.array_equal(rhs, rhs_c)
        # so is the Picard residual the solvers read
        assert np.array_equal(A @ state.u - rhs, Ac @ state.u - rhs_c)

    def test_jacobian_close(self, state):
        if state.problem.params.mode == "raw":
            with pytest.raises(ValueError, match="smoothed"):
                state.jacobian
            return
        assert_close(state.detector.jacobian(), coo_dalpha(state),
                     structure=False)
        assert_close(state.jacobian, coo_jacobian(state))

    def test_lu_sees_the_numeric_structure(self, state, monkeypatch):
        """solve_linear drops the stored zeros of the pattern before SuperLU
        orders the matrix, and leaves its argument as it was."""
        seen = []

        class Spla:
            @staticmethod
            def splu(A, **kw):
                seen.append(A.copy())
                return sp.linalg.splu(A, **kw)

        monkeypatch.setattr(solve, "spla", Spla)
        A, rhs = state.system
        before = A.nnz
        solve.solve_linear(A, rhs)
        assert A.nnz == before
        want = coo_system(state)[0].tocsc()
        assert np.array_equal(seen[0].indptr, want.indptr)
        assert np.array_equal(seen[0].indices, want.indices)
        assert np.array_equal(seen[0].data, want.data)
